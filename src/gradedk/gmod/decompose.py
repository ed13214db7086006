"""Krull-Schmidt decomposition and graded isomorphism testing.

Every indecomposable graded projective over A is a shift Q(g) of some
Q = eA, e a primitive idempotent of A_0 (End_gr(A)_0 = A_0; graded
Krull-Schmidt, Nastasescu-Van Oystaeyen, LNM 1836, 2004).  So each
algebra keeps one class table, built by :func:`_registry` on first use
and kept in ``A._registry``: ``classes[block id]`` holds one
:class:`_ClassInfo` per class, and ``count(P)`` gives P's summands as
{(block id, shift): multiplicity}.  The table has three sources:

* a matrix algebra M_n(F)(s), as its ``matrix_seed`` names it: one
  class, e11 A, with trivial stabilizer; A(0) is the sum of the
  e_ii A = e11 A(s_1 - s_i).  A regrading along phi is M_n(F)(phi(s))
  (graded Morita), so ``forget`` and ``regrade_mod`` of a matrix algebra
  are seeded too when phi maps every shift to one degree;
* a group algebra of the grading group: one class, A, whose stabilizer
  is the whole group;
* any other finite-support algebra: one split of A(0) into primitive
  idempotents of A_0.  Its blocks give the classes; summands of one
  block are isomorphic, those of different blocks are not at shift 0,
  and a later block that pairs nonzero with an earlier class at some
  g != 0 is that class, shifted (``match``).

P is counted by the composition pairing (after Auslander-Reiten-Smalo,
*Representation Theory of Artin Algebras*, 1995).  With D = End(Q)_0/J
and lambda a functional on End(Q)_0 that is zero on J and nonzero at e,
the multiplicity of Q(g) in P is rank [lambda(v u)] / dim D, for u over
a basis of Hom(Q(g), P)_0 and v over one of Hom(P, Q(g))_0: a composite
through a summand not isomorphic to Q(g) lies in J, and (a, b) ->
lambda(ab) is nondegenerate on D.  No hom space is built: the rank is
read from P's own component at -g against mu(x) = lambda(e x e)
(``_rank``).  A seeded class reads lambda as the coordinate of e, with
D = F; a split class reads it from a coordinate of the split's radical
quotient, and dim D from the block sizes.  Shifts are tried where both
Hom spaces can be nonzero, modulo the stabilizer {g : Q(g) = Q}, which
the same pairing decides.  A free module is read off the table's count
of A(0); every other count must pass the dimension identity (sum of m
dim Q(g)_h = dim P_h at each support degree h) or raises SplitError.

An infinite-support algebra with an N-supported leading coordinate
(:class:`_Induction`) counts each slice of P against the zero part's
table and lifts classes back along the induction functor, a bijection
on classes: labels are (zero-part class, full shift).

Class identities are (block id, shift modulo the class stabilizer); two
presentations are isomorphic iff their class multisets agree.  Block ids
come from the table alone, not from what was decomposed first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm

from .. import _kernel
from ..algebra import GradedAlgebra, GroupAlgebraA
from ..grading import Subgroup
from .endos import hom_basis, split_projective
from .presentations import (
    PresentationError,
    ProjectivePresentation,
    SplitError,
    hom_table,
    identity_entries,
    regular_module,
    relabel,
    restrict_rows,
)
from .swan import functor_S, functor_T


class UnsupportedAlgebra(ValueError):
    """Decomposition over this constructor is outside the supported family."""


def module_support_degrees(X: ProjectivePresentation):
    """Degrees where a finite-support module can be nonzero, with dims."""
    A = X.algebra
    cand = set()
    for d in A.support_degrees():
        for s in X.shifts:
            cand.add(d - s)
    out = {}
    for h in sorted(cand, key=lambda d: d.values):
        n = X.dim(h)
        if n:
            out[h] = n
    return out


def indec_iso(X: ProjectivePresentation, Y: ProjectivePresentation) -> bool:
    """Exact isomorphism test for indecomposable finite-support modules.

    X and Y (with local endomorphism rings) are isomorphic iff some
    composite v o u with u: X -> Y, v: Y -> X is invertible; a sum of
    non-invertible composites stays in the radical, so testing basis
    pairs is complete.  Each v o u is taken in the table of End(F)_0, F
    the free module on X's shifts, and lies in End(X)_0.  That algebra
    is local, so its non-units form its radical, which is nilpotent of
    index at most dim End(X)_0 <= n, the number of raw positions.  So
    v o u is a unit exactly when its 2^k-th power, k = ceil(log2(n + 1)),
    taken by k squarings, is not zero.
    """
    if X.algebra is not Y.algebra:
        raise PresentationError("isomorphism test needs one common algebra")
    dX = module_support_degrees(X)
    dY = module_support_degrees(Y)
    if dX != dY:
        return False
    if not dX:
        return True
    A = X.algebra
    sx, sy = X.shifts, Y.shifts
    us, vs = hom_basis(X, Y), hom_basis(Y, X)
    compose = hom_table(A, sx, sy, sx)
    square = hom_table(A, sx, sx, sx)
    squarings = square.out_dim.bit_length()
    for u in us:
        for v in vs:
            c = compose(v, u)
            for _ in range(squarings):
                c = square(c, c)
            if any(c):
                return True
    return False


@dataclass(eq=False)
class _ClassInfo:
    """One class of indecomposables: its representative Q = eA at shift
    zero, its stabilizer {g : Q(g) = Q} and a registration-order-independent
    signature that orders K0 bases.  A class of a table also keeps what
    its pairing reads: ``weights``, lambda as a vector on the coordinates
    of A_0 = End(A)_0, ``division_dim``, dim D, and ``_mu``, (weights, mu) of ``_rank``."""

    _rep: object  # a presentation, or a function building it on first read
    stabilizer: Subgroup
    signature: tuple
    weights: list = None
    division_dim: int = 1
    _mu: tuple = None

    @property
    def rep(self) -> ProjectivePresentation:
        if callable(self._rep):
            self._rep = self._rep()
        return self._rep


class _FiniteRegistry:
    """The class table of an algebra with finitely many classes up to
    shift, seeded by its constructor or read from the split of A(0)."""

    def __init__(self, algebra, classes, regular):
        self.algebra = algebra
        self.classes = list(classes)
        self.support = algebra.support_degrees() if algebra.finite_support() else None
        self.regular = regular  # A(0)'s count, which ``count`` reads free modules off

    @classmethod
    def from_split(cls, A):
        """The table of a finite-support algebra, read from one split of
        A(0) with a fixed seed."""
        table = cls(A, [], {})
        split = split_projective(regular_module(A), random.Random(0))
        units = _kernel.identity(A.component_dim(A.group.zero), A.field.char)
        keys = {}  # split block -> class key of its summands
        for X, blk in split:
            key = keys.get(blk)
            if key is None:
                # lambda: the first coordinate of E/J where the block's e is nonzero
                e = split.project(X.entries[0][0].coords)
                c = next(i for i, x in enumerate(e) if x)
                weights = [split.project(u)[c] for u in units]
                key = keys[blk] = table.match(
                    X, set(keys.values()), weights, split.division_dims[blk]
                )
            table.regular[key] = table.regular.get(key, 0) + 1
        return table

    def match(self, X, taken, weights, division_dim) -> tuple:
        """(block id, shift) with X, an indecomposable, isomorphic to
        rep(shift): the first class that pairs nonzero with X at a shift.
        ``taken`` holds keys known not to be X's, which are skipped.
        When nothing matches, X starts a class at shift 0 with the
        functional ``weights`` and dim D ``division_dim`` of its block."""
        for blk, info in enumerate(self.classes):
            for g in self._shifts(info, X):
                if (blk, g) not in taken and self._rank(info, g, X):
                    return blk, g
        # the signature: X's dimension profile from its lex-min support degree
        dims = module_support_degrees(X)
        a = min(dims, key=lambda d: d.values)
        signature = ("profile", tuple(sorted(((h - a).values, n) for h, n in dims.items())))
        group = self.algebra.group
        info = _ClassInfo(X, Subgroup.trivial(group), signature, weights, division_dim)
        stab = [g for g in self._shifts(info, X) if g.is_zero() or self._rank(info, g, X)]
        info.stabilizer = Subgroup.from_degrees(group, stab)
        self.classes.append(info)
        return len(self.classes) - 1, group.zero

    def _shifts(self, info, P):
        """The shifts g, modulo the stabilizer, at which Hom(Q(g), P)_0
        and Hom(P, Q(g))_0 can both be nonzero: some s - g and some g - s'
        lie in the support, for shifts s, s' of P (0 alone for a trivial group)."""
        if self.algebra.group.is_trivial():
            return {self.algebra.group.zero}
        stab = info.stabilizer
        if self.support is None:
            return {stab.reduce(r) for r in stab.coset_representatives()}
        into = {stab.reduce(s - d) for s in P.shifts for d in self.support}
        return into & {stab.reduce(s + d) for s in P.shifts for d in self.support}

    def _rank(self, info, g, P) -> int:
        """rank [mu(y w)] with Q = eA and mu(x) = lambda(e x e), for w over
        the basis of P_{-g} and y over the unit vectors of each A_{-d}, d a
        block degree of P_{-g}: the w e span Hom(Q(g), P)_0, the e y E span
        Hom(P, Q(g))_0, and v u = e y w e.  Read on ints, the form of block d
        from the pair tensor (-d, d); scaling a row or column keeps the rank."""
        space = P.space(-g)
        if not space.dim:
            return 0
        A = self.algebra
        if info._mu is None or info._mu[0] is not info.weights:
            pt, e = A.pair_tensor(A.group.zero, A.group.zero), info.rep.entries[0][0].coords
            mu = [sum(w * x for w, x in zip(info.weights, pt(pt(e, u), e)))
                  for u in _kernel.identity(pt.out_dim, A.field.char)]
            den = lcm(*(x.denominator for x in mu))
            info._mu = (info.weights, [int(x * den) for x in mu])
        mu = info._mu[1]
        basis, _den = space.basis_rows()
        rows = []
        for d, off, n in zip(space.block_degrees, space.offsets, space.block_dims):
            if n:
                form = [[sum(mu[k] * c for k, c in y.get(b, ())) for b in range(n)]
                        for y in A.pair_tensor(-d, d).rows.values()]
                rows += _kernel.int_mul(form, basis[off : off + n])
        return len(_kernel.rref_int(rows, A.field.char)[1])

    def count(self, P) -> dict:
        """P's summands: a free P read off A(0)'s count, else paired."""
        out = {}
        if P.entries == identity_entries(P.algebra, P.shifts):
            for s in P.shifts:
                for (blk, g), m in self.regular.items():
                    out[(blk, g + s)] = out.get((blk, g + s), 0) + m
            return out
        for blk, info in enumerate(self.classes):
            for g in self._shifts(info, P):
                m = self._rank(info, g, P) // info.division_dim
                if m:
                    out[(blk, g)] = m
        # the gate: the dimension identity at every support degree of P,
        # or at zero and the generators when the support is infinite
        group = self.algebra.group
        degrees = [group.zero] + group.generators()
        if self.support is not None:
            degrees = {d - s for d in self.support for s in P.shifts}
        for h in degrees:
            total = sum(m * self.classes[blk].rep.dim(g + h) for (blk, g), m in out.items())
            if total != P.dim(h):
                raise SplitError(
                    f"class count: the summands have dimension {total} at degree {h}, "
                    f"the module {P.dim(h)}"
                )
        return out


class _Induction:
    """Reduction along an N-supported leading coordinate, through the
    zero part's reduction."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.classes = {}  # zero-part block id -> its record, induced

    def count(self, P) -> dict:
        A = self.algebra
        Az = A.zero_part()
        tp = functor_T(P)
        slices = {}
        for i, s in enumerate(P.shifts):
            slices.setdefault(s.values[0], []).append(i)
        out = {}
        for w, rows in sorted(slices.items()):
            block = restrict_rows(tp, rows)
            if block.is_zero():
                continue
            # the slice over the residual zero-part algebra
            zpres = relabel(block, Az, lambda d: Az.group.degree(d.values[1:]))
            inner = _registry(Az)
            for (blk, g), m in inner.count(zpres).items():
                if blk not in self.classes:
                    self.classes[blk] = self._induced(inner.classes[blk])
                key = (blk, A.group.degree((w,) + g.values))
                out[key] = out.get(key, 0) + m
        return out

    def _induced(self, info):
        A = self.algebra
        return _ClassInfo(
            lambda: lift_from_zero_part(A, info.rep),
            info.stabilizer.prepend_free(1),
            ("restrict",) + info.signature,
        )


def _registry(A):
    """The reduction of A, chosen by constructor and built on first use."""
    if A._registry is None:
        z = A.group.zero
        seed = A.matrix_seed()
        if seed is not None:
            # e_ii A = e11 A(s_1 - s_i), so A(0) is the sum of those columns
            shifts, label = seed
            e11 = A.basis_element(z, A.component_basis(z).index(label))
            column = ProjectivePresentation(A, (z,), [[e11]], check=False)
            regular = {(0, shifts[0] - s): shifts.count(s) for s in shifts}
            reduction = _FiniteRegistry(A, [_ClassInfo(
                column, Subgroup.trivial(A.group), ("matrix-column",), list(e11.coords)
            )], regular)
        elif isinstance(A, GroupAlgebraA):
            reduction = _FiniteRegistry(A, [_ClassInfo(
                regular_module(A), Subgroup.full(A.group), ("free",), list(A.one().coords)
            )], {(0, z): 1})
        elif A.finite_support():
            reduction = _FiniteRegistry.from_split(A)
        elif A.positively_supported():
            reduction = _Induction(A)
        else:
            raise UnsupportedAlgebra(
                f"decomposition over {A.describe()} needs finite support or an "
                "N-supported leading coordinate"
            )
        A._registry = reduction
    return A._registry


def class_info(A: GradedAlgebra, block: int) -> _ClassInfo:
    """The record of a class id that a decomposition over A returned:
    ``rep`` (the indecomposable at shift zero), ``stabilizer``
    {g : rep(g) = rep} and ``signature`` (a registration-order-independent
    invariant, used to order K0 bases canonically)."""
    return _registry(A).classes[block]


def lift_from_zero_part(A: GradedAlgebra, X: ProjectivePresentation) -> ProjectivePresentation:
    """Induction of X, a presentation over the zero part of A: X read
    over the embedded zero part (leading coordinate 0), then in A."""
    q = relabel(X, A.zero_part_embedded(), lambda d: A.group.degree((0,) + d.values))
    return functor_S(q, A)


def summand_classes(P: ProjectivePresentation) -> dict:
    """Canonical class multiset: (block, shift mod class stabilizer) -> mult.

    Computed once per presentation and kept in ``P._derived``; a caller
    gets a copy.  The count reads only the class table, whose one random
    split (of A(0)) has a fixed seed."""
    if P.rank == 0 or P.is_zero():
        return {}
    hit = P._derived.get("classes")
    if hit is None:
        reduction = _registry(P.algebra)
        hit = {}
        for (blk, g), m in reduction.count(P).items():
            key = (blk, reduction.classes[blk].stabilizer.reduce(g))
            hit[key] = hit.get(key, 0) + m
        P._derived["classes"] = hit
    return dict(hit)


def decompose(P: ProjectivePresentation):
    """Indecomposable summands with multiplicity, canonically ordered."""
    classes = summand_classes(P)
    items = sorted(classes.items(), key=lambda kv: (kv[0][1].values, kv[0][0]))
    return [(class_info(P.algebra, blk).rep.shift(g), m) for (blk, g), m in items]


def graded_iso(P: ProjectivePresentation, Q: ProjectivePresentation, seed=None) -> bool:
    """Isomorphism of graded modules via equality of class multisets;
    ``seed`` is unused, and stays because the perfbench workloads pass one."""
    if P.algebra is not Q.algebra:
        raise PresentationError("graded_iso needs one common algebra")
    return summand_classes(P) == summand_classes(Q)
