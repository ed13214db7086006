"""Krull-Schmidt decomposition and graded isomorphism testing.

One reduction per algebra, chosen by constructor in :func:`_registry`
and kept in ``A._registry``.  Its ``count(P, rng)`` gives the summands
of P as {(block id, shift): multiplicity}, and ``classes[block id]`` is
one :class:`_ClassInfo` per class:

* matrix algebras: one class, the first column module; the multiplicity
  of column(g) is the rank against the first column idempotent in
  degree -g;
* group algebras of the grading group: one class, the regular module;
  they are strongly graded with simple degree components, so every
  graded projective is free;
* finite-support algebras (:class:`_FiniteRegistry`): split End(P)_0 into
  primitive idempotents and match the summands against the classes
  registered so far (shift alignment by support translation, then an
  exact pairing test).  The split tags each summand with its simple
  block of End(P)_0/J, and summands are matched once per block: eP and
  fP are isomorphic at shift 0 exactly when e and f lie in one block
  (Wedderburn: a simple block is a matrix algebra, whose primitive
  idempotents are conjugate, while a map between different blocks
  composes into the radical).  So every summand of a block gets its
  block's key, and a block never tests the keys other blocks of its
  split already hold -- though it can still be a nonzero shift of one
  of their classes;
* infinite support with an N-supported leading coordinate
  (:class:`_Induction`): restrict to the zero part, count slice by slice
  with the zero part's reduction, and lift classes back along the
  induction functor (the correspondence is a bijection on classes, so
  labels are (zero-part class, full shift), and each record is the zero
  part's, induced).

Class identities are (block id, shift modulo the class stabilizer);
two presentations are isomorphic iff their class multisets agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .. import _kernel
from ..algebra import GradedAlgebra, GroupAlgebraA, MatrixAlgebra
from ..grading import Subgroup
from .endos import hom_basis, split_projective
from .presentations import (
    PresentationError,
    ProjectivePresentation,
    hom_table,
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
    """One class of indecomposables: its representative at shift zero,
    its stabilizer {g : rep(g) = rep} and a registration-order-independent
    signature that orders K0 bases.  A finite-support class also keeps
    what matching reads: its shift-normalized dimension profile, its
    anchor (lex-min support degree of rep) and the translation symmetries
    of the profile."""

    _rep: object  # a presentation, or a function building it on first read
    stabilizer: Subgroup
    signature: tuple
    dim_profile: dict = None
    anchor: object = None
    symmetries: list = None

    @property
    def rep(self) -> ProjectivePresentation:
        if callable(self._rep):
            self._rep = self._rep()
        return self._rep


class _FiniteRegistry:
    """Classes of indecomposables over one finite-support algebra, in
    the order they were first met."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.classes = []

    @staticmethod
    def _profile(X):
        """(support dims, anchor, anchored profile) of X."""
        dims = module_support_degrees(X)
        if not dims:
            return dims, None, None
        anchor = min(dims, key=lambda d: d.values)
        prof = {(h - anchor): n for h, n in dims.items()}
        return dims, anchor, prof

    @staticmethod
    def _profile_symmetries(dims):
        """Translation symmetries of a finite dimension function."""
        degrees = list(dims)
        base = degrees[0]
        candidates = {d - base for d in degrees}
        sym = []
        for delta in candidates:
            shifted = {}
            for h, n in dims.items():
                shifted[h - delta] = n
            if shifted == dims:
                sym.append(delta)
        return sym

    def match(self, X, taken) -> tuple:
        """(block id, shift) with X isomorphic to rep(shift); registers a
        new class when nothing matches.  ``taken`` holds keys already
        given to summands known not to be isomorphic to X; those
        candidates are skipped without a test."""
        dims, anchor, prof = self._profile(X)
        if prof is None:
            raise PresentationError("cannot match a zero module")
        for blk, info in enumerate(self.classes):
            if len(dims) != len(info.dim_profile):
                continue
            # X ~ rep(shift): support(rep(shift)) = support(rep) - shift,
            # so some degree a of X's support is the image of the class
            # anchor.  A torsion shift need not keep the lex-min anchor,
            # so every a is tried, X's own anchor first.
            a = next(
                (
                    a
                    for a in (anchor, *dims)
                    if {h - a: n for h, n in dims.items()} == info.dim_profile
                ),
                None,
            )
            if a is None:
                continue
            base = info.anchor - a
            for delta in info.symmetries:
                shift = base + delta
                if (blk, shift) in taken:
                    continue
                if indec_iso(X, info.rep.shift(shift)):
                    return blk, shift
        # new class
        sym = self._profile_symmetries(dims)
        stab_elems = [d for d in sym if d.is_zero() or indec_iso(X.shift(d), X)]
        stabilizer = Subgroup.from_degrees(self.algebra.group, stab_elems)
        signature = ("profile", tuple(sorted((d.values, n) for d, n in prof.items())))
        self.classes.append(_ClassInfo(X, stabilizer, signature, prof, anchor, sym))
        return len(self.classes) - 1, self.algebra.group.zero

    def count(self, P, rng) -> dict:
        keys = {}  # split block -> class key of its summands
        out = {}
        for summand, blk in split_projective(P, rng):
            key = keys.get(blk)
            if key is None:
                key = keys[blk] = self.match(summand, set(keys.values()))
            out[key] = out.get(key, 0) + 1
        return out


class _ClosedForm:
    """One class, block 0, counted by a closed rule ``count(P, rng)``."""

    def __init__(self, count, rep, stabilizer, signature):
        self.count = count
        self.classes = [_ClassInfo(rep, stabilizer, signature)]


class _Induction:
    """Reduction along an N-supported leading coordinate, through the
    zero part's reduction."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.classes = {}  # zero-part block id -> its record, induced

    def count(self, P, rng) -> dict:
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
            for (blk, g), m in inner.count(zpres, rng).items():
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
        if isinstance(A, MatrixAlgebra):
            z = A.group.zero
            e11 = A.basis_element(z, A.component_basis(z).index((0, 0)))
            column = ProjectivePresentation(A, (z,), [[e11]], check=False)
            reduction = _ClosedForm(
                _matrix_count, column, Subgroup.trivial(A.group), ("matrix-column",)
            )
        elif isinstance(A, GroupAlgebraA):
            reduction = _ClosedForm(
                _group_algebra_count, regular_module(A), Subgroup.full(A.group), ("free",)
            )
        elif A.finite_support():
            reduction = _FiniteRegistry(A)
        elif A.positively_supported():
            reduction = _Induction(A)
        else:
            raise UnsupportedAlgebra(
                f"decomposition over {A.describe()} needs finite support or an "
                "N-supported leading coordinate"
            )
        A._registry = reduction
    return A._registry


def _matrix_count(P: ProjectivePresentation, _rng) -> dict:
    """Column-module shifts for presentations over a matrix algebra:
    multiplicity of column(g) is the rank against the first matrix
    column in degree -g."""
    A = P.algebra
    char = A.field.char
    cand = set()
    for i, s in enumerate(P.shifts):
        for d in A.support_degrees():
            # ambient block i contains a first-column unit at degree d
            cand.add(d - s)
    out = {}
    for h in cand:
        sp = P.space(h)
        cols = []
        off = 0
        for blk, bdeg in enumerate(sp.block_degrees):
            basis = A.component_basis(bdeg)
            for b, lbl in enumerate(basis):
                if lbl[1] == 0:  # first-column matrix units
                    cols.append(off + b)
            off += sp.block_dims[blk]
        if not cols or sp.ambient_dim == 0:
            continue
        sub = [[row[c] for c in cols] for row in sp.matrix]
        r = _kernel.rank(sub, char) if sub else 0
        if r:
            out[(0, -h)] = r
    # the multiplicities must reproduce the component dimensions
    col_dim = {}
    for s in A.shifts:
        d = A.shifts[0] - s
        col_dim[d] = col_dim.get(d, 0) + 1
    module_degrees = {d - s for d in A.support_degrees() for s in P.shifts}
    for h in module_degrees:
        total = sum(m * col_dim.get(g + h, 0) for (_blk, g), m in out.items())
        if total != P.dim(h):
            raise UnsupportedAlgebra(
                "matrix-algebra decomposition bookkeeping failed"
            )  # pragma: no cover
    return out


def _group_algebra_count(P: ProjectivePresentation, _rng) -> dict:
    A = P.algebra
    z = A.group.zero
    r = P.dim(z)
    gens = A.group.generators()
    for g in gens + [z]:
        if P.dim(g) != r:  # pragma: no cover - would contradict Dade freeness
            raise UnsupportedAlgebra("non-free projective over a group algebra")
    return {(0, z): r} if r else {}


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


def summand_classes(P: ProjectivePresentation, seed: int = 0) -> dict:
    """Canonical class multiset: (block, shift mod class stabilizer) -> mult.

    Computed once per presentation and seed and kept in ``P._derived``;
    a caller gets a copy.  Registered classes only accumulate, and a new
    class is registered only when no earlier one is isomorphic to the
    summand, so a second decomposition of P would find the same keys."""
    if P.rank == 0 or P.is_zero():
        return {}
    hit = P._derived.get(("classes", seed))
    if hit is None:
        reduction = _registry(P.algebra)
        hit = {}
        for (blk, g), m in reduction.count(P, random.Random(seed)).items():
            key = (blk, reduction.classes[blk].stabilizer.reduce(g))
            hit[key] = hit.get(key, 0) + m
        P._derived[("classes", seed)] = hit
    return dict(hit)


def decompose(P: ProjectivePresentation, seed: int = 0):
    """Indecomposable summands with multiplicity, canonically ordered."""
    classes = summand_classes(P, seed)
    items = sorted(classes.items(), key=lambda kv: (kv[0][1].values, kv[0][0]))
    out = []
    for (blk, g), m in items:
        rep = class_info(P.algebra, blk).rep.shift(g)
        out.append((rep, m))
    return out


def graded_iso(P: ProjectivePresentation, Q: ProjectivePresentation, seed: int = 0) -> bool:
    """Isomorphism of graded modules via equality of class multisets."""
    if P.algebra is not Q.algebra:
        raise PresentationError("graded_iso needs one common algebra")
    return summand_classes(P, seed) == summand_classes(Q, seed)
