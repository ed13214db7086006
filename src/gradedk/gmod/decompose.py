"""Krull-Schmidt decomposition and graded isomorphism testing.

Dispatch by constructor:

* matrix algebras: every indecomposable is a shift of the first column
  module, with multiplicities read off from ranks against the first
  column idempotent;
* group algebras of the grading group: strongly graded with simple
  degree components, so every graded projective is free;
* finite-support algebras: split End(P)_0 into primitive idempotents and
  match the summands against a per-algebra registry of classes (shift
  alignment by support translation, then an exact pairing test).  The
  split tags each summand with its simple block of End(P)_0/J, and
  summands are matched once per block: eP and fP are isomorphic at
  shift 0 exactly when e and f lie in one block (Wedderburn: a simple
  block is a matrix algebra, whose primitive idempotents are conjugate,
  while a map between different blocks composes into the radical).  So
  every summand of a block gets its block's key, and a block never
  tests the keys other blocks of its split already hold -- though it
  can still be a nonzero shift of one of their classes;
* infinite support with an N-supported leading coordinate: restrict to
  the zero part, decompose slice by slice, and lift classes back along
  the induction functor (the correspondence is a bijection on classes,
  so labels are (zero-part class, full shift)).

Class identities are (block id, shift modulo the class stabilizer);
two presentations are isomorphic iff their class multisets agree.
"""

from __future__ import annotations

import random

from .. import _kernel
from ..algebra import GradedAlgebra, GroupAlgebraA, MatrixAlgebra
from ..grading import Subgroup
from .endos import hom_basis, split_projective
from .presentations import (
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    relabel,
    restrict_rows,
)
from .swan import functor_S, functor_T, require_positive_support


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
    pairs is complete.
    """
    if X.algebra is not Y.algebra:
        raise PresentationError("isomorphism test needs one common algebra")
    dX = module_support_degrees(X)
    dY = module_support_degrees(Y)
    if dX != dY:
        return False
    if not dX:
        return True
    window = list(dX)
    us = hom_basis(X, Y)
    vs = hom_basis(Y, X)
    for u in us:
        fu = GradedMap(X, Y, u, check=False)
        for v in vs:
            fv = GradedMap(Y, X, v, check=False)
            comp = fv.compose(fu)
            if comp.is_iso_on(window):
                return True
    return False


class _ClassInfo:
    __slots__ = ("rep", "stabilizer", "dim_profile", "anchor", "symmetries")

    def __init__(self, rep, stabilizer, dim_profile, anchor, symmetries):
        self.rep = rep
        self.stabilizer = stabilizer
        self.dim_profile = dim_profile  # dict shift-normalized degree -> dim
        self.anchor = anchor  # lex-min support degree of rep
        self.symmetries = symmetries  # translation symmetries of the profile


class _FiniteRegistry:
    """Classes of indecomposables over one finite-support algebra."""

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
            if info.dim_profile != prof:
                continue
            # X ~ rep(shift): support(rep(shift)) = support(rep) - shift
            base = info.anchor - anchor
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
        self.classes.append(_ClassInfo(X, stabilizer, prof, anchor, sym))
        return len(self.classes) - 1, self.algebra.group.zero


def _registry(A) -> _FiniteRegistry:
    if A._registry is None:
        A._registry = _FiniteRegistry(A)
    return A._registry


def _matrix_column(A: MatrixAlgebra) -> ProjectivePresentation:
    z = A.group.zero
    basis0 = A.component_basis(z)
    i0 = basis0.index((0, 0))
    F = A.field
    coords = tuple(F.one if i == i0 else F.zero for i in range(len(basis0)))
    e11 = A.element(z, coords)
    return ProjectivePresentation(A, (z,), [[e11]], check=False)


def _matrix_summands(P: ProjectivePresentation):
    """Multiset of column-module shifts for presentations over a matrix
    algebra: multiplicity of column(g) is the rank against the first
    matrix column in degree -g."""
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
            out[-h] = r
    # the multiplicities must reproduce the component dimensions
    col_dim = {}
    for s in A.shifts:
        d = A.shifts[0] - s
        col_dim[d] = col_dim.get(d, 0) + 1
    module_degrees = {d - s for d in A.support_degrees() for s in P.shifts}
    for h in module_degrees:
        total = sum(m * col_dim.get(g + h, 0) for g, m in out.items())
        if total != P.dim(h):
            raise UnsupportedAlgebra(
                "matrix-algebra decomposition bookkeeping failed"
            )  # pragma: no cover
    return out


def _group_algebra_summands(P: ProjectivePresentation):
    A = P.algebra
    z = A.group.zero
    r = P.dim(z)
    gens = A.group.generators()
    for g in gens + [z]:
        if P.dim(g) != r:  # pragma: no cover - would contradict Dade freeness
            raise UnsupportedAlgebra("non-free projective over a group algebra")
    return {z: r} if r else {}


def _decompose_classes(P: ProjectivePresentation, rng) -> dict:
    """dict (block id, shift Degree) -> multiplicity; block ids refer to
    the base registry of the algebra's reduction chain."""
    A = P.algebra
    if P.rank == 0 or P.is_zero():
        return {}
    if isinstance(A, MatrixAlgebra):
        return {(0, g): m for g, m in _matrix_summands(P).items()}
    if isinstance(A, GroupAlgebraA):
        return {(0, g): m for g, m in _group_algebra_summands(P).items()}
    if A.finite_support():
        reg = _registry(A)
        keys = {}  # split block -> class key of its summands
        out = {}
        for summand, blk in split_projective(P, rng):
            key = keys.get(blk)
            if key is None:
                key = reg.match(summand, set(keys.values()))
                keys[blk] = key
            out[key] = out.get(key, 0) + 1
        return out
    # infinite support: reduce along an N-supported leading coordinate
    if not A.positively_supported():
        raise UnsupportedAlgebra(
            f"decomposition over {A.describe()} needs finite support or an "
            "N-supported leading coordinate"
        )
    require_positive_support(A)
    tp = functor_T(P)
    Az = A.zero_part()
    out = {}
    slices = {}
    for i, s in enumerate(P.shifts):
        slices.setdefault(s.values[0], []).append(i)
    for w, rows in sorted(slices.items()):
        block = restrict_rows(tp, rows)
        if block.is_zero():
            continue
        # the slice over the residual zero-part algebra
        zpres = relabel(block, Az, lambda d: Az.group.degree(d.values[1:]))
        for (blk, g), m in _decompose_classes(zpres, rng).items():
            full = A.group.degree((w,) + g.values)
            key = (blk, full)
            out[key] = out.get(key, 0) + m
    return out


def class_signature(A: GradedAlgebra, block: int):
    """A registration-order-independent invariant of a class, used to
    order K0 bases canonically."""
    if isinstance(A, MatrixAlgebra):
        return ("matrix-column",)
    if isinstance(A, GroupAlgebraA):
        return ("free",)
    if A.finite_support():
        info = _registry(A).classes[block]
        return ("profile", tuple(sorted((d.values, n) for d, n in info.dim_profile.items())))
    return ("restrict",) + class_signature(A.zero_part(), block)


def class_stabilizer(A: GradedAlgebra, block: int) -> Subgroup:
    """Stabilizer {g : rep(g) = rep} of a registry class, recursively."""
    if isinstance(A, MatrixAlgebra):
        return Subgroup.trivial(A.group)
    if isinstance(A, GroupAlgebraA):
        return Subgroup.full(A.group)
    if A.finite_support():
        return _registry(A).classes[block].stabilizer
    return class_stabilizer(A.zero_part(), block).prepend_free(1)


def class_representative(A: GradedAlgebra, block: int) -> ProjectivePresentation:
    """The registered indecomposable with shift zero for a class id."""
    if isinstance(A, MatrixAlgebra):
        return _matrix_column(A)
    if isinstance(A, GroupAlgebraA):
        from .presentations import regular_module

        return regular_module(A)
    if A.finite_support():
        return _registry(A).classes[block].rep
    inner = class_representative(A.zero_part(), block)
    lifted = _lift_representative(A, inner)
    return lifted


def _lift_representative(A, inner):
    q = relabel(inner, A.zero_part_embedded(), lambda d: A.group.degree((0,) + d.values))
    return functor_S(q, A)


def summand_classes(P: ProjectivePresentation, seed: int = 0) -> dict:
    """Canonical class multiset: (block, shift mod class stabilizer) -> mult."""
    rng = random.Random(seed)
    raw = _decompose_classes(P, rng)
    out = {}
    for (blk, g), m in raw.items():
        stab = class_stabilizer(P.algebra, blk)
        key = (blk, stab.reduce(g))
        out[key] = out.get(key, 0) + m
    return out


def decompose(P: ProjectivePresentation, seed: int = 0):
    """Indecomposable summands with multiplicity, canonically ordered."""
    classes = summand_classes(P, seed)
    items = sorted(classes.items(), key=lambda kv: (kv[0][1].values, kv[0][0]))
    out = []
    for (blk, g), m in items:
        rep = class_representative(P.algebra, blk).shift(g)
        out.append((rep, m))
    return out


def graded_iso(P: ProjectivePresentation, Q: ProjectivePresentation, seed: int = 0) -> bool:
    """Isomorphism of graded modules via equality of class multisets."""
    if P.algebra is not Q.algebra:
        raise PresentationError("graded_iso needs one common algebra")
    return summand_classes(P, seed) == summand_classes(Q, seed)
