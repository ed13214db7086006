"""The correspondence between graded projectives over A and over its
degree-zero part along an N-supported free coordinate.

Both functors read a presentation in the other algebra along a degree
map (``presentations.relabel``).  T keeps the shifts and reads the
idempotent in the embedded zero part along ``zero_slice``, which drops
every entry of nonzero first degree; S reads a zero-part idempotent
inside the big algebra with every degree kept.  TS is literally the
identity on presentations, and ST(P) -> P is left multiplication by the
original idempotent, built from a degree-preserving section of
P -> T(P).  The graded Nakayama property of N-supported algebras (a
finitely generated module killed by restriction is zero) makes the
per-window invertibility checks for these maps conclusive.
"""

from __future__ import annotations

from ..algebra import GradedAlgebra, HypothesisError
from .presentations import (
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    entries_add,
    entries_eq,
    entries_matmul,
    relabel,
    relabel_entries,
    same_degree,
    zero_slice,
)


class VerificationError(RuntimeError):
    """An invariant that should hold mathematically failed: a bug, not an
    unmet hypothesis."""


def require_positive_support(A: GradedAlgebra):
    """Gate: the algebra must be supported in N x (rest) along the first
    free coordinate.  Raises HypothesisError otherwise."""
    if A.group.free_rank < 1:
        raise HypothesisError(
            f"{A.describe()} has no free coordinate to restrict along"
        )
    if not A.positively_supported():
        raise HypothesisError(
            f"{A.describe()} is not supported in N x G along its first free "
            "coordinate (restriction is not a ring map there)"
        )


def functor_T(P: ProjectivePresentation) -> ProjectivePresentation:
    """Restriction P -> P / P A_+ as a presentation over the embedded
    zero part (same shifts, idempotent entries projected).  Built once
    per P."""
    hit = P._derived.get("T")
    if hit is None:
        require_positive_support(P.algebra)
        zpe = P.algebra.zero_part_embedded()
        hit = P._derived["T"] = ProjectivePresentation(
            zpe, P.shifts, relabel_entries(P.entries, zpe, zero_slice), check=False
        )
    return hit


def functor_S(Q: ProjectivePresentation, A: GradedAlgebra) -> ProjectivePresentation:
    """Induction along the inclusion of the zero part: the same idempotent
    read inside A.  Built once per Q and A."""
    key = ("S", A)
    hit = Q._derived.get(key)
    if hit is None:
        require_positive_support(A)
        if Q.algebra is not A.zero_part_embedded():
            raise PresentationError(
                "functor_S expects a presentation over the embedded zero part of A"
            )
        hit = Q._derived[key] = relabel(Q, A, same_degree)
    return hit


def nu(Q: ProjectivePresentation, A: GradedAlgebra) -> GradedMap:
    """The natural isomorphism TS(Q) -> Q; in idempotent form it is the
    idempotent itself, the identity on every component."""
    tsq = functor_T(functor_S(Q, A))
    return GradedMap(tsq, Q, Q.entries)


def _positive_correction(P: ProjectivePresentation, rng, density: int = 2):
    """A random degree-0 entry matrix e*D with strictly positive first
    coordinate in every nonzero entry; parametrizes section choices."""
    A = P.algebra
    F = A.field
    k = P.rank
    D = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            d = P.shifts[i] - P.shifts[j]
            if d.values[0] <= 0:
                continue
            n = A.component_dim(d)
            if n == 0:
                continue
            coords = [F.of_int(rng.randint(-density, density)) for _ in range(n)]
            if any(coords):
                D[i][j] = A.element(d, coords)
    return entries_matmul(P.entries, D)


def section(P: ProjectivePresentation, rng=None) -> GradedMap:
    """A zero-part-linear degree-0 section of the restriction P -> T(P).

    The canonical lift applies the idempotent to the naive inclusion of
    T(P); a seeded rng perturbs it by a correction with image in P A_+,
    which exercises independence of the choice.
    """
    tp = functor_T(P)
    entries = P.entries
    if rng is not None:
        entries = entries_add(entries, _positive_correction(P, rng))
    return GradedMap(tp, P, entries)


def restriction_map(P: ProjectivePresentation) -> GradedMap:
    """The quotient map P -> T(P) = P / P A_+, componentwise projection."""
    tp = functor_T(P)
    return GradedMap(P, tp, tp.entries)


def psi(P: ProjectivePresentation, rng=None) -> GradedMap:
    """The isomorphism ST(P) -> P induced by a section: x (x) a -> g(x) a.

    With the canonical section this is left multiplication by the
    idempotent; the restriction of the result equals nu on T(P) exactly,
    which is asserted.
    """
    A = P.algebra
    tp = functor_T(P)
    stp = functor_S(tp, A)
    lift = P.entries
    if rng is not None:
        lift = entries_add(lift, _positive_correction(P, rng))
    entries = entries_matmul(lift, stp.entries)
    out = GradedMap(stp, P, entries)
    # the restriction of psi must be nu on T(P), entry for entry
    projected = relabel_entries(out.entries, tp.algebra, zero_slice)
    if not entries_eq(projected, tp.entries):
        raise VerificationError("restriction of psi differs from nu")
    return out


def nakayama_zero_test(P: ProjectivePresentation, window) -> bool:
    """If T(P) = 0 then P = 0: returns True when the implication holds on
    this presentation (it must, over an N-supported algebra)."""
    tp = functor_T(P)
    if not tp.is_zero():
        return True
    if not P.is_zero():
        return False
    return all(P.dim(h) == 0 for h in window)
