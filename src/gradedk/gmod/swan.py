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
    RANDOM_COORD,
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    entries_to_vec,
    hom_table,
    raw_positions,
    relabel,
    relabel_entries,
    same_degree,
    vec_to_entries,
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


def _lift(P: ProjectivePresentation, rng):
    """The idempotent e of P as a vector on its raw positions, or for a
    seeded rng e + e*D, D a random degree-0 entry matrix with strictly
    positive first coordinate in every nonzero entry, so that e*D maps
    into P A_+; D parametrizes section choices.  Returns the positions
    and the vector."""
    A = P.algebra
    F = A.field
    s = P.shifts
    pos = raw_positions(A, s, s)
    e = entries_to_vec(A, P.entries, pos)
    if rng is None:
        return pos, e
    D = [
        F.of_int(rng.randint(-RANDOM_COORD, RANDOM_COORD)) if d.values[0] > 0 else F.zero
        for _i, _j, d, _b in pos
    ]
    return pos, [F.add(x, y) for x, y in zip(e, hom_table(A, s, s, s)(e, D))]


def section(P: ProjectivePresentation, rng=None) -> GradedMap:
    """A zero-part-linear degree-0 section of the restriction P -> T(P).

    The canonical lift applies the idempotent to the naive inclusion of
    T(P); a seeded rng perturbs it by a correction with image in P A_+,
    which exercises independence of the choice.
    """
    tp = functor_T(P)
    pos, lift = _lift(P, rng)
    return GradedMap(tp, P, vec_to_entries(P.algebra, lift, pos, P.rank, P.rank))


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
    s = P.shifts
    tp = functor_T(P)
    stp = functor_S(tp, A)
    pos, lift = _lift(P, rng)
    product = hom_table(A, s, s, s)(lift, entries_to_vec(A, stp.entries, pos))
    out = GradedMap(stp, P, vec_to_entries(A, product, pos, P.rank, P.rank))
    # the restriction of psi must be nu on T(P), entry for entry; both
    # sides are read along zero_slice, which drops zero entries
    if relabel_entries(out.entries, tp.algebra, zero_slice) != tp.entries:
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
