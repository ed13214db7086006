"""The degree filtration on graded projectives and its layer calculus.

F^t P is the submodule generated by the components of leading degree at
most t.  Over an N-supported algebra it is isomorphic to the induced
module built from the slices of the restriction of P, which stays in
idempotent form: keep the ambient summands whose generator degree is at
most t, with the restricted idempotent read back inside the big algebra.
Layers (consecutive quotients) are single slices; their induced form is
independent of the section used to split P over its restriction, which
`verify_section_independence` checks against the intrinsic submodule
filtration for seeded section choices.

The bounded-support functors `theta` (induce slice by slice) and `psi_q`
(restrict and remember the slice) are mutually inverse on presentations;
additivity of the layers is what ties the filtration to K0.
"""

from __future__ import annotations

import random
from typing import List, Optional

from . import _kernel
from .algebra import GradedAlgebra, HypothesisError
from .grading import Degree
from .gmod.presentations import (
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    restrict_rows,
    zero_module,
)
from .gmod.swan import functor_S, functor_T, psi, require_positive_support
from .gmod.windows import default_window


def jump_degrees(P: ProjectivePresentation) -> List[int]:
    """Leading degrees where the filtration jumps: the nonzero slices of
    the restriction, sorted ascending."""
    tp = functor_T(P)
    found = set()
    for w in {s.values[0] for s in P.shifts}:
        if -w in found:
            continue
        rows = [j for j in range(P.rank) if P.shifts[j].values[0] == w]
        # a slice is nonzero iff its diagonal block of the restricted
        # idempotent is nonzero
        if any(
            tp.entries[a][b] is not None and not tp.entries[a][b].is_zero()
            for a in rows
            for b in rows
        ):
            found.add(-w)
    return sorted(found)


def filtration_bound(P: ProjectivePresentation) -> int:
    """Least n >= 0 with F^{-n} P = 0 and F^n P = P."""
    jumps = jump_degrees(P)
    if not jumps:
        return 0
    return max(max(jumps), 1 - min(jumps), 0)


def _slice_rows(P: ProjectivePresentation, pred):
    return [i for i in range(P.rank) if pred(-P.shifts[i].values[0])]


def _induced_from_rows(P: ProjectivePresentation, rows) -> ProjectivePresentation:
    """The induced presentation on a union of slices: restricted idempotent
    of T(P), read back inside the algebra of P.  Built once per P and
    rows."""
    key = ("slice", tuple(rows))
    hit = P._derived.get(key)
    if hit is None:
        if rows:
            hit = functor_S(restrict_rows(functor_T(P), rows), P.algebra)
        else:
            hit = zero_module(P.algebra)
        P._derived[key] = hit
    return hit


def filter_module(P: ProjectivePresentation, t: int) -> ProjectivePresentation:
    """F^t P in induced form (sum of the slices with jump degree <= t)."""
    require_positive_support(P.algebra)
    return _induced_from_rows(P, _slice_rows(P, lambda lam: lam <= t))


def layer(P: ProjectivePresentation, k: int, *, section_seed: Optional[int] = None,
          margin: int = 2) -> ProjectivePresentation:
    """The k-th filtration quotient F^{t_{k}+1} / F^{t_k} in induced form.

    The induced form does not depend on any section choice; passing a
    ``section_seed`` additionally verifies that fact against the seeded
    section (see `verify_section_independence`) before returning the
    canonical presentation.  The verification does not depend on k, and
    its section's image ranks are measured once per P, seed and margin.
    """
    require_positive_support(P.algebra)
    jumps = jump_degrees(P)
    if not 0 <= k < len(jumps):
        raise IndexError(f"layer index {k} out of range (jumps: {jumps})")
    lam = jumps[k]
    out = _induced_from_rows(P, _slice_rows(P, lambda x: x == lam))
    if section_seed is not None:
        report = verify_section_independence(P, (section_seed,), margin=margin)
        if not report["ok"]:
            raise PresentationError("section independence verification failed")
    return out


def layers(P: ProjectivePresentation, **kw) -> List[ProjectivePresentation]:
    return [layer(P, k, **kw) for k in range(len(jump_degrees(P)))]


def theta(Q: ProjectivePresentation, A: GradedAlgebra, q: Optional[int] = None) -> ProjectivePresentation:
    """Induce a bounded zero-part module slice by slice into A.

    Q lives over the embedded zero part with support in [-q, q] x G; the
    result is the direct sum over slices of the induced shifted modules,
    which in idempotent form is just the induction of Q.
    """
    require_positive_support(A)
    if Q.algebra is not A.zero_part_embedded():
        raise PresentationError("theta expects a module over the embedded zero part")
    jumps = [-s.values[0] for s in Q.shifts]
    if q is not None and any(abs(j) > q for j in jumps):
        raise HypothesisError(f"support {sorted(set(jumps))} exceeds the declared bound {q}")
    return functor_S(Q, A)


def psi_q(P: ProjectivePresentation, q: Optional[int] = None) -> ProjectivePresentation:
    """Restrict a filtered module, remembering the slice degrees.

    P must lie in the bounded subcategory: F^{-q} P = 0 and F^q P = P.
    """
    require_positive_support(P.algebra)
    n = filtration_bound(P)
    if q is None:
        q = n
    elif n > q:
        raise HypothesisError(f"filtration bound {n} exceeds the declared bound {q}")
    return functor_T(P)


def layer_dims_additive(P: ProjectivePresentation, window=None, margin: int = 2) -> bool:
    """Sum over layers of component dims equals the dims of P."""
    if window is None:
        window = default_window(P.algebra, [P], margin)
    ls = layers(P)
    for h in window:
        if sum(L.dim(h) for L in ls) != P.dim(h):
            return False
    return True


def _image_ranks(map_obj: GradedMap, h: Degree, row_sets):
    """For each set of ambient rows, the rank of the map at degree h
    restricted to the source basis columns supported in those rows, read
    from their images."""
    if not row_sets:
        return []
    src_sp = map_obj.source.space(h)
    if not src_sp.dim:
        return [0] * len(row_sets)
    char = map_obj.target.algebra.field.char
    images, _den = map_obj.image_columns(h)
    basis, _den = src_sp.basis_rows()
    blocks = list(enumerate(zip(src_sp.offsets, src_sp.block_dims)))
    supports = [
        {b for b, (off, n) in blocks if any(basis[off + r][c] for r in range(n))}
        for c in range(src_sp.dim)
    ]
    ranks = []
    for rows in row_sets:
        keep = [c for c, support in enumerate(supports) if support <= rows]
        cols = [[row[c] for c in keep] for row in images]
        ranks.append(_kernel.rank(cols, char) if cols and cols[0] else 0)
    return ranks


def verify_section_independence(P: ProjectivePresentation, seeds=(0, 1), margin: int = 2) -> dict:
    """The submodule filtration carved out by a seeded section equals the
    intrinsic one, and the layer dimension profile is section-free.

    For each seed s, psi_s maps the partial sums of slices onto F^t P; the
    image subspaces must coincide across seeds degree by degree, and the
    successive dimension differences must equal the layer dimensions of
    the canonical induced form.

    The measured image ranks of a seed are kept in ``P._derived`` under
    (seed, margin), so psi_s is built once per presentation; the checks
    run on every call.
    """
    window = default_window(P.algebra, [P], margin)
    jumps = jump_degrees(P)
    canonical = layers(P)
    row_sets = [set(_slice_rows(P, lambda x: x <= lam)) for lam in jumps]
    result = {"ok": True, "jumps": jumps, "per_seed": []}
    reference = None
    for seed in seeds:
        profile = P._derived.get(("section ranks", seed, margin))
        if profile is None:
            ps = psi(P, random.Random(seed))
            profile = {h: _image_ranks(ps, h, row_sets) for h in window}
            P._derived[("section ranks", seed, margin)] = profile
        result["per_seed"].append({"seed": seed})
        # successive differences must equal canonical layer dims
        for h in window:
            chain = profile[h]
            prev = 0
            for k in range(len(jumps)):
                diff = chain[k] - prev
                prev = chain[k]
                if diff != canonical[k].dim(h):
                    result["ok"] = False
            if chain and chain[-1] != P.dim(h):
                result["ok"] = False
        if reference is None:
            reference = profile
        elif profile != reference:
            result["ok"] = False
    return result
