"""Verification windows: finite degree boxes on which per-degree checks run.

The free coordinates range over [-(span + margin), span + margin] where
span combines the shift spread of the presentations involved with the
algebra's generator-level support radius; torsion coordinates are always
enumerated completely.  For algebras supported in N x G the graded
Nakayama property makes window checks conclusive (an isomorphism on the
window forces one everywhere), which is why the default margin is small.
"""

from __future__ import annotations

from math import prod

from ..algebra import GradedAlgebra

WINDOW_CAP = 100_000


def default_window(A: GradedAlgebra, presentations=(), margin: int = 2):
    if margin < 0:
        # a negative margin can empty the ranges, and every check on an
        # empty window passes without looking at a degree
        raise ValueError(f"window margin must be >= 0, got {margin}")
    m = A.group.free_rank
    radius = A.support_radius()
    spans = []
    for j in range(m):
        s = 0
        for p in presentations:
            for sh in p.shifts:
                s = max(s, abs(sh.values[j]))
        spans.append(s + radius[j] + margin)
    ranges = [range(-s, s + 1) for s in spans]
    size = prod(A.group.torsion_moduli) * prod(len(r) for r in ranges)
    if size > WINDOW_CAP:
        raise ValueError(f"verification window too large ({size} degrees)")
    return list(A.group.box(ranges))
