"""Entry-by-entry products of entry matrices, a reference for the tests.

The package composes degree-0 maps in one table on raw positions
(``presentations.hom_table``).  These helpers multiply entry matrices
through ``HomogeneousElement`` arithmetic instead, so a test can check
those products against a computation that does not share their code.
Entries are ``HomogeneousElement`` or None for zero.
"""

from gradedk.gmod import endos
from gradedk.gmod.presentations import raw_positions, vec_to_entries


def entry_add(x, y):
    if x is None:
        return y
    if y is None:
        return x
    z = x + y
    return None if z.is_zero() else z


def entry_mul(x, y):
    if x is None or y is None:
        return None
    z = x * y
    return None if z.is_zero() else z


def entries_matmul(X, Y):
    n = len(X)
    mid = len(Y)
    m = len(Y[0]) if mid else 0
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = None
            for t in range(mid):
                acc = entry_add(acc, entry_mul(X[i][t], Y[t][j]))
            out[i][j] = acc
    return out


def entries_eq(X, Y):
    for rx, ry in zip(X, Y):
        for a, b in zip(rx, ry):
            if a is None and b is None:
                continue
            if a is None:
                if not b.is_zero():
                    return False
            elif b is None:
                if not a.is_zero():
                    return False
            elif a.degree != b.degree or a.coords != b.coords:
                return False
    return True


def hom_entries(X, Y):
    """``endos.hom_basis(X, Y)``, read as entry matrices."""
    A = X.algebra
    positions = raw_positions(A, Y.shifts, X.shifts)
    return [vec_to_entries(A, v, positions, Y.rank, X.rank) for v in endos.hom_basis(X, Y)]
