"""Small integer-lattice utilities: the Hermite form and coset reduction.

Every lattice question reads one elimination, ``hnf``: canonical
subgroups, their index and coset representatives, and Dade's
unimodularity.  Everything here runs on tiny matrices (grading groups
have a handful of coordinates), so plain row operations with exact ints
are enough.
"""

from __future__ import annotations


def hnf(rows):
    """Canonical row Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows are dropped, pivot columns strictly increase.
    The result is a canonical invariant of the row lattice.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    m = len(mat[0]) if n else 0
    # column-by-column gcd reduction
    r = 0
    for col in range(m):
        while True:
            pick = -1
            best = None
            for i in range(r, n):
                if mat[i][col]:
                    if best is None or abs(mat[i][col]) < best:
                        best = abs(mat[i][col])
                        pick = i
            if pick < 0:
                break
            mat[r], mat[pick] = mat[pick], mat[r]
            if mat[r][col] < 0:
                mat[r] = [-x for x in mat[r]]
            again = False
            for i in range(r + 1, n):
                if mat[i][col]:
                    q = mat[i][col] // mat[r][col]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][col]:
                        again = True
            if not again:
                r += 1
                break
    # reduce above pivots
    for i in range(r):
        c = next(j for j, x in enumerate(mat[i]) if x)
        for k in range(i):
            q = mat[k][c] // mat[i][c]
            if q:
                mat[k] = [x - q * y for x, y in zip(mat[k], mat[i])]
    return mat[:r]


def reduce_mod_lattice(vec, hnf_rows):
    """Canonical representative of ``vec`` modulo the row lattice."""
    v = list(vec)
    for row in hnf_rows:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return v
