"""Small integer-lattice utilities: the Hermite form and lattice membership.

Every lattice question reads one elimination, ``hnf_with_transform``:
canonical subgroups, their index and order, and Dade's unimodularity.
Everything here runs on tiny matrices (grading groups have a handful of
coordinates), so plain row operations with exact ints are enough.
"""

from __future__ import annotations


def hnf(rows):
    """Canonical row Hermite normal form of the lattice spanned by ``rows``:
    the nonzero rows of ``hnf_with_transform(rows)``.

    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, zero rows are dropped, pivot columns strictly increase.
    The result is a canonical invariant of the row lattice.
    """
    H, _T, pivots = hnf_with_transform(rows)
    return H[: len(pivots)]


def reduce_mod_lattice(vec, hnf_rows):
    """Canonical representative of ``vec`` modulo the row lattice."""
    v = list(vec)
    for row in hnf_rows:
        c = next(j for j, x in enumerate(row) if x)
        q = v[c] // row[c]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return v


def in_lattice(vec, hnf_rows) -> bool:
    return not any(reduce_mod_lattice(vec, hnf_rows))


def hnf_with_transform(rows):
    """Row HNF together with the transform: returns (H, T, pivots) with
    T*rows == H and the pivot column of each nonzero row of H.

    Zero rows of the reduced matrix are kept (with their transform rows) so
    that T is square unimodular.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    mat = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    # column-by-column gcd reduction on the first m columns
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
    pivots = []
    for i in range(r):
        c = next(j for j in range(m) if mat[i][j])
        pivots.append(c)
        for k in range(i):
            q = mat[k][c] // mat[i][c]
            if q:
                mat[k] = [x - q * y for x, y in zip(mat[k], mat[i])]
    H = [row[:m] for row in mat]
    T = [row[m:] for row in mat]
    return H, T, pivots
