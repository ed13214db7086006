"""Small integer-lattice utilities: Hermite form, integer solve, kernels.

Every lattice question reads one elimination, ``hnf_with_transform``:
canonical subgroups, index and order, kernels and preimages of grading
maps, and Dade's unimodularity.  Everything here runs on tiny matrices
(grading groups have a handful of coordinates), so plain row operations
with exact ints are enough.
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
    """Row HNF together with the transform: returns (H, T) with T*rows == H.

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


def solve_int(a_rows, b):
    """One integer solution x of ``a_rows @ x == b``, or None.

    ``a_rows`` is an n x m integer matrix, ``b`` a length-n vector.
    """
    n = len(a_rows)
    m = len(a_rows[0]) if n else 0
    if n == 0:
        return [0] * m
    # Work with columns: HNF of the transpose tracks column operations on a.
    at = [[a_rows[i][j] for i in range(n)] for j in range(m)]
    H, T, pivots = hnf_with_transform(at)  # T @ at == H, i.e. a @ T^t == H^t
    # Solve H^t y = b by forward substitution on the pivot structure.
    rank = len(pivots)
    y = [0] * m
    resid = list(b)
    for i in range(rank):
        c = pivots[i]  # row index in original a
        piv = H[i][c]
        if resid[c] % piv:
            return None
        t = resid[c] // piv
        y[i] = t
        for j in range(n):
            resid[j] -= t * H[i][j]
    if any(resid):
        return None
    # x = T^t y
    x = [0] * m
    for i in range(m):
        if y[i]:
            for j in range(m):
                x[j] += T[i][j] * y[i]
    return x


def kernel_int(a_rows):
    """Basis of the integer kernel {x : a_rows @ x == 0}."""
    n = len(a_rows)
    m = len(a_rows[0]) if n else 0
    if n == 0:
        return [[1 if i == j else 0 for i in range(m)] for j in range(m)]
    at = [[a_rows[i][j] for i in range(n)] for j in range(m)]
    H, T, pivots = hnf_with_transform(at)
    rank = len(pivots)
    return [list(T[i]) for i in range(rank, m)]

