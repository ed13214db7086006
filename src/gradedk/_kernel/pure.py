"""Exact dense elimination over Q and prime fields.

Matrices are lists of row lists.  Entries are `fractions.Fraction` when
``char == 0`` and plain ints in ``[0, p)`` when ``char == p`` (p prime).
Pivoting is deterministic (top-down, first nonzero entry per column), so
results are reproducible entry for entry.
"""

from fractions import Fraction

__all__ = ["mat_mul", "rref", "rank", "solve", "nullspace"]


def _zero(char):
    return 0 if char else Fraction(0)


def mat_mul(a, b, char):
    """Matrix product a @ b."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    if n and len(a[0]) != k:
        raise ValueError("shape mismatch in mat_mul")
    zero = _zero(char)
    out = []
    if char:
        p = char
        for i in range(n):
            arow = a[i]
            row = [0] * m
            for t in range(k):
                x = arow[t]
                if x:
                    brow = b[t]
                    for j in range(m):
                        row[j] = (row[j] + x * brow[j]) % p
            out.append(row)
    else:
        for i in range(n):
            arow = a[i]
            row = [zero] * m
            for t in range(k):
                x = arow[t]
                if x:
                    brow = b[t]
                    for j in range(m):
                        if brow[j]:
                            row[j] = row[j] + x * brow[j]
            out.append(row)
    return out


def rref(a, char):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` where ``pivots`` is the list of pivot column
    indices; ``rows`` has unit pivots and zeros above and below them.
    """
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    if char:
        p = char
        for c in range(m):
            pr = -1
            for i in range(r, n):
                if rows[i][c] % p:
                    pr = i
                    break
            if pr < 0:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rr = rows[r]
            for j in range(c, m):
                rr[j] = (rr[j] * inv) % p
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    ri = rows[i]
                    for j in range(c, m):
                        ri[j] = (ri[j] - f * rr[j]) % p
            pivots.append(c)
            r += 1
            if r == n:
                break
    else:
        for c in range(m):
            pr = -1
            for i in range(r, n):
                if rows[i][c]:
                    pr = i
                    break
            if pr < 0:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = Fraction(1) / rows[r][c]
            rr = rows[r]
            for j in range(c, m):
                if rr[j]:
                    rr[j] = rr[j] * inv
            for i in range(n):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    ri = rows[i]
                    for j in range(c, m):
                        if rr[j]:
                            ri[j] = ri[j] - f * rr[j]
            pivots.append(c)
            r += 1
            if r == n:
                break
    return rows, pivots


def rank(a, char):
    """Rank of the matrix: the number of pivots of ``rref(a, char)``."""
    return len(rref(a, char)[1])


def solve(a, b, char):
    """Solve ``a @ x == b`` for x (b a matrix); None if inconsistent.

    Free variables are set to zero, so the solution is deterministic.
    """
    n = len(a)
    k = len(a[0]) if n else 0
    m = len(b[0]) if b else 0
    if len(b) != n:
        raise ValueError("shape mismatch in solve")
    aug = [list(a[i]) + list(b[i]) for i in range(n)]
    red, pivots = rref(aug, char) if n else ([], [])
    zero = _zero(char)
    for c in pivots:
        if c >= k:
            return None  # pivot in the right-hand block: inconsistent
    x = [[zero] * m for _ in range(k)]
    for idx, c in enumerate(pivots):
        row = red[idx]
        for j in range(m):
            x[c][j] = row[k + j]
    # rows below the pivots must have zero right-hand side
    for i in range(len(pivots), n):
        row = red[i]
        for j in range(k, k + m):
            if row[j]:
                return None
    return x


def nullspace(a, char):
    """Basis of the right null space, one vector per free column."""
    n = len(a)
    k = len(a[0]) if n else 0
    if n == 0:
        one = 1 if char else Fraction(1)
        zero = _zero(char)
        return [[one if i == j else zero for i in range(k)] for j in range(k)]
    red, pivots = rref(a, char)
    pivset = set(pivots)
    zero = _zero(char)
    one = 1 if char else Fraction(1)
    basis = []
    for c in range(k):
        if c in pivset:
            continue
        v = [zero] * k
        v[c] = one
        for idx, pc in enumerate(pivots):
            val = red[idx][c]
            if val:
                v[pc] = (-val) % char if char else -val
        basis.append(v)
    return basis
