"""Second algorithms for jobs the package does one way, a reference for
the tests.

The package takes a rank from the pivots of ``rref``, left
multiplication L_u from ``Bilinear.left`` and a subgroup's index from
its Hermite form's pivots.  These compute the same things by the
algorithms they replaced, so a test can check the answers against code
they do not share: a fraction-free Bareiss rank over Q with forward
elimination mod p, L_u summed over every structure constant, and the
index as a determinant.
"""

from fractions import Fraction
from math import gcd

from gradedk import intlat


def bareiss_rank(a, char):
    """Rank of the matrix; fraction-free Bareiss over Q, elimination mod p."""
    n = len(a)
    m = len(a[0]) if n else 0
    if n == 0 or m == 0:
        return 0
    if char:
        p = char
        rows = [[x % p for x in r] for r in a]
        r = 0
        for c in range(m):
            pr = -1
            for i in range(r, n):
                if rows[i][c]:
                    pr = i
                    break
            if pr < 0:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            piv = rows[r][c]
            inv = pow(piv, p - 2, p)
            for i in range(r + 1, n):
                if rows[i][c]:
                    f = (rows[i][c] * inv) % p
                    ri = rows[i]
                    rr = rows[r]
                    for j in range(c, m):
                        ri[j] = (ri[j] - f * rr[j]) % p
            r += 1
            if r == n:
                break
        return r
    # clear denominators row by row, then Bareiss
    rows = []
    for src in a:
        den = 1
        for x in src:
            if isinstance(x, Fraction):
                d = x.denominator
                if d != 1:
                    g = gcd(den, d)
                    den = den // g * d
            elif not isinstance(x, int):
                raise TypeError("rational matrix entries must be Fraction or int")
        rows.append([int(x * den) for x in src])
    r = 0
    prev = 1
    for c in range(m):
        pr = -1
        for i in range(r, n):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        rr = rows[r]
        for i in range(r + 1, n):
            ri = rows[i]
            f = ri[c]
            for j in range(c, m):
                ri[j] = (ri[j] * piv - f * rr[j]) // prev
        prev = piv
        r += 1
        if r == n:
            break
    return r


def left_mult_by_items(table, u, n, p):
    """L_u over GF(p), summed over the structure constants (i, j, k, c)
    of ``table``: column j is u b_j."""
    L = [[0] * n for _ in range(n)]
    for i, j, k, c in table.items():
        if u[i]:
            L[k][j] += u[i] * c
    return [[x % p for x in row] for row in L]


def index_by_det(H):
    """[G : H] as the absolute determinant of H's rows; None when
    infinite."""
    if len(H.rows) < H.group.dim:
        return None
    det = intlat.int_det([list(r) for r in H.rows])
    return abs(det) if det else None
