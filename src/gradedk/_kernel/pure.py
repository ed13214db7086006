"""Exact dense elimination over Q and prime fields.

Matrices are lists of row lists.  Over GF(p) (``char == p``, p prime)
entries are ints, answers in ``[0, p)``.  Over Q (``char == 0``) a caller
passes ``fractions.Fraction`` or int entries and reads Fractions back,
but the one elimination runs on int rows: each row's denominators are
cleared, each step is a cross-multiplication and each row's content is
removed after every step (``rref_int``).  Pivoting is deterministic
(top-down, first nonzero entry per column), and a reduced echelon form
is unique, so results are reproducible entry for entry.
"""

from fractions import Fraction
from math import gcd

__all__ = ["mat_mul", "int_mul", "rref", "rref_int", "rank", "solve", "nullspace"]

_QZERO = Fraction(0)


def _zero(char):
    return 0 if char else _QZERO


def int_mul(a, b, modulus=0):
    """Product a @ b of int matrices, reduced mod ``modulus`` unless it is 0.
    b has at least one row."""
    m = len(b[0])
    out = []
    for arow in a:
        row = [0] * m
        for x, brow in zip(arow, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        row[j] += x * y
        out.append([v % modulus for v in row] if modulus else row)
    return out


def mat_mul(a, b, char):
    """Matrix product a @ b."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    if n and len(a[0]) != k:
        raise ValueError("shape mismatch in mat_mul")
    if char:
        return int_mul(a, b, char) if k else [[] for _ in range(n)]
    zero = _QZERO
    out = []
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


def _cleared(row):
    """A rational row as ints: the row times the lcm of its denominators."""
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // x.denominator) for x in row]


def _rref_modp(a, p):
    """Reduced row echelon form mod p: every row, unit pivots, entries in [0, p)."""
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
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
        rr = rows[r] = [0] * c + rows[r][c:]  # left of its pivot a row is 0 mod p
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
    return rows[:r] + [[0] * m for _ in rows[r:]], pivots  # so is each row below


def rref_int(a, char):
    """The nonzero rows of the reduced echelon form of an int matrix, as
    ints, and their pivot columns.

    Mod p the rows are those of ``rref``, with unit pivots.  Over Q
    (char 0) row i is the i-th row of the rational reduced echelon form
    times the least positive integer that makes it integral: its content
    is 1, its pivot d_i > 0, and it is zero at every other pivot.  The
    elimination is fraction-free: the row ri under a pivot row rr with
    pivot d becomes (d ri - ri[c] rr) / gcd, both multipliers first
    divided by gcd(d, ri[c]), and every row's content is removed as soon
    as it changes.
    """
    if char:
        rows, pivots = _rref_modp(a, char)
        return rows[: len(pivots)], pivots
    rows = [list(r) for r in a]
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
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
        rr = rows[r]
        g = gcd(*rr)
        if g != 1:
            rr = rows[r] = [x // g for x in rr]
        d = rr[c]
        for i in range(n):
            ri = rows[i]
            f = ri[c]
            if f and i != r:
                g = gcd(d, f)
                a_, b_ = d // g, f // g
                ri = [a_ * x - b_ * y for x, y in zip(ri, rr)]
                g = gcd(*ri)
                rows[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(c)
        r += 1
        if r == n:
            break
    out = []
    for row, c in zip(rows, pivots):
        out.append(row if row[c] > 0 else [-x for x in row])
    return out, pivots


def rref(a, char):
    """Reduced row echelon form.

    Returns ``(rows, pivots)`` where ``pivots`` is the list of pivot column
    indices; ``rows`` has unit pivots and zeros above and below them.  Over
    Q the rows are read off ``rref_int``: a reduced row divided by its
    pivot, then the zero rows.
    """
    if char:
        return _rref_modp(a, char)
    m = len(a[0]) if a else 0
    reduced, pivots = rref_int([_cleared(r) for r in a], 0)
    rows = [
        [Fraction(x, row[c]) if x else _QZERO for x in row]
        for row, c in zip(reduced, pivots)
    ]
    rows.extend([_QZERO] * m for _ in range(len(a) - len(pivots)))
    return rows, pivots


def rank(a, char):
    """Rank of the matrix: the number of pivots of its one elimination."""
    if char:
        return len(_rref_modp(a, char)[1])
    return len(rref_int([_cleared(r) for r in a], 0)[1])


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
