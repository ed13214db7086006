"""Exact linear-algebra kernel over Q and prime fields.

Elimination (``mat_mul``, ``rref``, ``rank``, ``solve``, ``nullspace``)
lives in the ``pure`` submodule and is re-exported here.  ``EchelonBasis``
(coordinates in a fixed basis) and ``Bilinear`` (sparse structure
constants) are built on top of it.  Elimination stays a submodule so
that the calls ``solve``, ``rank`` and ``nullspace`` make to ``rref``
internally are not calls through this package's names, which is what
``perfbench/tracer.py`` counts.
"""

from fractions import Fraction
from math import gcd

from .pure import mat_mul, nullspace, rank, rref, solve


def identity(n, char):
    one = 1 if char else Fraction(1)
    zero = 0 if char else Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


class EchelonBasis:
    """Coordinates in a fixed basis from one elimination.

    ``[B | I]`` is reduced once, for the independent rows B of ``basis``;
    its rows are ``[R | T]`` with ``T @ B == R`` and R in reduced echelon
    form with pivot columns p_i.  A vector v of the span equals
    ``sum_i v[p_i] R_i``, so its coordinates in B are ``sum_i v[p_i] T_i``:
    pivot reads times the recorded transform.  Every answer is checked
    exactly: v lies in the span only if that sum reproduces it on the
    free columns.  Coordinates agree with ``solve`` entry for entry.
    """

    __slots__ = ("dim", "ambient_dim", "char", "_pivots", "_free", "_transform")

    def __init__(self, basis, char):
        k = len(basis)
        n = len(basis[0]) if k else 0
        one = 1 if char else Fraction(1)
        zero = 0 if char else Fraction(0)
        aug = [
            list(b) + [one if i == j else zero for j in range(k)]
            for i, b in enumerate(basis)
        ]
        red, pivots = rref(aug, char) if k else ([], [])
        if pivots and pivots[-1] >= n:
            raise ValueError("basis rows are not linearly independent")
        pivset = set(pivots)
        free = [c for c in range(n) if c not in pivset]
        self.dim = k
        self.ambient_dim = n
        self.char = char
        self._pivots = pivots
        # R_i restricted to its nonzero free columns, as (column, value)
        self._free = [[(c, row[c]) for c in free if row[c]] for row in red]
        self._transform = [row[n:] for row in red]

    def pivot_reads(self, vec):
        """The pivot entries of ``vec`` if it lies in the span, else None:
        its coordinates in the reduced rows R.  The check reads only each
        row's nonzero free entries."""
        char = self.char
        if self.dim and len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match the basis")
        d = [vec[c] for c in self._pivots]
        resid = list(vec)
        for c in self._pivots:
            resid[c] = 0
        for di, row in zip(d, self._free):
            if di:
                for c, r in row:
                    resid[c] = resid[c] - di * r
        if char:
            if any(x % char for x in resid):
                return None
            return [x % char for x in d]
        if any(resid):
            return None
        return d

    def contains(self, vec):
        """Whether ``vec`` lies in the span of the basis."""
        return self.pivot_reads(vec) is not None

    def coords(self, vec):
        """Coordinates of ``vec`` in the basis, or None outside its span."""
        d = self.pivot_reads(vec)
        if d is None:
            return None
        char = self.char
        if char:
            out = [0] * self.dim
            for di, trow in zip(d, self._transform):
                if di:
                    for j, t in enumerate(trow):
                        if t:
                            out[j] = (out[j] + di * t) % char
            return out
        out = [Fraction(0)] * self.dim
        for di, trow in zip(d, self._transform):
            if di:
                for j, t in enumerate(trow):
                    if t:
                        out[j] = out[j] + di * t
        return out


_QZERO = Fraction(0)


def _common_den(values):
    """Least common multiple of the denominators of rational values."""
    den = 1
    for a in values:
        d = a.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    return den


def _cleared(vec):
    """Nonzero entries of a rational vector as (index, int), scaled by one
    common denominator, and that denominator."""
    nz = [(j, a) for j, a in enumerate(vec) if a]
    den = _common_den(a for _j, a in nz)
    if den == 1:
        return [(j, a.numerator) for j, a in nz], 1
    return [(j, a.numerator * (den // a.denominator)) for j, a in nz], den


class Bilinear:
    """An exact bilinear map (x, y) -> z given by sparse structure constants.

    Built once from cells ``(i, j) -> [(k, c), ...]`` meaning
    ``e_i * e_j = sum c e_k``; a dense vector's ``enumerate`` is a valid
    cell.  Only nonzero coefficients are kept, in ``rows[i][j]``.

    ``modulus`` 0 is the rationals: the table is scaled by one common
    denominator ``den`` to ints, a product clears the denominators of the
    nonzero entries of x and y, sums Python ints and builds a Fraction
    only for a nonzero output.  A modulus m >= 2 (a prime, or a prime
    power for q-adic lifting) sums plain ints and reduces mod m once.
    """

    __slots__ = ("out_dim", "modulus", "den", "rows")

    def __init__(self, cells, out_dim, modulus=0):
        merged = {}
        for (i, j), terms in cells.items():
            cell = {}
            for k, c in terms:
                if c:
                    cell[k] = cell.get(k, 0) + c
            if modulus:
                cell = {k: c % modulus for k, c in cell.items()}
            cell = {k: c for k, c in cell.items() if c}
            if cell:
                merged[(i, j)] = cell
        den = 1 if modulus else _common_den(
            c for cell in merged.values() for c in cell.values()
        )
        self.out_dim = out_dim
        self.modulus = modulus
        self.den = den
        self.rows = {}
        for (i, j), cell in merged.items():
            self.rows.setdefault(i, {})[j] = tuple(
                (k, c if modulus else c.numerator * (den // c.denominator))
                for k, c in sorted(cell.items())
            )

    def __call__(self, x, y):
        m = self.modulus
        rows = self.rows
        if m:
            xs = [(i, a) for i, a in enumerate(x) if a]
            ys = [(j, b) for j, b in enumerate(y) if b]
            den = 1
        else:
            xs, dx = _cleared(x)
            ys, dy = _cleared(y)
            den = dx * dy * self.den
        acc = [0] * self.out_dim
        for i, a in xs:
            row = rows.get(i)
            if row:
                for j, b in ys:
                    cell = row.get(j)
                    if cell:
                        ab = a * b
                        for k, c in cell:
                            acc[k] += ab * c
        if m:
            return [v % m for v in acc]
        if den == 1:
            return [Fraction(v) if v else _QZERO for v in acc]
        return [Fraction(v, den) if v else _QZERO for v in acc]

    def left(self, x, n):
        """The dense ``out_dim`` x n matrix of y -> B(x, y), for y in a
        space of dimension n: column b is B(x, e_b).  x's denominators are
        cleared once and the entries summed as ints."""
        m = self.modulus
        if m:
            xs = [(i, a) for i, a in enumerate(x) if a]
            den = 1
        else:
            xs, dx = _cleared(x)
            den = dx * self.den
        acc = [[0] * n for _ in range(self.out_dim)]
        rows = self.rows
        for i, a in xs:
            row = rows.get(i)
            if row:
                for j, cell in row.items():
                    for k, c in cell:
                        acc[k][j] += a * c
        if m:
            return [[v % m for v in r] for r in acc]
        return [[Fraction(v, den) if v else _QZERO for v in r] for r in acc]

    def items(self):
        """Every nonzero structure constant as ``(i, j, k, c)``, c exact."""
        m = self.modulus
        den = self.den
        for i, row in self.rows.items():
            for j, cell in row.items():
                for k, c in cell:
                    yield i, j, k, (c if m else Fraction(c, den))

    def reduce(self, modulus):
        """This rational table with every constant reduced mod ``modulus``
        (which must be prime to ``den``)."""
        if self.modulus:
            raise ValueError("only a rational table can be reduced")
        inv = pow(self.den, -1, modulus)
        cells = {
            (i, j): [(k, c * inv) for k, c in cell]
            for i, row in self.rows.items()
            for j, cell in row.items()
        }
        return Bilinear(cells, self.out_dim, modulus)
