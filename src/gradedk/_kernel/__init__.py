"""Exact linear-algebra kernel over Q and prime fields.

Elimination (``mat_mul``, ``rref``, ``rank``, ``solve``, ``nullspace``)
lives in the ``pure`` submodule and is re-exported here.
``EchelonBasis`` is the one span of the package: grown one vector at a
time, it answers membership, residues and coordinates in the vectors
that grew it.  ``Bilinear`` holds sparse structure constants.
Elimination stays a submodule so that the calls ``solve``, ``rank`` and
``nullspace`` make to ``rref`` internally are not calls through this
package's names, which is what ``perfbench/tracer.py`` counts.
"""

from fractions import Fraction
from math import gcd

from .pure import mat_mul, nullspace, rank, rref, solve


def identity(n, char):
    one = 1 if char else Fraction(1)
    zero = 0 if char else Fraction(0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


_QZERO = Fraction(0)


class EchelonBasis:
    """A span grown one vector at a time, with coordinates in the vectors
    that grew it.

    ``add`` reduces a vector once against the rows R_i, the reduced
    echelon form of the span: R_i is 1 at its pivot p_i and 0 at every
    other pivot, and is kept as its nonzero free entries, (column, value).
    A vector off the span takes the first nonzero column of its residue
    as its pivot.  That column is a leading position of a vector in the
    span, so it is a pivot of the span's reduced echelon form: the pivots
    and the rows do not depend on the order of adds.

    Beside each row, ``add`` keeps its transform T_i, with R_i = sum_j
    T_ij basis_j.  A vector v of the span equals sum_i v[p_i] R_i, so its
    coordinates in ``basis`` are sum_i v[p_i] T_i: pivot reads times the
    transform.  Every answer is checked exactly: v lies in the span only
    if its residue is zero.  Coordinates agree with ``solve`` entry for
    entry.  ``EchelonBasis(rows, char)`` adds each row and raises
    ValueError on a dependent one.
    """

    __slots__ = ("char", "ambient_dim", "basis", "pivots", "_free", "_transform")

    def __init__(self, rows, char):
        self.char = char
        self.ambient_dim = 0
        self.basis = []  # the vectors that enlarged the span, as given
        self.pivots = []
        self._free = []
        self._transform = []
        for row in rows:
            if not self.add(row):
                raise ValueError("basis rows are not linearly independent")

    @property
    def dim(self):
        return len(self.basis)

    def residue(self, vec):
        """``vec`` minus its pivot reads times the rows: zero on every
        pivot, and zero everywhere exactly when ``vec`` lies in the span.
        Only each row's nonzero free entries are read."""
        char = self.char
        if self.pivots and len(vec) != self.ambient_dim:
            raise ValueError("vector length does not match the basis")
        r = list(vec)
        zero = 0 if char else _QZERO
        for c, row in zip(self.pivots, self._free):
            x = vec[c]
            if x:
                r[c] = zero
                for j, a in row:
                    r[j] -= x * a
        if char:
            return [x % char for x in r]
        return r

    def add(self, vec):
        """Add ``vec`` to the span; whether that made the span larger."""
        r = self.residue(vec)
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None:
            return False
        char = self.char
        k = len(self.basis)
        # r = vec - sum_i vec[p_i] R_i = basis_k - sum_i vec[p_i] sum_j T_ij basis_j
        t = [0] * k + [1]
        for c, trow in zip(self.pivots, self._transform):
            x = vec[c]
            if x:
                for j, a in enumerate(trow):
                    if a:
                        t[j] -= x * a
        if char:
            inv = pow(r[p], -1, char)
            t = [a * inv % char for a in t]
            row = [(j, a * inv % char) for j, a in enumerate(r) if a and j != p]
        else:
            inv = 1 / Fraction(r[p])
            t = [a * inv for a in t]
            row = [(j, a * inv) for j, a in enumerate(r) if a and j != p]
        # clear column p, a pivot from now on, from the other rows
        for i, frow in enumerate(self._free):
            f = next((a for j, a in frow if j == p), None)
            if f is None:
                continue
            merged = dict(frow)
            del merged[p]
            for j, a in row:
                merged[j] = merged.get(j, 0) - f * a
            trow = self._transform[i]
            trow = trow + [0] * (k + 1 - len(trow))
            if char:
                self._free[i] = [(j, a % char) for j, a in merged.items() if a % char]
                self._transform[i] = [(a - f * b) % char for a, b in zip(trow, t)]
            else:
                self._free[i] = [(j, a) for j, a in merged.items() if a]
                self._transform[i] = [a - f * b for a, b in zip(trow, t)]
        self.ambient_dim = len(vec)
        self.pivots.append(p)
        self._free.append(row)
        self._transform.append(t)
        self.basis.append(vec)
        return True

    def contains(self, vec):
        """Whether ``vec`` lies in the span of the basis."""
        return not any(self.residue(vec))

    def coords(self, vec):
        """Coordinates of ``vec`` in the basis, or None outside its span."""
        if any(self.residue(vec)):
            return None
        char = self.char
        if char:
            out = [0] * len(self.basis)
            for c, trow in zip(self.pivots, self._transform):
                di = vec[c] % char
                if di:
                    for j, t in enumerate(trow):
                        if t:
                            out[j] = (out[j] + di * t) % char
            return out
        out = [_QZERO] * len(self.basis)
        for c, trow in zip(self.pivots, self._transform):
            di = vec[c]
            if di:
                for j, t in enumerate(trow):
                    if t:
                        out[j] = out[j] + di * t
        return out


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
