"""Degree-zero endomorphism algebras and exact primitive idempotent splitting.

End(P)_0 of a presentation is finite-dimensional whenever the component
spaces meeting the shift pattern are.  A degree-0 map between free
modules F = A(s_1) + ... + A(s_k) is a vector on the raw positions of
``presentations``, and maps compose by its one product table
(``presentations.hom_table``).  End(F)_0 is that table; End(P)_0 =
e End(F)_0 e and Hom(P, Q)_0 = e_Q Hom(F, G)_0 e_P are its corners.
Splitting the unit into primitive orthogonal idempotents is
the engine behind Krull-Schmidt decomposition:

* radical: the null space of the trace form, which is the radical in
  characteristic 0 and over GF(p) with p > dim.  Over GF(p) with
  p <= dim, a commutative algebra's radical is the kernel of the
  GF(p)-linear map x -> x^(p^k), p^k >= dim (after Berlekamp, *Factoring
  polynomials over large finite fields*, Math. Comp. 1970, and Ronyai,
  *Computing the structure of finite algebras*, JSC 1990): one product
  chain per basis vector and one null space.  Any other algebra runs the
  chain of ideals of Cohen, Ivanyos and Wales (*Finding the radical of
  an algebra of linear transformations*, JPAA 1997), whose level i keeps
  the x with g_i(x b) = 0 for every b, g_i the coefficient of
  lambda^(dim - p^i) in the characteristic polynomial of left
  multiplication; g_i is linear on the previous level, so it costs one
  characteristic polynomial per basis vector of that level.
  Self-checks (two-sided ideal, nilpotent, clean quotient) turn any
  failure into a loud internal error instead of a wrong answer.  The
  ideal and nilpotency checks run through generators: J is an ideal
  when J t and t J lie in J for a few unit vectors t that generate the
  algebra, and with J = A S the chain of powers J^(k+1) = J^k S
  multiplies by S only.  On a commutative algebra J t = t J, and J is
  nilpotent when each of its basis vectors is, which k squarings show;
* the centre: the commutator system is read from the table's integer
  cells, without repeated rows, and eliminated in the field by
  ``_kernel.nullspace``;
* the semisimple quotient splits through its center (minimal polynomial
  factorization plus CRT idempotents), which also gives each simple
  block's size r over its centre field.  sympy only factors, with
  ``dup_factor_list`` on dense coefficient lists (a linear polynomial is
  its own factor); the CRT polynomials are computed in the field's own
  arithmetic (von zur Gathen and Gerhard, *Modern Computer Algebra*,
  ch. 5), and each idempotent is a combination of the powers of t that the
  minimal polynomial was read from, so it costs no product.  A candidate
  t whose minimal polynomial m has the degree of its corner zZ generates
  it, so zZ = F[x]/(m) and one factorization gives every field of zZ;
  other candidates split zZ into pieces that are split again.  Blocks
  with r > 1 split by corner recursion -- directly over a finite field,
  and over Q by splitting modulo a good prime, Hensel lifting, and
  rational reconstruction of subset sums (smallest subsets first, so
  accepted idempotents are primitive).  Neither the centre nor a corner
  e A e is copied: their candidates, minimal polynomials and CRT
  idempotents are computed in the coordinates of the algebra that holds
  them, with e as the unit (the centre's z as the unit of its corner
  zZ), and an algebra with zero radical serves as its own quotient.  No
  block gets a table of its own over Q: a rational block's table mod q
  is read from the parent's at the pivots of the block's echelon rows,
  with each product taken over the supports of the two sparse rows, and
  its q-adic lift runs in the parent's coordinates;
* one Newton lift, sequentially orthogonalized, carries idempotents
  through the radical and through the q-adic lift alike, by the
  3e^2 - 2e^3 iteration; everything is verified exactly;
* orthogonality is read from ranks: idempotents e_i that sum to the
  unit u are orthogonal exactly when the ranks of the L_{e_i} add up to
  rank L_u.  An idempotent matrix over a field of characteristic 0 has
  rank equal to its trace, and traces add, so over Q the idempotent and
  sum checks already imply it.  Over GF(p) the ranks are counted: when
  the algebra's dimension n is below p, each is the trace mod p read as
  an integer in [0, n], and otherwise an elimination.  The trace form
  reads tr(L_{b_k}) from ``Bilinear.left_trace``.

Every span this module grows or reads is a ``_kernel.EchelonBasis``:
the powers a minimal polynomial is read from, the words of the
generators, the closure A S of the radical's check, the coordinates of
the radical chain and of End(P)_0, and the radical quotient, whose
projection is the residue by J read at the free columns.  The one
elimination of its own left here is the block table's sparse pivot
reads mod q.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .. import _kernel
from ..fields import Field
from .presentations import (
    PresentationError,
    ProjectivePresentation,
    SplitError,
    entries_to_vec,
    hom_table,
    identity_entries,
    raw_positions,
    vec_to_entries,
)


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


def hom_basis(X: ProjectivePresentation, Y: ProjectivePresentation):
    """Basis of the degree-0 maps X -> Y, as vectors on the raw positions
    ``raw_positions(A, Y.shifts, X.shifts)`` (normalized by the two
    idempotents).

    The spanning set is e_Y E e_X over the raw matrices E with a single
    basis element at one position, and the basis keeps its pivot
    columns.  Both products are ``hom_table`` products: left
    multiplication by e_Y gives every e_Y E at once, and only its pivot
    columns are multiplied by e_X -- any other column lies in the span
    of earlier ones, and so does its image, which is never a pivot."""
    if X.algebra is not Y.algebra:
        raise PresentationError("hom spaces need one common algebra")
    A = X.algebra
    char = A.field.char
    e_y = entries_to_vec(A, Y.entries, raw_positions(A, Y.shifts, Y.shifts))
    e_x = entries_to_vec(A, X.entries, raw_positions(A, X.shifts, X.shifts))
    by_y = hom_table(A, X.shifts, Y.shifts, Y.shifts)
    left = by_y.left(e_y, by_y.out_dim)
    right = hom_table(A, X.shifts, X.shifts, Y.shifts)
    _red, spanning = _kernel.rref(left, char)
    left_cols = list(zip(*left))
    cols = [right(left_cols[c], e_x) for c in spanning]
    _red, pivots = _kernel.rref(list(zip(*cols)), char)
    return [cols[c] for c in pivots]


# ---------------------------------------------------------------------------
# abstract finite-dimensional algebras by structure constants
# ---------------------------------------------------------------------------


class FDAlgebra:
    """Finite-dimensional unital associative algebra via structure constants.

    ``table`` is a sparse ``_kernel.Bilinear`` over the field: the
    product b_i * b_j is ``sum c b_k`` over its cell (i, j)."""

    def __init__(self, field: Field, table, unit):
        self.field = field
        self.dim = len(unit)
        self.table = table
        self.unit = list(unit)

    @classmethod
    def from_products(cls, field: Field, products, unit):
        """The algebra whose b_i * b_j has coordinates ``products[(i, j)]``."""
        cells = {ij: enumerate(vec) for ij, vec in products.items()}
        return cls(field, _kernel.Bilinear(cells, len(unit), field.char), unit)

    def mul_vec(self, x, y):
        return self.table(x, y)

    def is_commutative(self):
        """Whether b_i b_j = b_j b_i for every i, j: the table's cells equal
        their transposes (cells are kept sorted, without zero terms)."""
        rows = self.table.rows
        return all(
            rows.get(j, {}).get(i) == cell
            for i, row in rows.items()
            for j, cell in row.items()
        )

    def minimal_polynomial(self, x, e):
        """Monic minimal polynomial m of x in the corner e A e, whose unit
        is the idempotent e, and the powers it was read from:
        ``(coeffs, powers)`` with coeffs low degree first and powers =
        [e, x, ..., x^(deg m - 1)].

        The powers x^n (x^0 = e) join a span while they enlarge it, and
        the coordinates of the first one that does not give m: deg m
        products in all."""
        F = self.field
        span = _kernel.EchelonBasis([], F.char)
        power = list(e)
        while span.add(power):
            power = self.mul_vec(power, x)
        return [F.neg(c) for c in span.coords(power)] + [F.one], span.basis

    def center_basis(self):
        """Basis of the centre: x with b_i x = x b_i for every basis b_i,
        one vector per free column of the commutator system: 1 there, 0
        on the other free columns.

        Row (i, k) of the system is ``(b_i b_j - b_j b_i)_k`` over j, read
        from the table's integer cells (over Q scaled by ``table.den``,
        which changes no null space); zero rows and repeats up to a
        scalar are left out, and the rest are eliminated in the field."""
        d = self.dim
        char = self.field.char
        rows = _commutator_rows(self.table, d)
        return _kernel.nullspace([_dense(r, d, char) for r in rows] or [[0] * d], char)


def _commutator_rows(table, d):
    """The distinct nonzero rows of the commutator system of a structure
    table, as sorted (column, value) tuples of ints scaled to a canonical
    representative: over GF(p) with first entry 1, over Q coprime with
    first entry positive."""
    m = table.modulus
    rows = {}
    for i, row in table.rows.items():
        for j, cell in row.items():
            for k, c in cell:
                # b_i b_j = ... + c b_k: +c in row (i, k) and -c in row (j, k)
                r = rows.setdefault(i * d + k, {})
                r[j] = r.get(j, 0) + c
                r = rows.setdefault(j * d + k, {})
                r[i] = r.get(i, 0) - c
    out = set()
    for r in rows.values():
        if m:
            r = {col: v % m for col, v in r.items() if v % m}
        else:
            r = {col: v for col, v in r.items() if v}
        if not r:
            continue
        items = sorted(r.items())
        lead = items[0][1]
        if m:
            inv = pow(lead, -1, m)
            out.add(tuple((col, v * inv % m) for col, v in items))
        else:
            g = gcd(*(v for _col, v in items))
            g = g if lead > 0 else -g
            out.add(tuple((col, v // g) for col, v in items))
    return sorted(out)


def _dense(row, d, m):
    """A sparse row of ints as a dense row of length d, reduced mod m unless m is 0."""
    out = [0] * d
    for col, v in row:
        out[col] = v % m if m else v
    return out


def _echelon(vectors, char):
    """The reduced echelon basis of the span of ``vectors``."""
    red, pivots = _kernel.rref(vectors, char)
    return red[: len(pivots)]


# ---------------------------------------------------------------------------
# characteristic polynomials and radicals
# ---------------------------------------------------------------------------


def _charpoly_modp(M, p):
    """Characteristic polynomial coefficients (monic, low degree first) of
    a square matrix over GF(p), via Hessenberg reduction."""
    n = len(M)
    H = [[x % p for x in row] for row in M]
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][c + 1] = H[r][c + 1], H[r][piv]
        inv = pow(H[c + 1][c], p - 2, p)
        for r in range(c + 2, n):
            f = (H[r][c] * inv) % p
            if f:
                for j in range(n):
                    H[r][j] = (H[r][j] - f * H[c + 1][j]) % p
                for i in range(n):
                    H[i][c + 1] = (H[i][c + 1] + f * H[i][r]) % p
    # recurrence for characteristic polynomials of leading submatrices
    polys = [[1]]
    for m in range(1, n + 1):
        # (x - h_mm) * p_{m-1}
        prev = polys[m - 1]
        cur = [0] * (len(prev) + 1)
        for i, cc in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + cc) % p
            cur[i] = (cur[i] - H[m - 1][m - 1] * cc) % p
        beta = 1
        for i in range(m - 1, 0, -1):
            beta = (beta * H[i][i - 1]) % p
            coef = (H[i - 1][m - 1] * beta) % p
            if coef:
                for t, cc in enumerate(polys[i - 1]):
                    cur[t] = (cur[t] - coef * cc) % p
        polys.append(cur)
    return polys[n]


def radical_basis(fd: FDAlgebra):
    """Basis (list of coordinate vectors) of the Jacobson radical.

    Level 0 is the null space of the trace form, which is the radical
    already in characteristic 0 and over GF(p) for p > n = dim.  Over
    GF(p) with p <= n, when that null space is not zero, one of two
    paths finishes:

    * a commutative algebra (``FDAlgebra.is_commutative``): the radical
      is the set of nilpotent elements, the kernel of x -> x^(p^k) for
      the least k with p^k >= n (``_frobenius_kernel``).  A nilpotent
      element of a unital n-dimensional algebra has x^n = 0, and x -> x^p
      is GF(p)-linear when the algebra is commutative;
    * otherwise the chain of ideals of Cohen, Ivanyos and Wales
      (``_radical_chain``).

    Either way the answer passes ``_verify_radical``."""
    p = fd.field.char
    n = fd.dim
    if n == 0:
        return []
    ideal = _kernel.nullspace(_trace_form(fd), p)
    if ideal and 0 < p <= n:
        if fd.is_commutative():
            ideal = _frobenius_kernel(fd)
        else:
            ideal = _radical_chain(fd, ideal)
    _verify_radical(fd, ideal)
    return ideal


def _frobenius_kernel(fd: FDAlgebra):
    """The kernel of x -> x^(p^k) on a commutative algebra over GF(p),
    for the least k with p^k >= dim: its nilpotent elements.

    c^p = c for c in GF(p), and (x + y)^p = x^p + y^p when x and y
    commute, so the map sends sum c_i b_i to sum c_i b_i^(p^k): its
    matrix has the columns b_i^(p^k), each built by k p-th powers."""
    p = fd.field.char
    n = fd.dim
    cols = []
    for i in range(n):
        x = _unit_vec(fd, i)
        q = 1
        while q < n:
            x = _power(fd, x, p)
            q *= p
        cols.append(x)
    return _kernel.nullspace([list(r) for r in zip(*cols)], p)


def _power(fd: FDAlgebra, x, e):
    """x^e for e >= 1, by square and multiply."""
    out = None
    while True:
        if e & 1:
            out = x if out is None else fd.mul_vec(out, x)
        e >>= 1
        if not e:
            return out
        x = fd.mul_vec(x, x)


def _radical_chain(fd: FDAlgebra, ideal):
    """The radical over GF(p), from the null space ``ideal`` of the trace
    form, by the chain of ideals of Cohen, Ivanyos and Wales (*Finding
    the radical of an algebra of linear transformations*, JPAA 1997).

    With g_i(x) the coefficient of lambda^(n - p^i) in the characteristic
    polynomial of left multiplication L_x, n = dim, the chain I_{-1} = A,
    I_i = {x in I_{i-1} : g_i(x b) = 0 for every b in A} is a chain of
    ideals that reaches the radical once p^(i+1) > n; level 0 is the
    trace form's null space.  At level i >= 1, g_i is p^i-semilinear on
    I_{i-1}, which over GF(p) means linear, so one characteristic
    polynomial per basis vector u_t of I_{i-1} gives every
    g_i(u_a b_j) = sum_t coords_t(u_a b_j) g_i(u_t)."""
    p = fd.field.char
    n = fd.dim
    pw = p
    while ideal and pw <= n:
        span = _kernel.EchelonBasis(ideal, p)
        # column j of L_u is u b_j
        lmats = [fd.table.left(u, n) for u in ideal]
        g = [_charpoly_modp(L, p)[n - pw] for L in lmats]
        form = [[0] * len(ideal) for _ in range(n)]  # form[j][a] = g_i(u_a b_j)
        for a, L in enumerate(lmats):
            for j in range(n):
                coords = span.coords([row[j] for row in L])
                if coords is None:
                    raise SplitError("radical chain: a level is not an ideal")
                form[j][a] = sum(c * gt for c, gt in zip(coords, g)) % p
        ideal = [_up(ideal, v, fd.field, n) for v in _kernel.nullspace(form, p)]
        pw *= p
    return ideal


def _trace_form(fd):
    """The matrix tr(L_{b_i b_j}) = sum_k c_ijk tr(L_{b_k}), where L_x is
    left multiplication by x and tr(L_{b_k}) = sum_r c_krr
    (``Bilinear.left_trace``)."""
    F = fd.field
    n = fd.dim
    trace = [fd.table.left_trace(_unit_vec(fd, k)) for k in range(n)]
    form = [[F.zero] * n for _ in range(n)]
    for i, j, k, c in fd.table.items():
        if trace[k]:
            form[i][j] = F.add(form[i][j], F.mul(c, trace[k]))
    return form


def _close(span, queue, images, dim):
    """Add the vectors of ``queue`` to ``span`` and, for each one that
    enlarged it, its ``images``, until none is left or the span has
    dimension ``dim``.  Each vector added is reduced once."""
    while queue and span.dim < dim:
        v = queue.pop()
        if span.add(v):
            queue.extend(images(v))


def _generators(fd):
    """Unit vectors T that generate fd together with its unit.

    The span of the words in T is the closure of the unit under right
    products with T, grown as words are built by appending.  While it is
    not everything, e_b for its first column b that is not a pivot joins
    T: a unit vector off the pivots never lies in the span."""
    n = fd.dim
    gens = []
    span = _kernel.EchelonBasis([], fd.field.char)

    def right(v):
        return [fd.mul_vec(v, t) for t in gens]

    _close(span, [fd.unit], right, n)
    while span.dim < n:
        pivots = set(span.pivots)
        t = _unit_vec(fd, next(b for b in range(n) if b not in pivots))
        gens.append(t)
        _close(span, [fd.mul_vec(w, t) for w in span.basis], right, n)
    return gens


def _verify_radical(fd, J):
    """J must be a two-sided nilpotent ideal with semisimple-looking
    quotient; failure raises instead of silently continuing.

    Both checks run through generators.  With T and the unit generating
    fd (``_generators``), J is a two-sided ideal when J t and t J lie in
    J for every t in T.  With S in J such that J = A S, found greedily,
    J^(k+1) = J^k A S = J^k S, so the chain of powers multiplies by S
    only.

    A commutative fd (``FDAlgebra.is_commutative``) has J t = t J, so
    the ideal check reads one side.  Its nilpotency check reads each
    vector j of J alone: j^(2^k) = 0 for the least k with 2^k >= dim, by
    k squarings.  A nilpotent element x of a unital algebra of dimension
    n has x^n = 0: if x^m is its first zero power, 1, x, ..., x^(m-1)
    are independent, so m <= n.  The check is exact for each j.
    Nilpotents that commute add up to nilpotents (binomial theorem), so
    J, spanned by them, is nil; and with j_1, ..., j_r spanning J and
    j_i^(n_i) = 0, every product of n_1 + ... + n_r elements of J
    expands into monomials each of which has some j_i at least n_i
    times.  So J is nilpotent."""
    char = fd.field.char
    if not J:
        return
    mul = fd.mul_vec
    gens = _generators(fd)
    in_span = _kernel.EchelonBasis(J, char).contains
    commutative = fd.is_commutative()
    for t in gens:
        for j in J:
            if not in_span(mul(j, t)) or not (commutative or in_span(mul(t, j))):
                raise SplitError("computed radical is not an ideal")
    if commutative:
        for j in J:
            q = 1
            while q < fd.dim:
                j = mul(j, j)
                q *= 2
            if any(j):
                raise SplitError("computed radical is not nilpotent")
        return

    def left(v):
        return [mul(t, v) for t in gens]

    # S: a row of J outside the span of A S so far joins S, and A s, the
    # closure of s under left products with T, joins the span.  J is a
    # left ideal, so the span stays in J and is J at J's dimension.
    S = []
    span = _kernel.EchelonBasis([], char)
    for j in J:
        if span.add(j):
            S.append(j)
            _close(span, left(j), left, len(J))
    # nilpotency: powers of the subspace must reach zero
    power = [list(r) for r in J]
    for _ in range(fd.dim + 1):
        if not power:
            return
        nxt = []
        for a in power:
            for b in S:
                v = mul(a, b)
                if any(v):
                    nxt.append(v)
        if not nxt:
            return
        red, piv = _kernel.rref(nxt, char)
        if len(piv) == len(power):
            # J is an ideal (checked above), so J^(k+1) lies in J^k and
            # an equal rank means an equal span: the powers stagnate
            raise SplitError("computed radical is not nilpotent")
        power = [red[i] for i in range(len(piv))]
    raise SplitError("computed radical is not nilpotent")


# ---------------------------------------------------------------------------
# quotient by the radical
# ---------------------------------------------------------------------------


class RadicalQuotient:
    """E/J with a canonical linear section (non-pivot coordinates)."""

    def __init__(self, fd: FDAlgebra, J):
        self.parent = fd
        self.radical = _kernel.EchelonBasis(J, fd.field.char)
        pivset = set(self.radical.pivots)
        self.free = [c for c in range(fd.dim) if c not in pivset]
        products = {
            (a, b): self.project(fd.mul_vec(_unit_vec(fd, i), _unit_vec(fd, j)))
            for a, i in enumerate(self.free)
            for b, j in enumerate(self.free)
        }
        self.algebra = FDAlgebra.from_products(
            fd.field, products, self.project(fd.unit)
        )

    def project(self, vec):
        """Coordinates in the quotient basis: the residue of ``vec`` by
        the radical, read at the free columns."""
        r = self.radical.residue(vec)
        return [r[c] for c in self.free]

    def lift(self, qvec):
        F = self.parent.field
        v = [F.zero] * self.parent.dim
        for x, c in zip(qvec, self.free):
            v[c] = x
        return v


# ---------------------------------------------------------------------------
# polynomials: sympy factors, CRT idempotents in the field's own arithmetic
# ---------------------------------------------------------------------------

# Polynomials are low-first coefficient lists over a ``Field``; the zero
# polynomial is [].


def _poly_mul(a, b, F: Field):
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return out


def _poly_divmod(a, b, F: Field):
    """(q, r) with a = q b + r and deg r < deg b; r has no trailing zeros."""
    db = len(b) - 1
    inv = F.inv(b[-1])
    r = list(a)
    q = [F.zero] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = F.mul(r[k + db], inv)
        q[k] = c
        if c:
            for i, y in enumerate(b):
                r[k + i] = F.sub(r[k + i], F.mul(c, y))
    r = r[:db]
    while r and not r[-1]:
        r.pop()
    return q, r


def _poly_inv_mod(a, m, F: Field):
    """The u of degree below deg m with u a = 1 mod m, by the extended
    Euclidean algorithm, or None when a and m are not coprime."""
    r0, r1 = m, _poly_divmod(a, m, F)[1]
    s0, s1 = [], [F.one]  # s_i a = r_i mod m
    while r1:
        q, r = _poly_divmod(r0, r1, F)
        qs = _poly_mul(q, s1, F)  # of higher degree than s0
        s0 = s0 + [F.zero] * (len(qs) - len(s0))
        r0, r1 = r1, r
        s0, s1 = s1, [F.sub(x, y) for x, y in zip(s0, qs)]
    if len(r0) != 1:
        return None
    inv = F.inv(r0[0])
    return [F.mul(inv, c) for c in s0]


def factor_irreducible(coeffs, field: Field):
    """Irreducible factors (monic, low-first coeff lists) with multiplicity,
    in sympy's order, which fixes the order of the idempotents and so the
    block ids.  A linear polynomial is its own factor; others go to
    sympy's ``dup_factor_list`` on dense coefficient lists, over GF(p)
    or, with denominators cleared, over ZZ."""
    if len(coeffs) == 2:
        inv = field.inv(coeffs[1])
        return [([field.mul(inv, c) for c in coeffs], 1)]
    from sympy.polys.domains import FF, ZZ
    from sympy.polys.factortools import dup_factor_list

    if field.char:
        K = FF(field.char)
        dense = [K(c) for c in reversed(coeffs)]
    else:
        K = ZZ
        den = lcm(*(c.denominator for c in coeffs))
        dense = [K(c.numerator * (den // c.denominator)) for c in reversed(coeffs)]
    out = []
    for f, mult in dup_factor_list(dense, K)[1]:
        fc = [field.of_int(int(c)) for c in reversed(f)]
        inv = field.inv(fc[-1])
        out.append(([field.mul(inv, c) for c in fc], mult))
    return out


def _crt_idempotents(F: Field, m, powers, factors):
    """Primary-component idempotents of k[t] in a corner, from the minimal
    polynomial m of t and the powers [e, t, ..., t^(deg m - 1)] that
    ``FDAlgebra.minimal_polynomial`` read it from, e the corner's unit.

    For a primary factor f^k of m, with h = m / f^k and u = h^-1 mod
    f^k, the polynomial u h is 1 mod f^k and 0 mod h, and its degree is
    below deg m because deg u < deg f^k, so it is its own remainder mod
    m.  Its value at t is the idempotent: a combination of the powers,
    so no product is taken.  These polynomials sum to 1, so the last one
    is 1 minus the others."""
    n = len(powers)
    polys = []
    for f, mult in factors[:-1]:
        fk = [F.one]
        for _ in range(mult):
            fk = _poly_mul(fk, f, F)
        h, rem = _poly_divmod(m, fk, F)
        if rem:
            raise SplitError("primary factor does not divide the minimal polynomial")
        u = _poly_inv_mod(h, fk, F)
        if u is None:
            raise SplitError("primary components are not coprime")
        crt = _poly_mul(u, h, F)
        polys.append(crt + [F.zero] * (n - len(crt)))
    last = [F.one] + [F.zero] * (n - 1)
    for crt in polys:
        last = [F.sub(a, b) for a, b in zip(last, crt)]
    polys.append(last)
    return [_up(powers, crt, F, len(powers[0])) for crt in polys]


# ---------------------------------------------------------------------------
# semisimple splitting
# ---------------------------------------------------------------------------

# Search budgets of the splitting code.  Each SplitError raised when one
# runs out names it and its value.
_CANDIDATE_BUDGET = 250  # seeded random candidates after the basis sweep
_PRIME_BUDGET = 25  # good primes tried per rational matrix block
_QADIC_EXPONENTS = (16, 32, 64, 128)  # N of the q^N lifts tried per prime
# subsets of lifted idempotents one reconstruction tries, smallest first
_SUBSET_BUDGET = 4096
# 3e^2 - 2e^3 steps of one idempotent lift; each squares the defect, so
# 64 steps cover any nilpotency index below 2^64
_NEWTON_STEPS = 64


def _unit_vec(fd, i):
    v = [fd.field.zero] * fd.dim
    v[i] = fd.field.one
    return v


def _candidates(F: Field, basis, rng):
    """Elements of the span of the rows ``basis``: the rows, their pairwise
    sums, then seeded random combinations."""
    n = len(basis)
    yield from basis
    for i in range(n):
        for j in range(i + 1, n):
            yield [F.add(a, b) for a, b in zip(basis[i], basis[j])]
    hi = min((F.char - 1) if F.char else 5, 5)
    lo = 0 if F.char == 2 else -hi
    for _ in range(_CANDIDATE_BUDGET):
        coeffs = [F.of_int(rng.randint(lo, max(hi, 1))) for _ in range(n)]
        yield _up(basis, coeffs, F, len(basis[0]))


def _up(basis_rows, vec, field, dim):
    """sum c_i row_i for the coefficients c_i in ``vec``, summed as ints:
    over GF(p) reduced once, over Q over the least common denominator of
    the terms, with one Fraction per nonzero entry."""
    p = field.char
    terms = [(c, row) for c, row in zip(vec, basis_rows) if c]
    acc = [0] * dim
    if p:
        for c, row in terms:
            for j, a in enumerate(row):
                if a:
                    acc[j] += c * a
        return [a % p for a in acc]
    cleared = []
    den = 1
    for c, row in terms:
        nz, d = _kernel._cleared(row)
        cd = c.denominator * d
        den = den // gcd(den, cd) * cd
        cleared.append((c, nz, cd))
    for c, nz, cd in cleared:
        s = c.numerator * (den // cd)
        for j, a in nz:
            acc[j] += s * a
    return [Fraction(a, den) if a else field.zero for a in acc]


def _corner_span(fd: FDAlgebra, e):
    """The e b_i e, which span the corner e A e."""
    return [fd.mul_vec(fd.mul_vec(e, _unit_vec(fd, i)), e) for i in range(fd.dim)]


def _split_commutative(fd: FDAlgebra, zvecs, rng):
    """Complete orthogonal primitive idempotents of the semisimple centre
    Z of ``fd``, spanned by the rows ``zvecs``, each with the dimension of
    its field zZ: [(vector, field dimension)], in fd's coordinates.

    Z is not copied: each corner zZ is spanned by the z c_i, and its
    candidates, minimal polynomials and CRT idempotents are computed in
    fd with z as the unit.  A commutative fd passes its unit vectors.

    A candidate t whose minimal polynomial m has degree dim zZ generates
    zZ = F[t] = F[x]/(m), and m is squarefree, so the CRT idempotents of
    its factors f_i cut out the fields F[x]/(f_i), of dimension deg f_i:
    one factorization splits zZ completely.  They are taken in the order
    the work list would pop them."""
    F = fd.field
    work = [list(fd.unit)]
    done = []
    while work:
        z = work.pop()
        basis = _echelon([fd.mul_vec(z, c) for c in zvecs], F.char)
        if len(basis) == 1:
            done.append((z, 1))
            continue
        for t in _candidates(F, basis, rng):
            m, powers = fd.minimal_polynomial(t, z)
            factors = factor_irreducible(m, F)
            if any(mult > 1 for _f, mult in factors):
                raise SplitError("nilpotent found in a supposedly semisimple center")
            if len(m) - 1 == len(basis):
                # primitive element certificate: each piece is a field
                idems = [z] if len(factors) == 1 else _crt_idempotents(F, m, powers, factors)
                done.extend(reversed([(e, len(f) - 1) for e, (f, _mult) in zip(idems, factors)]))
                break
            if len(factors) >= 2:
                work.extend(_crt_idempotents(F, m, powers, factors))
                break
        else:
            raise SplitError(
                "could not certify or split a commutative factor within "
                f"_CANDIDATE_BUDGET = {_CANDIDATE_BUDGET} random candidates"
            )
    return done


def _block_matrix_size(block_dim, d_z):
    """r with a simple block of dimension block_dim being M_r over its
    centre, a field of dimension d_z."""
    if d_z == 0 or block_dim % d_z:
        raise SplitError("degenerate block (center does not divide)")
    r2 = block_dim // d_z
    r = isqrt(r2)
    if r * r != r2:
        raise SplitError("block dimension is not a square over its center")
    return r


def _split_block_modp(fd: FDAlgebra, z, d_z, rng):
    """Split a simple block over a prime field, whose centre has dimension
    d_z, into primitive idempotents by corner recursion on reducible
    minimal polynomials.  A corner e * block * e is M_s over the centre,
    so e is primitive exactly when the corner has dimension d_z."""
    F = fd.field
    stack = [z]
    out = []
    while stack:
        e = stack.pop()
        basis = _echelon(_corner_span(fd, e), F.char)
        if len(basis) == d_z:
            out.append(e)
            continue
        for t in _candidates(F, basis, rng):
            m, powers = fd.minimal_polynomial(t, e)
            factors = factor_irreducible(m, F)
            if len(factors) >= 2:
                stack.extend(_crt_idempotents(F, m, powers, factors))
                break
        else:
            raise SplitError(
                "failed to split a matrix block over a prime field within "
                f"_CANDIDATE_BUDGET = {_CANDIDATE_BUDGET} random candidates"
            )
    return out


def _lift_orthogonal(mul, unit, approx, m):
    """Complete orthogonal idempotents lifted from approximate ones.

    ``approx`` are complete orthogonal idempotents modulo a nilpotent
    ideal: the radical (m = 0 over Q, m = p over GF(p)), or q A in
    coordinates reduced mod m = q^N.  Each is cut down by the complement
    of the ones lifted before it and refined by e -> 3e^2 - 2e^3; the
    last is the remaining complement."""

    def red(v):
        return [x % m for x in v] if m else v

    lifted = []
    rest = list(unit)
    for a in approx[:-1]:
        e = mul(mul(rest, a), rest)
        for _ in range(_NEWTON_STEPS):
            sq = mul(e, e)
            if sq == e:
                break
            e = red([3 * s - 2 * c for s, c in zip(sq, mul(sq, e))])
        else:
            raise SplitError(
                "idempotent lifting did not converge within "
                f"_NEWTON_STEPS = {_NEWTON_STEPS}"
            )
        lifted.append(e)
        rest = red([r - x for r, x in zip(rest, e)])
    lifted.append(rest)
    return lifted


# -- q-adic splitting over the rationals -------------------------------------


def _rat_recon(s, M):
    """Rational reconstruction of s mod M with numerator/denominator
    bounded by sqrt(M/2); None if impossible."""
    s %= M
    if s == 0:
        return Fraction(0)
    B = isqrt((M - 1) // 2)
    r0, r1 = M, s
    t0, t1 = 0, 1
    while r1 > B:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > B:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    if gcd(t1, M) != 1 or gcd(abs(r1), t1) != 1:
        return None
    if (r1 - s * t1) % M:
        return None
    return Fraction(r1, t1)


def _primes_for(fd: FDAlgebra, z, rows):
    """Good primes for the block spanned by ``rows``: none divides a
    denominator of the parent's table, of z or of the rows, so each
    reduces the block and its structure constants."""
    import sympy

    q = max(53, len(rows) + 2)
    dens = {fd.table.den} | {c.denominator for v in (z, *rows) for c in v}
    seen = 0
    while seen < _PRIME_BUDGET:
        q = int(sympy.nextprime(q))
        if all(d % q for d in dens):
            yield q
            seen += 1


def _block_table_modq(fd: FDAlgebra, rows, q):
    """The structure constants mod q of the subalgebra spanned by the
    reduced echelon ``rows``, in that basis.  Each product of two rows is
    taken with the parent's table mod q over the supports of the two
    rows; its coordinates are its entries at the rows' pivots, and a
    product outside the span raises SplitError.  The product minus that
    combination of rows can be nonzero only on the product's support or
    on a free entry of a row it uses, so only those entries are tested.

    The parent's cells are its integers, scaled by ``table.den``; the
    left factors carry the inverse of den mod q."""
    table = fd.table.rows
    inv = pow(fd.table.den, -1, q)
    vecs = []
    for row in rows:
        vec = [(c, _mod_frac(x, q)) for c, x in enumerate(row) if x]
        vecs.append([(c, x) for c, x in vec if x])
    pivot_of = {vec[0][0]: i for i, vec in enumerate(vecs)}
    free = [vec[1:] for vec in vecs]
    lefts = [[(c, x * inv % q) for c, x in vec] for vec in vecs]
    cells = {}
    for i, x in enumerate(lefts):
        for j, y in enumerate(vecs):
            acc = {}
            for a, xa in x:
                trow = table.get(a)
                if trow:
                    for b, yb in y:
                        cell = trow.get(b)
                        if cell:
                            ab = xa * yb
                            for k, c in cell:
                                acc[k] = acc.get(k, 0) + ab * c
            coords = []
            for k in list(acc):
                t = pivot_of.get(k)
                if t is not None:
                    dt = acc.pop(k) % q
                    if dt:
                        coords.append((t, dt))
                        for c, r in free[t]:
                            acc[c] = acc.get(c, 0) - dt * r
            if any(v % q for v in acc.values()):
                raise SplitError("subalgebra is not closed")
            cells[i, j] = coords
    return _kernel.Bilinear(cells, len(rows), q)


def _split_block_char0(fd: FDAlgebra, z, rows, rng):
    """Split a simple block zA over Q, spanned by the reduced echelon
    ``rows``: split mod q, Hensel lift, reconstruct subset sums as exact
    rational idempotents (smallest subsets first).

    No rational table of the block is built.  Its table mod q is read
    from the parent's at the rows' pivots.  The rows embed the block in
    the parent as an algebra map, so the lift runs in the parent's
    coordinates mod q^N and its pivot entries are the block's lift."""
    from ..fields import GF

    pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
    for q in _primes_for(fd, z, rows):
        qtable = _block_table_modq(fd, rows, q)
        try:
            qalg = FDAlgebra(GF(q), qtable, [_mod_frac(z[p], q) for p in pivots])
            if radical_basis(qalg):
                continue  # bad prime: modular algebra degenerated
            mod_idems = [
                vec for vec, _b in split_semisimple(qalg, rng)
            ]
        except SplitError:
            continue
        for exponent in _QADIC_EXPONENTS:
            M = q**exponent
            rows_m = [[_mod_frac(x, M) if x else 0 for x in row] for row in rows]
            approx = _kernel.mat_mul(mod_idems, rows_m, M)
            unit = [_mod_frac(c, M) for c in z]
            lifted = _lift_orthogonal(fd.table.reduce(M), unit, approx, M)
            found = _reconstruct_partition(
                fd, z, rows, M, [[v[p] for p in pivots] for v in lifted]
            )
            if found is not None:
                return found
    raise SplitError(
        "q-adic splitting failed for a rational matrix block within "
        f"_PRIME_BUDGET = {_PRIME_BUDGET} primes and "
        f"_QADIC_EXPONENTS = {_QADIC_EXPONENTS}"
    )


def _mod_frac(c, q):
    c = Fraction(c)
    return (c.numerator * pow(c.denominator, -1, q)) % q


def _reconstruct_partition(fd: FDAlgebra, z, rows, M, lifted):
    """Greedy subset-sum rational reconstruction of idempotents lifted
    mod M, given in the basis ``rows`` of the block zA: smallest subsets
    first, each candidate verified exactly in the parent; returns the
    complete list, in the parent's coordinates, or None.  At most
    _SUBSET_BUDGET subsets are tried in all."""
    from itertools import combinations

    F = fd.field
    remaining = list(range(len(lifted)))
    accepted = []
    tried = 0
    while remaining:
        hit = None
        for size in range(1, len(remaining) + 1):
            for combo in combinations(remaining, size):
                tried += 1
                if tried > _SUBSET_BUDGET:
                    raise SplitError(
                        f"rational reconstruction of {len(lifted)} lifted "
                        f"idempotents ran out of _SUBSET_BUDGET = {_SUBSET_BUDGET} subsets"
                    )
                sigma = [0] * len(rows)
                for t in combo:
                    sigma = [(a + b) % M for a, b in zip(sigma, lifted[t])]
                coords = []
                ok = True
                for s in sigma:
                    fr = _rat_recon(s, M)
                    if fr is None:
                        ok = False
                        break
                    coords.append(fr)
                if not ok or not any(coords):
                    continue
                e = _up(rows, coords, F, fd.dim)
                if fd.mul_vec(e, e) != e:
                    continue
                hit = (combo, e)
                break
            if hit:
                break
        if hit is None:
            return None
        combo, e = hit
        accepted.append(e)
        remaining = [t for t in remaining if t not in combo]
    try:
        _verify_complete_orthogonal(FDAlgebra(F, fd.table, z), accepted)
    except SplitError:
        return None
    return accepted


class Split(list):
    """[(piece, block_id)] of a split of E, with what it read on the way:
    ``project`` maps E onto E/J (the identity when J = 0), and
    ``division_dims[b]`` is dim D for block b = M_r(D) of E/J."""

    def __init__(self, pieces, project, division_dims):
        super().__init__(pieces)
        self.project = project
        self.division_dims = division_dims


def split_semisimple(fd: FDAlgebra, rng):
    """Complete orthogonal primitive idempotents of a semisimple algebra,
    tagged by central block: a ``Split`` of [(vector, block_id)].

    A primitive central idempotent z cuts out a simple block zA, which is
    M_r over its centre, the field zZ; r = 1 blocks need no splitting.
    The centre Z is split in fd's own coordinates.  A commutative
    algebra (``FDAlgebra.is_commutative``) is its own centre, spanned by
    its unit vectors with no commutator system, so its blocks are
    fields."""
    if fd.dim == 0:
        return []
    char = fd.field.char
    commutative = fd.is_commutative()
    if commutative:
        zvecs = [_unit_vec(fd, i) for i in range(fd.dim)]
    else:
        zvecs = fd.center_basis()
        _verify_centre_closed(fd, zvecs)
    out = []
    division_dims = []
    for blk, (z, d_z) in enumerate(_split_commutative(fd, zvecs, rng)):
        if commutative:
            block_dim = d_z
        else:
            # z is central, so the block zA = zAz is spanned by the z b_i
            rows = _echelon(
                [fd.mul_vec(z, _unit_vec(fd, i)) for i in range(fd.dim)], char
            )
            block_dim = len(rows)
        if block_dim == 1 or _block_matrix_size(block_dim, d_z) == 1:
            pieces = [z]
        elif char:
            pieces = _split_block_modp(fd, z, d_z, rng)
        else:
            pieces = _split_block_char0(fd, z, rows, rng)
        # the block is M_r(D) with r = len(pieces)
        division_dims.append(block_dim // len(pieces) ** 2)
        out.extend((p, blk) for p in pieces)
    _verify_complete_orthogonal(fd, [p for p, _b in out])
    return Split(out, list, division_dims)


def _verify_centre_closed(fd: FDAlgebra, zvecs):
    """The span of ``zvecs`` must hold the unit and every product c_i c_j."""
    in_span = _kernel.EchelonBasis(zvecs, fd.field.char).contains
    if not in_span(fd.unit) or not all(
        in_span(fd.mul_vec(x, y)) for x in zvecs for y in zvecs
    ):
        raise SplitError("centre is not a unital subalgebra")


def _verify_complete_orthogonal(fd: FDAlgebra, idems):
    """The ``idems`` are idempotents that sum to the unit u and are
    pairwise orthogonal.  Orthogonality is read from ranks, with no
    product e_i e_j.

    Let u be idempotent and the e_i idempotents with sum u.  The sum S of
    the e_i A holds uA, since u a = sum e_i a, and dim S is at most the
    sum of the ranks of the L_{e_i}.  When that sum is rank L_u = dim uA,
    S = uA and the sum is direct.  Each e_j = e_j e_j then lies in uA, so
    e_j = u e_j = sum_i e_i e_j, and reading the components of the direct
    sum gives e_i e_j = 0 for i != j.  Orthogonal e_i conversely give a
    direct sum.  In characteristic 0, L_x of an idempotent x is
    idempotent, so its rank is its trace, and the traces of the L_{e_i}
    add up to tr L_u for every family: there orthogonality follows from
    the idempotent and sum checks.  Over GF(p) the ranks are counted:
    when n = dim A < p, the rank of an idempotent L_x is its trace mod p
    read as an integer, as it lies in [0, n]; otherwise by elimination.
    A unit that is not idempotent is refused first, as the sum of
    orthogonal idempotents is idempotent."""
    F = fd.field
    total = [F.zero] * fd.dim
    for e in idems:
        if fd.mul_vec(e, e) != list(e):
            raise SplitError("produced a non-idempotent")
        total = [F.add(a, b) for a, b in zip(total, e)]
    if total != list(fd.unit):
        raise SplitError("idempotents do not sum to the unit")
    if fd.mul_vec(total, total) != total:
        raise SplitError("idempotents are not orthogonal")
    if F.char:
        n = fd.dim

        def rank(x):
            if n < F.char:
                return fd.table.left_trace(x)
            return _kernel.rank(fd.table.left(x, n), F.char)

        if sum(rank(e) for e in idems) != rank(total):
            raise SplitError("idempotents are not orthogonal")


def primitive_idempotents(fd: FDAlgebra, rng):
    """Primitive orthogonal idempotents of an arbitrary f.d. algebra,
    lifted exactly through the radical: a ``Split`` of [(vector,
    block_id)], whose ``project`` is the radical quotient's."""
    if fd.dim == 0:
        return []
    J = radical_basis(fd)
    if not J:
        return split_semisimple(fd, rng)
    quo = RadicalQuotient(fd, J)
    if radical_basis(quo.algebra):
        raise SplitError("radical chain did not terminate")
    sem = split_semisimple(quo.algebra, rng)
    lifted = _lift_orthogonal(
        fd.mul_vec, fd.unit, [quo.lift(v) for v, _b in sem], fd.field.char
    )
    _verify_complete_orthogonal(fd, lifted)
    return Split(zip(lifted, (blk for _v, blk in sem)), quo.project, sem.division_dims)


# ---------------------------------------------------------------------------
# End(P)_0 for presentations
# ---------------------------------------------------------------------------


class EndAlgebra:
    """The degree-zero endomorphism algebra End(X)_0 of a presentation,
    as ``fd``, an FDAlgebra in a basis of maps on the raw positions
    (i, j, d, b) of an entry matrix.

    End(X)_0 = e End(F)_0 e is a corner of the table of the free module
    F = A(s_1) + ... + A(s_k) (``hom_table``).  For a free module, whose
    entries are the identity, the basis is the positions themselves and
    that table is used as it is.  Otherwise the basis is
    ``hom_basis(X, X)``, its products are taken in that table and read
    back through an echelon basis.  ``coords_of`` and ``to_entries``
    convert between coordinates and entry matrices."""

    def __init__(self, X: ProjectivePresentation):
        self.module = X
        A = X.algebra
        self.positions = raw_positions(A, X.shifts, X.shifts)
        table = hom_table(A, X.shifts, X.shifts, X.shifts)
        self._span = None
        if X.entries != identity_entries(A, X.shifts):
            self.basis_vecs = hom_basis(X, X)
            self._span = _kernel.EchelonBasis(self.basis_vecs, A.field.char)
            products = {
                (i, j): enumerate(self._coords(table(x, y)))
                for i, x in enumerate(self.basis_vecs)
                for j, y in enumerate(self.basis_vecs)
            }
            table = _kernel.Bilinear(products, len(self.basis_vecs), A.field.char)
        self.fd = FDAlgebra(A.field, table, self.coords_of(X.entries))
        self.dim = self.fd.dim

    def coords_of(self, entries):
        return self._coords(entries_to_vec(self.module.algebra, entries, self.positions))

    def _coords(self, vec):
        if self._span is None:
            return vec
        sol = self._span.coords(vec)
        if sol is None:
            raise SplitError("map escaped the endomorphism space")
        return sol

    def to_entries(self, vec):
        A = self.module.algebra
        if self._span is not None:
            vec = _up(self.basis_vecs, vec, A.field, len(self.positions))
        return vec_to_entries(A, vec, self.positions, self.module.rank, self.module.rank)


def split_projective(X: ProjectivePresentation, rng):
    """Direct summands of X from a primitive idempotent decomposition of
    End(X)_0: a ``Split`` of [(presentation, block_id)], block_id the
    simple block of End(X)_0/J holding the idempotent; its ``project``
    reads the coordinates of ``EndAlgebra(X)``.

    Two summands eX and fX are isomorphic exactly when they share a
    block.  Idempotents lifted from one block reduce to primitive
    idempotents of one simple algebra M_n(D), which are conjugate, and
    conjugate idempotents give isomorphic summands.  For different
    blocks every composite eX -> fX -> eX lies in e J e, so none is
    invertible."""
    if X.rank == 0 or X.is_zero():
        return []
    end = EndAlgebra(X)
    if end.dim == 0:
        return []
    idems = primitive_idempotents(end.fd, rng)
    # degrees come from the positions, and e e = e was verified in End(X)_0
    summands = [
        (ProjectivePresentation(X.algebra, X.shifts, end.to_entries(vec), check=False), blk)
        for vec, blk in idems
    ]
    return Split(summands, idems.project, idems.division_dims)
