"""Second algorithms for jobs the package does one way, a reference for
the tests.

The package takes a rank from the pivots of ``rref``, left
multiplication L_u from ``Bilinear.left``, the traces of the trace form
from ``Bilinear.left_trace``, orthogonality of idempotents from ranks,
a subgroup's index from Hermite pivots, unimodularity from
a Hermite form, a regrading's fibres from its parent's support, and
the pair tensors of derived algebras from their owners' tables.
These compute the same things by the algorithms they replaced, or by
brute force, so a test can check the answers against code they do not
share: a fraction-free Bareiss rank over Q with forward elimination mod
p, L_u and the trace form summed over every structure constant,
orthogonality by every product e_i e_j, the index and unimodularity
by a Bareiss determinant, a regrading's components from every degree of the parent's
support box, and a pair tensor label by label, each product of two
basis labels recursed down to the base constructors' ``_mul_labels``.

Over Q the package eliminates fraction-free on int rows, and a graded
map's component matrix is read from int images.  ``fraction_rref`` is
the Fraction Gauss–Jordan it replaced, and ``fraction_component_matrix``
the component matrix in field entries: the source basis from the
pivots of that elimination and coordinates from an ``EchelonBasis`` on
the target's basis columns.

The package counts a module's summands by the composition pairing
against one class table per algebra; ``SplitAndMatch`` is the registry
that counting replaced: it splits End(P)_0 into primitive idempotents
and matches each block's summand against the classes met so far.  The
pairing reads P's own component at -g; ``pairing_rank_by_hom_spaces``
is the count it replaced, over bases of the two hom spaces.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from gradedk import _kernel
from gradedk import algebra as alg
from gradedk.gmod.decompose import indec_iso, module_support_degrees
from gradedk.gmod.endos import hom_basis, split_projective
from gradedk.gmod.presentations import PresentationError, hom_table
from gradedk.grading import Subgroup


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


def trace_form_by_items(fd):
    """tr(L_{b_i b_j}) = sum_k c_ijk tr(L_{b_k}), with tr(L_{b_k}) =
    sum_r c_krr, both summed over the structure constants of fd."""
    F = fd.field
    n = fd.dim
    trace = [F.zero] * n
    for k, r, s, c in fd.table.items():
        if r == s:
            trace[k] = F.add(trace[k], c)
    form = [[F.zero] * n for _ in range(n)]
    for i, j, k, c in fd.table.items():
        form[i][j] = F.add(form[i][j], F.mul(c, trace[k]))
    return form


def orthogonality_by_products(fd, idems):
    """The verdict on a family of idempotents of fd: None when they are
    idempotent, sum to fd's unit and every product e_i e_j with i != j is
    zero, else the message the package raises."""
    F = fd.field
    total = [F.zero] * fd.dim
    for e in idems:
        if fd.mul_vec(e, e) != list(e):
            return "produced a non-idempotent"
        total = [F.add(a, b) for a, b in zip(total, e)]
    if total != list(fd.unit):
        return "idempotents do not sum to the unit"
    for i, x in enumerate(idems):
        for j, y in enumerate(idems):
            if i != j and any(fd.mul_vec(x, y)):
                return "idempotents are not orthogonal"
    return None


def int_det(rows):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if not mat[c][c]:
            pr = next((i for i in range(c + 1, n) if mat[i][c]), -1)
            if pr < 0:
                return 0
            mat[c], mat[pr] = mat[pr], mat[c]
            sign = -sign
        piv = mat[c][c]
        for i in range(c + 1, n):
            fi = mat[i][c]
            for j in range(c, n):
                mat[i][j] = (mat[i][j] * piv - fi * mat[c][j]) // prev
        prev = piv
    return sign * mat[n - 1][n - 1]


def index_by_det(H):
    """[G : H] as the absolute determinant of H's rows; None when
    infinite."""
    if len(H.rows) < H.group.dim:
        return None
    det = int_det([list(r) for r in H.rows])
    return abs(det) if det else None


def regraded_basis_by_brute_force(parent, image, target_values):
    """The basis of a regrading of ``parent`` at the degree whose values
    are ``target_values``: for every degree of the parent's support box,
    in the order of its values, that ``image`` maps there, the pairs
    (parent degree values, parent label)."""
    g = parent.group
    free = [range(lo, hi + 1) for lo, hi in parent.support_bounds()]
    torsion = [range(n) for n in g.torsion_moduli]
    out = []
    for values in product(*free, *torsion):
        if tuple(image(values)) == tuple(target_values):
            out += [(values, lbl) for lbl in parent.component_basis(g.degree(values))]
    return out


def mul_labels(A, da, la, db, lb):
    """The product of two basis labels of A, as [(label, coeff)] in the
    component at da + db: a derived algebra's labels are recursed into
    its parent's or its factors', down to a base constructor's
    ``_mul_labels``."""
    if isinstance(A, alg.SliceAlgebra):
        return list(mul_labels(A.parent, A.to_parent(da), la, A.to_parent(db), lb))
    if isinstance(A, alg.RegradedAlgebra):
        (av, xa), (bv, xb) = la, lb
        alpha, beta = A.parent.group.degree(av), A.parent.group.degree(bv)
        return [
            (((alpha + beta).values, lbl), c)
            for lbl, c in mul_labels(A.parent, alpha, xa, beta, xb)
        ]
    if isinstance(A, alg.PolynomialExtensionAlgebra):
        (ka, xa), (kb, xb) = la, lb
        bda, bdb = da - ka * A.var_degree, db - kb * A.var_degree
        return [((ka + kb, lbl), c) for lbl, c in mul_labels(A.base, bda, xa, bdb, xb)]
    if isinstance(A, alg.TensorProductAlgebra):
        (av, xa, ya), (bv, xb, yb) = la, lb
        alpha, beta = A.group.degree(av), A.group.degree(bv)
        lterms = mul_labels(A.left, alpha, xa, beta, xb)
        rterms = mul_labels(A.right, da - alpha, ya, db - beta, yb)
        return [
            (((alpha + beta).values, lx, ly), A.field.mul(cx, cy))
            for lx, cx in lterms
            for ly, cy in rterms
        ]
    return list(A._mul_labels(da, la, db, lb))


def pair_tensor_by_labels(A, da, db):
    """The table of component(da) x component(db) built from every pair
    of basis labels (``mul_labels``), cell by cell."""
    index = {lbl: i for i, lbl in enumerate(A.component_basis(da + db))}
    cells = {
        (ia, ib): [(index[lbl], c) for lbl, c in mul_labels(A, da, la, db, lb) if c]
        for ia, la in enumerate(A.component_basis(da))
        for ib, lb in enumerate(A.component_basis(db))
    }
    return _kernel.Bilinear(cells, len(index), A.field.char)


class SplitAndMatch:
    """The classes of indecomposables over one finite-support algebra, in
    the order they were first met, by split and match.

    ``count(P, rng)`` splits End(P)_0 (``split_projective``) and gives
    each block's summand the key (class, shift) of ``match``: the class
    whose dimension profile, anchored at some support degree of the
    summand, is the summand's, at a shift that the profile's translation
    symmetries allow and that ``indec_iso`` confirms; or a new class.
    Summands of one block share their key, and a block skips the keys of
    the blocks before it, which are not isomorphic to it."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.classes = []  # (rep, stabilizer, profile, anchor, symmetries)

    @staticmethod
    def _profile(X):
        """(support dims, anchor, anchored profile) of X."""
        dims = module_support_degrees(X)
        anchor = min(dims, key=lambda d: d.values)
        return dims, anchor, {(h - anchor): n for h, n in dims.items()}

    @staticmethod
    def _profile_symmetries(dims):
        """Translation symmetries of a finite dimension function."""
        base = next(iter(dims))
        return [
            delta
            for delta in {d - base for d in dims}
            if {h - delta: n for h, n in dims.items()} == dims
        ]

    def match(self, X, taken):
        dims, anchor, prof = self._profile(X)
        for blk, (rep, _stab, profile, rep_anchor, symmetries) in enumerate(self.classes):
            # a torsion shift need not keep the lex-min anchor, so every
            # support degree of X is tried, X's own anchor first
            a = next(
                (a for a in (anchor, *dims) if {h - a: n for h, n in dims.items()} == profile),
                None,
            )
            if a is None:
                continue
            for delta in symmetries:
                shift = rep_anchor - a + delta
                if (blk, shift) not in taken and indec_iso(X, rep.shift(shift)):
                    return blk, shift
        sym = self._profile_symmetries(dims)
        stab = [d for d in sym if d.is_zero() or indec_iso(X.shift(d), X)]
        stabilizer = Subgroup.from_degrees(self.algebra.group, stab)
        self.classes.append((X, stabilizer, prof, anchor, sym))
        return len(self.classes) - 1, self.algebra.group.zero

    def count(self, P, rng):
        keys = {}  # split block -> class key of its summands
        out = {}
        for summand, blk in split_projective(P, rng):
            key = keys.get(blk)
            if key is None:
                key = keys[blk] = self.match(summand, set(keys.values()))
            out[key] = out.get(key, 0) + 1
        return out

    def summands(self, P, rng):
        """[(indecomposable, multiplicity)] of P, one entry per class and
        shift modulo its stabilizer."""
        out = {}
        for (blk, g), m in self.count(P, rng).items():
            key = (blk, self.classes[blk][1].reduce(g))
            out[key] = out.get(key, 0) + m
        return [(self.classes[blk][0].shift(g), m) for (blk, g), m in out.items()]


def pairing_rank_by_hom_spaces(table, info, g, P):
    """rank [lambda(v u)] for a class of ``table``, Q its representative:
    u over ``hom_basis(Q(g), P)``, v over ``hom_basis(P, Q(g))``, each
    composite v u taken in ``hom_table`` and lambda read from the class's
    ``weights``; a Bareiss rank."""
    Q = info.rep.shift(g)
    us = hom_basis(Q, P)
    vs = hom_basis(P, Q) if us else []
    if not vs:
        return 0
    compose = hom_table(table.algebra, Q.shifts, P.shifts, Q.shifts)
    weights = [(k, c) for k, c in enumerate(info.weights) if c]
    pairing = [
        [sum(c * vu[k] for k, c in weights) for vu in (compose(v, u) for u in us)]
        for v in vs
    ]
    return bareiss_rank(pairing, table.algebra.field.char)


def fraction_rref(a):
    """Reduced row echelon form over Q by Gauss–Jordan on Fractions:
    top-down, first nonzero entry per column, unit pivots."""
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


def _field_rref(a, char):
    return _kernel.rref(a, char) if char else fraction_rref(a)


def field_component_matrix(A, entries, src_degrees, src_dims, tgt_degrees, tgt_dims):
    """The entry matrix acting on stacked components, in field entries:
    block (i, j) is ``Bilinear.left`` of entry (i, j)."""
    F = A.field
    mat = [[F.zero] * sum(src_dims) for _ in range(sum(tgt_dims))]
    col = 0
    for j, (dj, nj) in enumerate(zip(src_degrees, src_dims)):
        if nj:
            base = 0
            for i, ni in enumerate(tgt_dims):
                ent = entries[i][j]
                if ent is not None:
                    block = A.pair_tensor(ent.degree, dj).left(ent.coords, nj)
                    for r in range(ni):
                        mat[base + r][col : col + nj] = block[r]
                base += ni
        col += nj
    return mat


def field_basis_columns(space):
    """A component's basis in field entries: the columns of E at the
    pivots of ``fraction_rref`` (mod p, of the kernel's ``rref``)."""
    A = space._algebra
    E = field_component_matrix(
        A, space._entries, space.block_degrees, space.block_dims,
        space.block_degrees, space.block_dims,
    )
    pivots = _field_rref(E, A.field.char)[1] if E else []
    return [[row[c] for row in E] for c in pivots]


def fraction_component_matrix(gmap, h):
    """The field matrix of a ``GradedMap`` at degree h: the images of the
    source basis columns by ``_kernel.mat_mul``, each expressed in the
    target basis by ``EchelonBasis.coords``; PresentationError where an
    image leaves the target component."""
    src_sp = gmap.source.space(h)
    tgt_sp = gmap.target.space(h)
    A = gmap.target.algebra
    F = A.field
    src_basis = field_basis_columns(src_sp)
    coerced_dims = [A.component_dim(d) for d in src_sp.block_degrees]
    act = field_component_matrix(
        A, gmap.entries, src_sp.block_degrees, coerced_dims,
        tgt_sp.block_degrees, tgt_sp.block_dims,
    )
    coerced = [[] for _ in range(sum(coerced_dims))]
    for basis_col in src_basis:
        vec = []
        off = 0
        for n_src, n in zip(src_sp.block_dims, coerced_dims):
            chunk = basis_col[off : off + n_src]
            off += n_src
            vec.extend(chunk if n_src == n else [F.zero] * n)
        for row, x in zip(coerced, vec):
            row.append(x)
    if coerced:
        images = _kernel.mat_mul(act, coerced, F.char)
    else:
        images = [[F.zero] * len(src_basis) for _ in range(tgt_sp.ambient_dim)]
    span = _kernel.EchelonBasis(field_basis_columns(tgt_sp), F.char)
    out = [[F.zero] * len(src_basis) for _ in range(span.dim)]
    for c in range(len(src_basis)):
        col = span.coords([row[c] for row in images])
        if col is None:
            raise PresentationError("vector does not lie in the component")
        for r, x in enumerate(col):
            out[r][c] = x
    return out
