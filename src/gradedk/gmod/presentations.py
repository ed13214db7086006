"""Graded projective modules as homogeneous idempotent presentations.

A module is P = e * (A(s_1) + ... + A(s_k)) for a k x k idempotent matrix
e whose (i, j) entry is homogeneous of degree s_i - s_j, acting on column
vectors from the left; the shift convention is P(g)_h = P_{g+h}.  The
degree-h component is the image of e on the stacked component spaces
A_{s_i + h}, so every question about P reduces to exact linear algebra
in a fixed degree.

Degree-zero maps between presentations are matrices of homogeneous
entries intertwining the idempotents.  This module owns their one
product: a degree-0 map between free modules A(s_1) + ... + A(s_k) is
held on its raw positions (i, j, d, b), coordinate b of entry (i, j) of
degree d (``raw_positions``, ``entries_to_vec``, ``vec_to_entries``),
and maps compose by one table made of the algebra's pair tensors,
placed at the offsets of the entry blocks; between free modules of one
summand each it is a pair tensor itself (``hom_table``).  The
idempotent check, random presentations, the sections and psi of
``swan``, hom spaces and End(P)_0 (``endos``) and the isomorphism test
of ``decompose`` all multiply there.

A component is held as int rows under one denominator (over GF(p),
rows mod p): the idempotent's component matrix, its one fraction-free
elimination and the images of a map are ints, and a map's component
matrix builds one field entry per coordinate it returns
(``ComponentSpace``, ``GradedMap.image_columns``).

A presentation does not change once built, so what is derived from it
is computed once and kept in its ``_derived`` dict: the presentations
restriction T and induction S (``swan``), the induced slices of its
filtration and its shifts, with their component spaces; its class
multiset (``decompose.summand_classes``); and the image ranks
of each seeded section (``filtration.verify_section_independence``).

The zero part, its embedding, a trivial extension of the grading and
the identity component read their components from the parent's basis
labels, so a presentation moves between these algebras along a degree
map alone (``relabel``): an entry keeps its coordinates and takes the
degree the map gives it, or is dropped where the map gives None.  A map
between presentations over an algebra and over its embedded zero part
reads its source block by block: the two components at a degree agree
or one of them is empty.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .. import _kernel
from ..algebra import GradedAlgebra
from ..grading import Degree


class PresentationError(ValueError):
    pass


class SplitError(RuntimeError):
    """Idempotent splitting failed internal verification (a bug or an
    input outside the supported family), never a silent wrong answer."""


_QZERO = Fraction(0)

# Random entries of test modules (``random_presentation`` and the seeded
# sections of ``swan``) draw each coordinate from -RANDOM_COORD..RANDOM_COORD.
RANDOM_COORD = 2


def entries_are_zero(X):
    return all(e is None or e.is_zero() for row in X for e in row)


def identity_entries(A: GradedAlgebra, shifts):
    k = len(shifts)
    one = A.one()
    return [[one if i == j else None for j in range(k)] for i in range(k)]


# -- degree-0 maps of free modules on raw positions ----------------------------


def raw_positions(A, tgt_shifts, src_shifts):
    """The coordinates (i, j, d, b) of a degree-0 map A(src) -> A(tgt):
    coordinate b of entry (i, j), whose degree is d = tgt_i - src_j."""
    pos = []
    for i, ti in enumerate(tgt_shifts):
        for j, sj in enumerate(src_shifts):
            d = ti - sj
            for b in range(A.component_dim(d)):
                pos.append((i, j, d, b))
    return pos


def entries_to_vec(A, entries, positions):
    """The coordinates of an entry matrix at ``positions``.  A nonzero
    entry whose degree is not its position's, or that has no position,
    is not a map of degree 0 and raises SplitError."""
    zero = A.field.zero
    vec = []
    read = set()
    for (i, j, d, b) in positions:
        if b == 0:
            ent = entries[i][j]
            coords = None
            if ent is not None:
                read.add((i, j))
                if ent.degree == d:
                    coords = ent.coords
                elif any(ent.coords):
                    raise SplitError(
                        f"entry ({i},{j}) has degree {ent.degree}, expected {d}"
                    )
        vec.append(zero if coords is None else coords[b])
    for i, row in enumerate(entries):
        for j, ent in enumerate(row):
            if ent is not None and (i, j) not in read and any(ent.coords):
                raise SplitError(f"entry ({i},{j}) is nonzero in a zero component")
    return vec


def vec_to_entries(A, vec, positions, rows, cols):
    """The rows x cols entry matrix of a vector on ``positions``; an
    entry with no nonzero coordinate is None."""
    zero = A.field.zero
    acc = {}
    for val, (i, j, d, b) in zip(vec, positions):
        if val:
            acc.setdefault((i, j, d), {})[b] = val
    entries = [[None] * cols for _ in range(rows)]
    for (i, j, d), comp in acc.items():
        n = A.component_dim(d)
        coords = [comp.get(b, zero) for b in range(n)]
        entries[i][j] = A.element(d, coords)
    return entries


def hom_table(A, s1, s2, s3):
    """Composition of degree-0 maps between the free modules F_t =
    A(s_t[0]) + A(s_t[1]) + ..., as the bilinear map Hom(F2, F3)_0 x
    Hom(F1, F2)_0 -> Hom(F1, F3)_0 on the raw positions of the three
    spaces.  End(F)_0 is the case s1 = s2 = s3.  Built once per shift
    triple and kept in the algebra's ``_mul_cache`` beside the pair
    tensors it is read from.

    (E_ij a)(E_jk b) = E_ik ab, so the pair tensor of the two entry
    degrees is placed at the positions of blocks (i, j), (j, k) and
    (i, k) (``_kernel.Bilinear.placed``).  When each free module has one
    summand there is one block each, and the table is that pair tensor
    itself."""
    key = (s1, s2, s3)
    hit = A._mul_cache.get(key)
    if hit is not None:
        return hit
    if len(s1) == len(s2) == len(s3) == 1:
        table = A.pair_tensor(s3[0] - s2[0], s2[0] - s1[0])
    else:
        out = raw_positions(A, s3, s1)
        start = {(i, k): z for z, (i, k, _d, b) in enumerate(out) if b == 0}
        lefts, rights = (
            [(i, j, d, x) for x, (i, j, d, b) in enumerate(raw_positions(A, t, s)) if b == 0]
            for t, s in ((s3, s2), (s2, s1))
        )
        parts = [
            (A.pair_tensor(d1, d2), x0, y0, start[i, k])
            for i, j, d1, x0 in lefts
            for jj, k, d2, y0 in rights
            if jj == j and (i, k) in start
        ]
        table = _kernel.Bilinear.placed(parts, len(out), A.field.char)
    A._mul_cache[key] = table
    return table


class ComponentSpace:
    """The degree-h component of a presentation, with a chosen basis: the
    image of the idempotent's component matrix E, whose basis is the
    columns of E at the pivots of its reduced echelon form.

    E is held as int rows under one denominator (over GF(p) reduced mod
    p, with denominator 1), and its reduced echelon form R as the int
    rows of ``_kernel.rref_int``, one per pivot, row i with pivot value
    d_i.  That one elimination gives the pivots, the basis and the
    coordinates: E = C R_f for C the basis columns and R_f the rows of R
    divided by their pivots, and E^2 = E gives R_f C = 1, so a vector v
    of the image has coordinates R_f v (``express``).  A vector v lies in
    the image exactly when E v = v (``holds``), read on ints.  Field
    entries are built only for the coordinates that ``express`` returns.

    The dimension is read when the space is built.  An idempotent matrix
    over a field of characteristic 0 has rank equal to its trace, so over
    Q ``dim`` is tr E = sum_i tr(L_{e_ii} on A_{s_i + h}), read from the
    diagonal pair tensors, and E is neither built nor eliminated; a trace
    that is not an integer in [0, ambient_dim] shows an entry matrix that
    is not idempotent and raises PresentationError.  Over GF(p) ``dim``
    is the number of pivots of E mod p.  E and R are built on first
    read, once each.  The space keeps the algebra and the entry matrix,
    not the presentation, which holds the space."""

    __slots__ = (
        "degree",
        "block_degrees",
        "block_dims",
        "offsets",
        "ambient_dim",
        "dim",
        "_algebra",
        "_entries",
        "_rows",
        "_den",
        "_reduced",
        "_pivots",
    )

    def __init__(self, pres: "ProjectivePresentation", h: Degree):
        A = pres.algebra
        self._algebra = A
        self._entries = pres.entries
        self.degree = h
        self.block_degrees = [s + h for s in pres.shifts]
        self.block_dims = [A.component_dim(d) for d in self.block_degrees]
        self.offsets = []
        off = 0
        for d in self.block_dims:
            self.offsets.append(off)
            off += d
        self.ambient_dim = off
        self._rows = self._reduced = self._pivots = None
        if A.field.char:
            self.dim = len(self.pivots)
        else:
            self.dim = self._trace()

    def _trace(self):
        """tr E, the sum of the traces of the diagonal entries acting on
        their components; an integer in [0, ambient_dim] or an error."""
        A = self._algebra
        trace = 0
        for i, (d, n) in enumerate(zip(self.block_degrees, self.block_dims)):
            ent = self._entries[i][i]
            if n and ent is not None:
                trace += A.pair_tensor(ent.degree, d).left_trace(ent.coords)
        if trace.denominator != 1 or not 0 <= trace <= self.ambient_dim:
            raise PresentationError(
                f"component trace {trace} at degree {self.degree} is not a "
                f"dimension: the matrix is not idempotent"
            )
        return int(trace)

    def _int_matrix(self):
        """E as (int rows, denominator)."""
        if self._rows is None:
            self._rows, self._den = _entries_component_matrix(
                self._algebra, self._entries,
                self.block_degrees, self.block_dims, self.block_degrees, self.block_dims,
            )
        return self._rows, self._den

    @property
    def pivots(self):
        """The pivot columns of E's reduced echelon form; over Q their
        number must be the trace read at construction."""
        if self._pivots is None:
            char = self._algebra.field.char
            reduced, pivots = [], []
            if self.ambient_dim:
                reduced, pivots = _kernel.rref_int(self._int_matrix()[0], char)
            if char == 0 and len(pivots) != self.dim:
                raise PresentationError(
                    f"component rank {len(pivots)} at degree {self.degree} is not its "
                    f"trace {self.dim}: the matrix is not idempotent"
                )
            self._reduced, self._pivots = reduced, pivots
        return self._pivots

    def basis_rows(self):
        """The image basis as an int matrix under E's denominator: row j
        holds entry j of every basis column, the columns of E at its
        pivots."""
        pivots = self.pivots
        rows, den = self._int_matrix()
        return [[row[c] for c in pivots] for row in rows], den

    def holds(self, cols):
        """Whether every column of the int matrix ``cols``, over the
        stacked components under any one denominator, lies in the space:
        E v = v, read on ints as (rows of E) v = (denominator of E) v.
        Mod p ``cols`` is reduced."""
        rows, den = self._int_matrix()
        if not rows:
            return True
        prod = _kernel.int_mul(rows, cols, self._algebra.field.char)
        return prod == (cols if den == 1 else [[den * x for x in r] for r in cols])

    def express(self, cols, den):
        """Coordinates in the image basis of the columns of cols / den,
        for an int matrix ``cols`` whose columns lie in the space
        (``holds``): column c of the answer is R_f v for v column c, one
        field entry each."""
        pivots = self.pivots
        reduced = self._reduced
        if not reduced:
            return []
        coords = _kernel.int_mul(reduced, cols, self._algebra.field.char)
        if self._algebra.field.char:
            return coords
        return [
            [Fraction(x, d) if x else _QZERO for x in row]
            for row, d in zip(coords, (r[c] * den for r, c in zip(reduced, pivots)))
        ]


def _entries_component_matrix(tgt_alg, entries, src_degrees, src_dims, tgt_degrees, tgt_dims):
    """Matrix (stacked tgt components) x (stacked src components) of the
    entry matrix acting by left multiplication, as (int rows,
    denominator); src vectors are already coerced into tgt_alg
    coordinates.  Block (i, j) is the matrix of left multiplication by
    entry (i, j), read from the pair tensor as int rows under its own
    denominator and scaled to the least common multiple of them all."""
    blocks = []
    den = 1
    col = 0
    for j, (dj, nj) in enumerate(zip(src_degrees, src_dims)):
        if nj:
            base = 0
            for i, ni in enumerate(tgt_dims):
                ent = entries[i][j]
                if ent is not None:
                    if ent.degree + dj != tgt_degrees[i]:  # pragma: no cover
                        raise PresentationError("entry degree bookkeeping failed")
                    block, bden = tgt_alg.pair_tensor(ent.degree, dj).left_int(ent.coords, nj)
                    blocks.append((base, col, nj, block, bden))
                    den = den // gcd(den, bden) * bden
                base += ni
        col += nj
    mat = [[0] * col for _ in range(sum(tgt_dims))]
    for base, c0, nj, block, bden in blocks:
        s = den // bden
        for r, brow in enumerate(block):
            mat[base + r][c0 : c0 + nj] = brow if s == 1 else [s * x for x in brow]
    return mat, den


class ProjectivePresentation:
    """A finitely generated graded projective right module, e * (free)."""

    def __init__(self, algebra: GradedAlgebra, shifts: Sequence[Degree], entries, *, check: bool = True):
        self.algebra = algebra
        self.shifts = tuple(shifts)
        k = len(self.shifts)
        if any(s.group != algebra.group for s in self.shifts):
            raise PresentationError("shifts must live in the algebra grading group")
        if len(entries) != k or any(len(row) != k for row in entries):
            raise PresentationError("idempotent matrix shape must match the shifts")
        self.entries = [list(row) for row in entries]
        self._spaces = {}
        # presentations derived from this one, each built once: T, S over an
        # algebra, induced filtration slices and shifts (see swan, filtration)
        self._derived = {}
        if check:
            self._validate()

    def _validate(self):
        k = len(self.shifts)
        A = self.algebra
        for i in range(k):
            for j in range(k):
                ent = self.entries[i][j]
                want = self.shifts[i] - self.shifts[j]
                if ent is None:
                    continue
                if ent.algebra is not A:
                    raise PresentationError("idempotent entry from a different algebra")
                if ent.degree != want:
                    raise PresentationError(
                        f"entry ({i},{j}) has degree {ent.degree}, expected {want}"
                    )
                if ent.is_zero():
                    self.entries[i][j] = None
        s = self.shifts
        e = entries_to_vec(A, self.entries, raw_positions(A, s, s))
        if hom_table(A, s, s, s)(e, e) != e:
            raise PresentationError("matrix is not idempotent (e*e != e)")

    # -- basic data ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.shifts)

    def space(self, h: Degree) -> ComponentSpace:
        hit = self._spaces.get(h)
        if hit is None:
            hit = self._spaces[h] = ComponentSpace(self, h)
        return hit

    def dim(self, h: Degree) -> int:
        return self.space(h).dim

    def is_zero(self) -> bool:
        return entries_are_zero(self.entries)

    def shift(self, g: Degree) -> "ProjectivePresentation":
        """The shifted module P(g): component(P(g), h) = component(P, g+h).
        P(0) is P, and each other P(g) is built once."""
        if g.is_zero():
            return self
        key = ("shift", g)
        hit = self._derived.get(key)
        if hit is None:
            hit = self._derived[key] = ProjectivePresentation(
                self.algebra, tuple(s + g for s in self.shifts), self.entries, check=False
            )
        return hit

    def __repr__(self):
        return (
            f"<presentation rank {self.rank} over {self.algebra.describe()} "
            f"shifts [{','.join(str(s) for s in self.shifts)}]>"
        )


def free_module(A: GradedAlgebra, shifts) -> ProjectivePresentation:
    shifts = [s if isinstance(s, Degree) else A.deg(s) for s in shifts]
    return ProjectivePresentation(A, shifts, identity_entries(A, shifts), check=False)


def regular_module(A: GradedAlgebra) -> ProjectivePresentation:
    return free_module(A, [A.group.zero])


def zero_module(A: GradedAlgebra) -> ProjectivePresentation:
    return ProjectivePresentation(A, (), [], check=False)


def direct_sum(*parts: ProjectivePresentation) -> ProjectivePresentation:
    if not parts:
        raise PresentationError("direct sum of nothing (algebra unknown)")
    A = parts[0].algebra
    if any(p.algebra is not A for p in parts):
        raise PresentationError("direct sum requires one common algebra")
    shifts = tuple(s for p in parts for s in p.shifts)
    k = len(shifts)
    entries = [[None] * k for _ in range(k)]
    off = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                entries[off + i][off + j] = p.entries[i][j]
        off += p.rank
    return ProjectivePresentation(A, shifts, entries, check=False)


def restrict_rows(P: ProjectivePresentation, rows) -> ProjectivePresentation:
    """Sub-presentation on a subset of ambient summands.

    Only valid when the idempotent is block diagonal with respect to the
    split (checked); used for the slices of restricted modules.
    """
    rows = list(rows)
    rest = [i for i in range(P.rank) if i not in rows]
    for i in rows:
        for j in rest:
            if P.entries[i][j] is not None and not P.entries[i][j].is_zero():
                raise PresentationError("idempotent is not block diagonal on the split")
            if P.entries[j][i] is not None and not P.entries[j][i].is_zero():
                raise PresentationError("idempotent is not block diagonal on the split")
    shifts = [P.shifts[i] for i in rows]
    entries = [[P.entries[i][j] for j in rows] for i in rows]
    return ProjectivePresentation(P.algebra, shifts, entries, check=False)


# -- reading a presentation in a related algebra -----------------------------


def same_degree(d: Degree) -> Degree:
    return d


def zero_slice(d: Degree):
    """The degree map of the projection onto the embedded zero part:
    degrees off the first-coordinate-zero slice are dropped."""
    return d if d.values[0] == 0 else None


def relabel_entries(entries, B: GradedAlgebra, deg):
    """An entry matrix read in B along the degree map ``deg``.

    B's component at deg(d) carries the basis labels of the entry's
    component at d, so each entry keeps its coordinates; an entry with
    deg(d) None is dropped.
    """
    out = []
    for row in entries:
        new_row = []
        for ent in row:
            d = None if ent is None or ent.is_zero() else deg(ent.degree)
            new_row.append(None if d is None else B.element(d, ent.coords))
        out.append(new_row)
    return out


def relabel(P: ProjectivePresentation, B: GradedAlgebra, deg) -> ProjectivePresentation:
    """P read over B along ``deg``: its shifts and idempotent entries."""
    return ProjectivePresentation(
        B, [deg(s) for s in P.shifts], relabel_entries(P.entries, B, deg), check=False
    )


class GradedMap:
    """A degree-zero homogeneous-entry map between presentations.

    Entries live in the algebra of the target; (i, j) has degree
    (target shift i) - (source shift j).  Source and target lie over one
    algebra, or one over an algebra with a free coordinate and the other
    over its embedded zero part, whose component at each degree is empty
    or the algebra's own with the same labels.  The entries are taken as
    given: a map f of presentations satisfies e_target f e_source == f,
    as hom-space bases and the functors' maps do.
    """

    def __init__(self, source: ProjectivePresentation, target: ProjectivePresentation, entries):
        self.source = source
        self.target = target
        B, A = source.algebra, target.algebra
        if B is not A and not any(
            big.group.free_rank >= 1 and small is big.zero_part_embedded()
            for big, small in ((A, B), (B, A))
        ):
            raise PresentationError(
                "maps are supported between presentations over one algebra or its "
                "embedded zero part"
            )
        rows = target.rank
        cols = source.rank
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise PresentationError("map matrix shape mismatch")
        self.entries = [list(r) for r in entries]
        for i in range(rows):
            for j in range(cols):
                ent = self.entries[i][j]
                if ent is None:
                    continue
                if ent.algebra is not A:
                    raise PresentationError("map entry must live in the target algebra")
                want = target.shifts[i] - source.shifts[j]
                if ent.degree != want:
                    raise PresentationError(
                        f"map entry ({i},{j}) has degree {ent.degree}, expected {want}"
                    )

    # -- per-degree realization ----------------------------------------------
    def image_columns(self, h: Degree):
        """The images of the source basis at degree h, as (int matrix,
        denominator) over the target's stacked components, one column per
        source basis vector; each column is checked to lie in the target
        component."""
        src_sp = self.source.space(h)
        tgt_sp = self.target.space(h)
        A = self.target.algebra
        char = A.field.char
        # source ambient basis vectors in target-algebra coordinates: a
        # block is copied where the two components agree, and otherwise one
        # of them is empty, so the block is zero-filled or dropped
        src_degrees = src_sp.block_degrees
        coerced_dims = [A.component_dim(d) for d in src_degrees]
        act, act_den = _entries_component_matrix(
            A, self.entries, src_degrees, coerced_dims, tgt_sp.block_degrees, tgt_sp.block_dims
        )
        basis, basis_den = src_sp.basis_rows()
        coerced = []
        for off, n_src, n in zip(src_sp.offsets, src_sp.block_dims, coerced_dims):
            if n_src == n:
                coerced.extend(basis[off : off + n])
            else:
                coerced.extend([0] * src_sp.dim for _ in range(n))
        if coerced:
            images = _kernel.int_mul(act, coerced, char)
        else:
            images = [[0] * src_sp.dim for _ in range(tgt_sp.ambient_dim)]
        if not tgt_sp.holds(images):
            raise PresentationError("vector does not lie in the component")
        return images, act_den * basis_den

    def component_matrix(self, h: Degree):
        """The field matrix of P_h -> Q_h in the chosen component bases."""
        images, den = self.image_columns(h)
        return self.target.space(h).express(images, den)

    def is_iso_on(self, window) -> bool:
        """Bijective at every degree of the window.  Where the source is
        zero the target dimension decides, and no image is built; elsewhere
        the rank is read from the images, since coordinates in the target
        basis are an injective linear map."""
        char = self.target.algebra.field.char
        for h in window:
            n = self.source.dim(h)
            if not n:
                if self.target.dim(h):
                    return False
                continue
            images, _den = self.image_columns(h)
            if n != self.target.dim(h):
                return False
            if _kernel.rank(images, char) != n:
                return False
        return True


# -- randomized test modules -------------------------------------------------


def random_presentation(A: GradedAlgebra, shifts, rng) -> ProjectivePresentation:
    """A random projective presentation: a 0/1 diagonal idempotent d
    conjugated by g = LU, L and U unitriangular, so that g^-1 = U^-1 L^-1
    is exact (the finite Neumann series of a nilpotent).  Every product
    is taken on raw positions in ``hom_table``.  With no shifts it is the
    zero module, and rng is not drawn from."""
    shifts = tuple(s if isinstance(s, Degree) else A.deg(s) for s in shifts)
    k = len(shifts)
    if not k:
        return zero_module(A)
    F = A.field
    diag = [rng.randint(0, 1) for _ in range(k)]
    if not any(diag):
        diag[rng.randrange(k)] = 1
    pos = raw_positions(A, shifts, shifts)
    mul = hom_table(A, shifts, shifts, shifts)
    one = entries_to_vec(A, identity_entries(A, shifts), pos)
    d = [x if diag[i] else F.zero for x, (i, _j, _d, _b) in zip(one, pos)]
    blocks = {}
    for x, (i, j, _d, _b) in enumerate(pos):
        blocks.setdefault((i, j), []).append(x)

    def unitriangular(strict_lower: bool):
        N = [F.zero] * len(pos)
        for i in range(k):
            for j in range(k):
                if (i > j) if strict_lower else (i < j):
                    if rng.random() < 0.75:
                        for x in blocks.get((i, j), ()):
                            N[x] = F.of_int(rng.randint(-RANDOM_COORD, RANDOM_COORD))
        # inverse of 1 + N: the sum of the powers of -N (N is nilpotent)
        neg = [F.neg(x) for x in N]
        inv = power = one
        for _ in range(k):
            power = mul(power, neg)
            if not any(power):
                break
            inv = [F.add(a, b) for a, b in zip(inv, power)]
        return [F.add(a, b) for a, b in zip(one, N)], inv

    L, Linv = unitriangular(True)
    U, Uinv = unitriangular(False)
    e = mul(mul(mul(L, U), d), mul(Uinv, Linv))
    return ProjectivePresentation(A, shifts, vec_to_entries(A, e, pos, k, k), check=True)
