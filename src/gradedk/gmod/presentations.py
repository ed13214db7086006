"""Graded projective modules as homogeneous idempotent presentations.

A module is P = e * (A(s_1) + ... + A(s_k)) for a k x k idempotent matrix
e whose (i, j) entry is homogeneous of degree s_i - s_j, acting on column
vectors from the left; the shift convention is P(g)_h = P_{g+h}.  The
degree-h component is the image of e on the stacked component spaces
A_{s_i + h}, so every question about P reduces to exact linear algebra
in a fixed degree.

Degree-zero maps between presentations are matrices of homogeneous
entries intertwining the idempotents.

A presentation does not change once built, so what is derived from it
is computed once and kept in its ``_derived`` dict: the presentations
restriction T and induction S (``swan``), the induced slices of its
filtration and its shifts, with their component spaces; its class
multiset per seed (``decompose.summand_classes``); and the image ranks
of each seeded section (``filtration.verify_section_independence``).

The zero part, its embedding, a trivial extension of the grading and
the identity component read their components from the parent's basis
labels, so a presentation moves between these algebras along a degree
map alone (``relabel``): an entry keeps its coordinates and takes the
degree the map gives it, or is dropped where the map gives None.  Maps
between presentations over an algebra and over its embedded zero part
read their source along the same degree maps.
"""

from __future__ import annotations

from typing import Sequence

from .. import _kernel
from ..algebra import GradedAlgebra
from ..grading import Degree


class PresentationError(ValueError):
    pass


# -- entry-matrix helpers (entries: HomogeneousElement or None for zero) ----


def entry_add(x, y):
    if x is None:
        return y
    if y is None:
        return x
    z = x + y
    return None if z.is_zero() else z


def entry_mul(x, y):
    if x is None or y is None:
        return None
    z = x * y
    return None if z.is_zero() else z


def entries_matmul(X, Y):
    n = len(X)
    mid = len(Y)
    m = len(Y[0]) if mid else 0
    out = [[None] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = None
            for t in range(mid):
                acc = entry_add(acc, entry_mul(X[i][t], Y[t][j]))
            out[i][j] = acc
    return out


def entries_add(X, Y):
    return [
        [entry_add(a, b) for a, b in zip(rx, ry)]
        for rx, ry in zip(X, Y)
    ]


def entries_eq(X, Y):
    for rx, ry in zip(X, Y):
        for a, b in zip(rx, ry):
            if a is None and b is None:
                continue
            if a is None:
                if not b.is_zero():
                    return False
            elif b is None:
                if not a.is_zero():
                    return False
            elif a.degree != b.degree or a.coords != b.coords:
                return False
    return True


def entries_are_zero(X):
    return all(e is None or e.is_zero() for row in X for e in row)


def identity_entries(A: GradedAlgebra, shifts):
    k = len(shifts)
    one = A.one()
    return [[one if i == j else None for j in range(k)] for i in range(k)]


class ComponentSpace:
    """The degree-h component of a presentation, with a chosen basis."""

    __slots__ = (
        "degree",
        "block_degrees",
        "block_dims",
        "offsets",
        "ambient_dim",
        "matrix",
        "basis_columns",
        "dim",
        "_char",
        "_span",
    )

    def __init__(self, pres: "ProjectivePresentation", h: Degree):
        A = pres.algebra
        char = A.field.char
        self._char = char
        self.degree = h
        self.block_degrees = [s + h for s in pres.shifts]
        self.block_dims = [A.component_dim(d) for d in self.block_degrees]
        self.offsets = []
        off = 0
        for d in self.block_dims:
            self.offsets.append(off)
            off += d
        self.ambient_dim = off
        self.matrix = _entries_component_matrix(
            A, pres.entries, self.block_degrees, self.block_dims, self.block_degrees, self.block_dims
        )
        # image basis: pivot columns of the idempotent's component matrix
        if self.ambient_dim:
            _red, pivots = _kernel.rref(self.matrix, char)
            self.basis_columns = [
                [self.matrix[r][c] for r in range(self.ambient_dim)] for c in pivots
            ]
        else:
            self.basis_columns = []
        self.dim = len(self.basis_columns)
        self._span = None

    def express(self, vec):
        """Coordinates of an ambient vector in the image basis (must lie in)."""
        if self._span is None:
            self._span = _kernel.EchelonBasis(self.basis_columns, self._char)
        sol = self._span.coords(vec)
        if sol is None:
            raise PresentationError("vector does not lie in the component")
        return sol


def _entries_component_matrix(tgt_alg, entries, src_degrees, src_dims, tgt_degrees, tgt_dims):
    """Matrix (stacked tgt components) x (stacked src components) of the
    entry matrix acting by left multiplication; src vectors are already
    coerced into tgt_alg coordinates.  Block (i, j) is the matrix of left
    multiplication by entry (i, j), read from the pair tensor."""
    F = tgt_alg.field
    mat = [[F.zero] * sum(src_dims) for _ in range(sum(tgt_dims))]
    col = 0
    for j, (dj, nj) in enumerate(zip(src_degrees, src_dims)):
        if nj:
            base = 0
            for i, ni in enumerate(tgt_dims):
                ent = entries[i][j]
                if ent is not None:
                    if ent.degree + dj != tgt_degrees[i]:  # pragma: no cover
                        raise PresentationError("entry degree bookkeeping failed")
                    block = tgt_alg.pair_tensor(ent.degree, dj).left(ent.coords, nj)
                    for r in range(ni):
                        mat[base + r][col : col + nj] = block[r]
                base += ni
        col += nj
    return mat


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
        ee = entries_matmul(self.entries, self.entries)
        if not entries_eq(ee, self.entries):
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


def _coercion(src: GradedAlgebra, tgt: GradedAlgebra):
    """The degree map reading src components in tgt."""
    if src is tgt or (tgt.group.free_rank >= 1 and src is tgt.zero_part_embedded()):
        return same_degree
    if src.group.free_rank >= 1 and tgt is src.zero_part_embedded():
        return zero_slice
    raise PresentationError(
        "maps are supported between presentations over one algebra or its "
        "embedded zero part"
    )


def _coerce_coords(deg, src: GradedAlgebra, tgt: GradedAlgebra, d: Degree, coords):
    """Coordinates of a src component vector at d inside tgt's component
    at d, the vector being dropped where ``deg`` drops d."""
    if src is tgt:
        return coords
    if deg(d) is None or not coords:
        return [tgt.field.zero] * tgt.component_dim(d)
    if src.component_basis(d) != tgt.component_basis(d):  # pragma: no cover
        raise PresentationError("zero part basis mismatch")
    return list(coords)


class GradedMap:
    """A degree-zero homogeneous-entry map between presentations.

    Entries live in the algebra of the target; (i, j) has degree
    (target shift i) - (source shift j).  When source and target algebras
    differ by the zero-part embedding, source vectors are read in the
    target along the degree map ``deg`` before multiplying.  The entries
    are taken as given: a map f of presentations satisfies
    e_target f e_source == f, as hom-space bases and the functors' maps do.
    """

    def __init__(self, source: ProjectivePresentation, target: ProjectivePresentation, entries, *, check: bool = True):
        self.source = source
        self.target = target
        self.deg = _coercion(source.algebra, target.algebra)
        rows = target.rank
        cols = source.rank
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise PresentationError("map matrix shape mismatch")
        self.entries = [list(r) for r in entries]
        A = target.algebra
        if check:
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
    def component_matrix(self, h: Degree):
        """The field matrix of P_h -> Q_h in the chosen component bases."""
        src_sp = self.source.space(h)
        tgt_sp = self.target.space(h)
        A = self.target.algebra
        F = A.field
        # coerce source ambient basis vectors into target-algebra coordinates
        src_degrees = src_sp.block_degrees
        coerced_dims = [A.component_dim(d) for d in src_degrees]
        # ambient action matrix of the entries on coerced source coordinates
        act = _entries_component_matrix(
            A, self.entries, src_degrees, coerced_dims, tgt_sp.block_degrees, tgt_sp.block_dims
        )
        # coerced source basis vectors as the columns of one matrix
        coerced = [[] for _ in range(sum(coerced_dims))]
        for basis_col in src_sp.basis_columns:
            vec = []
            off = 0
            for d, n_src in zip(src_degrees, src_sp.block_dims):
                chunk = basis_col[off : off + n_src]
                off += n_src
                vec.extend(_coerce_coords(self.deg, self.source.algebra, A, d, chunk))
            for row, x in zip(coerced, vec):
                row.append(x)
        if coerced:
            images = _kernel.mat_mul(act, coerced, F.char)
        else:
            images = [[F.zero] * src_sp.dim for _ in range(tgt_sp.ambient_dim)]
        cols = [tgt_sp.express([row[c] for row in images]) for c in range(src_sp.dim)]
        # assemble (dim target) x (dim source)
        out = [[F.zero] * src_sp.dim for _ in range(tgt_sp.dim)]
        for c, col in enumerate(cols):
            for r, x in enumerate(col):
                out[r][c] = x
        return out

    def is_iso_on(self, window) -> bool:
        char = self.target.algebra.field.char
        for h in window:
            m = self.component_matrix(h)
            n_rows = len(m)
            n_cols = len(m[0]) if m else self.source.dim(h)
            if self.source.dim(h) != self.target.dim(h):
                return False
            if n_rows and _kernel.rank(m, char) != n_rows:
                return False
        return True


def identity_map(P: ProjectivePresentation) -> GradedMap:
    return GradedMap(P, P, P.entries, check=False)


def component_matrix(f: GradedMap, h: Degree):
    """Spec-level accessor: the matrix of f on the degree-h components."""
    return f.component_matrix(h)


# -- randomized test modules -------------------------------------------------


def random_presentation(A: GradedAlgebra, shifts, rng, density: int = 2) -> ProjectivePresentation:
    """A random projective presentation: a 0/1 diagonal idempotent
    conjugated by unitriangular matrices (exactly invertible)."""
    shifts = [s if isinstance(s, Degree) else A.deg(s) for s in shifts]
    k = len(shifts)
    F = A.field
    diag = [rng.randint(0, 1) for _ in range(k)]
    if not any(diag):
        diag[rng.randrange(k)] = 1
    one = A.one()
    d_entries = [[one if (i == j and diag[i]) else None for j in range(k)] for i in range(k)]

    def random_entry(i, j):
        d = shifts[i] - shifts[j]
        n = A.component_dim(d)
        if n == 0:
            return None
        coords = [F.of_int(rng.randint(-density, density)) for _ in range(n)]
        if not any(coords):
            return None
        return A.element(d, coords)

    def unitriangular(strict_lower: bool):
        N = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                if (i > j) if strict_lower else (i < j):
                    if rng.random() < 0.75:
                        N[i][j] = random_entry(i, j)
        G = [[one if i == j else N[i][j] for j in range(k)] for i in range(k)]
        # inverse of 1 + N via the finite Neumann series (N is nilpotent)
        inv = identity_entries(A, shifts)
        power = [[N[i][j] for j in range(k)] for i in range(k)]
        sign = -1
        for _ in range(k):
            if entries_are_zero(power):
                break
            term = [
                [None if power[i][j] is None else power[i][j].scale(F.of_int(sign)) for j in range(k)]
                for i in range(k)
            ]
            inv = entries_add(inv, term)
            power = entries_matmul(power, [[N[i][j] for j in range(k)] for i in range(k)])
            sign = -sign
        return G, inv

    L, Linv = unitriangular(True)
    U, Uinv = unitriangular(False)
    g = entries_matmul(L, U)
    ginv = entries_matmul(Uinv, Linv)
    e = entries_matmul(entries_matmul(g, d_entries), ginv)
    return ProjectivePresentation(A, shifts, e, check=True)
