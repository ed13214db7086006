"""Graded algebras over exact fields, built from a closed constructor family.

Every algebra answers two queries exactly and deterministically: a finite
basis of any degree component, and structure constants for products of
basis elements.  The family is closed under the operations the K-theory
layer needs (degree-zero part, positive truncation, identity component,
trivial extension of the grading, forgetting the grading and reducing Z
to Z/n), and each constructor reports per-coordinate support bounds so
that component queries stay finite even for algebras with infinite
support such as polynomial extensions.

The first four are slices: one :class:`SliceAlgebra` reads its parent
along a degree map.  Each is cached on the parent, so repeated calls
return the same object.  The last two are regradings: one
:class:`RegradedAlgebra` groups the finite support of its parent into
fibres along a degree map, and lays each fibre's components end to end.

Structure constants come as one table per pair of degrees
(``pair_tensor``).  Only the base constructors read theirs from basis
labels (``_mul_labels``).  Each derived constructor composes its
tables from its owners': a slice's are its parent's, and a regrading,
a polynomial extension and a tensor product place their parent's,
base's or factors' tables at the offsets of its component blocks.
Coarsening a grading makes each new component the direct sum of the
old ones over a fibre (Hazrat, *Graded Rings and Graded Grothendieck
Groups*, LMS LN 435, 2016), and the same holds for the others.

Support bounds use ``None`` for an unbounded side.  The first free
coordinate of the grading group is the distinguished one: the functors in
:mod:`gradedk.gmod` restrict along it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _kernel
from .fields import Field
from .grading import Degree, GradingGroup, TRIVIAL_GROUP


class AlgebraError(ValueError):
    pass


class HypothesisError(ValueError):
    """A stated hypothesis (support, strong grading, ...) does not hold.

    Raised by hypothesis gates; distinct from verification failures, which
    signal bugs rather than unmet preconditions.
    """


def _add_bounds(x, y):
    return None if x is None or y is None else x + y


class GradedAlgebra:
    """Base class: immutable, with per-degree caches."""

    group: GradingGroup
    field: Field

    def __init__(self, group: GradingGroup, field: Field):
        self.group = group
        self.field = field
        self._basis_cache = {}
        self._mul_cache = {}
        self._layout = {}  # blocks of the components of a derived constructor
        self._slices = {}  # zero part, positive part, ... by name; extensions by k
        self._registry = None  # decomposition class registry, set lazily

    # -- abstract hooks --------------------------------------------------
    def _component_basis(self, deg: Degree) -> tuple:
        raise NotImplementedError

    def _mul_labels(self, da: Degree, la, db: Degree, lb):
        """Structure constants: product of two basis labels, as
        [(label, coeff)] in the component at da+db.  Read only by the
        base ``_pair_tensor``."""
        raise NotImplementedError

    def one_terms(self):
        """Unit of the algebra as [(label, coeff)] at degree zero."""
        raise NotImplementedError

    def support_bounds(self) -> tuple:
        """Per free coordinate (lo, hi); None marks an unbounded side."""
        raise NotImplementedError

    def support_radius(self) -> tuple:
        """Per free coordinate: a box radius that contains the support of
        every generator-level product needed by window checks."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def matrix_seed(self):
        """(shifts, label) when the algebra is M_n(F)(shifts) with e11 at
        ``label`` in the degree-zero basis, else None.  The class table
        reads this in place of a split of A(0)."""
        return None

    # -- shared API --------------------------------------------------------
    def deg(self, values: Sequence[int]) -> Degree:
        return self.group.degree(values)

    def component_basis(self, deg: Degree) -> tuple:
        if deg.group != self.group:
            raise AlgebraError("degree from a different grading group")
        hit = self._basis_cache.get(deg)
        if hit is None:
            hit = self._basis_cache[deg] = tuple(self._component_basis(deg))
        return hit

    def component_dim(self, deg: Degree) -> int:
        return len(self.component_basis(deg))

    def pair_tensor(self, da: Degree, db: Degree) -> _kernel.Bilinear:
        """Structure constants of component(da) x component(db), built once
        by ``_pair_tensor`` and kept in ``_mul_cache`` under (da, db).

        This is the one cached entry point.  A constructor whose products
        are its parent's or its factors' does not answer label by label:
        its ``_pair_tensor`` composes the table from theirs, so a slice
        returns its parent's table itself, and a regrading, a polynomial
        extension and a tensor product place their owners' tables at block
        offsets (``_kernel.Bilinear.placed``)."""
        key = (da, db)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = self._pair_tensor(da, db)
        return hit

    def _pair_tensor(self, da: Degree, db: Degree) -> _kernel.Bilinear:
        """Build hook of ``pair_tensor``: the table read label by label
        from ``_mul_labels``."""
        ba = self.component_basis(da)
        bb = self.component_basis(db)
        target = self.component_basis(da + db)
        index = {lbl: i for i, lbl in enumerate(target)}
        cells = {
            (ia, ib): [
                (index[lbl], c) for lbl, c in self._mul_labels(da, la, db, lb) if c
            ]
            for ia, la in enumerate(ba)
            for ib, lb in enumerate(bb)
        }
        return _kernel.Bilinear(cells, len(target), self.field.char)

    def _block_dims(self, deg):
        """A derived constructor's blocks of the component at deg, in
        order, as (key, data, dimension); a block may be empty."""
        raise NotImplementedError

    def _blocks(self, deg):
        """The nonempty blocks of the component at deg, by key: (data,
        offset of the block), built once from ``_block_dims``."""
        hit = self._layout.get(deg)
        if hit is None:
            hit = self._layout[deg] = {}
            off = 0
            for key, data, n in self._block_dims(deg):
                if n:
                    hit[key] = (data, off)
                    off += n
        return hit

    def mul_coords(self, da: Degree, ca, db: Degree, cb):
        """Coordinates of the product of two coordinate vectors."""
        return self.pair_tensor(da, db)(ca, cb)

    def element(self, deg: Degree, coords) -> "HomogeneousElement":
        coords = tuple(coords)
        if len(coords) != self.component_dim(deg):
            raise AlgebraError("coordinate vector has the wrong length")
        return HomogeneousElement(self, deg, coords)

    def basis_element(self, deg: Degree, i: int) -> "HomogeneousElement":
        n = self.component_dim(deg)
        F = self.field
        return self.element(deg, tuple(F.one if j == i else F.zero for j in range(n)))

    def one(self) -> "HomogeneousElement":
        z = self.group.zero
        basis = self.component_basis(z)
        index = {lbl: i for i, lbl in enumerate(basis)}
        F = self.field
        coords = [F.zero] * len(basis)
        for lbl, c in self.one_terms():
            coords[index[lbl]] = F.add(coords[index[lbl]], c)
        return self.element(z, coords)

    # -- support ------------------------------------------------------------
    def finite_support(self) -> bool:
        return all(lo is not None and hi is not None for lo, hi in self.support_bounds())

    def support_degrees(self) -> list:
        """All degrees with a nonzero component (finite support only)."""
        if not self.finite_support():
            raise AlgebraError("support is not finite")
        ranges = [range(lo, hi + 1) for lo, hi in self.support_bounds()]
        return [d for d in self.group.box(ranges) if self.component_dim(d)]

    def positively_supported(self) -> bool:
        """Support contained in N x (rest) along the first free coordinate."""
        if self.group.free_rank < 1:
            return False
        lo, _hi = self.support_bounds()[0]
        return lo is not None and lo >= 0

    # -- slices (cached so module categories share instances) -------------
    def _slice(self, key, build, *args) -> "GradedAlgebra":
        hit = self._slices.get(key)
        if hit is None:
            hit = self._slices[key] = build(self, *args)
        return hit

    def zero_part(self) -> "GradedAlgebra":
        if self.group.free_rank < 1:
            raise AlgebraError("no distinguished free coordinate to restrict along")
        return self._slice("zero_part", _zero_part)

    def zero_part_embedded(self) -> "GradedAlgebra":
        """The degree-zero part, kept graded by the full group with
        support in 0 x (rest)."""
        return self._slice(
            "zero_part_embedded", lambda a: a.zero_part().trivial_extension(1)
        )

    def identity_component(self) -> "GradedAlgebra":
        return self._slice("identity_component", _identity_component)

    def positive_part(self) -> "GradedAlgebra":
        if self.group.free_rank < 1:
            raise AlgebraError("parent has no free coordinate to truncate along")
        return self._slice("positive_part", _positive_part)

    def trivial_extension(self, extra: int = 1) -> "GradedAlgebra":
        if extra < 1:
            return self
        return self._slice(extra, _trivial_extension, extra)

    def __repr__(self):
        return f"<{self.describe()} over {self.field.describe()}>"


@dataclass(frozen=True)
class HomogeneousElement:
    algebra: GradedAlgebra
    degree: Degree
    coords: tuple

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "HomogeneousElement"):
        self._check(other)
        if self.degree != other.degree:
            raise AlgebraError("sum of elements of different degrees is not homogeneous")
        F = self.algebra.field
        return HomogeneousElement(
            self.algebra,
            self.degree,
            tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)),
        )

    def __mul__(self, other: "HomogeneousElement"):
        self._check(other)
        A = self.algebra
        coords = A.mul_coords(self.degree, self.coords, other.degree, other.coords)
        return HomogeneousElement(A, self.degree + other.degree, tuple(coords))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


class MatrixAlgebra(GradedAlgebra):
    """Full matrix algebra with a grading shift per row/column.

    Basis element (i, j) (the matrix unit) has degree shifts[i] - shifts[j];
    this convention makes the degree-zero part block diagonal with one
    block per group of equal shifts.
    """

    def __init__(self, field: Field, shifts: Sequence[Degree]):
        shifts = tuple(shifts)
        if not shifts:
            raise AlgebraError("matrix algebra needs at least one shift")
        group = shifts[0].group
        if any(s.group != group for s in shifts):
            raise AlgebraError("matrix shifts must share one grading group")
        super().__init__(group, field)
        self.shifts = shifts
        self.n = len(shifts)
        self._support = sorted(
            {(shifts[i] - shifts[j]).values for i in range(self.n) for j in range(self.n)}
        )

    def _component_basis(self, deg):
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if (self.shifts[i] - self.shifts[j]) == deg
        )

    def _mul_labels(self, da, la, db, lb):
        i, j = la
        k, l = lb
        if j == k:
            yield (i, l), self.field.one

    def one_terms(self):
        return [((i, i), self.field.one) for i in range(self.n)]

    def support_bounds(self):
        m = self.group.free_rank
        out = []
        for c in range(m):
            vals = [v[c] for v in self._support]
            out.append((min(vals), max(vals)))
        return tuple(out)

    def support_radius(self):
        return tuple(max(abs(lo), abs(hi)) for lo, hi in self.support_bounds())

    def matrix_seed(self):
        return self.shifts, (0, 0)

    def describe(self):
        return "M%d(%s)(%s)" % (
            self.n,
            self.field.describe(),
            ",".join(str(s) for s in self.shifts),
        )


class GroupAlgebraA(GradedAlgebra):
    """The group algebra of the grading group, graded by itself.

    Components are one-dimensional in every degree; the algebra is
    strongly graded.
    """

    def __init__(self, field: Field, group: GradingGroup):
        super().__init__(group, field)
        self._unit_table = None

    def _component_basis(self, deg):
        return ("u",)

    def _mul_labels(self, da, la, db, lb):
        yield "u", self.field.one

    def _pair_tensor(self, da, db):
        """u u = u in every pair of degrees: one 1 x 1 table, built once."""
        if self._unit_table is None:
            self._unit_table = _kernel.Bilinear(
                {(0, 0): [(0, self.field.one)]}, 1, self.field.char
            )
        return self._unit_table

    def one_terms(self):
        return [("u", self.field.one)]

    def support_bounds(self):
        return tuple((None, None) for _ in range(self.group.free_rank))

    def support_radius(self):
        return tuple(1 for _ in range(self.group.free_rank))

    def describe(self):
        return f"{self.field.describe()}[{self.group.describe()}]"


class PolynomialExtensionAlgebra(GradedAlgebra):
    """Adjoin a central variable of a fixed degree: base[x], deg x = d.

    The variable degree must have a nonzero free part, and the base must
    be bounded along that coordinate in the direction the powers of x
    march, so that each component enumerates finitely many powers.
    """

    def __init__(self, base: GradedAlgebra, var_degree: Degree):
        if var_degree.group != base.group:
            raise AlgebraError("variable degree must live in the base grading group")
        super().__init__(base.group, base.field)
        self.base = base
        self.var_degree = var_degree
        m = self.group.free_rank
        free = var_degree.values[:m]
        pivot = next((j for j in range(m) if free[j]), None)
        if pivot is None:
            raise AlgebraError(
                "variable degree needs a nonzero free coordinate (else components "
                "would be infinite-dimensional)"
            )
        self.pivot = pivot
        lo, hi = base.support_bounds()[pivot]
        c = free[pivot]
        if c > 0 and lo is None:
            raise AlgebraError(
                "base support unbounded below along the variable coordinate"
            )
        if c < 0 and hi is None:
            raise AlgebraError(
                "base support unbounded above along the variable coordinate"
            )

    def _power_range(self, deg):
        c = self.var_degree.values[self.pivot]
        lo, hi = self.base.support_bounds()[self.pivot]
        g = deg.values[self.pivot]
        if c > 0:
            kmax = (g - lo) // c
            kmin = 0 if hi is None else max(0, -((hi - g) // c))
        else:
            kmax = (g - hi) // c
            kmin = 0 if lo is None else max(0, -((lo - g) // c))
        return range(max(0, kmin), kmax + 1)

    def _block_dims(self, deg):
        """One block per power k of x, with its base degree deg - k x."""
        for k in self._power_range(deg):
            bdeg = deg - k * self.var_degree
            yield k, bdeg, self.base.component_dim(bdeg)

    def _component_basis(self, deg):
        return tuple(
            (k, lbl)
            for k, (bdeg, _off) in self._blocks(deg).items()
            for lbl in self.base.component_basis(bdeg)
        )

    def _pair_tensor(self, da, db):
        """x is central: (x^a b)(x^c b') = x^(a+c) b b', so each pair of
        blocks holds the base's table, placed in the block of x^(a+c)."""
        out = self._blocks(da + db)
        parts = []
        for ka, (bda, i0) in self._blocks(da).items():
            for kb, (bdb, j0) in self._blocks(db).items():
                table = self.base.pair_tensor(bda, bdb)
                if table.rows:
                    parts.append((table, i0, j0, out[ka + kb][1]))
        return _kernel.Bilinear.placed(parts, self.component_dim(da + db), self.field.char)

    def one_terms(self):
        return [((0, lbl), c) for lbl, c in self.base.one_terms()]

    def support_bounds(self):
        out = []
        for j, (lo, hi) in enumerate(self.base.support_bounds()):
            c = self.var_degree.values[j]
            if c > 0:
                out.append((lo, None))
            elif c < 0:
                out.append((None, hi))
            else:
                out.append((lo, hi))
        return tuple(out)

    def support_radius(self):
        base = self.base.support_radius()
        m = self.group.free_rank
        return tuple(base[j] + abs(self.var_degree.values[j]) for j in range(m))

    def describe(self):
        return f"{self.base.describe()}[x;{self.var_degree}]"


class TensorProductAlgebra(GradedAlgebra):
    """Tensor product over the common field, graded by the common group."""

    def __init__(self, left: GradedAlgebra, right: GradedAlgebra):
        if left.group != right.group:
            raise AlgebraError("tensor factors must share the grading group")
        if left.field != right.field:
            raise AlgebraError("tensor factors must share the field")
        super().__init__(left.group, left.field)
        self.left = left
        self.right = right
        for j in range(self.group.free_rank):
            alo, ahi = left.support_bounds()[j]
            blo, bhi = right.support_bounds()[j]
            if (alo is None and bhi is None) or (ahi is None and blo is None):
                raise AlgebraError(
                    "tensor components would need an unbounded enumeration along "
                    f"free coordinate {j}"
                )

    def _left_degrees(self, deg):
        m = self.group.free_rank
        ranges = []
        for j in range(m):
            alo, ahi = self.left.support_bounds()[j]
            blo, bhi = self.right.support_bounds()[j]
            g = deg.values[j]
            lo = alo if bhi is None else (g - bhi if alo is None else max(alo, g - bhi))
            hi = ahi if blo is None else (g - blo if ahi is None else min(ahi, g - blo))
            if lo is None or hi is None:
                raise AlgebraError("unbounded tensor component enumeration")
            ranges.append(range(lo, hi + 1))
        return self.group.box(ranges)

    def _block_dims(self, deg):
        """One block A_alpha (x) B_beta per left degree alpha, with beta =
        deg - alpha and the dimension of B_beta."""
        for alpha in self._left_degrees(deg):
            beta = deg - alpha
            n = self.left.component_dim(alpha)
            m = n and self.right.component_dim(beta)
            yield alpha, (beta, m), n * m

    def _component_basis(self, deg):
        return tuple(
            (alpha.values, x, y)
            for alpha, ((beta, _m), _off) in self._blocks(deg).items()
            for x in self.left.component_basis(alpha)
            for y in self.right.component_basis(beta)
        )

    def _pair_tensor(self, da, db):
        """(x (x) y)(x' (x) y') = x x' (x) y y': each pair of blocks holds
        the Kronecker product of the factors' tables, placed in the block
        of alpha + alpha'."""
        out = self._blocks(da + db)
        parts = []
        for a1, ((b1, m1), i0) in self._blocks(da).items():
            for a2, ((b2, m2), j0) in self._blocks(db).items():
                left = self.left.pair_tensor(a1, a2)
                if not left.rows:
                    continue
                right = self.right.pair_tensor(b1, b2)
                if right.rows:
                    parts.append((left.kron(right, m1, m2), i0, j0, out[a1 + a2][1]))
        return _kernel.Bilinear.placed(parts, self.component_dim(da + db), self.field.char)

    def one_terms(self):
        z = self.group.zero
        return [
            ((z.values, lx, ly), self.field.mul(cx, cy))
            for lx, cx in self.left.one_terms()
            for ly, cy in self.right.one_terms()
        ]

    def support_bounds(self):
        out = []
        for j in range(self.group.free_rank):
            alo, ahi = self.left.support_bounds()[j]
            blo, bhi = self.right.support_bounds()[j]
            out.append((_add_bounds(alo, blo), _add_bounds(ahi, bhi)))
        return tuple(out)

    def support_radius(self):
        return tuple(
            a + b for a, b in zip(self.left.support_radius(), self.right.support_radius())
        )

    def describe(self):
        return f"({self.left.describe()}) (x) ({self.right.describe()})"


class SliceAlgebra(GradedAlgebra):
    """A parent algebra read along a degree map ``to_parent``: the component
    at d is the parent's at ``to_parent(d)``, empty where that is None, and
    products and unit are the parent's.  Bounds and description are fixed."""

    def __init__(self, parent, group, to_parent, bounds, radius, description):
        super().__init__(group, parent.field)
        self.parent = parent
        self.to_parent = to_parent
        self._bounds = bounds
        self._radius = radius
        self._description = description

    def _component_basis(self, deg):
        d = self.to_parent(deg)
        return () if d is None else self.parent.component_basis(d)

    def _pair_tensor(self, da, db):
        """The parent's table itself: ``to_parent`` is additive where it
        is defined.  Where it is not, a component is empty and so is the
        table."""
        pa, pb = self.to_parent(da), self.to_parent(db)
        if pa is None or pb is None:
            return _kernel.Bilinear({}, self.component_dim(da + db), self.field.char)
        return self.parent.pair_tensor(pa, pb)

    def one_terms(self):
        return self.parent.one_terms()

    def support_bounds(self):
        return self._bounds

    def support_radius(self):
        return self._radius

    def describe(self):
        return self._description


def _zero_part(a: GradedAlgebra) -> SliceAlgebra:
    """Degree-zero part along the first free coordinate, residually graded."""
    g = a.group
    return SliceAlgebra(
        a,
        GradingGroup(g.free_rank - 1, g.torsion_moduli),
        lambda d: g.degree((0,) + d.values),
        a.support_bounds()[1:],
        a.support_radius()[1:],
        f"zero_part({a.describe()})",
    )


def _positive_part(a: GradedAlgebra) -> SliceAlgebra:
    """Subalgebra spanned by components with first free coordinate >= 0."""
    bounds = list(a.support_bounds())
    lo, hi = bounds[0]
    bounds[0] = (0 if lo is None else max(0, lo), hi if hi is None else max(hi, 0))
    return SliceAlgebra(
        a,
        a.group,
        lambda d: d if d.values[0] >= 0 else None,
        tuple(bounds),
        a.support_radius(),
        f"positive_part({a.describe()})",
    )


def _identity_component(a: GradedAlgebra) -> SliceAlgebra:
    """The identity component A_0, as an algebra over the trivial group."""
    z = a.group.zero
    return SliceAlgebra(
        a, TRIVIAL_GROUP, lambda d: z, (), (), f"identity_component({a.describe()})"
    )


def _trivial_extension(a: GradedAlgebra, extra: int) -> SliceAlgebra:
    """The same algebra, graded by Z^extra x G with support in 0 x G.  Its
    zero part is the extension by one coordinate less."""
    g = a.group
    ext = SliceAlgebra(
        a,
        GradingGroup(g.free_rank + extra, g.torsion_moduli),
        lambda d: None if any(d.values[:extra]) else g.degree(d.values[extra:]),
        ((0, 0),) * extra + a.support_bounds(),
        (0,) * extra + a.support_radius(),
        f"triv_ext({a.describe()}, {extra})",
    )
    ext._slices["zero_part"] = a.trivial_extension(extra - 1)
    return ext


class RegradedAlgebra(GradedAlgebra):
    """A finite-support parent regraded along a degree map ``to_target``.

    The component at D lays the parent's components at the fibre of D,
    the support degrees that map to D, end to end in the order of their
    values; a basis label is (parent degree values, parent label).  A
    parent without finite support is refused, so every fibre is finite
    and read once from the parent's support.  A regrading of a matrix
    algebra is a matrix algebra again, on the mapped shifts
    (``matrix_seed``).
    """

    def __init__(self, parent: GradedAlgebra, group: GradingGroup, to_target):
        if not parent.finite_support():
            raise AlgebraError("regrading needs a finite-support parent")
        super().__init__(group, parent.field)
        self.parent = parent
        self.to_target = to_target
        self._fibres = {}
        for d in sorted(parent.support_degrees(), key=lambda d: d.values):
            self._fibres.setdefault(to_target(d), []).append(d)

    def _block_dims(self, deg):
        """One block per parent degree of the fibre of deg."""
        for d in self._fibres.get(deg, ()):
            yield d, None, self.parent.component_dim(d)

    def _component_basis(self, deg):
        return tuple(
            (d.values, lbl) for d in self._blocks(deg) for lbl in self.parent.component_basis(d)
        )

    def _pair_tensor(self, da, db):
        """A product of components at d1 and d2 of the parent lies at
        d1 + d2, which the degree map sends to da + db: each pair of
        blocks holds the parent's table, placed in the block of d1 + d2."""
        P = self.parent
        out = self._blocks(da + db)
        parts = []
        for d1, (_, i0) in self._blocks(da).items():
            for d2, (_, j0) in self._blocks(db).items():
                table = P.pair_tensor(d1, d2)
                if table.rows:
                    parts.append((table, i0, j0, out[d1 + d2][1]))
        return _kernel.Bilinear.placed(parts, self.component_dim(da + db), self.field.char)

    def one_terms(self):
        z = self.parent.group.zero
        return [((z.values, lbl), c) for lbl, c in self.parent.one_terms()]

    def support_bounds(self):
        return tuple(
            (min(d.values[j] for d in self._fibres), max(d.values[j] for d in self._fibres))
            for j in range(self.group.free_rank)
        )

    def support_radius(self):
        return tuple(max(abs(lo), abs(hi)) for lo, hi in self.support_bounds())

    def matrix_seed(self):
        """A regrading of M_n(F)(s) is M_n(F)(to_target(s)) (Hazrat, LMS LN
        435, 2016, section 2.3), with e11 in the block of the parent's zero.
        Only equal mapped shifts are seeded: A_0 is then simple, so no
        report shows which column represents the class; with unequal ones
        the split of A(0) picks it."""
        seed = self.parent.matrix_seed()
        if seed is None:
            return None
        shifts, label = seed
        shifts = tuple(self.to_target(s) for s in shifts)
        if len(set(shifts)) > 1:
            return None
        return shifts, (self.parent.group.zero.values, label)

    def describe(self):
        return f"regrade({self.parent.describe()} -> {self.group.describe()})"


# ---------------------------------------------------------------------------
# public constructor helpers
# ---------------------------------------------------------------------------


def matrix_algebra(field: Field, shifts, group: Optional[GradingGroup] = None) -> MatrixAlgebra:
    """matrix(F, [0,1,2,2,3]) -- ints grade over Z; vectors over ``group``."""
    if group is None:
        if shifts and isinstance(shifts[0], Degree):
            group = shifts[0].group
        else:
            group = GradingGroup(1, ())
    degs = []
    for s in shifts:
        if isinstance(s, Degree):
            degs.append(s)
        elif isinstance(s, int):
            if group.dim != 1:
                raise AlgebraError("integer shifts need a rank-1 grading group")
            degs.append(group.degree((s,)))
        else:
            degs.append(group.degree(s))
    return MatrixAlgebra(field, degs)


def group_algebra(field: Field, group: GradingGroup) -> GroupAlgebraA:
    return GroupAlgebraA(field, group)


def polynomial_extension(base: GradedAlgebra, deg_values) -> PolynomialExtensionAlgebra:
    """poly(B, deg=[...]): adjoin a variable; a vector one longer than the
    base degree prepends a fresh Z coordinate first."""
    vals = tuple(deg_values)
    if len(vals) == base.group.dim + 1:
        base = base.trivial_extension(1)
    elif len(vals) != base.group.dim:
        raise AlgebraError(
            f"variable degree length {len(vals)} does not match the grading group "
            f"(expected {base.group.dim} or {base.group.dim + 1})"
        )
    return PolynomialExtensionAlgebra(base, base.group.degree(vals))


def tensor_product(a: GradedAlgebra, b: GradedAlgebra) -> TensorProductAlgebra:
    return TensorProductAlgebra(a, b)


def zero_part(a: GradedAlgebra) -> GradedAlgebra:
    return a.zero_part()


def positive_part(a: GradedAlgebra) -> GradedAlgebra:
    return a.positive_part()


def identity_component(a: GradedAlgebra) -> GradedAlgebra:
    return a.identity_component()


def forget_grading(a: GradedAlgebra) -> RegradedAlgebra:
    """Collapse the grading to the trivial group (finite support only)."""
    return RegradedAlgebra(a, TRIVIAL_GROUP, lambda d: TRIVIAL_GROUP.zero)


def regrade_mod(a: GradedAlgebra, n: int) -> RegradedAlgebra:
    """Reduce a rank-1 free grading modulo n (other coordinates unchanged):
    (v, t...) goes to the degree with v mod n at the sorted position of n
    among the torsion moduli (finite support only)."""
    g = a.group
    if g.free_rank != 1:
        raise AlgebraError("regrade_mod needs exactly one free coordinate")
    mods = list(g.torsion_moduli)
    pos = bisect.bisect_left(mods, n)
    tgt = GradingGroup(0, tuple(mods[:pos] + [n] + mods[pos:]))

    def to_target(d):
        v, *t = d.values
        return tgt.degree(t[:pos] + [v] + t[pos:])

    return RegradedAlgebra(a, tgt, to_target)


def is_strongly_graded(A: GradedAlgebra, window: Optional[Iterable[Degree]] = None) -> bool:
    """1 in A_g * A_{-g} for every g, checked on the group generators.

    The set of degrees with that property is a subgroup, so generator
    degrees (and their negatives) decide the question; extra degrees may
    be supplied for belt-and-braces checking.
    """
    gens = A.group.generators()
    degrees = list(gens) + [-g for g in gens]
    if window:
        degrees += list(window)
    one = A.one().coords
    for g in degrees:
        bg = A.component_basis(g)
        bng = A.component_basis(-g)
        if not bg or not bng:
            return False
        span = _kernel.EchelonBasis([], A.field.char)
        for i in range(len(bg)):
            x = A.basis_element(g, i)
            for j in range(len(bng)):
                span.add((x * A.basis_element(-g, j)).coords)
        if not span.contains(one):
            return False
    return True
