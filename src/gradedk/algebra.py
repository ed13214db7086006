"""Graded algebras over exact fields, built from a closed constructor family.

Every algebra answers two queries exactly and deterministically: a finite
basis of any degree component, and structure constants for products of
basis elements.  The family is closed under the operations the K-theory
layer needs (degree-zero part, positive truncation, identity component,
trivial extension of the grading, regrading along a group homomorphism),
and each constructor reports per-coordinate support bounds so that
component queries stay finite even for algebras with infinite support
such as polynomial extensions.

The first four are slices: one :class:`SliceAlgebra` reads its parent
along a degree map.  Each is cached on the parent, so repeated calls
return the same object.

Support bounds use ``None`` for an unbounded side.  The first free
coordinate of the grading group is the distinguished one: the functors in
:mod:`gradedk.gmod` restrict along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import _kernel, intlat
from .fields import Field
from .grading import Degree, GradingGroup, GradingError, Subgroup, TRIVIAL_GROUP


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
        self._slices = {}  # zero part, positive part, ... by name; extensions by k
        self._registry = None  # decomposition class registry, set lazily

    # -- abstract hooks --------------------------------------------------
    def _component_basis(self, deg: Degree) -> tuple:
        raise NotImplementedError

    def _mul_labels(self, da: Degree, la, db: Degree, lb):
        """Structure constants: product of two basis labels, as
        [(label, coeff)] in the component at da+db."""
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
        """Cached structure constants of component(da) x component(db)."""
        key = (da, db)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
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
        tensor = self._mul_cache[key] = _kernel.Bilinear(
            cells, len(target), self.field.char
        )
        return tensor

    def mul_coords(self, da: Degree, ca, db: Degree, cb):
        """Coordinates of the product of two coordinate vectors."""
        return self.pair_tensor(da, db)(ca, cb)

    def element(self, deg: Degree, coords) -> "HomogeneousElement":
        coords = tuple(coords)
        if len(coords) != self.component_dim(deg):
            raise AlgebraError("coordinate vector has the wrong length")
        return HomogeneousElement(self, deg, coords)

    def zero_element(self, deg: Degree) -> "HomogeneousElement":
        return self.element(deg, (self.field.zero,) * self.component_dim(deg))

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

    def __neg__(self):
        F = self.algebra.field
        return HomogeneousElement(
            self.algebra, self.degree, tuple(F.neg(a) for a in self.coords)
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        F = self.algebra.field
        return HomogeneousElement(
            self.algebra, self.degree, tuple(F.mul(c, a) for a in self.coords)
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

    def _component_basis(self, deg):
        return ("u",)

    def _mul_labels(self, da, la, db, lb):
        yield "u", self.field.one

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

    def _component_basis(self, deg):
        out = []
        for k in self._power_range(deg):
            bdeg = deg - k * self.var_degree
            for lbl in self.base.component_basis(bdeg):
                out.append((k, lbl))
        return tuple(out)

    def _mul_labels(self, da, la, db, lb):
        ka, bla = la
        kb, blb = lb
        bda = da - ka * self.var_degree
        bdb = db - kb * self.var_degree
        for lbl, c in self.base._mul_labels(bda, bla, bdb, blb):
            yield (ka + kb, lbl), c

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

    def _component_basis(self, deg):
        out = []
        for alpha in self._left_degrees(deg):
            la = self.left.component_basis(alpha)
            if not la:
                continue
            lb = self.right.component_basis(deg - alpha)
            if not lb:
                continue
            for x in la:
                for y in lb:
                    out.append((alpha.values, x, y))
        return tuple(out)

    def _mul_labels(self, da, la, db, lb):
        av, xa, ya = la
        bv, xb, yb = lb
        alpha = self.group.degree(av)
        beta = self.group.degree(bv)
        gamma = alpha + beta
        F = self.field
        lterms = list(self.left._mul_labels(alpha, xa, beta, xb))
        rterms = list(self.right._mul_labels(da - alpha, ya, db - beta, yb))
        for lx, cx in lterms:
            for ly, cy in rterms:
                yield (gamma.values, lx, ly), F.mul(cx, cy)

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

    def _mul_labels(self, da, la, db, lb):
        return self.parent._mul_labels(self.to_parent(da), la, self.to_parent(db), lb)

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


class GroupHom:
    """Homomorphism between grading groups, given on generators."""

    def __init__(self, source: GradingGroup, target: GradingGroup, images: Sequence[Degree]):
        if len(images) != source.dim:
            raise GradingError("need one image per source generator")
        if any(d.group != target for d in images):
            raise GradingError("images must live in the target group")
        self.source = source
        self.target = target
        self.images = tuple(images)
        m = source.free_rank
        for i, n in enumerate(source.torsion_moduli):
            if not (n * self.images[m + i]).is_zero():
                raise GradingError(
                    f"torsion generator {i} of order {n} maps to an element whose "
                    "order does not divide it"
                )

    def apply(self, deg: Degree) -> Degree:
        if deg.group != self.source:
            raise GradingError("degree not in the source group")
        acc = self.target.zero
        for v, img in zip(deg.values, self.images):
            if v:
                acc = acc + v * img
        return acc

    def _lattice_matrix(self):
        """Integer matrix over the target coordinates (rows) whose columns
        are the images of the source generators, then the generators of
        the target's moduli lattice."""
        gens = [d.values for d in self.images] + list(self.target.moduli_lattice())
        return [[g[i] for g in gens] for i in range(self.target.dim)]

    def kernel_subgroup(self) -> Subgroup:
        """Kernel as a subgroup of the source."""
        sdim = self.source.dim
        if self.target.dim:
            ker = intlat.kernel_int(self._lattice_matrix())
        else:
            ker = [[1 if i == j else 0 for i in range(sdim)] for j in range(sdim)]
        return Subgroup(self.source, [v[:sdim] for v in ker])

    def solve(self, target_deg: Degree) -> Optional[Degree]:
        """One preimage of target_deg, or None."""
        if self.target.dim == 0:
            return self.source.zero
        x = intlat.solve_int(self._lattice_matrix(), list(target_deg.values))
        if x is None:
            return None
        return self.source.degree(x[: self.source.dim])


class RegradedAlgebra(GradedAlgebra):
    """Push the grading forward along a group homomorphism.

    Components of the result sum the source components in each fiber, so
    either the fibers must be finite (finite kernel) or the source support
    must be finite.
    """

    def __init__(self, parent: GradedAlgebra, hom: GroupHom):
        if hom.source != parent.group:
            raise AlgebraError("homomorphism source must be the parent grading group")
        super().__init__(hom.target, parent.field)
        self.parent = parent
        self.hom = hom
        self._kernel = hom.kernel_subgroup()
        self._kernel_order = self._kernel.order()
        if self._kernel_order is None and not parent.finite_support():
            raise AlgebraError(
                "regrading needs a finite kernel or a finite-support parent"
            )
        self._finite_image = None

    def _kernel_elements(self):
        # finite subgroups of Z^m x T live inside the torsion part
        out = []
        for t in self.parent.group.torsion_elements():
            if self._kernel.contains(t):
                out.append(t)
        return out

    def _fiber(self, deg):
        if self._kernel_order is not None:
            x0 = self.hom.solve(deg)
            if x0 is None:
                return []
            fiber = []
            for k in self._kernel_elements():
                d = x0 + k
                if self.parent.component_dim(d):
                    fiber.append(d)
            return sorted(fiber, key=lambda d: d.values)
        return sorted(
            (d for d in self.parent.support_degrees() if self.hom.apply(d) == deg),
            key=lambda d: d.values,
        )

    def _component_basis(self, deg):
        out = []
        for d in self._fiber(deg):
            for lbl in self.parent.component_basis(d):
                out.append((d.values, lbl))
        return tuple(out)

    def _mul_labels(self, da, la, db, lb):
        av, xa = la
        bv, xb = lb
        alpha = self.parent.group.degree(av)
        beta = self.parent.group.degree(bv)
        for lbl, c in self.parent._mul_labels(alpha, xa, beta, xb):
            yield ((alpha + beta).values, lbl), c

    def one_terms(self):
        z = self.parent.group.zero
        return [((z.values, lbl), c) for lbl, c in self.parent.one_terms()]

    def _image_support(self):
        if self._finite_image is None:
            self._finite_image = sorted(
                {self.hom.apply(d) for d in self.parent.support_degrees()},
                key=lambda d: d.values,
            )
        return self._finite_image

    def support_bounds(self):
        m = self.group.free_rank
        if m == 0:
            return ()
        if self.parent.finite_support():
            img = self._image_support()
            return tuple(
                (min(d.values[j] for d in img), max(d.values[j] for d in img))
                for j in range(m)
            )
        return tuple((None, None) for _ in range(m))

    def support_radius(self):
        m = self.group.free_rank
        if m == 0:
            return ()
        if self.parent.finite_support():
            return tuple(
                max(abs(lo), abs(hi)) for lo, hi in self.support_bounds()
            )
        return tuple(1 for _ in range(m))

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
    vals = tuple(int(v) for v in deg_values)
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
    hom = GroupHom(a.group, TRIVIAL_GROUP, [TRIVIAL_GROUP.zero] * a.group.dim)
    return RegradedAlgebra(a, hom)


def regrade_mod(a: GradedAlgebra, n: int) -> RegradedAlgebra:
    """Reduce a rank-1 free grading modulo n (other coordinates unchanged)."""
    g = a.group
    if g.free_rank != 1:
        raise AlgebraError("regrade_mod needs exactly one free coordinate")
    import bisect

    mods = list(g.torsion_moduli)
    pos = bisect.bisect_left(mods, n)
    new_mods = mods[:pos] + [n] + mods[pos:]
    tgt = GradingGroup(0, tuple(new_mods))

    def unit(i):
        v = [0] * tgt.dim
        v[i] = 1
        return tgt.degree(v)

    images = [unit(pos)]  # the free generator goes to the new Z/n coordinate
    for i in range(len(mods)):
        images.append(unit(i if i < pos else i + 1))
    return RegradedAlgebra(a, GroupHom(g, tgt, images))


def project_pi(a: HomogeneousElement) -> HomogeneousElement:
    """Projection onto the degree-zero part along the first free coordinate.

    Kills every component with nonzero first coordinate; the result lives
    in the embedded zero part (same grading group, support in 0 x G).
    """
    A = a.algebra
    zpe = A.zero_part_embedded()
    if a.degree.values[0] != 0:
        return zpe.zero_element(a.degree)
    # the embedded zero part reads A's own components at these degrees
    return zpe.element(a.degree, a.coords)


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
