"""Finitely generated abelian grading groups and shift-action modules.

A grading group is Z^m x Z/n_1 x ... x Z/n_t.  Degrees are fixed-length
integer vectors with the torsion entries reduced eagerly.  Subgroups are
kept as canonical Hermite forms of their preimage lattices in Z^(m+t),
which makes equality, membership, coset reduction and index computations
exact and deterministic.

K0 answers live in :class:`ShiftModule`: a finite set of class labels
permuted by the group generators, one stabilizer subgroup per orbit.  An
orbit with stabilizer H presents the module Z[G/H]; infinite directions
(the Laurent part) are carried by the stabilizer, not by the labels, so
a free generator acting trivially on labels with trivial stabilizer
contributes a free Z[x, 1/x] factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

from . import intlat


class GradingError(ValueError):
    pass


@dataclass(frozen=True)
class GradingGroup:
    """Z^free_rank x Z/n_1 x ... x Z/n_t.

    ``degree`` interns: one :class:`Degree` per reduced value tuple, kept
    in a table on the group together with the raw tuples already read, so
    a repeated lookup skips validation and reduction.  Equality stays by
    value, also between degrees of two equal groups.
    """

    free_rank: int
    torsion_moduli: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise GradingError("free rank must be non-negative")
        mods = tuple(self.torsion_moduli)
        if any((not isinstance(n, int)) or n < 2 for n in mods):
            raise GradingError("torsion moduli must be integers >= 2")
        if list(mods) != sorted(mods):
            raise GradingError("torsion moduli must be sorted ascending")
        object.__setattr__(self, "torsion_moduli", mods)
        object.__setattr__(self, "_degrees", {})  # raw or reduced tuple -> Degree

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.torsion_moduli)

    def degree(self, values: Sequence[int]) -> "Degree":
        key = values if type(values) is tuple else tuple(values)
        hit = self._degrees.get(key)
        if hit is not None:
            return hit
        values = tuple(int(v) for v in values)
        if len(values) != self.dim:
            raise GradingError(
                f"degree needs {self.dim} coordinates, got {len(values)}"
            )
        m = self.free_rank
        reduced = values[:m] + tuple(
            v % n for v, n in zip(values[m:], self.torsion_moduli)
        )
        hit = self._degrees.get(reduced)
        if hit is None:
            hit = self._degrees[reduced] = Degree(self, reduced)
        self._degrees[key] = hit
        return hit

    @property
    def zero(self) -> "Degree":
        return self.degree((0,) * self.dim)

    def generators(self) -> list:
        gens = []
        for i in range(self.dim):
            v = [0] * self.dim
            v[i] = 1
            gens.append(self.degree(v))
        return gens

    def moduli_lattice(self) -> list:
        rows = []
        m = self.free_rank
        for i, n in enumerate(self.torsion_moduli):
            row = [0] * self.dim
            row[m + i] = n
            rows.append(row)
        return rows

    def torsion_elements(self) -> Iterable["Degree"]:
        """All elements of the torsion part (free coordinates zero)."""
        return self.box([range(1)] * self.free_rank)

    def box(self, ranges) -> Iterable["Degree"]:
        """The degrees whose free coordinates lie in ``ranges``, one range
        per free coordinate, with every torsion part: the product over the
        free ranges first, and for each free part the torsion elements."""
        torsion = list(product(*(range(n) for n in self.torsion_moduli)))
        for free in product(*ranges):
            for t in torsion:
                yield self.degree(free + t)

    def is_trivial(self) -> bool:
        return self.dim == 0

    def to_json(self):
        return {"rank": self.free_rank, "moduli": list(self.torsion_moduli)}

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{n}" for n in self.torsion_moduli]
        return " x ".join(parts) if parts else "1"


TRIVIAL_GROUP = GradingGroup(0, ())


class Degree:
    """An element of a grading group; build one with ``GradingGroup.degree``.

    Immutable, compared by value, with its hash computed once.
    """

    __slots__ = ("group", "values", "_hash")

    def __init__(self, group: GradingGroup, values: tuple):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_hash", hash((group, values)))

    def __setattr__(self, name, value):
        raise AttributeError("Degree is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Degree):
            return NotImplemented
        return self.values == other.values and self.group == other.group

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Degree(group={self.group!r}, values={self.values!r})"

    def _check(self, other: "Degree"):
        if self.group is not other.group and self.group != other.group:
            raise GradingError("degrees belong to different grading groups")

    def __add__(self, other: "Degree") -> "Degree":
        self._check(other)
        return self.group.degree(tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Degree") -> "Degree":
        self._check(other)
        return self.group.degree(tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "Degree":
        return self.group.degree(tuple(-a for a in self.values))

    def __mul__(self, n: int) -> "Degree":
        return self.group.degree(tuple(a * n for a in self.values))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.values)

    def to_json(self):
        return list(self.values)

    def __str__(self):
        if self.group.dim == 1:
            return str(self.values[0])
        return "(" + ",".join(str(v) for v in self.values) + ")"


def degree_add(a: Degree, b: Degree) -> Degree:
    """Group law on degrees (componentwise, torsion reduced)."""
    return a + b


class Subgroup:
    """A subgroup of a grading group, canonicalized by Hermite form."""

    def __init__(self, group: GradingGroup, lattice_rows):
        rows = list(lattice_rows) + group.moduli_lattice()
        self.group = group
        self.rows = tuple(tuple(r) for r in intlat.hnf(rows))

    @staticmethod
    def from_degrees(group: GradingGroup, degrees: Iterable[Degree]) -> "Subgroup":
        return Subgroup(group, [list(d.values) for d in degrees])

    @staticmethod
    def trivial(group: GradingGroup) -> "Subgroup":
        return Subgroup(group, [])

    @staticmethod
    def full(group: GradingGroup) -> "Subgroup":
        eye = [[1 if i == j else 0 for j in range(group.dim)] for i in range(group.dim)]
        return Subgroup(group, eye)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group == other.group
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.group, self.rows))

    def contains(self, d: Degree) -> bool:
        return intlat.in_lattice(list(d.values), [list(r) for r in self.rows])

    def reduce(self, d: Degree) -> Degree:
        """Canonical coset representative of d modulo this subgroup."""
        v = intlat.reduce_mod_lattice(list(d.values), [list(r) for r in self.rows])
        return self.group.degree(v)

    def add_degrees(self, degrees: Iterable[Degree]) -> "Subgroup":
        return Subgroup(
            self.group, [list(r) for r in self.rows] + [list(d.values) for d in degrees]
        )

    def index(self) -> Optional[int]:
        """[G : H]; None when infinite."""
        if len(self.rows) < self.group.dim:
            return None
        det = intlat.int_det([list(r) for r in self.rows])
        return abs(det) if det else None

    def order(self) -> Optional[int]:
        """|H|; None when infinite."""
        base = intlat.hnf(self.group.moduli_lattice())
        if len(self.rows) != len(base):
            return None
        if not base:
            return 1
        a = [[self.rows[i][j] for i in range(len(self.rows))] for j in range(self.group.dim)]
        cmat = []
        for brow in base:
            x = intlat.solve_int(a, list(brow))
            if x is None:
                raise GradingError("moduli lattice escaped subgroup lattice")
            cmat.append(x)
        det = intlat.int_det(cmat)
        return abs(det) if det else None

    def generators(self) -> list:
        gens = []
        for row in self.rows:
            d = self.group.degree(row)
            if not d.is_zero():
                gens.append(d)
        return gens

    def coset_representatives(self) -> list:
        """Canonical representatives of G/H (finite index only)."""
        if self.index() is None:
            raise GradingError("subgroup has infinite index")
        dim = self.group.dim
        pivots = {}
        for row in self.rows:
            c = next(j for j, x in enumerate(row) if x)
            pivots[c] = row[c]
        reps = []

        def rec(i, acc):
            if i == dim:
                reps.append(self.group.degree(acc))
                return
            for v in range(pivots[i]):
                rec(i + 1, acc + [v])

        rec(0, [])
        return reps

    def prepend_free(self, extra: int) -> "Subgroup":
        """The same subgroup inside Z^extra x G (new coordinates first)."""
        tgt = GradingGroup(
            self.group.free_rank + extra, self.group.torsion_moduli
        )
        rows = [[0] * extra + list(r) for r in self.rows]
        return Subgroup(tgt, rows)

    def to_json(self):
        return [d.to_json() for d in self.generators()]

    def describe(self) -> str:
        gens = self.generators()
        if not gens:
            return "0"
        return "<" + ", ".join(str(g) for g in gens) + ">"


class GroupRingElement:
    """An element of the integral group ring Z[G]: finite support map."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GradingGroup, coeffs=None):
        self.group = group
        self.coeffs = {}
        if coeffs:
            for d, c in dict(coeffs).items():
                if not isinstance(d, Degree) or d.group != group:
                    raise GradingError("coefficient key from wrong group")
                c = int(c)
                if c:
                    self.coeffs[d] = c

    @staticmethod
    def unit(group: GradingGroup) -> "GroupRingElement":
        return GroupRingElement(group, {group.zero: 1})

    @staticmethod
    def of(degree: Degree, coeff: int = 1) -> "GroupRingElement":
        return GroupRingElement(degree.group, {degree: coeff})

    def __add__(self, other):
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return GroupRingElement(self.group, out)

    def __neg__(self):
        return GroupRingElement(self.group, {d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(
                self.group, {d: c * other for d, c in self.coeffs.items()}
            )
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                out[d] = out.get(d, 0) + c1 * c2
        return GroupRingElement(self.group, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group, tuple(sorted((d.values, c) for d, c in self.coeffs.items()))))

    def is_zero(self):
        return not self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = sorted(self.coeffs.items(), key=lambda t: t[0].values)
        return " + ".join(f"{c}*g{d}" for d, c in terms)


def _perm_inverse(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _perm_compose(p, q):
    """p after q: (p*q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(q)))


def _perm_power(perm, n):
    k = len(perm)
    out = tuple(range(k))
    base = perm if n >= 0 else _perm_inverse(perm)
    n = abs(n)
    while n:
        if n & 1:
            out = _perm_compose(base, out)
        base = _perm_compose(base, base)
        n >>= 1
    return out


class Orbit:
    """One orbit of the label action together with its true stabilizer."""

    __slots__ = ("labels", "stabilizer", "label_stabilizer")

    def __init__(self, labels, stabilizer: Subgroup, label_stabilizer: Subgroup):
        self.labels = tuple(labels)
        self.stabilizer = stabilizer
        self.label_stabilizer = label_stabilizer

    @property
    def size(self) -> int:
        return len(self.labels)

    def key(self):
        return (self.size, self.stabilizer.rows)

    def to_json(self):
        idx = self.stabilizer.index()
        return {
            "labels": list(self.labels),
            "orbit_size": self.size,
            "stabilizer": self.stabilizer.to_json(),
            "stabilizer_index": idx,
        }


class ShiftModule:
    """Permutation-with-shift Z[G]-module: sum over orbits of Z[G/H].

    ``action`` holds one permutation of the class list per group generator
    (free generators first, then torsion generators).  When ``stabilizers``
    is omitted, the stabilizer of an orbit is its label stabilizer, so the
    classes are the honest Z-basis.  Explicit stabilizers, one list of
    generating degrees per orbit in the order the orbits are found, may
    cut deeper (e.g. a trivial stabilizer on a fixed label yields a free
    Laurent factor); they must be contained in the label stabilizer.
    """

    def __init__(self, group: GradingGroup, classes, action, stabilizers=None):
        self.group = group
        self.classes = tuple(str(c) for c in classes)
        if len(set(self.classes)) != len(self.classes):
            raise GradingError("class labels must be distinct")
        k = len(self.classes)
        action = [tuple(p) for p in action]
        if len(action) != group.dim:
            raise GradingError(
                f"need one permutation per generator ({group.dim}), got {len(action)}"
            )
        for p in action:
            if sorted(p) != list(range(k)):
                raise GradingError("action maps must be bijections of the classes")
        for i in range(len(action)):
            for j in range(i + 1, len(action)):
                if _perm_compose(action[i], action[j]) != _perm_compose(
                    action[j], action[i]
                ):
                    raise GradingError("generator actions must commute")
        m = group.free_rank
        for t, n in enumerate(group.torsion_moduli):
            if _perm_power(action[m + t], n) != tuple(range(k)):
                raise GradingError(
                    f"torsion generator {t} must act with order dividing {n}"
                )
        self.action = tuple(action)
        self.orbits = self._build_orbits(stabilizers)

    # -- construction helpers ------------------------------------------------
    def _build_orbits(self, stabilizers):
        k = len(self.classes)
        seen = [False] * k
        orbits = []
        orbit_index = 0
        for start in range(k):
            if seen[start]:
                continue
            members, label_stab = self._orbit_from(start)
            for x in members:
                seen[x] = True
            stab = label_stab
            if stabilizers is not None and orbit_index < len(stabilizers):
                given = stabilizers[orbit_index]
                if given is not None:
                    for g in given:
                        if not label_stab.contains(g):
                            raise GradingError(
                                "declared stabilizer does not fix the orbit labels"
                            )
                    stab = Subgroup.from_degrees(self.group, given)
            orbits.append(
                Orbit([self.classes[x] for x in members], stab, label_stab)
            )
            orbit_index += 1
        return tuple(orbits)


    def _orbit_from(self, start):
        dim = self.group.dim
        vec = {start: [0] * dim}
        order = [start]
        queue = [start]
        relations = []
        while queue:
            x = queue.pop()
            vx = vec[x]
            for i, perm in enumerate(self.action):
                y = perm[x]
                vy = [a + (1 if j == i else 0) for j, a in enumerate(vx)]
                if y in vec:
                    rel = [a - b for a, b in zip(vy, vec[y])]
                    if any(rel):
                        relations.append(rel)
                else:
                    vec[y] = vy
                    order.append(y)
                    queue.append(y)
        stab = Subgroup(self.group, relations)
        idx = stab.index()
        if idx != len(order):
            raise GradingError("orbit/stabilizer bookkeeping failed")
        return order, stab

    # -- queries ---------------------------------------------------------------
    def canonical_key(self):
        return tuple(sorted(o.key() for o in self.orbits))

    def total_rank(self) -> Optional[int]:
        """Rank as a free abelian group; None when infinite."""
        total = 0
        for o in self.orbits:
            idx = o.stabilizer.index()
            if idx is None:
                return None
            total += idx
        return total

    def describe(self) -> str:
        g = self.group
        if not self.orbits:
            return "0"
        if all(o.stabilizer == Subgroup.full(g) for o in self.orbits):
            return f"Z^{len(self.orbits)}" + ("" if g.is_trivial() else " (trivial shift action)")
        if all(o.stabilizer == Subgroup.trivial(g) for o in self.orbits):
            return f"free Z[{g.describe()}]-module of rank {len(self.orbits)}"
        parts = [f"Z[({g.describe()})/{o.stabilizer.describe()}]" for o in self.orbits]
        return " + ".join(parts)

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "classes": list(self.classes),
            "orbits": [o.to_json() for o in self.orbits],
            "description": self.describe(),
        }


def shift_module_iso(m: ShiftModule, n: ShiftModule) -> bool:
    """Isomorphism test: orbit multisets (size, stabilizer) must agree."""
    if m.group != n.group:
        raise GradingError("shift modules over different grading groups")
    return m.canonical_key() == n.canonical_key()


def induce_module(m: ShiftModule, target: GradingGroup) -> ShiftModule:
    """Base change along Z[G] -> Z[Z^k x G] (new free coordinates first).

    Labels are unchanged; the new free generators act trivially on them
    (the shift is absorbed into the free Laurent factor), and stabilizers
    embed along the trailing copy of the source group.
    """
    src = m.group
    extra = target.free_rank - src.free_rank
    if extra < 0 or target.torsion_moduli != src.torsion_moduli:
        raise GradingError(
            "induction target must be Z^k x (source group) with the source as "
            "trailing factor"
        )
    k = len(m.classes)
    ident = tuple(range(k))
    action = [ident] * extra + list(m.action)
    stabs = []
    for o in m.orbits:
        emb = o.stabilizer.prepend_free(extra)
        stabs.append(emb.generators())
    return ShiftModule(target, m.classes, action, stabilizers=stabs)
