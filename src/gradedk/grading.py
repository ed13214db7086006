"""Finitely generated abelian grading groups and shift-action modules.

A grading group is Z^m x Z/n_1 x ... x Z/n_t.  Degrees are fixed-length
integer vectors with the torsion entries reduced eagerly.  Subgroups are
kept as canonical Hermite forms of their preimage lattices in Z^(m+t),
which makes equality, membership, coset reduction and index computations
exact and deterministic.

K0 answers live in :class:`ShiftModule`: a finite set of class labels
split into orbits, one stabilizer subgroup H per orbit, each orbit
presenting the module Z[G/H].  Infinite directions (the Laurent part)
are carried by the stabilizer, not by the labels, so an orbit with one
label and trivial stabilizer over Z contributes a free Z[x, 1/x] factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import add, sub
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
        if not isinstance(self.free_rank, int) or self.free_rank < 0:
            raise GradingError(f"free rank must be an integer >= 0, got {self.free_rank}")
        mods = tuple(self.torsion_moduli)
        for n in mods:
            if not isinstance(n, int):
                raise GradingError(f"torsion moduli must be integers, got {n}")
        if any(n < 2 for n in mods):
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
        for v in key:
            if not isinstance(v, int):
                raise GradingError(f"degree coordinates must be integers, got {v}")
        values = key
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
        return self.group.degree(tuple(map(add, self.values, other.values)))

    def __sub__(self, other: "Degree") -> "Degree":
        self._check(other)
        return self.group.degree(tuple(map(sub, self.values, other.values)))

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

    def reduce(self, d: Degree) -> Degree:
        """Canonical coset representative of d modulo this subgroup."""
        v = intlat.reduce_mod_lattice(list(d.values), [list(r) for r in self.rows])
        return self.group.degree(v)

    def add_degrees(self, degrees: Iterable[Degree]) -> "Subgroup":
        return Subgroup(
            self.group, [list(r) for r in self.rows] + [list(d.values) for d in degrees]
        )

    def index(self) -> Optional[int]:
        """[G : H], the product of the Hermite form's pivots; None when
        infinite.  At full rank the rows are upper triangular, with
        pivot i in column i."""
        if len(self.rows) < self.group.dim:
            return None
        return prod(r[i] for i, r in enumerate(self.rows))

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


class Orbit:
    """One shift orbit: its class labels and its stabilizer."""

    __slots__ = ("labels", "stabilizer")

    def __init__(self, labels, stabilizer: Subgroup):
        self.labels = tuple(labels)
        self.stabilizer = stabilizer

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
    """Permutation Z[G]-module: the sum over orbits of Z[G/H].

    ``orbits`` holds one ``(labels, stabilizer)`` pair per orbit, and the
    orbits partition ``classes``.  An orbit with stabilizer H has one
    label per coset of H + Z^m, where Z^m is the free part of G: the free
    generators (the Laurent part) are carried by the stabilizer, not by
    the labels, so one label with trivial stabilizer over Z is a free
    Z[x, 1/x] factor.
    """

    def __init__(self, group: GradingGroup, classes, orbits):
        self.group = group
        self.classes = tuple(classes)
        if len(set(self.classes)) != len(self.classes):
            raise GradingError("class labels must be distinct")
        self.orbits = tuple(Orbit(labels, stab) for labels, stab in orbits)
        if sorted(lbl for o in self.orbits for lbl in o.labels) != sorted(self.classes):
            raise GradingError("the orbits must partition the class labels")
        free = group.generators()[: group.free_rank]
        for o in self.orbits:
            if o.stabilizer.group != group:
                raise GradingError("an orbit stabilizer must be a subgroup of the module's group")
            if o.size != o.stabilizer.add_degrees(free).index():
                raise GradingError(
                    "an orbit needs one label per coset of its stabilizer plus the free part"
                )

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

    Labels are unchanged: the new free generators join the Laurent part,
    and each stabilizer embeds along the trailing copy of the source group.
    """
    src = m.group
    extra = target.free_rank - src.free_rank
    if extra < 0 or target.torsion_moduli != src.torsion_moduli:
        raise GradingError(
            "induction target must be Z^k x (source group) with the source as "
            "trailing factor"
        )
    return ShiftModule(
        target, m.classes, [(o.labels, o.stabilizer.prepend_free(extra)) for o in m.orbits]
    )
