"""Grading groups, degrees, subgroups, shift modules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedk.grading import (
    Degree,
    GradingError,
    GradingGroup,
    ShiftModule,
    Subgroup,
    TRIVIAL_GROUP,
    induce_module,
    shift_module_iso,
)

from reference_algorithms import index_by_det, int_det

ZxZ2 = GradingGroup(1, (2,))
Z = GradingGroup(1, ())
Z2 = GradingGroup(0, (2,))


# -- degrees -----------------------------------------------------------------


def test_degree_add_examples():
    assert (Z.degree([2]) + Z.degree([3])).values == (5,)
    assert (ZxZ2.degree([1, 1]) + ZxZ2.degree([2, 1])).values == (3, 0)
    g = Z.degree([17])
    assert g + Z.zero == g


def test_degree_group_mismatch():
    with pytest.raises(GradingError):
        Z.degree([1]) + Z2.degree([1])


small_vals = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@given(small_vals, small_vals, small_vals)
@settings(max_examples=80, deadline=None)
def test_degree_abelian_group_laws(a, b, c):
    da, db, dc = (ZxZ2.degree(list(v)) for v in (a, b, c))
    assert (da + db) + dc == da + (db + dc)
    assert da + db == db + da
    assert da + (-da) == ZxZ2.zero
    assert da + ZxZ2.zero == da


def test_torsion_reduced_eagerly():
    d = ZxZ2.degree([0, 7])
    assert d.values == (0, 1)
    assert (3 * d).values == (0, 1)


def test_degrees_are_interned_per_reduced_value():
    G = GradingGroup(0, (2,))
    assert G.degree((3,)) is G.degree((1,))
    assert G.degree([1]) is G.degree((1,)) is G.degree((-1,))
    assert Z.degree([4]) + Z.degree([-4]) is Z.zero


def test_degrees_of_equal_groups_are_equal_by_value():
    G, H = GradingGroup(1, (2,)), GradingGroup(1, (2,))
    a, b = G.degree([5, 3]), H.degree([5, 1])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert a + b == G.degree([10, 0])
    assert a != H.degree([5, 0]) and a != GradingGroup(2, ()).degree([5, 1])


def test_box_runs_the_free_ranges_first_then_the_torsion_elements():
    G = GradingGroup(2, (2, 3))
    ranges = [range(-1, 1), range(0, 2)]
    assert list(G.box(ranges)) == [
        G.degree([a, b, s, t])
        for a in ranges[0]
        for b in ranges[1]
        for s in range(2)
        for t in range(3)
    ]
    assert list(G.torsion_elements()) == [
        G.degree([0, 0, s, t]) for s in range(2) for t in range(3)
    ]
    assert list(TRIVIAL_GROUP.box([])) == [TRIVIAL_GROUP.zero]
    assert list(Z.box([range(2, 1)])) == []


def test_degree_is_immutable():
    d = Z.degree([1])
    with pytest.raises(AttributeError):
        d.values = (2,)


def test_degree_json():
    assert ZxZ2.degree([2, 1]).to_json() == [2, 1]


# -- subgroups ----------------------------------------------------------------


def test_subgroup_index_and_cosets():
    H = Subgroup.from_degrees(Z, [Z.degree([3])])
    assert H.index() == 3
    assert [r.values for r in H.coset_representatives()] == [(0,), (1,), (2,)]
    assert H.reduce(Z.degree([7])).values == (1,)
    T = Subgroup.trivial(ZxZ2)
    assert T.index() is None
    full = Subgroup.full(ZxZ2)
    assert full.index() == 1


def test_subgroup_torsion_only():
    H = Subgroup.from_degrees(Z2, [Z2.degree([1])])
    assert H.index() == 1
    K = Subgroup.trivial(Z2)
    assert K.index() == 2


def test_subgroup_equality_is_lattice_equality():
    # two generating sets of one lattice of Z^3 (the second mixes the rows
    # of the first unimodularly) have one canonical Hermite form
    Z3 = GradingGroup(3, ())
    H = Subgroup(Z3, [[3, 0, 1], [-1, 1, 1], [0, 1, -2]])
    K = Subgroup(Z3, [[0, 1, -2], [3, 0, 1], [-1, -1, 5]])
    assert H.rows == K.rows == ((1, 0, 7), (0, 1, 8), (0, 0, 10))
    assert H == K and hash(H) == hash(K)
    assert H.index() == 10


@pytest.mark.parametrize(
    "group",
    [
        GradingGroup(3, ()),
        GradingGroup(2, (4,)),
        GradingGroup(1, (2, 6)),
        GradingGroup(0, (4,)),
        GradingGroup(0, (2, 6)),
        TRIVIAL_GROUP,
    ],
)
def test_subgroup_index_is_the_determinant(group):
    # the product of the Hermite pivots against |det| of the rows, on the
    # subgroup, on one of a prefix of its generators and on one of their
    # torsion parts, and on a free group against |det| of the generators
    rng = random.Random(group.dim)
    m = group.free_rank
    seen = 0
    while seen < 25:
        gens = [[rng.randint(-5, 5) for _ in range(group.dim)] for _ in range(group.dim)]
        det = abs(int_det(gens))
        if not det:
            continue
        seen += 1
        H = Subgroup(group, gens)
        if not group.torsion_moduli:
            assert H.index() == det
        prefix = Subgroup(group, gens[: rng.randint(0, group.dim)])
        torsion = Subgroup(group, [[0] * m + g[m:] for g in gens])
        for K in (H, prefix, torsion):
            assert K.index() == index_by_det(K)


def test_subgroup_prepend_and_restrict():
    H = Subgroup.from_degrees(Z2, [Z2.degree([1])])
    He = H.prepend_free(1)
    assert He.group == ZxZ2
    assert He.reduce(ZxZ2.degree([0, 1])).is_zero()
    assert not He.reduce(ZxZ2.degree([1, 0])).is_zero()


# -- shift modules -------------------------------------------------------------


def _fixed(group, labels, stabilizer):
    """One orbit per label, each with ``stabilizer``."""
    return ShiftModule(group, labels, [([x], stabilizer) for x in labels])


def test_shift_module_iso_reflexive_and_relabeling():
    m = _fixed(Z, ["a", "b"], Subgroup.trivial(Z))
    n = _fixed(Z, ["x", "y"], Subgroup.trivial(Z))
    assert shift_module_iso(m, m)
    assert shift_module_iso(m, n)


def test_laurent_vs_trivial_rank4():
    laurent = _fixed(Z, ["c"], Subgroup.trivial(Z))
    triv4 = _fixed(Z, list("abcd"), Subgroup.full(Z))
    assert not shift_module_iso(laurent, triv4)
    assert laurent.describe().startswith("free Z[Z]-module of rank 1")
    assert triv4.describe().startswith("Z^4")


def test_induce_trivial_action_becomes_free():
    m = _fixed(TRIVIAL_GROUP, ["a", "b", "c", "d"], Subgroup.trivial(TRIVIAL_GROUP))
    ind = induce_module(m, Z)
    assert ind.describe() == "free Z[Z]-module of rank 4"
    assert all(o.stabilizer == Subgroup.trivial(Z) for o in ind.orbits)


def test_induce_rank1():
    m = _fixed(TRIVIAL_GROUP, ["a"], Subgroup.trivial(TRIVIAL_GROUP))
    ind = induce_module(m, Z)
    assert ind.total_rank() is None
    assert len(ind.orbits) == 1


def test_induce_swap_orbit():
    m = ShiftModule(Z2, ["a", "b"], [(["a", "b"], Subgroup.trivial(Z2))])
    ind = induce_module(m, ZxZ2)
    assert len(ind.orbits) == 1
    o = ind.orbits[0]
    assert o.size == 2
    assert o.stabilizer == Subgroup.trivial(ZxZ2)


def test_induce_restricting_preserves_orbits():
    m = ShiftModule(Z2, ["a", "b"], [(["a", "b"], Subgroup.trivial(Z2))])
    ind = induce_module(m, ZxZ2)
    for orig, new in zip(m.orbits, ind.orbits):
        assert new.stabilizer == orig.stabilizer.prepend_free(1)
        assert new.labels == orig.labels


def test_shift_module_iso_is_equivalence_on_corpus():
    mods = [
        _fixed(Z, ["a"], Subgroup.trivial(Z)),
        _fixed(Z, ["a", "b"], Subgroup.trivial(Z)),
        _fixed(Z, list("ab"), Subgroup.full(Z)),
        _fixed(Z, ["a"], Subgroup.from_degrees(Z, [Z.degree([2])])),
    ]
    for m in mods:
        assert shift_module_iso(m, m)
    for a in mods:
        for b in mods:
            assert shift_module_iso(a, b) == shift_module_iso(b, a)


def test_shift_module_refuses_malformed_orbits():
    two_z = Subgroup.from_degrees(Z, [Z.degree([2])])
    # a free generator acts on the Laurent part, never on the labels, so a
    # two-label orbit over Z has no coset to put its second label on
    with pytest.raises(GradingError, match="one label per coset"):
        ShiftModule(Z, ["a", "b"], [(["a", "b"], two_z)])
    # Z/2 acting freely needs both labels in one orbit
    with pytest.raises(GradingError, match="one label per coset"):
        _fixed(Z2, ["a", "b"], Subgroup.trivial(Z2))
    with pytest.raises(GradingError, match="distinct"):
        ShiftModule(Z2, ["a", "a"], [(["a", "a"], Subgroup.trivial(Z2))])
    with pytest.raises(GradingError, match="partition"):
        ShiftModule(Z, ["a", "b"], [(["a"], Subgroup.full(Z))])
    with pytest.raises(GradingError, match="partition"):
        ShiftModule(Z, ["a"], [(["a"], Subgroup.full(Z)), (["a"], Subgroup.full(Z))])
    with pytest.raises(GradingError, match="subgroup of the module's group"):
        _fixed(Z, ["a"], Subgroup.trivial(Z2))
