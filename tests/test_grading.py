"""Grading groups, degrees, subgroups, group rings, shift modules."""

import pytest
from hypothesis import given, settings, strategies as st

from gradedk.grading import (
    Degree,
    GradingError,
    GradingGroup,
    GroupRingElement,
    ShiftModule,
    Subgroup,
    TRIVIAL_GROUP,
    degree_add,
    induce_module,
    shift_module_iso,
)

ZxZ2 = GradingGroup(1, (2,))
Z = GradingGroup(1, ())
Z2 = GradingGroup(0, (2,))


# -- degrees -----------------------------------------------------------------


def test_degree_add_examples():
    assert degree_add(Z.degree([2]), Z.degree([3])).values == (5,)
    assert degree_add(ZxZ2.degree([1, 1]), ZxZ2.degree([2, 1])).values == (3, 0)
    g = Z.degree([17])
    assert degree_add(g, Z.zero) == g


def test_degree_group_mismatch():
    with pytest.raises(GradingError):
        degree_add(Z.degree([1]), Z2.degree([1]))


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


# -- group ring ---------------------------------------------------------------


def test_group_ring_unit_and_product():
    one = GroupRingElement.unit(Z)
    x = GroupRingElement.of(Z.degree([1]))
    assert one * x == x == x * one
    assert (x * x).coeffs == {Z.degree([2]): 1}
    assert (x - x).is_zero()


@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=4),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=4),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)), max_size=4),
)
@settings(max_examples=40, deadline=None)
def test_group_ring_laws(xs, ys, zs):
    def mk(pairs):
        out = GroupRingElement(Z)
        for d, c in pairs:
            out = out + GroupRingElement.of(Z.degree([d]), c)
        return out

    a, b, c = mk(xs), mk(ys), mk(zs)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a  # Z is abelian


# -- subgroups ----------------------------------------------------------------


def test_subgroup_index_order_cosets():
    H = Subgroup.from_degrees(Z, [Z.degree([3])])
    assert H.index() == 3
    assert H.order() is None
    assert [r.values for r in H.coset_representatives()] == [(0,), (1,), (2,)]
    assert H.reduce(Z.degree([7])).values == (1,)
    T = Subgroup.trivial(ZxZ2)
    assert T.index() is None
    assert T.order() == 1
    full = Subgroup.full(ZxZ2)
    assert full.index() == 1
    assert full.order() is None  # contains a copy of Z


def test_subgroup_torsion_only():
    H = Subgroup.from_degrees(Z2, [Z2.degree([1])])
    assert H.index() == 1
    assert H.order() == 2
    K = Subgroup.trivial(Z2)
    assert K.index() == 2
    assert K.order() == 1


def test_subgroup_prepend_and_restrict():
    H = Subgroup.from_degrees(Z2, [Z2.degree([1])])
    He = H.prepend_free(1)
    assert He.group == ZxZ2
    assert He.contains(ZxZ2.degree([0, 1]))
    assert not He.contains(ZxZ2.degree([1, 0]))


# -- shift modules -------------------------------------------------------------


def test_shift_module_validation():
    with pytest.raises(GradingError):
        ShiftModule(Z2, ["a", "b"], [(0, 0)])  # not a bijection
    with pytest.raises(GradingError):
        # torsion generator must act with order dividing 2
        G3 = GradingGroup(0, (2,))
        ShiftModule(G3, ["a", "b", "c"], [(1, 2, 0)])
    with pytest.raises(GradingError):
        G = GradingGroup(0, (2, 2))
        ShiftModule(G, ["a", "b", "c", "d"], [(1, 0, 3, 2), (1, 2, 3, 0)])  # don't commute


def test_shift_module_iso_reflexive_and_relabeling():
    m = ShiftModule(Z, ["a", "b"], [(0, 1)], stabilizers=[[], []])
    n = ShiftModule(Z, ["x", "y"], [(0, 1)], stabilizers=[[], []])
    assert shift_module_iso(m, m)
    assert shift_module_iso(m, n)


def test_laurent_vs_trivial_rank4():
    laurent = ShiftModule(Z, ["c"], [(0,)], stabilizers=[[]])
    triv4 = ShiftModule(Z, list("abcd"), [(0, 1, 2, 3)])
    assert not shift_module_iso(laurent, triv4)
    assert laurent.describe().startswith("free Z[Z]-module of rank 1")
    assert triv4.describe().startswith("Z^4")


def test_induce_trivial_action_becomes_free():
    m = ShiftModule(TRIVIAL_GROUP, ["a", "b", "c", "d"], [])
    ind = induce_module(m, Z)
    assert ind.describe() == "free Z[Z]-module of rank 4"
    assert all(o.stabilizer == Subgroup.trivial(Z) for o in ind.orbits)


def test_induce_rank1():
    m = ShiftModule(TRIVIAL_GROUP, ["a"], [])
    ind = induce_module(m, Z)
    assert ind.total_rank() is None
    assert len(ind.orbits) == 1


def test_induce_swap_orbit():
    m = ShiftModule(Z2, ["a", "b"], [(1, 0)])
    ind = induce_module(m, ZxZ2)
    assert len(ind.orbits) == 1
    o = ind.orbits[0]
    assert o.size == 2
    assert o.stabilizer == Subgroup.trivial(ZxZ2)


def test_induce_restricting_preserves_orbits():
    m = ShiftModule(Z2, ["a", "b"], [(1, 0)])
    ind = induce_module(m, ZxZ2)
    for orig, new in zip(m.orbits, ind.orbits):
        assert new.stabilizer == orig.stabilizer.prepend_free(1)
        assert new.size == orig.size


def test_shift_module_iso_is_equivalence_on_corpus():
    mods = [
        ShiftModule(Z, ["a"], [(0,)], stabilizers=[[]]),
        ShiftModule(Z, ["a", "b"], [(0, 1)], stabilizers=[[], []]),
        ShiftModule(Z, list("ab"), [(0, 1)]),
        ShiftModule(Z, ["a"], [(0,)], stabilizers=[[Z.degree([2])]]),
    ]
    for m in mods:
        assert shift_module_iso(m, m)
    for a in mods:
        for b in mods:
            assert shift_module_iso(a, b) == shift_module_iso(b, a)


def test_declared_stabilizer_must_fix_labels():
    with pytest.raises(GradingError):
        ShiftModule(Z2, ["a", "b"], [(1, 0)], stabilizers=[[Z2.degree([1])]])


def test_orbit_data_shape():
    m = ShiftModule(Z, ["a", "b"], [(1, 0)])
    o = m.orbits[0]
    size, gens = o.size, o.stabilizer.generators()
    assert size == 2
    # label stabilizer of a 2-cycle under Z is 2Z
    assert [g.values for g in gens] == [(2,)]
