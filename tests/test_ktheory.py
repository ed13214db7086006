"""K0 computation and the theorem-level drivers."""

import importlib
import json
import random
import re
import sys
from types import SimpleNamespace

import pytest
from sympy import divisors, n_order, totient

from gradedk import algebra as alg, filtration as filt, ktheory as kt
from gradedk.fields import GF, QQ
from gradedk.grading import (
    GradingGroup,
    ShiftModule,
    Subgroup,
    induce_module,
    shift_module_iso,
)
from gradedk.gmod import (
    direct_sum,
    free_module,
    random_presentation,
    regular_module,
    split_projective,
    summand_classes,
)
from gradedk.gmod.decompose import lift_from_zero_part


def test_k0_m5_trio(M5):
    graded = kt.k0(M5)
    assert len(graded.orbits) == 1
    assert graded.orbits[0].stabilizer == Subgroup.trivial(M5.group)
    assert graded.module.describe() == "free Z[Z]-module of rank 1"

    zp = kt.k0(M5.zero_part())
    assert len(zp.orbits) == 4
    assert zp.module.total_rank() == 4

    forgotten = kt.k0(alg.forget_grading(M5))
    assert len(forgotten.orbits) == 1
    assert forgotten.module.total_rank() == 1


def test_k0_shift_module_against_hand_built(M5):
    hand = ShiftModule(M5.group, ["P0"], [(0,)], stabilizers=[[]])
    assert shift_module_iso(kt.k0(M5).module, hand)
    triv4 = ShiftModule(
        GradingGroup(0, ()), ["a", "b", "c", "d"], []
    )
    assert shift_module_iso(kt.k0(M5.zero_part()).module, triv4)


def test_class_map_additive_and_equivariant(M201x):
    A = M201x
    res = kt.k0(A)
    P = random_presentation(A, [[0, 0], [1, 1]], random.Random(1))
    Q = random_presentation(A, [[0, 1]], random.Random(2))
    cp = res.class_map(P)
    cq = res.class_map(Q)
    cs = res.class_map(direct_sum(P, Q))
    total = dict(cp)
    for k, v in cq.items():
        total[k] = total.get(k, 0) + v
    assert cs == total
    # shift action: [P(g)] = [P] . g
    g = A.deg([1, 0])
    shifted = res.class_map(P.shift(g))
    assert sum(shifted.values()) == sum(cp.values())
    assert shifted != cp or not cp


def test_class_map_layer_additivity(Qx, M201x):
    for A, shifts in ((Qx, [[0], [-2], [1]]), (M201x, [[0, 0], [1, 1], [0, 1]])):
        res = kt.k0(A)
        P = random_presentation(A, shifts, random.Random(5))
        total = {}
        for L in filt.layers(P):
            for k, v in res.class_map(L).items():
                total[k] = total.get(k, 0) + v
        assert total == res.class_map(P)


def test_dade_m2_mod2(M201):
    C = alg.regrade_mod(M201, 2)
    rep = kt.dade_check(C)
    assert rep["verdict"] == "pass"
    assert rep["data"]["zbasis_size"] == 2
    assert len(rep["lhs_basis"]) == 2


@pytest.mark.parametrize(
    "F,shifts", [(QQ, [0, 1, 2]), (QQ, [0, 1, 1]), (GF(2), [0, 1, 2])]
)
def test_torsion_regrading_counts_each_summand_class_once(F, shifts):
    # M_3 graded by Z/2: every column module is a shift of the first, so
    # K0 is Z[Z/2] free of rank 1, as for the same algebra built over Z2
    # directly.  The first and third columns have equal supports up to a
    # shift that moves the lex-min support degree, so matching must try
    # every alignment of the supports, not the lex-min anchors only.
    C = alg.regrade_mod(alg.matrix_algebra(F, shifts), 2)
    Z2 = GradingGroup(0, (2,))
    direct = alg.matrix_algebra(F, [[s % 2] for s in shifts], group=Z2)
    for A in (C, direct):
        res = kt.k0(A)
        assert res.module.describe() == "free Z[Z/2]-module of rank 1"
        assert len(res.orbits) == 1
    rep = kt.dade_check(C)
    assert rep["verdict"] == "pass"
    assert rep["data"]["zbasis_size"] == 2


def test_dade_refuses_a_change_of_basis_that_is_not_unimodular(M201, monkeypatch):
    # doubling every class map of the base change makes the square change
    # of basis 2I, whose Hermite form is not the identity
    C = alg.regrade_mod(M201, 2)
    checks = {c["name"]: c["ok"] for c in kt.dade_check(C)["hypothesis_checks"]}
    assert checks["unimodular_change_of_basis"]
    classes = kt.summand_classes

    def doubled_in_dade(X):
        cm = classes(X)
        if sys._getframe(1).f_code.co_name == "dade_check":
            cm = {k: 2 * v for k, v in cm.items()}
        return cm

    monkeypatch.setattr(kt, "summand_classes", doubled_in_dade)
    rep = kt.dade_check(C)
    checks = {c["name"]: c["ok"] for c in rep["hypothesis_checks"]}
    assert rep["verdict"] == "fail"
    assert checks["basis_sizes_match"] and not checks["unimodular_change_of_basis"]


def test_dade_group_algebra():
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    rep = kt.dade_check(B)
    assert rep["verdict"] == "pass"
    assert rep["data"]["zbasis_size"] == 1


def test_dade_laurent():
    L = alg.group_algebra(QQ, GradingGroup(1, ()))
    rep = kt.dade_check(L)
    assert rep["verdict"] == "pass"


def test_dade_m5_hypothesis(M5):
    rep = kt.dade_check(M5)
    assert rep["verdict"] == "hypothesis-not-met"
    assert any(
        c["name"] == "strongly_graded" and not c["ok"] for c in rep["hypothesis_checks"]
    )


def test_quillen_qx(Qx):
    rep = kt.quillen_case(Qx)
    assert rep["verdict"] == "pass"
    assert rep["data"]["rhs_module"]["description"] == "free Z[Z]-module of rank 1"
    corr = rep["correspondence"]
    assert len(corr) == 1 and len(corr[0]["image"]) == 1


def test_quillen_matrix_tensor():
    M200 = alg.matrix_algebra(QQ, [0, 0])
    Qx = alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1])
    T = alg.tensor_product(M200, Qx)
    rep = kt.quillen_case(T)
    assert rep["verdict"] == "pass"
    assert "rank 1" in rep["data"]["rhs_module"]["description"]


def test_quillen_triangular(M201):
    T2 = M201.positive_part()
    rep = kt.quillen_case(T2)
    assert rep["verdict"] == "pass"
    assert "rank 2" in rep["data"]["rhs_module"]["description"]


def test_quillen_rejects_wrong_group(Bx):
    rep = kt.quillen_case(Bx)  # grading group Z x Z/2, not Z
    assert rep["verdict"] == "hypothesis-not-met"


def test_theorem1_group_algebra(Bx):
    rep = kt.theorem1_check(Bx)
    assert rep["verdict"] == "pass"
    # one orbit whose stabilizer is the residual Z/2
    orb = rep["rhs_basis"]
    assert len(orb) == 1 and orb[0]["stabilizer"] == [[0, 1]]


def test_theorem1_decomposes_each_induced_representative_once(monkeypatch):
    # the correspondence and the equivariance samples share the
    # decomposition of the first induced representative
    decompose = importlib.import_module("gradedk.gmod.decompose")
    calls = []
    count = decompose._Induction.count

    def counting(self, P):
        calls.append(P)
        return count(self, P)

    monkeypatch.setattr(decompose._Induction, "count", counting)
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    rep = kt.theorem1_check(alg.polynomial_extension(B, [1, 1]))
    assert rep["verdict"] == "pass"
    # the regular module and three induced representatives, each once
    assert len(calls) == 4 and len({id(P) for P in calls}) == 4


def test_theorem1_matrix_with_torsion_shifts():
    Z2 = GradingGroup(0, (2,))
    B = alg.matrix_algebra(QQ, [[0], [1]], group=Z2)
    A = alg.polynomial_extension(B, [1, 1])
    rep = kt.theorem1_check(A)
    assert rep["verdict"] == "pass"
    assert len(rep["rhs_basis"]) == 1  # one orbit of size two, free over Z[ZxZ2]


def test_theorem1_two_blocks(M201):
    B = M201.zero_part()  # Q x Q over the trivial group
    A = alg.polynomial_extension(B, [1])
    rep = kt.theorem1_check(A)
    assert rep["verdict"] == "pass"
    assert len(rep["rhs_basis"]) == 2
    assert {c["source"] for c in rep["correspondence"]} == {"Q0", "Q1"}


def test_theorem1_trivial_group_reduces_to_quillen(Qx):
    t = kt.theorem1_check(Qx)
    q = kt.quillen_case(Qx)
    assert t["verdict"] == q["verdict"] == "pass"
    assert t["correspondence"] == q["correspondence"]


def test_theorem1_hypothesis_gate(M5):
    rep = kt.theorem1_check(M5)
    assert rep["verdict"] == "hypothesis-not-met"


def test_corollary_polynomial_plane(Qx):
    Qxy = alg.polynomial_extension(Qx, [1, 0])
    rep = kt.corollary_check(Qxy)
    assert rep["verdict"] == "pass"
    assert len(rep["data"]["stages"]) == 2
    assert rep["data"]["graded_module"]["description"] == "free Z[Z x Z]-module of rank 1"


def test_corollary_two_block_plane(M201):
    B = M201.zero_part()
    A = alg.polynomial_extension(alg.polynomial_extension(B, [1]), [1, 0])
    rep = kt.corollary_check(A)
    assert rep["verdict"] == "pass"
    assert rep["data"]["graded_module"]["description"] == "free Z[Z x Z]-module of rank 2"


def test_corollary_rank1_matches_theorem1(Qx):
    c = kt.corollary_check(Qx)
    t = kt.theorem1_check(Qx)
    assert c["verdict"] == t["verdict"] == "pass"
    assert len(c["data"]["stages"]) == 1


def test_lemma_scalar():
    scalar = alg.matrix_algebra(QQ, [0]).zero_part()
    rep = kt.lemma_check(scalar, 1)
    assert rep["verdict"] == "pass"
    assert rep["data"]["rhs_module"]["description"] == "free Z[Z]-module of rank 1"


def test_lemma_matrix(M201):
    rep = kt.lemma_check(M201, 1)
    assert rep["verdict"] == "pass"


def test_lemma_group_algebra_rank2_extension():
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    rep = kt.lemma_check(B, 2)
    assert rep["verdict"] == "pass"
    assert rep["data"]["extended_algebra"].startswith("triv_ext")


# ---------------------------------------------------------------------------
# The orbit correspondence reports each failure under its own check name
# ---------------------------------------------------------------------------


def _misreport_stabilizer(monkeypatch, A, block):
    """``class_info`` as ktheory reads it, but with the full group as the
    stabilizer of one class of A."""
    real = kt.class_info

    def patched(B, blk):
        info = real(B, blk)
        if B is not A or blk != block:
            return info
        return SimpleNamespace(
            rep=info.rep, stabilizer=Subgroup.full(A.group), signature=info.signature
        )

    monkeypatch.setattr(kt, "class_info", patched)


def test_theorem1_reports_a_stabilizer_mismatch(monkeypatch):
    A = alg.polynomial_extension(alg.matrix_algebra(QQ, [0, 1]).zero_part(), [1])
    _misreport_stabilizer(monkeypatch, A, 1)
    rep = kt.theorem1_check(A)
    assert rep["verdict"] == "fail"
    assert rep["hypothesis_checks"] == [
        {"name": "leading_free_coordinate", "ok": True, "detail": ""},
        {
            "name": "support_in_N_x_G",
            "ok": True,
            "detail": "support bounds along the leading coordinate: (0, None)",
        },
        {"name": "induced_module_isomorphic", "ok": False, "detail": "free Z[Z]-module of rank 2"},
        {"name": "stabilizer_match_Q1", "ok": False, "detail": "induced stabilizer differs"},
        {"name": "induced_classes_are_basis_classes", "ok": False, "detail": ""},
        {"name": "orbit_bijection", "ok": False, "detail": "2 of 2 graded orbits hit"},
        {"name": "shift_equivariance_samples", "ok": True, "detail": ""},
    ]


def test_lemma_reports_a_stabilizer_mismatch(monkeypatch):
    B = alg.matrix_algebra(QQ, [0, 1]).zero_part()
    _misreport_stabilizer(monkeypatch, B.trivial_extension(1), 1)
    rep = kt.lemma_check(B, 1)
    assert rep["verdict"] == "fail"
    assert rep["hypothesis_checks"] == [
        {
            "name": "support_in_identity_slice",
            "ok": True,
            "detail": "the extension places the algebra in degree zero of the new "
            "1 free coordinate(s) by construction",
        },
        {"name": "induced_module_isomorphic", "ok": False, "detail": "free Z[Z]-module of rank 2"},
        {"name": "class_bijection", "ok": False, "detail": ""},
    ]


# ---------------------------------------------------------------------------
# K0 bases are ordered by class signatures, not by registration order
# ---------------------------------------------------------------------------


def _triangular():
    return alg.matrix_algebra(QQ, [0, 1, 2]).positive_part()


def _triangular_x():
    return alg.polynomial_extension(_triangular(), [1, 0])


def _module_json_by_orbit_position(res):
    """The K0 module as JSON, each class id replaced by its orbit's position."""
    position = {f"P{o.block}": f"P{i}" for i, o in enumerate(res.orbits)}
    return re.sub(r"P\d+", lambda m: position[m.group()], json.dumps(res.module.to_json()))


def _lifted_summands(A):
    """The summands of A(0), split over A or over its zero part, as
    modules over A."""
    if A.finite_support():
        return [X for X, _blk in split_projective(regular_module(A), random.Random(0))]
    Az = A.zero_part()
    parts = split_projective(regular_module(Az), random.Random(0))
    return [lift_from_zero_part(A, X) for X, _blk in parts]


@pytest.mark.parametrize("build", [_triangular, _triangular_x])
def test_k0_basis_order_ignores_registration_order(build):
    fresh = kt.k0(build())
    A = build()
    # register the classes first from single summands, in reverse order,
    # over the algebra that holds the registry
    base = A if A.finite_support() else A.zero_part()
    summands = split_projective(regular_module(base), random.Random(0))
    for X, _blk in reversed(summands):
        summand_classes(X)
    warm = kt.k0(A)
    # class ids come from the split of A(0), whatever was decomposed first
    assert [o.block for o in warm.orbits] == [o.block for o in fresh.orbits]
    assert [(o.signature, o.stabilizer) for o in warm.orbits] == [
        (o.signature, o.stabilizer) for o in fresh.orbits
    ]
    assert _module_json_by_orbit_position(warm) == _module_json_by_orbit_position(fresh)
    # and the summands registered in reverse keep the fresh class map
    assert [warm.class_map(X) for X in _lifted_summands(A)] == [
        fresh.class_map(X) for X in _lifted_summands(fresh.algebra)
    ]


def test_k0_agrees_on_a_fresh_algebra(M5):
    a = kt.k0(M5)
    b = kt.k0(alg.matrix_algebra(QQ, [0, 1, 2, 2, 3]))
    assert shift_module_iso(a.module, b.module)
    assert [o.stabilizer.rows for o in a.orbits] == [o.stabilizer.rows for o in b.orbits]


def test_k0_f2(M5_f2):
    assert kt.k0(M5_f2).module.describe() == "free Z[Z]-module of rank 1"
    assert kt.k0(M5_f2.zero_part()).module.total_rank() == 4


def test_quillen_rejects_laurent_support():
    L = alg.group_algebra(QQ, GradingGroup(1, ()))  # Z-supported, not N
    rep = kt.quillen_case(L)
    assert rep["verdict"] == "hypothesis-not-met"
    assert any(
        c["name"] == "support_in_N_x_G" and not c["ok"]
        for c in rep["hypothesis_checks"]
    )


def test_corollary_reports_failing_stage(M201):
    # the zero part of M2(0,1)[x] is M2(0,1) over Z, which is Z-supported:
    # the second induction stage must stop at its hypothesis, with the
    # stage trail recorded
    A = alg.polynomial_extension(M201, [1, 0])
    rep = kt.corollary_check(A)
    assert rep["verdict"] == "hypothesis-not-met"
    stages = rep["data"]["stages"]
    assert [s["verdict"] for s in stages] == ["pass", "hypothesis-not-met"]


# ---------------------------------------------------------------------------
# Exact oracles: K0 ranks of ungraded cyclic group algebras from number theory
# ---------------------------------------------------------------------------

CYCLIC_ORDERS = [2, 3, 4, 5, 6, 8, 9, 10, 12]


def cyclic_group_algebra_k0_rank(n, p):
    """Rank of K0(F[C_n]) for F = Q (p = 0) or F_p.

    Q[C_n] is the product of the fields Q(zeta_d), d | n, so the rank is
    tau(n).  Over F_p, F_p[C_n] modulo its radical is F_p[C_n'], n' the
    p'-part of n, whose simple factors are the Frobenius orbits on the
    characters: phi(d) / ord_d(p) of them of order d, for each d | n'.
    """
    if p == 0:
        return len(divisors(n))
    while n % p == 0:
        n //= p
    return sum(
        int(totient(d)) // (n_order(p, d) if d > 1 else 1) for d in divisors(n)
    )


def _forgotten_k0_rank(A):
    return kt.k0(alg.forget_grading(A)).module.total_rank()


@pytest.mark.parametrize("p", [0, 2, 3, 7])
@pytest.mark.parametrize("n", CYCLIC_ORDERS)
def test_k0_rank_of_cyclic_group_algebra(n, p):
    F = GF(p) if p else QQ
    A = alg.group_algebra(F, GradingGroup(0, (n,)))
    assert _forgotten_k0_rank(A) == cyclic_group_algebra_k0_rank(n, p)


@pytest.mark.parametrize("p", [0, 7])
@pytest.mark.parametrize("n", [4, 6])
def test_k0_rank_is_morita_invariant(n, p):
    # M_2(F) (x) F[C_n] = M_2(F[C_n]) is Morita equivalent to F[C_n]
    F = GF(p) if p else QQ
    Zn = GradingGroup(0, (n,))
    A = alg.tensor_product(
        alg.matrix_algebra(F, [[0], [1]], group=Zn), alg.group_algebra(F, Zn)
    )
    assert _forgotten_k0_rank(A) == cyclic_group_algebra_k0_rank(n, p)


def _random_shift_multiset(seed):
    rng = random.Random(seed)
    return sorted(rng.randint(-2, 2) for _ in range(rng.randint(1, 7)))


@pytest.mark.parametrize("p", [0, 2])
@pytest.mark.parametrize("seed", range(6))
def test_k0_rank_of_matrix_zero_part(seed, p):
    # the zero part of M_n(F)(s) is the product of M_m(F), one factor per
    # distinct shift of multiplicity m, so K0 is free on the distinct shifts
    F = GF(p) if p else QQ
    shifts = _random_shift_multiset(seed)
    A = alg.matrix_algebra(F, shifts).zero_part()
    assert kt.k0(A).module.total_rank() == len(set(shifts))


def _orbit_multiset(res):
    """The orbits of a K0 result as a sorted list of (orbit size, stabilizer
    lattice rows); orbit size is the stabilizer's index, None if infinite.
    Class labels are left out: they follow registration order."""
    return sorted(
        ((o.stabilizer.index(), o.stabilizer.rows) for o in res.orbits),
        key=repr,
    )


@pytest.mark.parametrize("shifts", [[0, 1, 2], [0, 1, 2, 2, 3]])
@pytest.mark.parametrize("p", [0, 2, 7])
def test_k0_is_graded_morita_invariant(p, shifts):
    # M_2(F)(0, 1) (x) B = M_2(B)(0, 1) is graded Morita equivalent to B
    # (Hazrat, Graded Rings and Graded Grothendieck Groups, 2016, 2.3), so
    # both K0 are the same Z[Z]-module with the same orbits
    F = GF(p) if p else QQ
    B = alg.matrix_algebra(F, shifts).positive_part()
    lhs = kt.k0(alg.tensor_product(alg.matrix_algebra(F, [0, 1]), B))
    rhs = kt.k0(B)
    assert lhs.module.describe() == rhs.module.describe()
    assert rhs.module.describe() == f"free Z[Z]-module of rank {len(set(shifts))}"
    assert _orbit_multiset(lhs) == _orbit_multiset(rhs)
