"""K0 computation and the theorem-level drivers."""

import random

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
)


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


def test_k0_seed_invariance(M5):
    a = kt.k0(M5, seed=0)
    b = kt.k0(M5, seed=17)
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
