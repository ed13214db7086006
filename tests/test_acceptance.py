"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every criterion prints a single ``[criterion N] PASS ...`` line (visible
with ``pytest -s`` or on failure).  Tolerances are zero everywhere: all
arithmetic is exact, so equality is equality.
"""

import random
import time
from pathlib import Path

import pytest

from gradedk import algebra as alg, filtration as filt, ktheory as kt
from gradedk.algebra import HypothesisError
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup, Subgroup, shift_module_iso
from gradedk.gmod import (
    default_window,
    direct_sum,
    functor_S,
    functor_T,
    graded_iso,
    nu,
    psi,
    random_presentation,
    regular_module,
    zero_module,
)
from gradedk.gmod.presentations import ProjectivePresentation, PresentationError


def _corpus():
    """The acceptance corpus: four N-supported algebras with shift patterns.

    The matrix algebra M5(Q)(0,1,2,2,3) itself is Z-supported, so the
    correspondence functors reject it at the hypothesis gate (criterion 6
    relies on exactly that); its N-supported positive truncation carries
    the same zero part and exercises the same block structure.
    """
    M5 = alg.matrix_algebra(QQ, [0, 1, 2, 2, 3])
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    return [
        ("positive_part(M5)", M5.positive_part(), [[0], [1], [2]]),
        (
            "M2(0,1)[x]",
            alg.polynomial_extension(alg.matrix_algebra(QQ, [0, 1]), [1, 0]),
            [[0, 0], [1, 1], [0, 1]],
        ),
        ("Q[x]", alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1]), [[0], [-1], [2]]),
        ("B[x]", alg.polynomial_extension(B, [1, 1]), [[0, 0], [1, 1], [2, 0]]),
    ]


def _corpus_modules(count=52):
    mods = []
    algebras = _corpus()
    seed = 0
    while len(mods) < count:
        name, A, shifts = algebras[seed % len(algebras)]
        mods.append((name, seed, A, random_presentation(A, shifts, random.Random(seed))))
        seed += 1
    return mods


def test_criterion_1_paper_example_exact():
    """k0 of the 5x5 shifted matrix algebra and its zero part, both fields."""
    import sympy  # noqa: F401  (library load is excluded from the timing)

    elapsed = {}
    for field, name in ((QQ, "Q"), (GF(2), "F2")):
        t0 = time.perf_counter()
        M5 = alg.matrix_algebra(field, [0, 1, 2, 2, 3])
        zp = kt.k0(M5.zero_part())
        assert zp.module.total_rank() == 4
        assert len(zp.orbits) == 4
        graded = kt.k0(M5)
        assert len(graded.orbits) == 1
        assert graded.orbits[0].stabilizer == Subgroup.trivial(M5.group)
        assert graded.module.describe() == "free Z[Z]-module of rank 1"
        forgotten = kt.k0(alg.forget_grading(M5))
        assert forgotten.module.total_rank() == 1
        elapsed[name] = time.perf_counter() - t0
        assert elapsed[name] < 1.0, f"runtime budget exceeded: {elapsed[name]:.2f}s"
    print(
        f"\n[criterion 1] PASS: Z^4 / Z[x,1/x]-rank-1 / Z over Q "
        f"({elapsed['Q']:.2f}s) and F2 ({elapsed['F2']:.2f}s)"
    )


def test_criterion_2_swan_suite():
    """Correspondence of projective classes on >= 50 random modules."""
    t0 = time.perf_counter()
    mods = _corpus_modules(52)
    assert len(mods) >= 50
    failures = []
    for name, seed, A, P in mods:
        st = functor_S(functor_T(P), A)
        if not graded_iso(st, P):
            failures.append((name, seed, "ST(P) vs P"))
        Q = functor_T(P)
        tsq = functor_T(functor_S(Q, A))
        window = default_window(A, [P], 2)
        if not all(tsq.dim(h) == Q.dim(h) for h in window):
            failures.append((name, seed, "TS(Q) vs Q"))
        # psi checks T(psi) = nu internally; nu must be invertible on the
        # zero-part window
        ps = psi(P, random.Random(seed))
        zero_window = [h for h in window if Q.dim(h)]
        if not nu(Q, A).is_iso_on(zero_window):
            failures.append((name, seed, "T(psi) window invertibility"))
        if not ps.is_iso_on(window):
            failures.append((name, seed, "psi invertibility"))
    dt = time.perf_counter() - t0
    assert not failures, failures
    assert dt < 60.0, f"runtime budget exceeded: {dt:.1f}s"
    print(f"\n[criterion 2] PASS: {len(mods)} corpus modules, 0 failures, {dt:.1f}s")


def test_criterion_3_filtration_suite():
    """Layer additivity, the bounded inverse pair, section independence."""
    t0 = time.perf_counter()
    mods = _corpus_modules(52)
    failures = []
    for name, seed, A, P in mods:
        window = default_window(A, [P], 2)
        ls = filt.layers(P)
        for h in window:
            if sum(L.dim(h) for L in ls) != P.dim(h):
                failures.append((name, seed, f"layer sum at {h}"))
                break
        if ls:
            if not graded_iso(filt.theta(filt.psi_q(P), A), direct_sum(*ls)):
                failures.append((name, seed, "theta(psi_q) vs layer sum"))
        Q = functor_T(P)
        back = filt.psi_q(filt.theta(Q, A))
        if not all(back.dim(h) == Q.dim(h) for h in window):
            failures.append((name, seed, "psi_q(theta) identity"))
        if not filt.verify_section_independence(P, (seed, seed + 1), 2)["ok"]:
            failures.append((name, seed, "section independence"))
        for k in range(len(filt.jump_degrees(P))):
            a = filt.layer(P, k, section_seed=seed)
            b = filt.layer(P, k, section_seed=seed + 1)
            if a.shifts != b.shifts or a.entries != b.entries:
                failures.append((name, seed, f"layer {k} differs between seeds"))
    dt = time.perf_counter() - t0
    assert not failures, failures
    assert dt < 60.0, f"runtime budget exceeded: {dt:.1f}s"
    print(f"\n[criterion 3] PASS: {len(mods)} corpus modules, 0 failures, {dt:.1f}s")


def test_criterion_4_theorem1_and_corollary():
    """The extension theorem at K0 with explicit basis correspondences."""
    cases = []
    B1 = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    cases.append(("groupalg(Q,Z2)[x]", alg.polynomial_extension(B1, [1, 1])))
    B2 = alg.matrix_algebra(QQ, [[0], [1]], group=GradingGroup(0, (2,)))
    cases.append(("M2(Q)(Z2-shifts)[x]", alg.polynomial_extension(B2, [1, 1])))
    B3 = alg.matrix_algebra(QQ, [0, 1]).zero_part()  # Q x Q
    cases.append(("(QxQ)[x]", alg.polynomial_extension(B3, [1])))
    for name, A in cases:
        rep = kt.theorem1_check(A)
        assert rep["verdict"] == "pass", (name, rep["hypothesis_checks"])
        assert rep["correspondence"], name
        for entry in rep["correspondence"]:
            assert len(entry["image"]) == 1 and entry["image"][0]["mult"] == 1

    Qx = alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1])
    Qxy = alg.polynomial_extension(Qx, [1, 0])
    rep = kt.corollary_check(Qxy)
    assert rep["verdict"] == "pass"
    assert rep["data"]["graded_module"]["description"] == "free Z[Z x Z]-module of rank 1"

    QQxy = alg.polynomial_extension(alg.polynomial_extension(B3, [1]), [1, 0])
    rep2 = kt.corollary_check(QQxy)
    assert rep2["verdict"] == "pass"
    assert rep2["data"]["graded_module"]["description"] == "free Z[Z x Z]-module of rank 2"
    print(
        "\n[criterion 4] PASS: theorem1 on 3 base algebras with basis "
        "correspondence; corollary ranks 1 and 2 over Z[x1,1/x1,x2,1/x2]"
    )


def test_criterion_5_dade():
    """Strong-grading verdicts by exact basis-product enumeration.

    Over Z the 2x2 shifted matrix algebra has A_2 = 0, so no Z-grading of
    it is strong; the strongly graded statement holds for the induced
    Z/2-grading, where K0 on both sides is Z^2 and base change matches
    the bases (ledgered deviation from the looser wording).
    """
    M2 = alg.matrix_algebra(QQ, [0, 1])
    assert not alg.is_strongly_graded(M2)
    C = alg.regrade_mod(M2, 2)
    rep = kt.dade_check(C)
    assert rep["verdict"] == "pass"
    assert rep["data"]["zbasis_size"] == 2
    assert len(rep["lhs_basis"]) == 2
    assert kt.k0(C.identity_component()).module.total_rank() == 2
    assert kt.k0(C).module.total_rank() == 2

    M5 = alg.matrix_algebra(QQ, [0, 1, 2, 2, 3])
    rep5 = kt.dade_check(M5)
    assert rep5["verdict"] == "hypothesis-not-met"
    assert any(
        c["name"] == "strongly_graded" and not c["ok"]
        for c in rep5["hypothesis_checks"]
    )
    print(
        "\n[criterion 5] PASS: M2(Q)(0,1) mod 2 strongly graded with "
        "K0(A_0) = K0^G(A) = Z^2 matched basis to basis; M5 reported not "
        "strongly graded"
    )


def test_criterion_6_nakayama_negative_control():
    """Vanishing restriction forces the zero module; the Z-supported
    counterexample attempt dies at the hypothesis gate, not in
    verification."""
    # (a) over the N-supported corpus: T(M) = 0 implies M = 0, and the only
    # presentation with vanishing restriction is the zero presentation
    for name, seed, A, P in _corpus_modules(12):
        tp = functor_T(P)
        if tp.is_zero():
            assert P.is_zero()
    Qx = alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1])
    Z = zero_module(Qx)
    assert functor_T(Z).is_zero() and Z.is_zero()
    # an idempotent supported purely in positive degrees cannot exist:
    # M A_+ = M would need e = e^n with every factor raising the degree
    x = Qx.basis_element(Qx.deg([1]), 0)
    with pytest.raises(PresentationError):
        ProjectivePresentation(
            Qx, (Qx.group.zero, Qx.deg([1])), [[None, None], [x, None]]
        )

    # (b) the hand-built attempt over Z-supported algebras: M = A itself
    # satisfies M A_+ = M there (A_+ is not even an ideal); the gate must
    # reject before any verification runs
    M5 = alg.matrix_algebra(QQ, [0, 1, 2, 2, 3])
    L = alg.group_algebra(QQ, GradingGroup(1, ()))  # Laurent ring
    rejected = 0
    for A in (M5, L):
        with pytest.raises(HypothesisError):
            functor_T(regular_module(A))
        with pytest.raises(HypothesisError):
            filt.jump_degrees(regular_module(A))
        rejected += 1
    assert rejected == 2
    print(
        "\n[criterion 6] PASS: vanishing restriction forces zero presentations; "
        "Z-supported attempts rejected at the hypothesis gate"
    )


def test_criterion_7_higher_k_groups_documented_absent():
    """Higher K-groups are not desk-reproducible: their absence is
    documented, and criteria 2-3 provide the category-level evidence."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    assert "K0" in text or "K_0" in text
    assert "higher" in text.lower() and "k-group" in text.lower()
    import gradedk.ktheory as kth

    for name in ("k1", "k2", "ki", "higher_k"):
        assert not hasattr(kth, name)
    assert "Only K0 is computed" in (kth.__doc__ or "")
    print(
        "\n[criterion 7] PASS: higher K-groups documented as out of desk "
        "scope; the correspondence and filtration suites (criteria 2-3) "
        "carry the category-level content"
    )
