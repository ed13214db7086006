"""The leading-degree filtration: saturation, layers, additivity, the
bounded induce/restrict pair, and independence of section choices."""

import random

import pytest

from gradedk import algebra as alg, filtration as filt
from gradedk.algebra import HypothesisError
from gradedk.fields import QQ
from gradedk.gmod import (
    default_window,
    direct_sum,
    free_module,
    functor_T,
    graded_iso,
    random_presentation,
    regular_module,
)
from gradedk.gmod import presentations as pres


def test_filter_of_shifted_line(Qx):
    # the free line with generator in degree 3: the filtration jumps there
    P = free_module(Qx, [[-3]])
    assert filt.jump_degrees(P) == [3]
    assert filt.filter_module(P, 2).is_zero()
    assert not filt.filter_module(P, 3).is_zero()
    w = default_window(Qx, [P], 2)
    F3 = filt.filter_module(P, 3)
    assert all(F3.dim(h) == P.dim(h) for h in w)


def test_filter_saturation(Qx, M201x):
    for A, shifts in ((Qx, [[0], [-2]]), (M201x, [[0, 0], [2, 1]])):
        P = random_presentation(A, shifts, random.Random(4))
        n = filt.filtration_bound(P)
        assert filt.filter_module(P, n + 5).rank == filt.filter_module(P, n).rank
        assert filt.filter_module(P, -n).is_zero()
        assert graded_iso(filt.filter_module(P, n), P)


def test_filter_picks_low_summand(Qx):
    P = free_module(Qx, [[0], [-2]])
    F1 = filt.filter_module(P, 1)
    assert [s.values for s in F1.shifts] == [(0,)]


def test_layer_of_line_is_itself(Qx):
    P = free_module(Qx, [[-1]])
    assert filt.jump_degrees(P) == [1]
    L = filt.layer(P, 0)
    w = default_window(Qx, [P], 2)
    assert all(L.dim(h) == P.dim(h) for h in w)


def test_layer_dims_additive_on_corpus(Qx, M201x, Bx):
    for A, shifts in (
        (Qx, [[0], [-2], [1]]),
        (M201x, [[0, 0], [1, 1], [0, 1]]),
        (Bx, [[0, 0], [1, 1], [2, 0]]),
    ):
        for seed in range(3):
            P = random_presentation(A, shifts, random.Random(seed))
            assert filt.layer_dims_additive(P)


def test_layers_exact_on_split_sequences(Qx):
    # a split short exact sequence P >-> P + Q ->> Q: layers add degreewise
    P = random_presentation(Qx, [[0], [1]], random.Random(8))
    Q = random_presentation(Qx, [[-1], [2]], random.Random(9))
    S = direct_sum(P, Q)
    w = default_window(Qx, [S], 2)
    jumps = filt.jump_degrees(S)
    for k, lam in enumerate(jumps):
        L = filt.layer(S, k)
        parts = []
        for X in (P, Q):
            if lam in filt.jump_degrees(X):
                parts.append(filt.layer(X, filt.jump_degrees(X).index(lam)))
        for h in w:
            assert L.dim(h) == sum(p.dim(h) for p in parts)


def test_theta_psi_inverse_pair(Qx, M201x):
    for A, shifts in ((Qx, [[0], [-1]]), (M201x, [[0, 0], [1, 1]])):
        P = random_presentation(A, shifts, random.Random(12))
        w = default_window(A, [P], 2)
        # restrict-then-induce gives the sum of the layers
        ls = filt.layers(P)
        assert graded_iso(filt.theta(filt.psi_q(P), A), direct_sum(*ls))
        # induce-then-restrict is the identity on presentations
        Q = functor_T(P)
        back = filt.psi_q(filt.theta(Q, A))
        assert back.shifts == Q.shifts
        assert all(back.dim(h) == Q.dim(h) for h in w)


def test_theta_commutes_with_residual_shifts(Bx):
    Q = functor_T(random_presentation(Bx, [[0, 0], [1, 1]], random.Random(13)))
    g = Bx.deg([0, 1])  # a shift in the residual factor
    lhs = filt.theta(Q.shift(g), Bx)
    rhs = filt.theta(Q, Bx).shift(g)
    assert graded_iso(lhs, rhs)


def test_theta_bound_enforced(Qx):
    Q = functor_T(free_module(Qx, [[-5]]))
    with pytest.raises(HypothesisError):
        filt.theta(Q, Qx, q=2)
    with pytest.raises(HypothesisError):
        filt.psi_q(free_module(Qx, [[-5]]), q=2)


def test_section_independence(Qx, M201x):
    for A, shifts in ((Qx, [[0], [-2]]), (M201x, [[0, 0], [1, 1], [0, 1]])):
        P = random_presentation(A, shifts, random.Random(3))
        rep = filt.verify_section_independence(P, seeds=(0, 5, 9))
        assert rep["ok"]


def test_layer_with_section_seed_is_canonical(Qx):
    P = free_module(Qx, [[0], [-2]])
    a = filt.layer(P, 1)
    b = filt.layer(P, 1, section_seed=7)
    c = filt.layer(P, 1, section_seed=8)
    assert a.shifts == b.shifts == c.shifts
    assert a.entries == b.entries == c.entries


def test_filtered_module_assembly(M201x):
    P = random_presentation(M201x, [[0, 0], [1, 0]], random.Random(30))
    bound, jumps = filt.filtration_bound(P), filt.jump_degrees(P)
    assert bound >= max(abs(j) for j in jumps) if jumps else bound == 0
    assert len(filt.layers(P)) == len(jumps)


def test_hypothesis_gate(M5):
    with pytest.raises(HypothesisError):
        filt.jump_degrees(regular_module(M5))


def test_repeated_section_independence_builds_no_component_space(Qx, monkeypatch):
    P = random_presentation(Qx, [[0], [-1], [2]], random.Random(4))
    assert filt.verify_section_independence(P, seeds=(0, 1))["ok"]
    builds = []
    real = pres.ComponentSpace

    def counted(Q, h):
        builds.append(h)
        return real(Q, h)

    monkeypatch.setattr(pres, "ComponentSpace", counted)
    assert filt.verify_section_independence(P, seeds=(0, 1))["ok"]
    assert builds == []
    # the counter does see builds: a new module makes some
    Q = random_presentation(Qx, [[0], [1]], random.Random(5))
    filt.verify_section_independence(Q, seeds=(0,))
    assert builds


def test_induced_slices_are_built_once(Qx):
    P = random_presentation(Qx, [[0], [-1], [2]], random.Random(4))
    assert all(a is b for a, b in zip(filt.layers(P), filt.layers(P)))
    assert filt.filter_module(P, 5) is filt.filter_module(P, 5)


def test_section_ranks_are_measured_once_per_seed_and_margin(Qx, monkeypatch):
    P = random_presentation(Qx, [[0], [-1], [2]], random.Random(9))
    s = 3
    assert filt.verify_section_independence(P, seeds=(s, s + 1))["ok"]
    calls = []
    real = filt.psi

    def counted(Q, rng):
        calls.append(Q)
        return real(Q, rng)

    monkeypatch.setattr(filt, "psi", counted)
    jumps = filt.jump_degrees(P)
    assert len(jumps) == 3
    for k in range(len(jumps)):
        filt.layer(P, k, section_seed=s)
    assert calls == []
    # a profile under another margin is measured on its own
    filt.layer(P, 0, section_seed=s, margin=3)
    assert len(calls) == 1
    # the checks run on cached ranks: wrong ranks are caught
    key = ("section ranks", s + 1, 2)
    P._derived[key] = {h: [r + 1 for r in ranks] for h, ranks in P._derived[key].items()}
    assert not filt.verify_section_independence(P, seeds=(s, s + 1))["ok"]
    with pytest.raises(pres.PresentationError):
        filt.layer(P, 0, section_seed=s + 1)
    assert len(calls) == 1
