"""Presentations, shifts, the correspondence functors, and decomposition."""

import importlib
import random
from fractions import Fraction

import pytest

import gradedk._kernel as kern
from gradedk import algebra as alg
from gradedk.algebra import HypothesisError
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup
from gradedk.gmod import (
    GradedMap,
    PresentationError,
    ProjectivePresentation,
    decompose,
    default_window,
    direct_sum,
    free_module,
    functor_S,
    functor_T,
    graded_iso,
    indec_iso,
    nakayama_zero_test,
    nu,
    psi,
    random_presentation,
    regular_module,
    restriction_map,
    section,
    summand_classes,
    zero_module,
)
from gradedk.gmod.endos import split_projective
from gradedk.gmod.swan import VerificationError

from entry_products import entries_eq, entries_matmul, hom_entries

# the package exports the function decompose under the submodule's name
dec = importlib.import_module("gradedk.gmod.decompose")
pres = importlib.import_module("gradedk.gmod.presentations")


# -- presentations and shifts ---------------------------------------------------


def test_idempotency_enforced(M201):
    d = M201.deg
    e21 = M201.basis_element(d([1]), 0)
    with pytest.raises(PresentationError):
        ProjectivePresentation(M201, (d([0]), d([1])), [[None, None], [e21, None]])


def test_entry_degree_enforced(M201):
    d = M201.deg
    e21 = M201.basis_element(d([1]), 0)
    with pytest.raises(PresentationError):
        ProjectivePresentation(M201, (d([0]), d([0])), [[None, e21], [None, None]])


def test_shift_axioms(Qx):
    P = free_module(Qx, [[0], [-2]])
    z = Qx.group.zero
    g = Qx.deg([1])
    assert P.shift(z).shifts == P.shifts
    double = P.shift(g).shift(-g)
    w = default_window(Qx, [P], 2)
    assert all(double.dim(h) == P.dim(h) for h in w)
    # component(shift(P, g), h) = component(P, g + h)
    for h in w[:-1]:
        assert P.shift(g).dim(h) == P.dim(g + h)


def test_default_window_refuses_a_negative_margin(Qx):
    # margin 0 still holds the support; a negative one could empty the box
    P = free_module(Qx, [[0]])
    assert Qx.deg([0]) in default_window(Qx, [P], 0)
    for margin in (-1, -5):
        with pytest.raises(ValueError, match=f"window margin must be >= 0, got {margin}"):
            default_window(Qx, [P], margin)


def test_free_module_components(Qx):
    # shift(A(0), w) has dim at h equal to dim A_{w+h}
    w = Qx.deg([2])
    P = free_module(Qx, [Qx.group.zero]).shift(w)
    for k in range(-3, 4):
        h = Qx.deg([k])
        assert P.dim(h) == Qx.component_dim(w + h)


def test_zero_module_total(Qx):
    Z = zero_module(Qx)
    assert Z.is_zero()
    assert decompose(Z) == []
    assert Z.dim(Qx.group.zero) == 0


def test_random_presentation_without_shifts_is_the_zero_module(Qx):
    # as free(A, []) is; the rng is not drawn from, so a seeded rng shared
    # with later draws gives them the same values as before
    rng = random.Random(3)
    P = random_presentation(Qx, [], rng)
    assert P.rank == 0 and P.is_zero()
    assert decompose(P) == []
    assert rng.getstate() == random.Random(3).getstate()


# -- functors -----------------------------------------------------------------


def test_T_of_regular_is_zero_part(M201x):
    A = M201x
    R = regular_module(A)
    tp = functor_T(R)
    zpe = A.zero_part_embedded()
    w = default_window(A, [R], 2)
    for h in w:
        assert tp.dim(h) == zpe.component_dim(h)


def test_T_of_shifted_free_line(Qx):
    P = free_module(Qx, [[-2]])
    tp = functor_T(P)
    for k in range(-4, 5):
        assert tp.dim(Qx.deg([k])) == (1 if k == 2 else 0)


def test_TS_is_identity_on_presentations(Bx):
    Q = functor_T(free_module(Bx, [[0, 0], [1, 1]]))
    tsq = functor_T(functor_S(Q, Bx))
    assert tsq.shifts == Q.shifts
    w = default_window(Bx, [Q], 2)
    assert all(tsq.dim(h) == Q.dim(h) for h in w)


def test_S_commutes_with_shift(Bx):
    Q = functor_T(free_module(Bx, [[0, 0]]))
    g = Bx.deg([2, 1])
    lhs = functor_S(Q.shift(g), Bx)
    rhs = functor_S(Q, Bx).shift(g)
    assert lhs.shifts == rhs.shifts
    assert lhs.entries == rhs.entries  # entrywise identity of idempotents


def test_functors_reject_unsupported_grading(M5):
    with pytest.raises(HypothesisError):
        functor_T(regular_module(M5))  # support is Z, not N
    L = alg.group_algebra(QQ, GradingGroup(1, ()))
    with pytest.raises(HypothesisError):
        functor_T(regular_module(L))


def test_nu_is_identity_matrix(Bx):
    Q = functor_T(random_presentation(Bx, [[0, 0], [1, 1]], random.Random(3)))
    nq = nu(Q, Bx)
    w = default_window(Bx, [Q], 2)
    for h in w:
        m = nq.component_matrix(h)
        n = Q.dim(h)
        assert m == kern.identity(n, Bx.field.char) if n else m == []


def test_section_splits_quotient(M201x):
    A = M201x
    P = random_presentation(A, [[0, 0], [1, 1], [1, 0]], random.Random(5))
    tp = functor_T(P)
    f = restriction_map(P)
    w = default_window(A, [P], 2)
    for rng in (None, random.Random(6), random.Random(7)):
        g = section(P, rng)
        for h in w:
            n = tp.dim(h)
            if not n:
                continue
            comp = kern.mat_mul(
                f.component_matrix(h), g.component_matrix(h), A.field.char
            )
            assert comp == kern.identity(n, A.field.char)


def test_section_choices_differ_inside_kernel(M201x):
    # two lifts differ by a map into the positive-degree part: the
    # difference must be killed by the restriction but need not vanish
    A = M201x
    P = free_module(A, [[0, 0], [1, 1]])
    g0 = section(P)
    g1 = section(P, random.Random(11))
    f = restriction_map(P)
    w = default_window(A, [P], 2)
    tp = functor_T(P)
    differs = False
    for h in w:
        m0 = g0.component_matrix(h)
        m1 = g1.component_matrix(h)
        if m0 != m1:
            differs = True
        n = tp.dim(h)
        if n:
            c0 = kern.mat_mul(f.component_matrix(h), m0, A.field.char)
            c1 = kern.mat_mul(f.component_matrix(h), m1, A.field.char)
            assert c0 == c1 == kern.identity(n, A.field.char)
    assert differs


def test_psi_isomorphism_and_restriction(Qx, M201x, Bx):
    for A, shifts, seed in (
        (Qx, [[-1]], 1),
        (M201x, [[0, 0], [1, 1], [0, 1]], 2),
        (Bx, [[0, 0], [1, 1]], 3),
    ):
        P = random_presentation(A, shifts, random.Random(seed))
        w = default_window(A, [P], 2)
        for rng in (None, random.Random(seed + 10)):
            ps = psi(P, rng)  # raises VerificationError if T(psi) != nu
            assert ps.is_iso_on(w)
            for h in w:
                m = ps.component_matrix(h)
                n = P.dim(h)
                assert len(m) == n and all(len(r) == n for r in m)


def test_component_matrix_identity_and_zero(Qx):
    P = free_module(Qx, [[0], [-1]])
    w = default_window(Qx, [P], 1)
    ident = GradedMap(P, P, P.entries)
    for h in w:
        n = P.dim(h)
        assert ident.component_matrix(h) == kern.identity(n, 0)
    zm = GradedMap(P, P, [[None, None], [None, None]])
    for h in w:
        m = zm.component_matrix(h)
        assert all(not x for row in m for x in row)


def test_graded_map_refuses_unrelated_algebras(Qx, M201x):
    # maps run within one algebra or between it and its embedded zero part
    P = regular_module(Qx)
    with pytest.raises(PresentationError, match="embedded zero part"):
        GradedMap(P, regular_module(M201x), [[None]])
    with pytest.raises(PresentationError, match="embedded zero part"):
        GradedMap(P, regular_module(Qx.zero_part()), [[None]])


# -- Nakayama ------------------------------------------------------------------


def test_nakayama_vanishing(Qx, M201x):
    for A, shifts in ((Qx, [[0], [1]]), (M201x, [[0, 0], [1, 1]])):
        for seed in range(6):
            P = random_presentation(A, shifts[: 1 + seed % 2], random.Random(seed))
            w = default_window(A, [P], 2)
            assert nakayama_zero_test(P, w)
    # a presentation whose restriction vanishes is exactly zero
    Z = zero_module(Qx)
    assert functor_T(Z).is_zero() and Z.is_zero()


def test_positive_entry_matrices_are_never_idempotent(Qx):
    # entries of strictly positive leading degree cannot form a nonzero
    # idempotent: powers of such a matrix drop out of the shift window
    d = Qx.deg
    x = Qx.basis_element(d([1]), 0)
    with pytest.raises(PresentationError):
        ProjectivePresentation(Qx, (d([0]), d([1])), [[None, None], [x, None]])


# -- decomposition ---------------------------------------------------------------


def test_m5_regular_single_orbit(M5):
    parts = decompose(regular_module(M5))
    assert sum(m for _p, m in parts) == 5
    shifts = sorted(
        (p.shifts[0].values[0], m) for p, m in parts
    )
    assert shifts == [(-3, 1), (-2, 2), (-1, 1), (0, 1)]
    # all summands are shifts of one column: same class id
    cls = summand_classes(regular_module(M5))
    assert {blk for blk, _g in cls} == {0}


def test_free_rank2_split(Qx):
    P = free_module(Qx, [[0], [-1]])
    parts = decompose(P)
    assert len(parts) == 2 and all(m == 1 for _p, m in parts)
    assert not graded_iso(free_module(Qx, [[0]]), free_module(Qx, [[-1]]))


def test_graded_iso_shift_and_roundtrip(M201x):
    A = M201x
    for seed in range(4):
        P = random_presentation(A, [[0, 0], [1, 1], [0, 1]], random.Random(seed))
        assert graded_iso(P, P.shift(A.group.zero))
        assert graded_iso(functor_S(functor_T(P), A), P)


def test_direct_sum_classes_add(Qx):
    P = free_module(Qx, [[0]])
    Q = free_module(Qx, [[-1]])
    s = summand_classes(direct_sum(P, Q, Q))
    assert sorted(s.values()) == [1, 2]


def test_indec_iso_distinguishes_blocks(M5):
    Z = M5.zero_part()
    parts = decompose(regular_module(Z))
    reps = [p for p, _m in parts]
    iso_pairs = sum(
        1
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
        if indec_iso(reps[i], reps[j])
    )
    assert iso_pairs == 0  # registry reps are pairwise non-isomorphic
    assert len(reps) == 4


def test_decompose_deterministic(M201x):
    # a fresh copy of the algebra builds its class table anew
    fresh = alg.polynomial_extension(alg.matrix_algebra(QQ, [0, 1]), [1, 0])
    shifts = [[0, 0], [1, 1], [0, 1]]
    a = summand_classes(random_presentation(M201x, shifts, random.Random(9)))
    b = summand_classes(random_presentation(fresh, shifts, random.Random(9)))
    assert sorted((blk, g.values, m) for (blk, g), m in a.items()) == sorted(
        (blk, g.values, m) for (blk, g), m in b.items()
    )


def test_negative_leading_degree_blocks_vanish(Qx, M201x):
    # over an N-supported algebra an idempotent entry whose leading degree
    # is negative sits in an empty component: the slice structure of the
    # restricted module is triangular with those blocks exactly zero
    for A, shifts in ((Qx, [[0], [1], [2]]), (M201x, [[0, 0], [1, 1], [2, 0]])):
        P = random_presentation(A, shifts, random.Random(14))
        for i in range(P.rank):
            for j in range(P.rank):
                d = P.shifts[i] - P.shifts[j]
                if d.values[0] < 0:
                    assert A.component_dim(d) == 0
                    assert P.entries[i][j] is None


def test_nu_naturality_square(Bx):
    # nu is natural: for maps f between zero-part modules, restricting the
    # induced map and composing with nu agrees with nu then f, degreewise
    from gradedk.gmod.swan import functor_S, functor_T, nu

    A = Bx
    Q1 = functor_T(random_presentation(A, [[0, 0], [1, 1]], random.Random(41)))
    Q2 = functor_T(random_presentation(A, [[0, 1], [1, 0]], random.Random(42)))
    maps = hom_entries(Q1, Q2)
    if not maps:
        return
    w = default_window(A, [Q1, Q2], 2)
    nu1 = nu(Q1, A)
    nu2 = nu(Q2, A)
    for entries in maps[:3]:
        f = GradedMap(Q1, Q2, entries)
        # the restriction of the induced map has the same entries, so the
        # square commutes iff f o nu1 == nu2 o f on every component
        ts_f = GradedMap(nu1.source, nu2.source, entries)
        for h in w:
            lhs = kern.mat_mul(
                f.component_matrix(h), nu1.component_matrix(h), A.field.char
            )
            rhs = kern.mat_mul(
                nu2.component_matrix(h), ts_f.component_matrix(h), A.field.char
            )
            assert lhs == rhs


def test_free_modules_with_permuted_shifts_isomorphic(Qx):
    P = free_module(Qx, [[0], [-2], [1]])
    Q = free_module(Qx, [[1], [0], [-2]])
    assert graded_iso(P, Q)


def test_graded_map_normalization_is_idempotent(Bx):
    P = random_presentation(Bx, [[0, 0], [1, 1]], random.Random(51))
    Q = random_presentation(Bx, [[0, 1], [1, 0]], random.Random(52))
    # every map handed to GradedMap is already cut down by the two
    # idempotents: e_Q f e_P == f for each f in the hom basis
    basis = hom_entries(P, Q)
    assert basis
    for f in basis:
        assert entries_eq(entries_matmul(entries_matmul(Q.entries, f), P.entries), f)


# -- products on raw positions against entry-by-entry products ----------------


def _product_corpus():
    """(algebra, shifts, whether it is N-supported along its first free
    coordinate, so that T, S, sections and psi exist)."""
    out = []
    for F in (QQ, GF(2), GF(7)):
        out.append((alg.matrix_algebra(F, [0, 1, 2, 2, 3]).positive_part(), [[0], [1], [1], [2]], True))
        out.append((alg.forget_grading(alg.group_algebra(F, GradingGroup(0, (6,)))), [[], [], []], False))
    out.append((alg.polynomial_extension(alg.group_algebra(QQ, GradingGroup(0, (3,))), [1, 1]), [[0, 0], [1, 1], [2, 0]], True))
    return out


@pytest.mark.parametrize("A,shifts,positive", _product_corpus())
def test_random_presentations_are_idempotent_entry_by_entry(A, shifts, positive):
    for seed in range(4):
        P = random_presentation(A, shifts, random.Random(seed))
        assert entries_eq(entries_matmul(P.entries, P.entries), P.entries)


@pytest.mark.parametrize("A,shifts,positive", [c for c in _product_corpus() if c[2]])
def test_psi_is_the_section_times_the_induced_idempotent(A, shifts, positive):
    corrected = False
    for seed in range(3):
        P = random_presentation(A, shifts, random.Random(seed))
        stp = functor_S(functor_T(P), A)
        for s in (None, 5, 6):
            rng = (lambda: None) if s is None else (lambda: random.Random(s))
            g = section(P, rng())
            assert psi(P, rng()).entries == entries_matmul(g.entries, stp.entries)
            corrected |= g.entries != section(P).entries
    # some seeded section is not the canonical one
    assert corrected


@pytest.mark.parametrize("A,shifts,positive", _product_corpus())
def test_idempotent_check_agrees_with_entry_products(A, shifts, positive):
    # perturb one entry of a random idempotent by a basis element of its
    # component: the check must refuse exactly the matrices the
    # entry-by-entry product finds not idempotent
    rng = random.Random(3)
    refused = 0
    for seed in range(4):
        P = random_presentation(A, shifts, random.Random(seed))
        cells = [
            (i, j) for i in range(P.rank) for j in range(P.rank)
            if A.component_dim(P.shifts[i] - P.shifts[j])
        ]
        for _ in range(3):
            i, j = rng.choice(cells)
            d = P.shifts[i] - P.shifts[j]
            x = A.basis_element(d, rng.randrange(A.component_dim(d)))
            entries = [list(row) for row in P.entries]
            entries[i][j] = x if entries[i][j] is None else entries[i][j] + x
            idempotent = entries_eq(entries_matmul(entries, entries), entries)
            try:
                ProjectivePresentation(A, P.shifts, entries, check=True)
            except PresentationError as err:
                assert "not idempotent" in str(err)
                assert not idempotent
                refused += 1
            else:
                assert idempotent
    assert refused


def test_maps_skip_degrees_where_the_source_is_zero(monkeypatch, M201x):
    from gradedk.filtration import _image_ranks

    A = M201x
    char = A.field.char
    P = random_presentation(A, [[0, 0], [1, 1], [1, 0]], random.Random(5))
    tp = functor_T(P)
    w = default_window(A, [P], 2)
    assert 0 in [tp.dim(h) for h in w] and 0 in [P.dim(h) for h in w]
    maps = [nu(tp, A), psi(P, random.Random(6)), section(P), restriction_map(P)]
    # the answers of building the component matrix at every degree
    want = [
        all(
            m.source.dim(h) == m.target.dim(h)
            and kern.rank(m.component_matrix(h), char) == m.target.dim(h)
            for h in w
        )
        for m in maps
    ]
    assert want == [True, True, False, False]
    rows = [{0}, {0, 1, 2}]
    ranks = [_image_ranks(m, h, rows) for m in maps for h in w]
    built = []
    real = GradedMap.component_matrix

    def counting(self, h):
        built.append(self.source.dim(h))
        return real(self, h)

    monkeypatch.setattr(GradedMap, "component_matrix", counting)
    assert [m.is_iso_on(w) for m in maps] == want
    assert [_image_ranks(m, h, rows) for m in maps for h in w] == ranks
    assert built and 0 not in built


# -- matching by split block against a pairwise oracle ---------------------------


def _shift_iso(X, Y):
    """X isomorphic to some Y(s): X_h != 0 forces h + s into the support
    of Y, so these shifts are all the candidates."""
    h = next(iter(dec.module_support_degrees(X)))
    return any(indec_iso(X, Y.shift(k - h)) for k in dec.module_support_degrees(Y))


def _pairwise_types(P):
    """Isomorphism types of the summands of one split, from indec_iso on
    every pair alone: [representative, count] lists and, per type, the
    index of the first type it is a shift of."""
    types = []
    for X, _blk in split_projective(P, random.Random(0)):
        for t in types:
            if indec_iso(X, t[0]):
                t[1] += 1
                break
        else:
            types.append([X, 1])
    orbit = []
    for k, (X, _n) in enumerate(types):
        orbit.append(next(j for j in range(k + 1) if _shift_iso(X, types[j][0])))
    return types, orbit


def _assert_matches_pairwise_oracle(P):
    A = P.algebra
    types, orbit = _pairwise_types(P)
    classes = summand_classes(P)
    type_of = {}
    for (blk, g), m in classes.items():
        rep = dec.class_info(A, blk).rep.shift(g)
        hits = [k for k, (X, _n) in enumerate(types) if indec_iso(rep, X)]
        assert len(hits) == 1 and types[hits[0]][1] == m
        type_of[(blk, g)] = hits[0]
    assert sorted(type_of.values()) == list(range(len(types)))
    for (b1, _g1), t1 in type_of.items():
        for (b2, _g2), t2 in type_of.items():
            assert (b1 == b2) == (orbit[t1] == orbit[t2])
    return classes


REGULAR_ORACLE_CASES = [
    lambda: alg.forget_grading(alg.matrix_algebra(QQ, [0, 1, 2, 3])),
    lambda: alg.forget_grading(alg.matrix_algebra(GF(2), [0, 1, 2, 3])),
    lambda: alg.forget_grading(alg.group_algebra(QQ, GradingGroup(0, (6,)))),
    lambda: alg.positive_part(alg.matrix_algebra(QQ, [0, 1, 2, 2, 3])),
]


@pytest.mark.parametrize("build", REGULAR_ORACLE_CASES)
def test_block_matching_agrees_with_pairwise_oracle(build):
    A = build()
    R = regular_module(A)
    # a fresh registry, then one that already holds every class
    _assert_matches_pairwise_oracle(R)
    _assert_matches_pairwise_oracle(R)


def test_block_matching_on_random_positive_part_presentations():
    A = alg.positive_part(alg.matrix_algebra(QQ, [0, 1, 2, 2, 3]))
    one = A.group.degree([1])
    R = regular_module(A)
    inputs = [direct_sum(R, R.shift(one))]
    for seed in range(4):
        inputs.append(random_presentation(A, [[0], [1], [2]], random.Random(seed)))
        inputs.append(random_presentation(A, [[0], [2]], random.Random(10 + seed)))
    shifted_twice = 0
    for P in inputs:
        classes = _assert_matches_pairwise_oracle(P)
        blocks = [blk for blk, _g in classes]
        shifted_twice += len(blocks) - len(set(blocks))
    # blocks of one split that are nonzero shifts of one class occur
    assert shifted_twice > 0


def test_fresh_trivially_graded_regular_module_makes_no_iso_test(monkeypatch):
    calls = []
    real = dec.indec_iso

    def counted(X, Y):
        calls.append((X, Y))
        return real(X, Y)

    monkeypatch.setattr(dec, "indec_iso", counted)
    A = alg.forget_grading(alg.group_algebra(QQ, GradingGroup(0, (12,))))
    classes = summand_classes(regular_module(A))
    assert sorted(classes.values()) == [1] * 6  # tau(12) simple blocks
    assert calls == []


# -- derived presentations are built once ------------------------------------------


def test_functors_and_shifts_return_one_object_per_input(Bx):
    P = random_presentation(Bx, [[0, 0], [1, 1]], random.Random(2))
    tp = functor_T(P)
    assert functor_T(P) is tp
    assert functor_S(tp, Bx) is functor_S(tp, Bx)
    g = Bx.deg([1, 1])
    assert P.shift(g) is P.shift(g)
    assert P.shift(g) is not P.shift(Bx.deg([1, 0]))
    assert P.shift(Bx.group.zero) is P


def test_failed_gates_store_nothing(M5, Bx):
    R = regular_module(M5)
    for _ in range(2):
        with pytest.raises(HypothesisError):
            functor_T(R)
    assert "T" not in R._derived
    Q = regular_module(Bx.zero_part_embedded())
    with pytest.raises(HypothesisError):
        functor_S(Q, M5)
    with pytest.raises(PresentationError):
        functor_S(regular_module(Bx), Bx)
    assert Q._derived == {}


def test_shared_shift_keeps_its_component_spaces(Qx):
    P = free_module(Qx, [[0], [-1]])
    g = Qx.deg([2])
    h = Qx.deg([1])
    space = P.shift(g).space(h)
    assert P.shift(g).space(h) is space
    assert space.dim == P.dim(g + h)


def _trace_dim_corpus():
    out = []
    for F in (QQ, GF(2), GF(7)):
        out.append((alg.matrix_algebra(F, [0, 1, 2, 2, 3]).positive_part(), [[0], [1], [3]]))
        out.append((alg.forget_grading(alg.group_algebra(F, GradingGroup(0, (6,)))), [[], []]))
        Z3 = alg.group_algebra(F, GradingGroup(0, (3,)))
        out.append((alg.polynomial_extension(Z3, [1, 0]), [[0, 0], [1, 2]]))
    return out


TRACE_DIM_CASES = _trace_dim_corpus()


@pytest.mark.parametrize(
    "A,shifts", TRACE_DIM_CASES, ids=[A.describe() for A, _s in TRACE_DIM_CASES]
)
def test_component_dimension_is_the_rank_of_the_component_matrix(monkeypatch, A, shifts):
    # dim is the rank of the component matrix on a window, for a random
    # presentation and its summands; over Q it is read from the trace, so
    # fresh copies answer dim with no component matrix and no rref
    P = random_presentation(A, shifts, random.Random(len(shifts)))
    modules = [P] + [S for S, _blk in split_projective(P, random.Random(0))]
    window = default_window(A, [P], 1)
    fresh = [ProjectivePresentation(A, X.shifts, X.entries, check=False) for X in modules]
    built = []
    matrix, rref = pres._entries_component_matrix, kern.rref
    monkeypatch.setattr(
        pres, "_entries_component_matrix", lambda *a: built.append("matrix") or matrix(*a)
    )
    monkeypatch.setattr(kern, "rref", lambda *a: built.append("rref") or rref(*a))
    dims = [[X.dim(h) for h in window] for X in fresh]
    monkeypatch.undo()
    if not A.field.char:
        assert built == []
    assert any(map(any, dims))
    for X, row in zip(fresh, dims):
        for h, d in zip(window, row):
            space = X.space(h)
            assert d == kern.rank(space.matrix, A.field.char) == len(space.basis_columns)


def test_component_trace_refuses_a_non_idempotent():
    # over Q a trace that is not an integer in [0, ambient_dim] is refused
    # when the dimension is read, and a trace that differs from the rank
    # when the basis is
    def scaled_unit(order, c):
        A = alg.forget_grading(alg.group_algebra(QQ, GradingGroup(0, (order,))))
        z = A.group.zero
        entry = A.element(z, [A.field.mul(c, x) for x in A.one().coords])
        return ProjectivePresentation(A, [z], [[entry]], check=False), z

    for order, c in ((6, QQ.of_int(2)), (3, Fraction(1, 2))):
        X, z = scaled_unit(order, c)
        with pytest.raises(PresentationError, match="not idempotent"):
            X.dim(z)
    X, z = scaled_unit(6, Fraction(1, 2))
    with pytest.raises(PresentationError, match="not idempotent"):
        X.space(z).basis_columns


def _class_memo_corpus():
    out = []
    for F in (QQ, GF(2), GF(7)):
        out.append((alg.matrix_algebra(F, [0, 1, 2, 2, 3]).positive_part(), [[0], [1], [3]]))
        out.append((alg.forget_grading(alg.group_algebra(F, GradingGroup(0, (6,)))), [[], [], []]))
    # an induction algebra whose zero part is split by the finite registry
    base = alg.matrix_algebra(QQ, [0, 1, 2]).positive_part()
    out.append((alg.polynomial_extension(base, [1]), [[0], [1], [-1]]))
    return [pytest.param(A, shifts, id=A.describe()) for A, shifts in out]


@pytest.mark.parametrize("A,shifts", _class_memo_corpus())
def test_class_multiset_is_derived_once_per_presentation(monkeypatch, A, shifts):
    counts = []
    reduction = type(dec._registry(A))
    real = reduction.count

    def counted(self, P):
        counts.append(P)
        return real(self, P)

    monkeypatch.setattr(reduction, "count", counted)
    P = random_presentation(A, shifts, random.Random(11))
    first = summand_classes(P)
    assert first and counts  # the counter sees the first decomposition
    before = len(counts)
    again = summand_classes(P)
    assert again == first and len(counts) == before
    # a caller's copy does not reach the memo
    again.clear()
    assert summand_classes(P) == first
    # register other modules, then decompose a twin of P from scratch
    for seed in range(2):
        summand_classes(random_presentation(A, shifts[:2], random.Random(20 + seed)))
    before = len(counts)
    twin = ProjectivePresentation(A, P.shifts, P.entries)
    assert summand_classes(twin) == first
    assert len(counts) == before + 1
    # no argument of a later call reaches the count again
    assert decompose(P) and graded_iso(P, twin) and len(counts) == before + 1


# -- cross-path oracle: the matrix-algebra special case against the registry -------


class _NoMatrixDispatch:
    """Stands in for MatrixAlgebra in decompose: no algebra is one, so every
    matrix algebra takes the generic registry path."""


def _matrix_oracle_modules(A):
    R = regular_module(A)
    mods = [R, direct_sum(R, R.shift(A.deg([1]))), free_module(A, [[0], [2], [-1]])]
    return mods + [random_presentation(A, [[0], [1], [3]], random.Random(s)) for s in range(3)]


def _translated_multiset(classes):
    """(shift - least shift, multiplicity) over a class multiset whose keys
    all name one class, and that least shift."""
    assert len({blk for blk, _g in classes}) == 1
    least = min((g for _blk, g in classes), key=lambda d: d.values)
    return sorted(((g - least).values, m) for (_blk, g), m in classes.items()), least


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_matrix_special_case_agrees_with_registry_path(monkeypatch, field):
    special_alg = alg.matrix_algebra(field, [0, 1, 2, 2, 3])
    special = [summand_classes(P) for P in _matrix_oracle_modules(special_alg)]
    generic_alg = alg.matrix_algebra(field, [0, 1, 2, 2, 3])
    monkeypatch.setattr(dec, "MatrixAlgebra", _NoMatrixDispatch)
    generic = [summand_classes(P) for P in _matrix_oracle_modules(generic_alg)]
    # only the split of A(0) gives a class a profile signature
    assert [c.signature[0] for c in generic_alg._registry.classes] == ["profile"]
    offsets = set()
    for want, got in zip(special, generic):
        want_set, want_least = _translated_multiset(want)
        got_set, got_least = _translated_multiset(got)
        assert got_set == want_set
        offsets.add(got_least - want_least)
    # one registry representative: a single translation for every module
    assert len(offsets) == 1
