"""The class table of ``decompose``: its count against the split-and-match
reference, the dimension identity, the read-off of A(0), a split of
A(0) alone and the gate.

Each algebra counts summands by the composition pairing against one
class table; only the split of A(0) draws random numbers.  The reference
(``reference_algorithms.SplitAndMatch``) splits every module instead, so
the two share no counting code; their classes are compared through
``indec_iso`` on the representatives.  The pairing's rank, read from
the module's component at -g, is checked against the rank over bases of
the two hom spaces (``reference_algorithms.pairing_rank_by_hom_spaces``).
"""

import importlib
import random

import pytest

from gradedk import algebra as alg
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup, Subgroup
from gradedk.ktheory import k0
from gradedk.gmod import (
    SplitError,
    class_info,
    direct_sum,
    indec_iso,
    random_presentation,
    regular_module,
    summand_classes,
)

from reference_algorithms import SplitAndMatch, pairing_rank_by_hom_spaces

dec = importlib.import_module("gradedk.gmod.decompose")
endos = importlib.import_module("gradedk.gmod.endos")

FIELDS = [pytest.param(QQ, id="Q"), pytest.param(GF(2), id="F2"), pytest.param(GF(7), id="F7")]
M5_SHIFTS = [0, 1, 2, 2, 3]


def _random(A, shifts, seeds):
    return [random_presentation(A, shifts, random.Random(s)) for s in seeds]


def _split_corpus(F):
    """Regular modules of the split corpus and random presentations of
    rank 2-3 over finite-support algebras of every constructor."""
    M5 = alg.matrix_algebra(F, M5_SHIFTS)
    Z3 = GradingGroup(0, (3,))
    mods = [
        regular_module(alg.forget_grading(alg.matrix_algebra(F, [0, 0, 0]))),
        regular_module(M5),
        regular_module(M5.zero_part()),
        regular_module(alg.forget_grading(M5)),
        regular_module(alg.forget_grading(alg.group_algebra(F, GradingGroup(0, (2, 6))))),
    ]
    mods += _random(M5, [[0], [1], [3]], range(2))
    mods += _random(M5.positive_part(), [[0], [1], [2]], range(2))
    mods += _random(M5.zero_part(), [[], []], range(2))
    mods += _random(alg.forget_grading(alg.matrix_algebra(F, [0, 0, 1, 2])), [[], [], []], range(2))
    mods += _random(alg.regrade_mod(alg.matrix_algebra(F, [0, 1, 2]), 2), [[0], [1], [1]], range(2))
    mods += _random(alg.group_algebra(F, GradingGroup(0, (6,))), [[0], [2]], range(1))
    mods += _random(
        alg.tensor_product(alg.matrix_algebra(F, [[0], [1]], group=Z3), alg.group_algebra(F, Z3)),
        [[0], [1]],
        range(1),
    )
    mods += _random(alg.forget_grading(alg.matrix_algebra(F, [0, 1, 2, 3]).positive_part()), [[], []], range(1))
    return mods


def _swan_corpus(F):
    """The swan suite's algebras over F, two presentations each."""
    M2x = alg.polynomial_extension(alg.matrix_algebra(F, [0, 1]), [1, 0])
    Fx = alg.polynomial_extension(alg.matrix_algebra(F, [0]), [1])
    Bx = alg.polynomial_extension(alg.group_algebra(F, GradingGroup(0, (2,))), [1, 1])
    pp = alg.matrix_algebra(F, M5_SHIFTS).positive_part()
    return (
        _random(pp, [[0], [1], [2]], (10, 11))
        + _random(M2x, [[0, 0], [1, 1], [0, 1]], (0, 1))
        + _random(Fx, [[0], [-1], [2]], (0, 1))
        + _random(Bx, [[0, 0], [1, 1], [2, 0]], (0, 1))
    )


def _counted_modules(monkeypatch, modules):
    """Every module a class table counts while ``modules`` are decomposed:
    the finite-support ones themselves, and the zero-part presentations
    that ``_Induction`` builds for the others."""
    seen = []
    real = dec._FiniteRegistry.count

    def recording(self, P):
        seen.append(P)
        return real(self, P)

    with monkeypatch.context() as m:
        m.setattr(dec._FiniteRegistry, "count", recording)
        for P in modules:
            summand_classes(P)
    return seen


def _assert_same_summands(got, want):
    """Two lists of (indecomposable, multiplicity), one entry per
    isomorphism class, agree up to isomorphism."""
    assert len(got) == len(want)
    for X, m in got:
        hits = [n for Y, n in want if indec_iso(X, Y)]
        assert hits == [m]


@pytest.mark.parametrize("F", FIELDS)
def test_pairing_count_matches_split_and_match(monkeypatch, F):
    modules = _split_corpus(F) + _swan_corpus(F)
    counted = _counted_modules(monkeypatch, modules)
    assert len(counted) > len(_split_corpus(F))  # zero-part slices among them
    references = {}
    for P in counted:
        A = P.algebra
        got = [
            (class_info(A, blk).rep.shift(g), m) for (blk, g), m in summand_classes(P).items()
        ]
        ref = references.setdefault(id(A), SplitAndMatch(A))
        _assert_same_summands(got, ref.summands(P, random.Random(0)))
        # the dimension identity at every support degree
        for h in {d - s for d in A.support_degrees() for s in P.shifts}:
            assert sum(m * X.dim(h) for X, m in got) == P.dim(h)


def _nonfree_corpus(F):
    M5 = alg.matrix_algebra(F, M5_SHIFTS)
    return (
        _random(M5.positive_part(), [[0], [1], [2]], (3,))
        + _random(alg.forget_grading(alg.group_algebra(F, GradingGroup(0, (6,)))), [[], []], (3,))
        + _random(alg.polynomial_extension(M5.zero_part(), [1]), [[0], [1], [-1]], (3,))
    )


@pytest.mark.parametrize("F", FIELDS)
def test_counts_split_only_the_regular_module(monkeypatch, F):
    splits = []
    real = dec.split_projective

    def recording(P, rng):
        splits.append(P)
        return real(P, rng)

    monkeypatch.setattr(dec, "split_projective", recording)
    for P in _nonfree_corpus(F):
        assert summand_classes(P)
    # one split per algebra with a split table, each of its A(0)
    assert len(splits) == len({id(X.algebra) for X in splits}) == 3
    for X in splits:
        assert X.shifts == (X.algebra.group.zero,) and X.entries == [[X.algebra.one()]]


def _seeded_tables(F):
    """Algebras whose table is seeded: matrix algebras, regradings of them
    with all shifts mapped to one degree, and group algebras."""
    G = GradingGroup(1, (2,))
    out = [alg.matrix_algebra(F, sh) for sh in (M5_SHIFTS, [2, -1, 5])]
    MG = alg.matrix_algebra(F, [G.degree(v) for v in ([0, 0], [1, 1], [0, 1])])
    out.append(MG)
    out += [
        alg.forget_grading(alg.matrix_algebra(F, M5_SHIFTS)),
        alg.forget_grading(alg.forget_grading(alg.matrix_algebra(F, [0, 1, 2]))),
        alg.regrade_mod(alg.matrix_algebra(F, [0, 2, 4]), 2),
        alg.forget_grading(MG),
    ]
    out += [alg.group_algebra(F, H) for H in (GradingGroup(0, (6,)), G)]
    return out


def _seeded(table) -> bool:
    """Whether a class table was read off a constructor's seed, not split."""
    return all(info.signature[0] != "profile" for info in table.classes)


@pytest.mark.parametrize("F", FIELDS)
def test_seeded_read_off_of_the_regular_module_agrees_with_the_pairing(F):
    for A in _seeded_tables(F):
        table = dec._registry(A)
        assert _seeded(table), A.describe()
        R = regular_module(A)
        paired = {}
        for blk, info in enumerate(table.classes):
            for g in table._shifts(info, R):
                m = table._rank(info, g, R) // info.division_dim
                if m:
                    paired[(blk, g)] = m
        assert summand_classes(R) == paired, A.describe()


def _pairing_corpus(F):
    """Random presentations over the split and swan corpora and over the
    seeded tables, among them group algebras, whose class is its own
    shift by every degree."""
    seeded = []
    for i, A in enumerate(_seeded_tables(F)):
        g = (A.group.generators() or [A.group.zero])[0]
        seeded += _random(A, [A.group.zero, g, g + g], (i, i + 7))
    return _split_corpus(F) + _swan_corpus(F) + seeded


@pytest.mark.parametrize("F", FIELDS)
def test_rank_is_the_pairing_of_the_hom_spaces(monkeypatch, F):
    # the component at -g against mu gives the rank that bases of the two
    # hom spaces and their composites give, for every class and every
    # candidate shift of every counted module
    kinds, nonzero = set(), 0
    for P in _counted_modules(monkeypatch, _pairing_corpus(F)):
        table = dec._registry(P.algebra)
        for info in table.classes:
            for g in table._shifts(info, P):
                got = table._rank(info, g, P)
                assert got == pairing_rank_by_hom_spaces(table, info, g, P)
                nonzero += bool(got)
            if info.stabilizer != Subgroup.trivial(P.algebra.group):
                kinds.add("stabilizer")
        A = P.algebra
        if _seeded(table):
            kinds.add("seeded")
        elif isinstance(A, alg.RegradedAlgebra) and not A.group.is_trivial():
            kinds.add("regrade_mod")
        else:
            kinds.add("split")
    assert kinds == {"seeded", "split", "regrade_mod", "stabilizer"} and nonzero > 100


@pytest.mark.parametrize("F", FIELDS)
def test_counting_builds_no_hom_space(monkeypatch, F):
    # non-free modules are paired, and the pairing builds no hom space
    calls = {"hom_basis": 0, "_rank": 0}
    real_hom, real_rank = dec.hom_basis, dec._FiniteRegistry._rank

    def hom(X, Y):
        calls["hom_basis"] += 1
        return real_hom(X, Y)

    def rank(self, info, g, P):
        calls["_rank"] += 1
        return real_rank(self, info, g, P)

    monkeypatch.setattr(dec, "hom_basis", hom)
    monkeypatch.setattr(endos, "hom_basis", hom)
    monkeypatch.setattr(dec._FiniteRegistry, "_rank", rank)
    M5 = alg.matrix_algebra(F, M5_SHIFTS)
    for P in _nonfree_corpus(F) + _random(M5, [[0], [1], [3]], (4,)):
        assert summand_classes(P)
    assert calls["hom_basis"] == 0 and calls["_rank"] > 0


@pytest.mark.parametrize(
    "F,n", [pytest.param(GF(2), 12, id="F2"), pytest.param(GF(7), 14, id="F7"),
            pytest.param(QQ, 14, id="Q")]
)
def test_forgotten_matrix_algebra_is_read_off_the_matrix_seed(monkeypatch, F, n):
    # forget(M_n) is M_n(F) again (graded Morita): one class, e11 A, and
    # A(0) its n columns, with no split of A(0), also where p divides n
    def refuse(P, rng):
        raise AssertionError("split of A(0)")

    monkeypatch.setattr(dec, "split_projective", refuse)
    res = k0(alg.forget_grading(alg.matrix_algebra(F, list(range(n)))))
    assert res.module.to_json()["description"] == "Z^1"
    assert res.regular_class == {("P0", ()): n}


@pytest.mark.parametrize("F", FIELDS)
def test_unequal_mapped_shifts_split_the_regular_module_once(monkeypatch, F):
    # regrade_mod(M2(0,1), 2) maps its shifts to 0 and 1 mod 2: the split
    # of A(0) chooses the column that represents the class, once
    splits = []
    real = dec.split_projective

    def recording(P, rng):
        splits.append(P)
        return real(P, rng)

    monkeypatch.setattr(dec, "split_projective", recording)
    A = alg.regrade_mod(alg.matrix_algebra(F, [0, 1]), 2)
    assert A.matrix_seed() is None
    for P in [regular_module(A)] + _random(A, [[0], [1]], range(3)):
        assert summand_classes(P)
    assert len(splits) == 1 and splits[0].entries == [[A.one()]]
    assert not _seeded(dec._registry(A))


def test_match_finds_a_shifted_class():
    # X pairs nonzero with its own class at one shift (mod the stabilizer),
    # so match returns that class and shift and registers nothing
    A = alg.matrix_algebra(QQ, M5_SHIFTS).positive_part()
    table = dec._registry(A)
    n = len(table.classes)
    info = table.classes[-1]
    X = info.rep.shift(A.deg([1]))
    key = table.match(X, set(), info.weights, info.division_dim)
    assert key == (n - 1, A.deg([1])) and len(table.classes) == n


def _gate_cases():
    M5 = lambda: alg.matrix_algebra(QQ, M5_SHIFTS)  # noqa: E731
    return [
        pytest.param(M5, [[0], [1], [3]], id="seeded"),
        pytest.param(lambda: M5().positive_part(), [[0], [1], [2]], id="split"),
    ]


@pytest.mark.parametrize("build,shifts", _gate_cases())
@pytest.mark.parametrize("patch", ["weights", "division_dim"])
def test_dimension_identity_gate_refuses_a_wrong_class(build, shifts, patch):
    # a zero functional finds no summand, and dim D = 2 halves every
    # multiplicity of P + P; either way the pairing ranks are whole
    # multiples, and only the dimension identity sees the fault
    A = build()
    R = random_presentation(A, shifts, random.Random(5))
    P = direct_sum(R, R)
    assert summand_classes(P)
    Q = direct_sum(R, R)
    for info in dec._registry(A).classes:
        if patch == "weights":
            info.weights = [A.field.zero] * len(info.weights)
        else:
            info.division_dim = 2
    with pytest.raises(SplitError, match="class count: the summands have dimension"):
        summand_classes(Q)
