"""Radical computation and exact idempotent splitting on known algebras.

The endomorphism algebras here are realized through regular modules over
trivially graded constructor algebras, so the expected radicals and
splitting patterns are classical facts (group algebras in defining
characteristic, triangular matrix algebras, full matrix algebras over Q
and over prime fields, cyclotomic commutative algebras).
"""

import importlib
import importlib.util
import random
import sys
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from sympy import divisors, n_order, totient

from gradedk import _kernel, algebra as alg, gmod, ktheory as kt
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup
from gradedk.gmod import (
    EndAlgebra,
    endos,
    free_module,
    random_presentation,
    regular_module,
    split_projective,
    summand_classes,
)
from gradedk.gmod.endos import (
    FDAlgebra,
    SplitError,
    _charpoly_modp,
    _rat_recon,
    _split_block_modp,
    factor_irreducible,
    primitive_idempotents,
    radical_basis,
)
from gradedk.gmod.presentations import (
    GradedMap,
    ProjectivePresentation,
    entries_are_zero,
    entries_to_vec,
    identity_entries,
    raw_positions,
    vec_to_entries,
)

from entry_products import entries_eq, entries_matmul, hom_entries
from reference_algorithms import (
    left_mult_by_items,
    mul_labels,
    orthogonality_by_products,
    trace_form_by_items,
)

# the package exports the function decompose under the submodule's name
dec = importlib.import_module("gradedk.gmod.decompose")


def _load_workloads():
    # the benchmark's K0 ranks of abelian group algebras, from number theory
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _end_of_regular(A):
    return EndAlgebra(regular_module(A)).fd


def _forget(A):
    return alg.forget_grading(A)


CASES_RADICAL = [
    # (algebra builder, expected radical dimension)
    (lambda: _forget(alg.group_algebra(GF(2), GradingGroup(0, (2,)))), 1),
    (lambda: _forget(alg.group_algebra(GF(2), GradingGroup(0, (2, 2)))), 3),
    (lambda: _forget(alg.group_algebra(GF(3), GradingGroup(0, (3,)))), 2),
    (lambda: _forget(alg.group_algebra(GF(3), GradingGroup(0, (2,)))), 0),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 0])), 0),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 1]).positive_part()), 1),
    (lambda: _forget(alg.matrix_algebra(QQ, [0, 1]).positive_part()), 1),
    (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (4,)))), 0),
]

CASES_RADICAL_CHAR_P = [
    # (algebra builder, expected radical dimension)
    # M_n(F2) is simple; for even n its regular trace form vanishes, so the
    # characteristic-p chain has to go past level 0
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 0, 0])), 0),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 0, 0, 0])), 0),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0] * 6)), 0),
    # upper triangular 3 x 3 matrices: the strictly upper part
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 1, 2]).positive_part()), 3),
    (lambda: _forget(alg.matrix_algebra(GF(3), [0, 1, 2]).positive_part()), 3),
]


@pytest.mark.parametrize("build,expected", CASES_RADICAL)
def test_radical_dimensions(build, expected):
    fd = _end_of_regular(build())
    assert len(radical_basis(fd)) == expected


@pytest.mark.parametrize("build,expected", CASES_RADICAL_CHAR_P)
def test_radical_dimensions_char_p(build, expected):
    fd = _end_of_regular(build())
    assert len(radical_basis(fd)) == expected


@pytest.mark.parametrize("build,expected", CASES_RADICAL_CHAR_P)
def test_left_multiplication_matches_structure_constant_sums(build, expected, monkeypatch):
    # every L_u the radical chain takes from Bilinear.left (none when the
    # trace form is nondegenerate), and L_u for the unit vectors and a few
    # random u, equal L_u summed over every structure constant
    fd = _end_of_regular(build())
    p, n = fd.field.char, fd.dim
    seen = []
    left = _kernel.Bilinear.left

    def recording_left(table, u, m):
        L = left(table, u, m)
        seen.append((table, list(u), m, L))
        return L

    monkeypatch.setattr(_kernel.Bilinear, "left", recording_left)
    assert len(radical_basis(fd)) == expected
    rng = random.Random(n)
    us = [[int(i == b) for i in range(n)] for b in range(n)]
    us += [[rng.randrange(p) for _ in range(n)] for _ in range(3)]
    seen += [(fd.table, u, n, left(fd.table, u, n)) for u in us]
    for table, u, m, L in seen:
        assert table is fd.table and m == n
        assert L == left_mult_by_items(table, u, n, p)


TRACE_FORM_CASES = [build for build, _expected in CASES_RADICAL_CHAR_P] + [
    lambda: _forget(alg.matrix_algebra(QQ, [0, 1, 2]).positive_part()),
]


@pytest.mark.parametrize("build", TRACE_FORM_CASES)
def test_trace_form_reads_the_left_traces(build):
    # the trace form equals the one summed over every structure constant,
    # and left_trace is the diagonal of left on unit and random vectors
    fd = _end_of_regular(build())
    F, n = fd.field, fd.dim
    assert endos._trace_form(fd) == trace_form_by_items(fd)
    rng = random.Random(n)
    us = [endos._unit_vec(fd, b) for b in range(n)]
    us += [[F.of_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(3)]
    if not F.char:
        us.append([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)])
    for u in us:
        L = fd.table.left(u, n)
        diagonal = F.zero
        for i in range(n):
            diagonal = F.add(diagonal, L[i][i])
        assert fd.table.left_trace(u) == diagonal


def _p_regular_order(moduli, p):
    """|G_p'|, the number of elements of order prime to p, for
    G = Z/m_1 x ... x Z/m_k: the product of the p'-parts of the m_i."""
    out = 1
    for m in moduli:
        while m % p == 0:
            m //= p
        out *= m
    return out


@pytest.mark.parametrize(
    "p,moduli",
    [(2, (8,)), (2, (2, 4)), (2, (12,)), (3, (9,)), (3, (6,)), (5, (10,))],
)
def test_radical_of_modular_abelian_group_algebra(p, moduli):
    # F_p[G] = F_p[G_p'] (x) F_p[G_p] with the first factor semisimple and
    # the second local, so dim rad F_p[G] = |G| - |G_p'|
    order = prod(moduli)
    fd = _end_of_regular(_forget(alg.group_algebra(GF(p), GradingGroup(0, moduli))))
    assert fd.dim == order
    assert len(radical_basis(fd)) == order - _p_regular_order(moduli, p)


def _truncated_polynomials(p, k):
    """F_p[x]/(x^k) on the basis 1, x, ..., x^(k-1), by its products."""
    products = {
        (i, j): [int(t == i + j) for t in range(k)]
        for i in range(k)
        for j in range(k)
        if i + j < k
    }
    return FDAlgebra.from_products(GF(p), products, [1] + [0] * (k - 1))


def _group_end(p, moduli):
    return _end_of_regular(_forget(alg.group_algebra(GF(p), GradingGroup(0, moduli))))


# (algebra builder, radical dimension): commutative algebras over GF(p)
# with p <= dim and a trace form that leaves a nonzero null space
COMMUTATIVE_MODULAR = [
    (lambda: _group_end(2, (16,)), 15),
    (lambda: _group_end(2, (2, 4)), 7),
    (lambda: _group_end(5, (10,)), 8),
    # dim 9 = 3^2: x^(p^k) with p^k = dim exactly
    (lambda: _group_end(3, (9,)), 8),
    (lambda: _truncated_polynomials(2, 5), 4),
    (lambda: _truncated_polynomials(3, 4), 3),
    (lambda: _truncated_polynomials(5, 10), 9),
]


@pytest.mark.parametrize("build,expected", COMMUTATIVE_MODULAR)
def test_frobenius_kernel_spans_the_radical_chain(build, expected):
    # on a commutative algebra the kernel of x -> x^(p^k) and the chain of
    # ideals, called directly from the trace form's null space, span one
    # space: the nilpotent elements
    fd = build()
    p = fd.field.char
    assert fd.is_commutative() and p <= fd.dim
    level0 = _kernel.nullspace(endos._trace_form(fd), p)
    assert level0
    chain = endos._radical_chain(fd, level0)
    frobenius = endos._frobenius_kernel(fd)
    assert len(frobenius) == len(chain) == expected
    span = _kernel.EchelonBasis(chain, p)
    assert all(span.contains(v) for v in frobenius)
    got = radical_basis(fd)
    assert _kernel.EchelonBasis(got, p).pivots == span.pivots
    assert all(span.contains(v) for v in got)


def _radical_calls(fd, monkeypatch):
    """(charpoly calls, _verify_radical calls) of one radical_basis(fd)."""
    calls = {"charpoly": 0, "verify": 0}
    charpoly, verify = endos._charpoly_modp, endos._verify_radical

    def counting_charpoly(M, p):
        calls["charpoly"] += 1
        return charpoly(M, p)

    def counting_verify(fd, J):
        calls["verify"] += 1
        return verify(fd, J)

    monkeypatch.setattr(endos, "_charpoly_modp", counting_charpoly)
    monkeypatch.setattr(endos, "_verify_radical", counting_verify)
    radical_basis(fd)
    return calls["charpoly"], calls["verify"]


def test_radical_path_is_chosen_by_commutativity(monkeypatch):
    # F2[Z4] is commutative and its trace form vanishes (tr L_1 = 4 = 0):
    # the radical is a Frobenius kernel, with no characteristic
    # polynomial; M4(F2) is not commutative and keeps the chain.  Both
    # answers still pass the radical's self-check.
    commutative = _group_end(2, (4,))
    assert not any(any(row) for row in endos._trace_form(commutative))
    assert _radical_calls(commutative, monkeypatch) == (0, 1)
    assert commutative.is_commutative()
    matrices = _end_of_regular(_forget(alg.matrix_algebra(GF(2), [0] * 4)))
    assert not matrices.is_commutative()
    charpolys, verifies = _radical_calls(matrices, monkeypatch)
    assert charpolys > 0 and verifies == 1


def test_commutativity_is_a_full_centre():
    # the table equals its transpose exactly when the centre is everything
    for F in (QQ, GF(2), GF(3)):
        for build in _split_corpus(F):
            fd = EndAlgebra(build()).fd
            assert fd.is_commutative() == (len(fd.center_basis()) == fd.dim)
    assert _truncated_polynomials(2, 3).is_commutative()
    # b_0 b_1 = b_1 and b_1 b_0 = 0: the upper triangular 2 x 2 matrices
    upper = FDAlgebra.from_products(
        GF(2), {(0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 2): [0, 1, 0], (2, 2): [0, 0, 1]},
        [1, 0, 1],
    )
    assert not upper.is_commutative()


def test_commutative_split_reads_no_commutator_system(monkeypatch):
    # a commutative algebra is its own centre: its unit vectors, which is
    # what the commutator system's null space gives, and the split never
    # builds that system
    # semisimple: p does not divide |G|
    algebras = [_group_end(p, m) for p, m in ((5, (2, 3)), (7, (6,)), (2, (3, 3)))]
    algebras.append(_end_of_regular(_forget(alg.group_algebra(QQ, GradingGroup(0, (6,))))))
    for fd in algebras:
        units = [endos._unit_vec(fd, i) for i in range(fd.dim)]
        assert fd.center_basis() == units
        want = endos._split_commutative(fd, units, random.Random(0))

        def refuse(self):
            raise AssertionError("commutator system built")

        with monkeypatch.context() as m:
            m.setattr(FDAlgebra, "center_basis", refuse)
            got = endos.split_semisimple(fd, random.Random(0))
        assert [v for v, _blk in got] == [z for z, _d in want]


@pytest.mark.parametrize("p", [2, 3, 7])
def test_charpoly_modp_matches_sympy(p):
    import sympy

    rng = random.Random(p)
    for n in range(1, 13):
        for density in (1.0, 0.3):
            M = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)
            ]
            coeffs = sympy.Matrix(M).charpoly().all_coeffs()
            assert _charpoly_modp(M, p) == [int(c) % p for c in reversed(coeffs)]


# -- the radical's self-check ---------------------------------------------------


def _unipotent_truncation(F, k):
    """F[u]/((u - 1)^k) in the basis 1, u, ..., u^(k-1): a local algebra
    whose radical is spanned by the u^i - 1.  Over GF(p) with k a power
    of p it is the group algebra F[Z_k]; over Q it is not a group algebra."""
    # u^k = -sum_{i<k} binom(k, i) (-1)^(k-i) u^i
    top = [F.neg(F.of_int(comb(k, i) * (-1) ** (k - i))) for i in range(k)]

    def power(m):
        vec = [F.zero] * (2 * k)
        vec[m] = F.one
        for d in range(2 * k - 1, k - 1, -1):
            c = vec[d]
            if c:
                vec[d] = F.zero
                for i, t in enumerate(top):
                    vec[d - k + i] = F.add(vec[d - k + i], F.mul(c, t))
        return vec[:k]

    products = {(i, j): power(i + j) for i in range(k) for j in range(k)}
    return FDAlgebra.from_products(F, products, power(0))


def _triangular3(F):
    # upper triangular 3 x 3 matrices: the radical is the strictly upper part
    return _end_of_regular(_forget(alg.matrix_algebra(F, [0, 1, 2]).positive_part()))


def _cyclic(F, n):
    return _end_of_regular(_forget(alg.group_algebra(F, GradingGroup(0, (n,)))))


def _ideal_sides(fd, J):
    """Whether the span of J is a left and whether it is a right ideal,
    from b J and J b for every basis vector b."""
    in_span = _kernel.EchelonBasis(J, fd.field.char).contains
    units = [endos._unit_vec(fd, b) for b in range(fd.dim)]
    return (
        all(in_span(fd.mul_vec(b, j)) for b in units for j in J),
        all(in_span(fd.mul_vec(j, b)) for b in units for j in J),
    )


def _radical_verdict_by_every_product(fd, J):
    """The message ``_verify_radical`` must raise for the span of J, or
    None: ``_ideal_sides``, then the powers of J by every product of two
    spanning vectors."""
    char = fd.field.char
    if _ideal_sides(fd, J) != (True, True):
        return "computed radical is not an ideal"
    power = J
    for _ in range(fd.dim + 1):
        nxt = [v for a in power for b in J if any(v := fd.mul_vec(a, b))]
        if not nxt:
            return None
        power = endos._echelon(nxt, char)
    return "computed radical is not nilpotent"


NOT_AN_IDEAL = "computed radical is not an ideal"
NOT_NILPOTENT = "computed radical is not nilpotent"

CASES_RADICAL_REFUSAL = [
    # (algebra, verdict without the first echelon row of J, without the
    # last one, and on J plus the unit); None accepts
    ("F2[Z4]", lambda: _cyclic(GF(2), 4), NOT_AN_IDEAL, NOT_AN_IDEAL, NOT_NILPOTENT),
    ("F2[Z16]", lambda: _cyclic(GF(2), 16), NOT_AN_IDEAL, NOT_AN_IDEAL, NOT_NILPOTENT),
    ("F7[Z7]", lambda: _cyclic(GF(7), 7), NOT_AN_IDEAL, NOT_AN_IDEAL, NOT_NILPOTENT),
    ("Q[u]/(u-1)^4", lambda: _unipotent_truncation(QQ, 4), NOT_AN_IDEAL, NOT_AN_IDEAL, NOT_NILPOTENT),
    ("GF7[u]/(u-1)^4", lambda: _unipotent_truncation(GF(7), 4), NOT_AN_IDEAL, NOT_AN_IDEAL, NOT_NILPOTENT),
    # the strictly upper part without its first echelon row is still an
    # ideal; J plus the unit is not one, as the algebra is not local
    ("T3(Q)", lambda: _triangular3(QQ), None, NOT_AN_IDEAL, NOT_AN_IDEAL),
    ("T3(F2)", lambda: _triangular3(GF(2)), None, NOT_AN_IDEAL, NOT_AN_IDEAL),
    ("T3(F7)", lambda: _triangular3(GF(7)), None, NOT_AN_IDEAL, NOT_AN_IDEAL),
]


@pytest.mark.parametrize(
    "build,first,last,plus_unit",
    [case[1:] for case in CASES_RADICAL_REFUSAL],
    ids=[case[0] for case in CASES_RADICAL_REFUSAL],
)
def test_verify_radical_refuses_mutated_radicals(build, first, last, plus_unit):
    # the checks through generators refuse what the checks by every
    # product refuse, with the same message
    fd = build()
    J = radical_basis(fd)  # runs _verify_radical on the true radical
    assert J and _radical_verdict_by_every_product(fd, J) is None
    for mutated, want in ((J[1:], first), (J[:-1], last), (J + [fd.unit], plus_unit)):
        assert _radical_verdict_by_every_product(fd, mutated) == want
        if want is None:
            endos._verify_radical(fd, mutated)
        else:
            with pytest.raises(SplitError, match=want):
                endos._verify_radical(fd, mutated)


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_verify_radical_refuses_one_sided_ideals(F):
    # in the strictly upper part of the 3 x 3 triangular matrices, one row
    # spans a left ideal that is not a right one, another the reverse;
    # each side of the check through generators refuses one of them
    fd = _triangular3(F)
    one_sided = {}
    for j in radical_basis(fd):
        sides = _ideal_sides(fd, [j])
        if sides in ((True, False), (False, True)):
            one_sided[sides] = j
            with pytest.raises(SplitError, match=NOT_AN_IDEAL):
                endos._verify_radical(fd, [j])
    assert len(one_sided) == 2


def _split_product(F):
    """F x F on its two idempotents e_1, e_2: commutative and semisimple."""
    products = {(0, 0): [F.one, F.zero], (1, 1): [F.zero, F.one]}
    return FDAlgebra.from_products(F, products, [F.one, F.one])


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_verify_radical_on_commutative_algebras_refuses_with_the_right_message(F, monkeypatch):
    # with x = u - 1, F[u]/(u-1)^3 is F[x]/(x^3): span{x} is nilpotent
    # but not an ideal (x x = x^2), and span{e_1} in F x F is an ideal
    # but not nilpotent.  The commutative path reads one side and squares
    # each vector: no power of J is eliminated, and the verdicts are
    # those of every product
    cubic = _unipotent_truncation(F, 3)
    x = [F.neg(F.one), F.one, F.zero]  # u - 1
    product = _split_product(F)
    cases = [(cubic, [x], NOT_AN_IDEAL), (product, [[F.one, F.zero]], NOT_NILPOTENT)]
    for fd, J, want in cases:
        assert fd.is_commutative()
        assert _radical_verdict_by_every_product(fd, J) == want

    def no_elimination(*_args):
        raise AssertionError("the commutative check eliminated a power of J")

    monkeypatch.setattr(_kernel, "rref", no_elimination)
    for fd, J, want in cases:
        with pytest.raises(SplitError, match=want):
            endos._verify_radical(fd, J)
    # and the true radical, span{x, x^2}, passes
    endos._verify_radical(cubic, [x, cubic.mul_vec(x, x)])


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_generators_generate(F):
    # the span of the unit closed under right products with T is the
    # whole algebra
    for fd in (_cyclic(F, 12), _triangular3(F), _end_of_regular(_forget(alg.matrix_algebra(F, [0] * 3)))):
        gens = endos._generators(fd)
        span = [fd.unit]
        while True:
            grown = endos._echelon(span + [fd.mul_vec(v, t) for v in span for t in gens], F.char)
            if len(grown) == len(span):
                break
            span = grown
        assert len(span) == fd.dim
        assert len(gens) < fd.dim


# -- the commutative split against number theory -------------------------------


def _cyclic_field_dims(n, p):
    """Dimensions of the fields of F[C_n], F = Q (p = 0) or F_p with p
    not dividing n: Q(zeta_d) of dimension phi(d) for each d | n; over
    F_p, phi(d) / ord_d(p) fields of dimension ord_d(p)."""
    if p == 0:
        return sorted(int(totient(d)) for d in divisors(n))
    out = []
    for d in divisors(n):
        k = n_order(p, d) if d > 1 else 1
        out += [k] * (int(totient(d)) // k)
    return sorted(out)


def _counting_factorizations(monkeypatch):
    calls = []
    factor = endos.factor_irreducible

    def counting(coeffs, field):
        calls.append(len(coeffs) - 1)
        return factor(coeffs, field)

    monkeypatch.setattr(endos, "factor_irreducible", counting)
    return calls


@pytest.mark.parametrize(
    "p,n", [(0, 12), (0, 15), (0, 16), (2, 15), (2, 9), (7, 12), (7, 15), (7, 16)]
)
def test_commutative_split_gives_the_cyclotomic_fields(monkeypatch, p, n):
    F = GF(p) if p else QQ
    fd = _cyclic(F, n)
    units = [endos._unit_vec(fd, i) for i in range(fd.dim)]
    calls = _counting_factorizations(monkeypatch)
    for seed in range(3):
        calls.clear()
        done = endos._split_commutative(fd, units, random.Random(seed))
        assert sorted(d for _z, d in done) == _cyclic_field_dims(n, p)
        endos._verify_complete_orthogonal(fd, [z for z, _d in done])
        # a candidate that generates a corner splits it into fields at
        # once: no field is factored again on its own
        assert len(calls) < len(done)


def test_commutative_split_without_a_generating_element():
    # F2[Z3 x Z3] = F2 x F4^4, and GF(2) has one irreducible quadratic, so
    # no element generates it and the split goes through the work list
    A = _forget(alg.group_algebra(GF(2), GradingGroup(0, (3, 3))))
    fd = _end_of_regular(A)
    units = [endos._unit_vec(fd, i) for i in range(fd.dim)]
    for seed in range(3):
        done = endos._split_commutative(fd, units, random.Random(seed))
        assert sorted(d for _z, d in done) == [1, 2, 2, 2, 2]
        endos._verify_complete_orthogonal(fd, [z for z, _d in done])
    assert kt.k0(A).module.total_rank() == 5 == WORKLOADS.group_algebra_k0_rank((3, 3), 2)


CASES_SPLIT = [
    # (algebra builder, number of summands, number of distinct blocks)
    (lambda: _forget(alg.group_algebra(GF(2), GradingGroup(0, (2,)))), 1, 1),
    (lambda: _forget(alg.group_algebra(GF(3), GradingGroup(0, (3,)))), 1, 1),
    (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (2,)))), 2, 2),
    (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (3,)))), 2, 2),
    (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (4,)))), 3, 3),
    (lambda: _forget(alg.matrix_algebra(QQ, [0, 0])), 2, 1),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 0])), 2, 1),
    (lambda: _forget(alg.matrix_algebra(GF(2), [0, 1]).positive_part()), 2, 2),
    (lambda: alg.matrix_algebra(QQ, [0, 1, 2, 2, 3]).zero_part(), 5, 4),
    (lambda: alg.matrix_algebra(GF(2), [0, 1, 2, 2, 3]).zero_part(), 5, 4),
    (lambda: alg.regrade_mod(alg.matrix_algebra(QQ, [0, 1]), 2), 2, 2),
]


@pytest.mark.parametrize("build,n_summands,n_blocks", CASES_SPLIT)
def test_split_regular_modules(build, n_summands, n_blocks):
    A = build()
    parts = split_projective(regular_module(A), random.Random(0))
    assert len(parts) == n_summands
    # block ids come from the central decomposition of End/rad
    end_blocks = {b for _p, b in parts}
    assert len(end_blocks) == n_blocks
    # dimension bookkeeping: summand dims add up to the module dims
    R = regular_module(A)
    for d in A.support_degrees():
        for s in R.shifts:
            h = d - s
            assert sum(p.dim(h) for p, _b in parts) == R.dim(h)


def test_split_is_seed_independent_here():
    A = alg.matrix_algebra(QQ, [0, 1, 2, 2, 3]).zero_part()
    a = split_projective(regular_module(A), random.Random(0))
    b = split_projective(regular_module(A), random.Random(99))
    assert [blk for _p, blk in a] == [blk for _p, blk in b]
    assert [p.entries for p, _b in a] == [p.entries for p, _b in b]


def test_primitive_idempotents_verified_exactly():
    A = alg.regrade_mod(alg.matrix_algebra(QQ, [0, 1]), 2)
    fd = _end_of_regular(A)
    idems = primitive_idempotents(fd, random.Random(1))
    total = [QQ.zero] * fd.dim
    for v, _b in idems:
        assert fd.mul_vec(v, v) == list(v)
        total = [a + b for a, b in zip(total, v)]
    assert total == list(fd.unit)


def test_rational_reconstruction():
    from fractions import Fraction

    M = 10007**8
    for fr in (Fraction(3, 7), Fraction(-22, 5), Fraction(0), Fraction(4)):
        s = (fr.numerator * pow(fr.denominator, -1, M)) % M
        assert _rat_recon(s, M) == fr


def test_factor_irreducible_fields():
    from fractions import Fraction

    # x^2 - 1 over Q
    fs = factor_irreducible([Fraction(-1), Fraction(0), Fraction(1)], QQ)
    assert sorted(tuple(f) for f, _m in fs) == [
        (Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(1)),
    ]
    # x^2 + 1 irreducible over Q, splits over F5
    fs_q = factor_irreducible([Fraction(1), Fraction(0), Fraction(1)], QQ)
    assert len(fs_q) == 1
    fs_5 = factor_irreducible([1, 0, 1], GF(5))
    assert len(fs_5) == 2
    # (x+1)^2 over F2 carries its multiplicity
    fs_2 = factor_irreducible([1, 0, 1], GF(2))
    assert fs_2 == [([1, 1], 2)]


# -- the polynomial layer against sympy Poly -----------------------------------


def _sympy_poly(coeffs, F):
    import sympy

    x = sympy.Symbol("x")
    if F.char:
        return sympy.Poly([int(c) % F.char for c in reversed(coeffs)], x, modulus=F.char)
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ"
    )


def _field_coeffs(poly, F):
    import sympy

    cl = reversed(poly.all_coeffs())
    if F.char:
        return [F.of_int(int(c)) for c in cl]
    return [Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q)) for c in cl]


def _factor_list_by_poly(coeffs, F):
    """``Poly.factor_list`` made monic: the reference factors, in the
    order that fixes idempotent order and block ids."""
    out = []
    for f, mult in _sympy_poly(coeffs, F).factor_list()[1]:
        fc = _field_coeffs(f, F)
        inv = F.inv(fc[-1])
        out.append(([F.mul(inv, c) for c in fc], mult))
    return out


def _crt_by_poly(fd, t, e, m, factors):
    """The CRT idempotents by sympy ``Poly`` division, inversion and
    remainder, each evaluated at t by products from e: the construction
    the package used before it computed them in the field's arithmetic,
    kept as a reference."""
    F = fd.field
    mp = _sympy_poly(m, F)
    out = []
    for f, mult in factors[:-1]:
        fm = _sympy_poly(f, F) ** mult
        h, rem = mp.div(fm)
        assert rem.is_zero
        crt = _field_coeffs((h.invert(fm) * h).rem(mp), F)
        value, power = [F.zero] * fd.dim, list(e)
        for k, c in enumerate(crt):
            if k:
                power = fd.mul_vec(power, t)
            value = [F.add(a, F.mul(c, b)) for a, b in zip(value, power)]
        out.append(value)
    last = list(e)
    for v in out:
        last = [F.sub(a, b) for a, b in zip(last, v)]
    return out + [last]


def _random_poly(F, rng):
    """A polynomial of degree 1 to 12 with nonzero leading coefficient:
    either random coefficients or a product of random factors, some
    repeated, so that multiplicities and the factor x occur."""
    def coeff():
        if F.char:
            return F.of_int(rng.randrange(F.char))
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def poly(deg):
        c = [coeff() for _ in range(deg)] + [F.zero]
        while not c[-1]:
            c[-1] = coeff()
        return c

    if rng.random() < 0.5:
        return poly(rng.randint(1, 12))
    out = [F.one]
    for _ in range(rng.randint(1, 3)):
        f = poly(rng.randint(1, 4))
        for _ in range(rng.randint(1, 2)):
            out = endos._poly_mul(out, f, F)
    return out


FACTOR_FIELDS = {"Q": QQ, "F2": GF(2), "F7": GF(7), "F11": GF(11)}


@pytest.mark.parametrize("F", FACTOR_FIELDS.values(), ids=FACTOR_FIELDS.keys())
def test_factor_irreducible_matches_poly_factor_list(F):
    # factors, multiplicities and their order are those of sympy's Poly
    inputs = []
    if F.char != 11:
        for n in range(1, 17):  # x^n - 1
            inputs.append([F.neg(F.one)] + [F.zero] * (n - 1) + [F.one])
    rng = random.Random(F.char)
    inputs += [_random_poly(F, rng) for _ in range(75)]
    # linear polynomials with a leading coefficient other than 1 (but
    # over GF(2))
    pairs = ((2, 3), (3, 0), (5, 1), (6, 4))
    inputs += [[F.of_int(c), F.of_int(a)] for a, c in pairs if F.of_int(a)]
    if not F.char:
        inputs += [[Fraction(1, 3), Fraction(-2, 5)], [Fraction(7), Fraction(1, 2)]]
    for coeffs in inputs:
        assert factor_irreducible(coeffs, F) == _factor_list_by_poly(coeffs, F), coeffs


def _mul_poly_at(fd, f, t, v):
    """f(t) v, by products."""
    F = fd.field
    out, power = [F.zero] * fd.dim, list(v)
    for k, c in enumerate(f):
        if k:
            power = fd.mul_vec(t, power)
        out = [F.add(a, F.mul(c, b)) for a, b in zip(out, power)]
    return out


def _check_crt(fd, t, e):
    """The CRT idempotents of t in the corner with unit e: complete and
    orthogonal there, each killed by its primary factor at t, and equal
    to the Poly construction.  Returns them, or None when m of t is a
    prime power."""
    F = fd.field
    m, powers = fd.minimal_polynomial(t, e)
    factors = factor_irreducible(m, F)
    if len(factors) < 2:
        return None
    idems = endos._crt_idempotents(F, m, powers, factors)
    assert idems == _crt_by_poly(fd, t, e, m, factors)
    total = [F.zero] * fd.dim
    for i, a in enumerate(idems):
        for j, b in enumerate(idems):
            assert fd.mul_vec(a, b) == (a if i == j else [F.zero] * fd.dim)
        total = [F.add(x, y) for x, y in zip(total, a)]
    assert total == list(e)
    for (f, mult), a in zip(factors, idems):
        fk = [F.one]
        for _ in range(mult):
            fk = endos._poly_mul(fk, f, F)
        assert not any(_mul_poly_at(fd, fk, t, a))
    return idems


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
@pytest.mark.parametrize("moduli", [(6,), (12,), (2, 6)], ids=["C6", "C12", "Z2xZ6"])
def test_crt_idempotents_match_the_poly_construction(F, moduli):
    fd = _end_of_regular(_forget(alg.group_algebra(F, GradingGroup(0, moduli))))
    rng = random.Random(len(moduli) + moduli[-1])
    hi = min(F.char - 1, 3) if F.char else 3
    checked = 0
    for _ in range(6):
        t = [F.of_int(rng.randint(0, hi)) for _ in range(fd.dim)]
        idems = _check_crt(fd, t, fd.unit)
        if idems is None:
            continue
        checked += 1
        # and in the corner of the first idempotent, with it as the unit
        e = idems[0]
        s = fd.mul_vec(e, [F.of_int(rng.randint(0, hi)) for _ in range(fd.dim)])
        _check_crt(fd, s, e)
    assert checked


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_minimal_polynomial_kills_t_and_its_powers_are_independent(F):
    # m(t) e = 0, computed from the powers m was read from, and no lower
    # degree works: the powers e, t, ..., t^(deg m - 1) are independent;
    # in the whole algebra and in the corner of a CRT idempotent
    rng = random.Random(F.char + 31)
    hi = min(F.char - 1, 3) if F.char else 3
    checked = 0
    for n in range(2, 9):
        fd = _cyclic(F, n)
        t = [F.of_int(rng.randint(0, hi)) for _ in range(fd.dim)]
        cases = [(endos._unit_vec(fd, 1), fd.unit), (t, fd.unit)]
        m, powers = fd.minimal_polynomial(t, fd.unit)
        factors = factor_irreducible(m, F)
        if len(factors) >= 2:
            e = endos._crt_idempotents(F, m, powers, factors)[0]
            cases.append((fd.mul_vec(e, t), e))
        for x, e in cases:
            m, powers = fd.minimal_polynomial(x, e)
            assert m[-1] == F.one and len(m) == len(powers) + 1
            assert powers[0] == list(e)
            assert _kernel.rank(powers, F.char) == len(powers)
            top = fd.mul_vec(powers[-1], x)
            value = [F.mul(m[-1], a) for a in top]
            for c, p in zip(m, powers):
                value = [F.add(a, F.mul(c, b)) for a, b in zip(value, p)]
            assert not any(value)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_crt_idempotents_refuse_bad_factors(F):
    # F[u]/((u - 1)^2): u has minimal polynomial (x - 1)^2
    fd = _unipotent_truncation(F, 2)
    u = [F.zero, F.one]
    m, powers = fd.minimal_polynomial(u, fd.unit)
    x_minus_1 = [F.neg(F.one), F.one]
    assert factor_irreducible(m, F) == [(x_minus_1, 2)]
    with pytest.raises(SplitError, match="primary factor does not divide the minimal polynomial"):
        endos._crt_idempotents(F, m, powers, [([F.zero, F.one], 1), (x_minus_1, 1)])
    with pytest.raises(SplitError, match="primary components are not coprime"):
        endos._crt_idempotents(F, m, powers, [(x_minus_1, 1), (x_minus_1, 1)])


@pytest.mark.parametrize("F", [QQ, GF(7)], ids=["Q", "F7"])
def test_crt_idempotents_take_no_products(monkeypatch, F):
    # the idempotents are combinations of the powers the minimal
    # polynomial was read from, which are the products t^k
    fd = _cyclic(F, 12)
    products = []
    mul_vec = FDAlgebra.mul_vec

    def counting(self, x, y):
        products.append(1)
        return mul_vec(self, x, y)

    monkeypatch.setattr(FDAlgebra, "mul_vec", counting)
    crt = endos._crt_idempotents
    crt_products = []

    def counted_crt(*args):
        before = len(products)
        out = crt(*args)
        crt_products.append(len(products) - before)
        return out

    monkeypatch.setattr(endos, "_crt_idempotents", counted_crt)
    t = endos._unit_vec(fd, 1)
    products.clear()
    m, powers = fd.minimal_polynomial(t, fd.unit)
    assert len(products) == len(m) - 1 == len(powers) == 12
    assert powers[0] == list(fd.unit)
    for a, b in zip(powers, powers[1:]):
        assert b == mul_vec(fd, a, t)
    units = [endos._unit_vec(fd, i) for i in range(fd.dim)]
    for seed in range(3):
        endos._split_commutative(fd, units, random.Random(seed))
    assert crt_products and not any(crt_products)


def test_local_algebra_is_not_split():
    # F2[C2] is local: its regular module must stay in one piece
    A = _forget(alg.group_algebra(GF(2), GradingGroup(0, (2,))))
    parts = split_projective(regular_module(A), random.Random(2))
    assert len(parts) == 1
    end = EndAlgebra(parts[0][0])
    assert len(radical_basis(end.fd)) == 1


def test_coords_of_refuses_non_endomorphisms():
    # End(P)_0 = e A e for the summand P = eA of M_2(Q); the unit of A is
    # not in it, so its coordinates do not exist
    A = _forget(alg.matrix_algebra(QQ, [0, 0]))
    parts = split_projective(regular_module(A), random.Random(0))
    P = parts[0][0]
    end = EndAlgebra(P)
    assert end.dim == 1
    assert end.coords_of(P.entries) == end.fd.unit
    with pytest.raises(SplitError):
        end.coords_of([[A.one()]])


def test_coords_of_refuses_entries_of_the_wrong_degree():
    # End(F)_0 of F = A(0) + A(1) needs degree s_0 - s_1 = -1 at (0, 1);
    # an element of degree +1 there is not a map of degree 0
    A = alg.matrix_algebra(QQ, [0, 1, 2])
    end = EndAlgebra(free_module(A, [[0], [1]]))
    one = A.one()
    up = A.basis_element(A.deg([1]), 0)
    assert end.coords_of([[one, None], [None, one]]) == end.fd.unit
    with pytest.raises(SplitError, match="expected"):
        end.coords_of([[one, up], [None, one]])
    # over the positive part A_(-1) is zero, so nothing may stand at (0, 1)
    B = A.positive_part()
    end = EndAlgebra(free_module(B, [[0], [1]]))
    with pytest.raises(SplitError, match="zero component"):
        end.coords_of([[B.one(), B.basis_element(B.deg([1]), 0)], [None, B.one()]])
    # the guard is in presentations.entries_to_vec; endos re-exports its class
    assert SplitError is gmod.SplitError is gmod.presentations.SplitError


def _assert_central(fd, zvecs):
    for z in zvecs:
        for i in range(fd.dim):
            b = [fd.field.zero] * fd.dim
            b[i] = fd.field.one
            assert fd.mul_vec(z, b) == fd.mul_vec(b, z)


@pytest.mark.parametrize("field", [QQ, GF(2)])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_center_of_commutative_group_algebra_is_everything(field, n):
    fd = _end_of_regular(_forget(alg.group_algebra(field, GradingGroup(0, (n,)))))
    zvecs = fd.center_basis()
    assert fd.dim == n
    assert len(zvecs) == n
    _assert_central(fd, zvecs)


@pytest.mark.parametrize("field", [QQ, GF(2)])
def test_center_of_full_matrix_algebra_is_the_field(field):
    fd = _end_of_regular(_forget(alg.matrix_algebra(field, [0, 1, 2, 2, 3])))
    zvecs = fd.center_basis()
    assert fd.dim == 25
    assert len(zvecs) == 1
    _assert_central(fd, zvecs)


# -- the sparse structure-constant core against dense references -------------


def _naive_mul_coords(A, da, ca, db, cb):
    """sum over basis pairs of x_a y_b (b_a b_b), straight from the labels."""
    F = A.field
    index = {lbl: i for i, lbl in enumerate(A.component_basis(da + db))}
    out = [F.zero] * len(index)
    for ia, la in enumerate(A.component_basis(da)):
        for ib, lb in enumerate(A.component_basis(db)):
            for lbl, c in mul_labels(A, da, la, db, lb):
                k = index[lbl]
                out[k] = F.add(out[k], F.mul(F.mul(ca[ia], cb[ib]), c))
    return out


def _rand_coords(rng, F, n):
    if F.char:
        return [rng.randrange(F.char) if rng.random() < 0.7 else 0 for _ in range(n)]
    return [
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7
        else Fraction(0)
        for _ in range(n)
    ]


MUL_COORDS_CASES = [
    # (algebra over a field, degree values to multiply pairwise)
    (
        lambda F: alg.tensor_product(
            alg.matrix_algebra(F, [0, 1]), alg.matrix_algebra(F, [0, 0, 1])
        ),
        [(-1,), (0,), (1,)],
    ),
    (
        lambda F: alg.polynomial_extension(alg.matrix_algebra(F, [0, 1]), [1]),
        [(0,), (1,), (2,)],
    ),
    (lambda F: alg.regrade_mod(alg.matrix_algebra(F, [0, 1, 2]), 2), [(0,), (1,)]),
    (lambda F: _forget(alg.matrix_algebra(F, [0, 1, 1])), [()]),
    # slices read their parent's tables, empty where a degree leaves the slice
    (lambda F: alg.matrix_algebra(F, [0, 1, 1, 2]).zero_part(), [()]),
    (lambda F: alg.matrix_algebra(F, [0, 1, 2]).positive_part(), [(-1,), (0,), (1,), (2,)]),
    (lambda F: alg.matrix_algebra(F, [0, 1]).identity_component(), [()]),
    (lambda F: alg.matrix_algebra(F, [0, 1]).trivial_extension(1), [(0, 0), (1, 0), (0, -1), (1, 1)]),
]


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("build,degrees", MUL_COORDS_CASES)
def test_mul_coords_matches_naive_sum(field, build, degrees):
    A = build(field)
    rng = random.Random(5)
    for va in degrees:
        for vb in degrees:
            da, db = A.deg(va), A.deg(vb)
            for _ in range(3):
                ca = _rand_coords(rng, field, A.component_dim(da))
                cb = _rand_coords(rng, field, A.component_dim(db))
                got = A.mul_coords(da, ca, db, cb)
                assert got == _naive_mul_coords(A, da, ca, db, cb)


def _m3_algebra():
    """M3(Q) on the matrix units E_rc, index 3r + c."""
    products = {}
    for i in range(9):
        for j in range(9):
            vec = [Fraction(0)] * 9
            if i % 3 == j // 3:
                vec[3 * (i // 3) + j % 3] = Fraction(1)
            products[(i, j)] = vec
    unit = [Fraction(int(i in (0, 4, 8))) for i in range(9)]
    return FDAlgebra.from_products(QQ, products, unit)


def _m3_mul(a, b):
    return [
        sum((a[3 * r + t] * b[3 * t + c] for t in range(3)), Fraction(0))
        for r in range(3)
        for c in range(3)
    ]


def _table_on_span(fd, spanning, unit):
    """The unital subalgebra of ``fd`` spanned by ``spanning``, with a
    table of its own in the reduced echelon basis of the span, and that
    basis: echelon rows, coordinates by ``EchelonBasis``, then
    ``FDAlgebra.from_products``.  The splitting code builds no such
    table; it is the reference its in-place results are held against."""
    char = fd.field.char
    basis = endos._echelon(spanning, char)
    span = _kernel.EchelonBasis(basis, char)
    products = {
        (i, j): span.coords(fd.mul_vec(x, y))
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    }
    unit_coords = span.coords(unit)
    assert unit_coords is not None
    assert all(v is not None for v in products.values())
    return FDAlgebra.from_products(fd.field, products, unit_coords), basis


def _dense_table(sub, basis):
    """Dense table[i][j][k] of the subalgebra, from naive matrix products."""
    cols = [[b[r] for b in basis] for r in range(9)]
    table = []
    for x in basis:
        row = []
        for y in basis:
            sol = _kernel.solve(cols, [[v] for v in _m3_mul(x, y)], 0)
            row.append([s[0] for s in sol])
        table.append(row)
    return table


def test_fractional_subalgebra_matches_dense_reference():
    # a conjugate of the upper triangular matrices: in the echelon basis
    # of its span, its structure constants are fractions
    g = [Fraction(x) for x in (2, 1, 0, 1, 3, 1, 0, 1, 5)]
    g_inv = [Fraction(x, 23) for x in (14, -5, 1, -5, 10, -2, 1, -2, 5)]
    assert _m3_mul(g, g_inv) == [Fraction(int(i in (0, 4, 8))) for i in range(9)]
    fd = _m3_algebra()
    spanning = [
        _m3_mul(_m3_mul(g, [Fraction(int(k == 3 * r + c)) for k in range(9)]), g_inv)
        for r in range(3)
        for c in range(r, 3)
    ]
    sub, basis = _table_on_span(fd, spanning, fd.unit)
    assert sub.dim == 6 and sub.table.den > 1
    table = _dense_table(sub, basis)
    d = sub.dim

    # mul_vec: the dense sum, and the product of the lifted matrices
    rng = random.Random(3)
    for _ in range(20):
        x = _rand_coords(rng, QQ, d)
        y = _rand_coords(rng, QQ, d)
        want = [
            sum(
                (x[i] * y[j] * table[i][j][k] for i in range(d) for j in range(d)),
                Fraction(0),
            )
            for k in range(d)
        ]
        assert sub.mul_vec(x, y) == want
        lift = lambda v: [
            sum((c * b[r] for c, b in zip(v, basis)), Fraction(0)) for r in range(9)
        ]
        assert lift(want) == _m3_mul(lift(x), lift(y))

    # centre: the dense commutator system
    rows = [
        [table[i][j][k] - table[j][i][k] for j in range(d)]
        for i in range(d)
        for k in range(d)
    ]
    assert sub.center_basis() == _kernel.nullspace(rows, 0)
    assert len(sub.center_basis()) == 1

    # radical: the dense trace form
    traces = [sum(table[k][r][r] for r in range(d)) for k in range(d)]
    form = [
        [sum(table[i][j][k] * traces[k] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    assert radical_basis(sub) == _kernel.nullspace(form, 0)
    assert len(radical_basis(sub)) == 3


# -- named search budgets ------------------------------------------------------


def _m2_f3_without_a_split_in_the_sweep():
    """M2(F3) on a basis whose elements and pairwise sums all have a
    minimal polynomial with a single irreducible factor, so only the
    random candidates can split it."""
    p = 3

    def mul(a, b):
        return [
            sum(a[2 * r + t] * b[2 * t + c] for t in range(2)) % p
            for r in range(2)
            for c in range(2)
        ]

    basis = [[0, 0, 1, 0], [0, 2, 0, 0], [0, 2, 1, 1], [1, 0, 0, 1]]
    span = _kernel.EchelonBasis(basis, p)
    products = {
        (i, j): span.coords(mul(x, y))
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    }
    return FDAlgebra.from_products(GF(p), products, span.coords([1, 0, 0, 1]))


def test_candidate_budget_is_named_when_exhausted(monkeypatch):
    fd = _m2_f3_without_a_split_in_the_sweep()
    assert len(_split_block_modp(fd, fd.unit, 1, random.Random(0))) == 2
    monkeypatch.setattr(endos, "_CANDIDATE_BUDGET", 0)
    with pytest.raises(SplitError, match="_CANDIDATE_BUDGET = 0"):
        _split_block_modp(fd, fd.unit, 1, random.Random(0))


@pytest.mark.parametrize(
    "budgets,message",
    [
        ({"_PRIME_BUDGET": 0}, "_PRIME_BUDGET = 0"),
        ({"_PRIME_BUDGET": 1, "_QADIC_EXPONENTS": ()}, r"_QADIC_EXPONENTS = \(\)"),
        ({"_NEWTON_STEPS": 0}, "_NEWTON_STEPS = 0"),
        # two lifted idempotents, each found alone: the second subset is one too many
        ({"_SUBSET_BUDGET": 1}, "_SUBSET_BUDGET = 1"),
    ],
)
def test_rational_block_budgets_are_named_when_exhausted(monkeypatch, budgets, message):
    # M2(Q) is one matrix block, split by the q-adic lift
    R = regular_module(_forget(alg.matrix_algebra(QQ, [0, 0])))
    for name, value in budgets.items():
        monkeypatch.setattr(endos, name, value)
    with pytest.raises(SplitError, match=message):
        split_projective(R, random.Random(0))


def test_radical_lift_budget_is_named_when_exhausted(monkeypatch):
    # F2[Z6] has a radical and two blocks, so one idempotent is lifted
    # through the radical by the same Newton iteration as the q-adic lift
    R = regular_module(_forget(alg.group_algebra(GF(2), GradingGroup(0, (6,)))))
    assert len(split_projective(R, random.Random(0))) == 2
    monkeypatch.setattr(endos, "_NEWTON_STEPS", 0)
    with pytest.raises(SplitError, match="_NEWTON_STEPS = 0"):
        split_projective(R, random.Random(0))


# -- corners, centres and quotients in the coordinates of the algebra --------------


@pytest.mark.parametrize(
    "build,n_parts,dims",
    [
        (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (12,)))), 6, {12}),
        # F2[Z12] has a radical: its quotient F2[Z3] is the second table
        (lambda: _forget(alg.group_algebra(GF(2), GradingGroup(0, (12,)))), 2, {12, 3}),
        # M_n(Q) is one block, whose table mod q has the dimension n^2 too
        (lambda: _forget(alg.matrix_algebra(QQ, [0] * 2)), 2, {4}),
        (lambda: _forget(alg.matrix_algebra(QQ, [0] * 5)), 5, {25}),
    ],
    ids=["Z12-Q", "Z12-F2", "M2", "M5"],
)
def test_split_builds_no_centre_or_corner_table(monkeypatch, build, n_parts, dims):
    # the centre and every corner are split in the coordinates of the
    # algebra that holds them, so every FDAlgebra built has the dimension
    # of End(P)_0, of its radical quotient or of a block table mod q
    built = []
    init = FDAlgebra.__init__

    def recording(self, field, table, unit):
        built.append(len(unit))
        init(self, field, table, unit)

    monkeypatch.setattr(FDAlgebra, "__init__", recording)
    assert len(split_projective(regular_module(build()), random.Random(0))) == n_parts
    assert set(built) == dims


def _centre_corpus():
    Z3 = GradingGroup(0, (3,))
    out = []
    for F in (QQ, GF(2), GF(7)):
        for n in (2, 3):
            out.append(lambda F=F, n=n: _forget(alg.matrix_algebra(F, [0] * n)))
        out.append(lambda F=F: alg.matrix_algebra(F, M5_SHIFTS).zero_part())
        out.append(
            lambda F=F: _forget(
                alg.tensor_product(
                    alg.matrix_algebra(F, [[0], [0], [1]], group=Z3),
                    alg.group_algebra(F, Z3),
                )
            )
        )
    return out


@pytest.mark.parametrize("build", _centre_corpus())
def test_centre_split_in_place_matches_the_centre_table(monkeypatch, build):
    # every non-commutative semisimple algebra the split meets, End(P)_0,
    # its radical quotient or a block table mod q, has its centre split
    # in place; the same split of the centre's own table, read back
    # through its basis, gives the same idempotents and field dimensions
    met = []
    split = endos.split_semisimple

    def recording(fd, rng):
        met.append(fd)
        return split(fd, rng)

    monkeypatch.setattr(endos, "split_semisimple", recording)
    split_projective(regular_module(build()), random.Random(0))
    noncommutative = [fd for fd in met if len(fd.center_basis()) < fd.dim]
    assert noncommutative
    for fd in noncommutative:
        F = fd.field
        zvecs = fd.center_basis()
        zalg, basis = _table_on_span(fd, zvecs, fd.unit)
        units = [endos._unit_vec(zalg, i) for i in range(zalg.dim)]
        for seed in range(3):
            got = endos._split_commutative(fd, zvecs, random.Random(seed))
            want = endos._split_commutative(zalg, units, random.Random(seed))
            assert got == [(endos._up(basis, z, F, fd.dim), d) for z, d in want]


def test_centre_not_closed_under_the_product_is_refused(monkeypatch):
    fd = _m3_algebra()
    assert len(endos.split_semisimple(fd, random.Random(0))) == 3
    unit = list(fd.unit)
    e00, e01, e10 = (endos._unit_vec(fd, i) for i in (0, 1, 3))
    # E_01 E_10 = E_00 leaves the span; the span of E_00 misses the unit
    for zvecs in ([unit, e01, e10], [e00]):
        monkeypatch.setattr(FDAlgebra, "center_basis", lambda self, z=zvecs: z)
        with pytest.raises(SplitError, match="centre is not a unital subalgebra"):
            endos.split_semisimple(fd, random.Random(0))


def _split_corpus(F):
    """The modules whose split is held byte-identical across changes to
    the centre: M2-M5, the graded M5, its zero part and forgotten
    grading, three group algebras and random positive_part(M5)
    presentations."""
    out = [
        (lambda n=n: regular_module(_forget(alg.matrix_algebra(F, [0] * n))))
        for n in range(2, 6)
    ]
    out.append(lambda: regular_module(alg.matrix_algebra(F, M5_SHIFTS)))
    out.append(lambda: regular_module(alg.matrix_algebra(F, M5_SHIFTS).zero_part()))
    out.append(lambda: regular_module(_forget(alg.matrix_algebra(F, M5_SHIFTS))))
    for moduli in ((12,), (6,), (2, 6)):
        out.append(
            lambda m=moduli: regular_module(
                _forget(alg.group_algebra(F, GradingGroup(0, m)))
            )
        )
    for s in range(4):
        out.append(
            lambda s=s: random_presentation(
                alg.matrix_algebra(F, M5_SHIFTS).positive_part(),
                [[0], [1], [2]],
                random.Random(s),
            )
        )
    return out


def _dense_centre(fd):
    """The echelon basis of the centre from the dense commutator system,
    (b_i b_j - b_j b_i)_k over j in row (i, k), eliminated in the field."""
    F = fd.field
    d = fd.dim
    units = [endos._unit_vec(fd, i) for i in range(d)]
    prods = [[fd.mul_vec(x, y) for y in units] for x in units]
    rows = [
        [F.sub(prods[i][j][k], prods[j][i][k]) for j in range(d)]
        for i in range(d)
        for k in range(d)
    ]
    return endos._echelon(_kernel.nullspace(rows, F.char), F.char)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_centre_spans_the_dense_commutator_null_space(monkeypatch, field):
    # every algebra whose semisimple part is split, End(P)_0, its radical
    # quotient or a block table mod q, has the centre of the dense system
    met = []
    split = endos.split_semisimple

    def recording(fd, rng):
        met.append(fd)
        return split(fd, rng)

    monkeypatch.setattr(endos, "split_semisimple", recording)
    for build in _split_corpus(field):
        split_projective(build(), random.Random(0))
    assert met
    for fd in met:
        zvecs = fd.center_basis()
        assert endos._echelon(zvecs, fd.field.char) == _dense_centre(fd)
    # the zero part of M5 is M1 x M1 x M2 x M1, with a centre of dimension 4
    assert 4 in {len(fd.center_basis()) for fd in met}


def _m2_scaled(s):
    """M2(Q) on the basis s E_11, E_12, E_21, E_22.  Its centre is spanned
    by the unit E_11 + E_22 = b_0 / s + b_3, which has the entry 1/s."""
    basis = [(0, 0, s), (0, 1, 1), (1, 0, 1), (1, 1, 1)]  # (row, column, scale)
    products = {}
    for i, (r1, c1, s1) in enumerate(basis):
        for j, (r2, c2, s2) in enumerate(basis):
            vec = [Fraction(0)] * 4
            if c1 == r2:
                k = 2 * r1 + c2
                vec[k] = Fraction(s1 * s2, basis[k][2])
            products[i, j] = vec
    unit = [Fraction(1, s), Fraction(0), Fraction(0), Fraction(1)]
    return FDAlgebra.from_products(QQ, products, unit)


@pytest.mark.parametrize("s", [2, 300])
def test_rational_centre_keeps_its_fractions(s):
    fd = _m2_scaled(s)
    centre = fd.center_basis()
    assert centre == [fd.unit]
    assert centre[0][0] == Fraction(1, s)


def _rational_block_corpus():
    Z3 = GradingGroup(0, (3,))
    out = [
        (lambda n=n: regular_module(_forget(alg.matrix_algebra(QQ, [0] * n))))
        for n in range(2, 6)
    ]
    out.append(lambda: regular_module(alg.matrix_algebra(QQ, M5_SHIFTS).zero_part()))
    out.append(
        lambda: free_module(
            _forget(alg.group_algebra(QQ, GradingGroup(0, (6,)))), [[], [], []]
        )
    )
    out.append(
        lambda: regular_module(
            _forget(
                alg.tensor_product(
                    alg.matrix_algebra(QQ, [[0], [0], [1]], group=Z3),
                    alg.group_algebra(QQ, Z3),
                )
            )
        )
    )
    return out


def _first_corner_prime(corner):
    """The first good prime of a rational corner table: above
    max(53, dim + 1), dividing no denominator of its table or unit."""
    import sympy

    dens = [corner.table.den] + [Fraction(c).denominator for c in corner.unit]
    q = int(sympy.nextprime(max(53, corner.dim + 2)))
    while any(d % q == 0 for d in dens):
        q = int(sympy.nextprime(q))
    return q


@pytest.mark.parametrize("build", _rational_block_corpus())
def test_block_table_mod_q_matches_the_rational_corner_table(monkeypatch, build):
    blocks = []
    split_block = endos._split_block_char0

    def recording(fd, z, rows, rng):
        blocks.append((fd, z, rows))
        return split_block(fd, z, rows, rng)

    monkeypatch.setattr(endos, "_split_block_char0", recording)
    split_projective(build(), random.Random(0))
    assert blocks
    for fd, z, rows in blocks:
        corner, basis = _table_on_span(fd, endos._corner_span(fd, z), z)
        assert rows == basis
        q = next(endos._primes_for(fd, z, rows))
        assert q == _first_corner_prime(corner)
        got = endos._block_table_modq(fd, rows, q)
        want = corner.table.reduce(q)
        assert got.out_dim == want.out_dim
        assert got.rows == want.rows


def test_block_table_mod_q_refuses_rows_not_closed_under_the_product():
    fd = _end_of_regular(_forget(alg.matrix_algebra(QQ, [0, 0])))
    units = [endos._unit_vec(fd, b) for b in range(fd.dim)]
    assert endos._block_table_modq(fd, units, 53).rows == fd.table.reduce(53).rows
    # the off-diagonal matrix units square to zero, but their two
    # products are the diagonal ones
    rows = [u for u in units if not any(fd.mul_vec(u, u))]
    assert len(rows) == 2
    with pytest.raises(SplitError, match="not closed"):
        endos._block_table_modq(fd, rows, 53)


def test_block_table_mod_q_refuses_a_leftover_on_a_free_entry_only():
    fd = _end_of_regular(_forget(alg.matrix_algebra(QQ, [0, 0])))
    e11, e12, e21, _e22 = (endos._unit_vec(fd, b) for b in range(fd.dim))
    assert fd.mul_vec(e12, e21) == e11
    # E_11 (E_12 + E_21) = E_12 lies on the pivots only, at the second
    # row's; read as that row it leaves -E_21, on the row's free entry
    rows = [e11, [a + b for a, b in zip(e12, e21)]]
    assert fd.mul_vec(rows[0], rows[0]) == rows[0]
    assert fd.mul_vec(rows[0], rows[1]) == e12
    with pytest.raises(SplitError, match="not closed"):
        endos._block_table_modq(fd, rows, 53)


# -- hom spaces: outer products against the two-product construction ------------


def _hom_basis_two_products(X, Y):
    """The hom space construction with two full entry-matrix products per
    column: e_Y E e_X for each raw matrix E with one basis element."""
    A = X.algebra
    F = A.field
    positions = raw_positions(A, Y.shifts, X.shifts)
    if not positions:
        return []
    cols = []
    for k in range(len(positions)):
        unit = [F.zero] * len(positions)
        unit[k] = F.one
        raw = vec_to_entries(A, unit, positions, Y.rank, X.rank)
        proj = entries_matmul(entries_matmul(Y.entries, raw), X.entries)
        cols.append(entries_to_vec(A, proj, positions))
    mat = [[cols[c][r] for c in range(len(cols))] for r in range(len(positions))]
    _red, pivots = _kernel.rref(mat, F.char)
    return [
        vec_to_entries(
            A, [mat[r][c] for r in range(len(positions))], positions, Y.rank, X.rank
        )
        for c in pivots
    ]


def _entry_keys(entries):
    return [
        [None if e is None else (e.degree, tuple(e.coords)) for e in row]
        for row in entries
    ]


HOM_CASES = [
    # (algebra builder, presentation shifts or None for the regular module,
    #  whether two of its summands have a zero hom space)
    (lambda: _forget(alg.matrix_algebra(QQ, [0, 0, 0])), None, False),
    (lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (6,)))), None, True),
    (lambda: alg.matrix_algebra(QQ, [0, 1, 2, 2, 3]).positive_part(), None, True),
    (lambda: alg.matrix_algebra(QQ, [0, 1, 2]).positive_part(), [[0], [1]], True),
    (lambda: _forget(alg.group_algebra(GF(5), GradingGroup(0, (4,)))), None, True),
    (lambda: _forget(alg.matrix_algebra(GF(5), [0, 1])), None, False),
    (lambda: alg.matrix_algebra(GF(5), [0, 1, 2]).positive_part(), None, True),
    (lambda: alg.matrix_algebra(GF(5), [0, 1, 2]).positive_part(), [[0], [2]], True),
]


@pytest.mark.parametrize("build,shifts,zero_hom", HOM_CASES)
def test_hom_basis_matches_two_product_construction(build, shifts, zero_hom):
    A = build()
    if shifts is None:
        P = regular_module(A)
    else:
        P = random_presentation(A, shifts, random.Random(7))
    summands = [X for X, _blk in split_projective(P, random.Random(0))]
    assert len(summands) >= 2
    pieces = summands + [P]
    if A.group.dim:
        pieces.append(summands[0].shift(A.group.degree([1])))
    for X in pieces:
        for Y in pieces:
            got = hom_entries(X, Y)
            want = _hom_basis_two_products(X, Y)
            assert [_entry_keys(e) for e in got] == [_entry_keys(e) for e in want]
    dims = [len(endos.hom_basis(X, Y)) for X in summands for Y in summands]
    assert (0 in dims) == zero_hom


def _indec_iso_by_graded_maps(X, Y):
    """The isomorphism test on component matrices: some composite v u of
    hom-space basis maps, an entry-matrix product, is an isomorphism in
    every degree of the support window."""
    window = dec.module_support_degrees(X)
    if window != dec.module_support_degrees(Y):
        return False
    return not window or any(
        GradedMap(X, X, entries_matmul(v, u)).is_iso_on(list(window))
        for u in hom_entries(X, Y)
        for v in hom_entries(Y, X)
    )


@pytest.mark.parametrize("build,shifts,zero_hom", HOM_CASES)
def test_indec_iso_matches_graded_map_oracle(build, shifts, zero_hom):
    A = build()
    if shifts is None:
        P = regular_module(A)
    else:
        P = random_presentation(A, shifts, random.Random(7))
    summands = [X for X, _blk in split_projective(P, random.Random(0))]
    if A.group.free_rank:
        summands += [X.shift(A.group.degree([k])) for X in summands for k in (1, -1)]
    verdicts = set()
    for X in summands:
        for Y in summands:
            got = dec.indec_iso(X, Y)
            assert got == _indec_iso_by_graded_maps(X, Y)
            verdicts.add(got)
    # every summand is isomorphic to itself; over a matrix algebra, with
    # no shifts, all of them are isomorphic to each other
    assert verdicts == ({True, False} if zero_hom or A.group.free_rank else {True})


class _TruncatedPolynomials(alg.GradedAlgebra):
    """F[x]/(x^n) graded by Z/2 with x of degree 1.  It is local and its
    degree-1 part is nilpotent, so A(1) is not A, though the two have the
    same dimensions, and x o x = x^2 is a nonzero non-unit composite."""

    def __init__(self, field, n):
        super().__init__(GradingGroup(0, (2,)), field)
        self.n = n

    def _component_basis(self, deg):
        return tuple(k for k in range(self.n) if k % 2 == deg.values[0])

    def _mul_labels(self, da, la, db, lb):
        if la + lb < self.n:
            yield la + lb, self.field.one

    def one_terms(self):
        return [(0, self.field.one)]

    def support_bounds(self):
        return ()

    def support_radius(self):
        return ()

    def describe(self):
        return f"{self.field.describe()}[x]/(x^{self.n})"


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)])
def test_indec_iso_refuses_a_nonzero_nilpotent_composite(F):
    A = _TruncatedPolynomials(F, 4)
    X = regular_module(A)
    Y = X.shift(A.group.degree([1]))
    assert dec.module_support_degrees(X) == dec.module_support_degrees(Y)
    assert any(
        not entries_are_zero(entries_matmul(v, u))
        for u in hom_entries(X, Y)
        for v in hom_entries(Y, X)
    )
    for P, Q, iso in ((X, Y, False), (Y, X, False), (X, X, True), (Y, Y, True)):
        assert dec.indec_iso(P, Q) == _indec_iso_by_graded_maps(P, Q) == iso


# -- End(F)_0 of a free module: the pair-tensor table against entry products ------


M5_SHIFTS = [0, 1, 2, 2, 3]


def _free_corpus():
    out = []
    for F in (QQ, GF(2)):
        for shifts in ([0] * 4, M5_SHIFTS, [0] * 7):
            out.append((lambda F=F, s=shifts: _forget(alg.matrix_algebra(F, s)), None))
        out.append((lambda F=F: alg.matrix_algebra(F, M5_SHIFTS).zero_part(), None))
    for F in (QQ, GF(2), GF(7)):
        for moduli in ((12,), (15,), (16,), (2, 6)):
            out.append((lambda F=F, m=moduli: _forget(alg.group_algebra(F, GradingGroup(0, m))), None))
    out.append((lambda: _forget(alg.group_algebra(QQ, GradingGroup(0, (6,)))), [[], [], []]))
    out.append((lambda: alg.matrix_algebra(QQ, M5_SHIFTS).positive_part(), [[0], [1], [1]]))
    for F in (QQ, GF(2), GF(7)):
        out.append((lambda F=F: alg.matrix_algebra(F, [0, 1, 2]), [[0], [2]]))
    return out


def _end_table_from_entry_products(X):
    """End(X)_0 the generic way: ``hom_basis``, entry-matrix products,
    and coordinates read through an echelon basis of the ``hom_basis``
    vectors.  For a free module that basis is the positions."""
    A = X.algebra
    F = A.field
    positions = raw_positions(A, X.shifts, X.shifts)
    basis = hom_entries(X, X)
    vecs = [entries_to_vec(A, e, positions) for e in basis]
    if X.entries == identity_entries(A, X.shifts):
        n = len(positions)
        assert vecs == [[F.one if r == c else F.zero for r in range(n)] for c in range(n)]
    span = _kernel.EchelonBasis(vecs, F.char)

    def coords(entries):
        sol = span.coords(entries_to_vec(A, entries, positions))
        assert sol is not None
        return sol

    products = {
        (i, j): coords(entries_matmul(x, y))
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    }
    return FDAlgebra.from_products(F, products, coords(X.entries))


@pytest.mark.parametrize("build,shifts", _free_corpus())
def test_free_end_table_matches_entry_products(build, shifts):
    A = build()
    X = regular_module(A) if shifts is None else free_module(A, shifts)
    got = EndAlgebra(X).fd
    want = _end_table_from_entry_products(X)
    assert got.dim == want.dim
    assert got.table.rows == want.table.rows
    assert got.table.den == want.table.den
    assert got.unit == want.unit


def _presented_corpus():
    out = []
    for F in (QQ, GF(2), GF(7)):
        out.append((lambda F=F: alg.matrix_algebra(F, M5_SHIFTS).positive_part(), [[0], [1], [1], [2]]))
        out.append((lambda F=F: _forget(alg.group_algebra(F, GradingGroup(0, (6,)))), [[], [], []]))
    return out


@pytest.mark.parametrize("build,shifts", _presented_corpus())
def test_presented_end_table_matches_entry_products(build, shifts):
    A = build()
    presented = 0
    for seed in (1, 2):
        P = random_presentation(A, shifts, random.Random(seed))
        for X in [P] + [X for X, _blk in split_projective(P, random.Random(seed))]:
            presented += X.entries != identity_entries(A, X.shifts)
            got = EndAlgebra(X).fd
            want = _end_table_from_entry_products(X)
            assert got.dim == want.dim
            assert got.table.rows == want.table.rows
            assert got.table.den == want.table.den
            assert got.unit == want.unit
    assert presented


def test_conjugated_free_presentation_agrees_with_its_free_counterpart(monkeypatch):
    # e = g diag(1, 1, 0) g^-1 for g = 1 - x E_02 has e F = A(1) + A(0), but
    # its entries are not the identity, so End(eF)_0 comes from hom_basis
    A = alg.matrix_algebra(QQ, [0, 1, 2]).positive_part()
    s = [A.deg([1]), A.deg([0]), A.deg([0])]
    one = A.one()
    x = A.element(s[0] - s[2], [QQ.of_int(k + 2) for k in range(A.component_dim(s[0] - s[2]))])
    P = ProjectivePresentation(A, s, [[one, None, x], [None, one, None], [None, None, None]])
    free = free_module(A, [[1], [0]])
    calls = []
    hom_basis = endos.hom_basis

    def counting(X, Y):
        calls.append(X)
        return hom_basis(X, Y)

    monkeypatch.setattr(endos, "hom_basis", counting)
    EndAlgebra(free)
    assert calls == []
    EndAlgebra(P)
    assert calls == [P]
    assert summand_classes(P) == summand_classes(free)


def _recorded_orthogonality_checks(monkeypatch):
    """Each family given to ``_verify_complete_orthogonal`` from now on,
    as (algebra, family, caller, verdict), the verdict None or the
    message raised."""
    seen = []
    real = endos._verify_complete_orthogonal

    def recording(fd, idems):
        caller = sys._getframe(1).f_code.co_name
        try:
            real(fd, idems)
        except SplitError as exc:
            seen.append((fd, list(idems), caller, str(exc)))
            raise
        seen.append((fd, list(idems), caller, None))

    monkeypatch.setattr(endos, "_verify_complete_orthogonal", recording)
    return seen


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_orthogonality_by_ranks_matches_every_product(monkeypatch, F):
    # on every family the splitting checks, the rank verdict is the one of
    # all k(k-1) products; over GF(p), p more copies of e_1 keep the sum
    # and are refused by both
    verify = endos._verify_complete_orthogonal
    seen = _recorded_orthogonality_checks(monkeypatch)
    for build in _split_corpus(F):
        split_projective(build(), random.Random(0))
    callers = {"split_semisimple", "primitive_idempotents"}
    assert {caller for _fd, _e, caller, _v in seen} == (
        callers if F.char else callers | {"_reconstruct_partition"}
    )
    for fd, idems, _caller, verdict in seen:
        assert verdict == orthogonality_by_products(fd, idems)
        if F.char:
            more = idems + [idems[0]] * F.char
            assert orthogonality_by_products(fd, more) == "idempotents are not orthogonal"
            with pytest.raises(SplitError, match="idempotents are not orthogonal"):
                verify(fd, more)


@pytest.mark.parametrize("F", [QQ, GF(2), GF(7)], ids=["Q", "F2", "F7"])
def test_split_summands_are_validated_once(monkeypatch, F):
    # the idempotents are verified in End(X)_0, so the summands skip
    # ProjectivePresentation._validate; each is still an idempotent of
    # the right degrees by the entry-by-entry products
    modules = [build() for build in _split_corpus(F)]
    calls = []
    validate = ProjectivePresentation._validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(ProjectivePresentation, "_validate", counting)
    for X in modules:
        for P, _blk in split_projective(X, random.Random(0)):
            e = P.entries
            assert entries_eq(entries_matmul(e, e), e)
            for i, row in enumerate(e):
                for j, ent in enumerate(row):
                    if ent is not None:
                        assert ent.degree == P.shifts[i] - P.shifts[j]
                        assert not ent.is_zero()
    assert calls == []


def _m2_matrix_units(F):
    """M2(F) on the matrix units E_11, E_12, E_21, E_22."""
    products = {}
    for i in range(4):
        for j in range(4):
            vec = [F.zero] * 4
            if i % 2 == j // 2:
                vec[2 * (i // 2) + j % 2] = F.one
            products[(i, j)] = vec
    return FDAlgebra.from_products(F, products, [F.one, F.zero, F.zero, F.one])


@pytest.mark.parametrize("F,eliminations", [(GF(7), 0), (GF(2), 3)], ids=["F7", "F2"])
def test_idempotent_ranks_are_traces_below_the_characteristic(monkeypatch, F, eliminations):
    # M2(F) has dimension 4: below 7 each rank of L_e is its trace, and
    # over F2 the three ranks (E_11, E_22 and their sum) are eliminations
    m2 = _m2_matrix_units(F)
    calls = []
    rank = _kernel.rank

    def counting(a, char):
        calls.append(char)
        return rank(a, char)

    monkeypatch.setattr(_kernel, "rank", counting)
    endos._verify_complete_orthogonal(m2, [[1, 0, 0, 0], [0, 0, 0, 1]])
    assert len(calls) == eliminations


@pytest.mark.parametrize("F", [GF(2), GF(7)], ids=["F2", "F7"])
def test_non_orthogonal_idempotents_summing_to_the_unit_are_refused(F):
    # over GF(p), p + 1 copies of the unit sum to the unit, and so do E_11,
    # E_22 and p copies of E_11 + E_12; neither family is orthogonal
    p = F.char
    m2 = _m2_matrix_units(F)
    c6 = _end_of_regular(_forget(alg.group_algebra(F, GradingGroup(0, (6,)))))
    e11, e22, f = [1, 0, 0, 0], [0, 0, 0, 1], [1, 1, 0, 0]
    families = [(fd, [fd.unit] * (p + 1)) for fd in (m2, c6)]
    families.append((m2, [e11, e22] + [f] * p))
    for fd, family in families:
        assert orthogonality_by_products(fd, family) == "idempotents are not orthogonal"
        with pytest.raises(SplitError, match="idempotents are not orthogonal"):
            endos._verify_complete_orthogonal(fd, family)
    for family in ([e11, e22], [f, [0, F.neg(1), 0, 1]]):
        assert orthogonality_by_products(m2, family) is None
        endos._verify_complete_orthogonal(m2, family)
