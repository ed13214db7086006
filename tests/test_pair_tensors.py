"""Pair tensors of derived algebras, composed from their owners' tables,
against the label-by-label reference; and the tables they share."""

import itertools

import pytest

from gradedk import algebra as alg
from gradedk.fields import GF, QQ
from gradedk.gmod.presentations import hom_table
from gradedk.grading import GradingGroup

from reference_algorithms import pair_tensor_by_labels

Z = GradingGroup(1, ())
FIELDS = [QQ, GF(2), GF(7)]


class _ScaledTruncatedPolynomials(alg.GradedAlgebra):
    """F[x]/(x^5) graded by Z, deg x = 1, on the basis e_k = c_k x^k with
    c = (1, 3, 3, 5, 9): e_a e_b = (c_a c_b / c_(a+b)) e_(a+b).  Its
    constants mix integers (3) and fractions (9/5, 5/3), none zero mod 2
    or mod 7, so composed tables must combine and reduce denominators."""

    SCALES = (1, 3, 3, 5, 9)

    def __init__(self, field):
        super().__init__(Z, field)

    def _component_basis(self, deg):
        k = deg.values[0]
        return (k,) if 0 <= k < len(self.SCALES) else ()

    def _mul_labels(self, da, la, db, lb):
        c = self.SCALES
        if la + lb < len(c):
            yield la + lb, self.field.of_fraction(c[la] * c[lb], c[la + lb])

    def one_terms(self):
        return [(0, self.field.one)]

    def support_bounds(self):
        return ((0, len(self.SCALES) - 1),)

    def support_radius(self):
        return (len(self.SCALES) - 1,)

    def describe(self):
        return "scaled F[x]/(x^5)"


def _matrix(F, shifts, group=None):
    return alg.matrix_algebra(F, shifts, group)


def _z2_shifted(F):
    # over Z^2, with first coordinates 0, 1, 2: the zero part of a
    # polynomial extension by x of degree (1, 0) holds x^k for k = 0, 1, 2
    return _matrix(F, [[0, 0], [1, 0], [2, 1]], GradingGroup(2, ()))


ALGEBRAS = {
    # base constructors and the derived ones
    "M(0,1,2)": lambda F: _matrix(F, [0, 1, 2]),
    "scaled": _ScaledTruncatedPolynomials,
    "groupalg(Z)": lambda F: alg.group_algebra(F, Z),
    "groupalg(Z x Z3)": lambda F: alg.group_algebra(F, GradingGroup(1, (3,))),
    "poly(M(0,1), [1])": lambda F: alg.polynomial_extension(_matrix(F, [0, 1]), [1]),
    "poly(scaled, [1,0])": lambda F: alg.polynomial_extension(
        _ScaledTruncatedPolynomials(F), [1, 0]
    ),
    "poly(groupalg(Z2), [1,1])": lambda F: alg.polynomial_extension(
        alg.group_algebra(F, GradingGroup(0, (2,))), [1, 1]
    ),
    "tensor(M(0,1), M(0,0,1))": lambda F: alg.tensor_product(
        _matrix(F, [0, 1]), _matrix(F, [0, 0, 1])
    ),
    "tensor(scaled, scaled)": lambda F: alg.tensor_product(
        _ScaledTruncatedPolynomials(F), _ScaledTruncatedPolynomials(F)
    ),
    "tensor(M(0,1,2), groupalg(Z))": lambda F: alg.tensor_product(
        _matrix(F, [0, 1, 2]), alg.group_algebra(F, Z)
    ),
    # slices
    "zero_part(M(0,1,2,2,3))": lambda F: _matrix(F, [0, 1, 2, 2, 3]).zero_part(),
    "positive_part(M(0,1,2))": lambda F: _matrix(F, [0, 1, 2]).positive_part(),
    "identity_component(M(0,1,2,2,3))": lambda F: _matrix(
        F, [0, 1, 2, 2, 3]
    ).identity_component(),
    "trivial_extension(M(0,1), 2)": lambda F: _matrix(F, [0, 1]).trivial_extension(2),
    "positive_part(poly(scaled, [1,0]))": lambda F: alg.polynomial_extension(
        _ScaledTruncatedPolynomials(F), [1, 0]
    ).positive_part(),
    # regradings of matrix, tensor and polynomial inputs
    "forget(M(0,1,2,2,3))": lambda F: alg.forget_grading(_matrix(F, [0, 1, 2, 2, 3])),
    "regrade_mod(M(0,1,2), 2)": lambda F: alg.regrade_mod(_matrix(F, [0, 1, 2]), 2),
    "forget(tensor(M(0,1), scaled))": lambda F: alg.forget_grading(
        alg.tensor_product(_matrix(F, [0, 1]), _ScaledTruncatedPolynomials(F))
    ),
    "regrade_mod(tensor(M(0,1), scaled), 3)": lambda F: alg.regrade_mod(
        alg.tensor_product(_matrix(F, [0, 1]), _ScaledTruncatedPolynomials(F)), 3
    ),
    "forget(zero_part(poly(M(0,1,2), [1])))": lambda F: alg.forget_grading(
        alg.polynomial_extension(_matrix(F, [0, 1, 2]), [1]).zero_part()
    ),
    "regrade_mod(zero_part(poly(M over Z^2, [1,0])), 2)": lambda F: alg.regrade_mod(
        alg.polynomial_extension(_z2_shifted(F), [1, 0]).zero_part(), 2
    ),
    # group algebras over torsion groups, and the Z_5 version of the Z_11 probe
    "forget(groupalg(Z4))": lambda F: alg.forget_grading(
        alg.group_algebra(F, GradingGroup(0, (4,)))
    ),
    "forget(groupalg(Z2 x Z6))": lambda F: alg.forget_grading(
        alg.group_algebra(F, GradingGroup(0, (2, 6)))
    ),
    "Z5 probe": lambda F: alg.forget_grading(
        alg.tensor_product(
            _matrix(F, [[0], [0], [1], [2]], GradingGroup(0, (5,))),
            alg.group_algebra(F, GradingGroup(0, (5,))),
        )
    ),
}


def _box(g):
    """The degrees of g with free coordinates in -1..1."""
    return [
        g.degree(free + t.values[g.free_rank :])
        for free in itertools.product((-1, 0, 1), repeat=g.free_rank)
        for t in g.torsion_elements()
    ]


def _degrees(A):
    """Every support degree of A, or the box of radius 1."""
    return A.support_degrees() if A.finite_support() else _box(A.group)


@pytest.mark.parametrize("F", FIELDS, ids=["Q", "F2", "F7"])
@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_composed_tables_equal_the_label_reference(name, F):
    A = ALGEBRAS[name](F)
    for da, db in itertools.product(_degrees(A), repeat=2):
        got, want = A.pair_tensor(da, db), pair_tensor_by_labels(A, da, db)
        assert (got.rows, got.den, got.out_dim, got.modulus) == (
            want.rows, want.den, want.out_dim, want.modulus
        ), (da, db)


def test_the_scaled_algebra_has_fractional_and_integer_constants():
    # the composed tables above meet a den > 1, and Kronecker products
    # whose denominators cancel: (5/3) * 3 = 5
    A = _ScaledTruncatedPolynomials(QQ)
    d = A.deg
    three = A.pair_tensor(d([1]), d([1]))
    five_thirds = A.pair_tensor(d([1]), d([3]))
    assert three.rows == {0: {0: ((0, 3),)}} and three.den == 1
    assert five_thirds.rows == {0: {0: ((0, 5),)}} and five_thirds.den == 3
    assert A.pair_tensor(d([1]), d([2])).den == 5
    five = five_thirds.kron(three, 1, 1)
    assert five.rows == {0: {0: ((0, 5),)}} and five.den == 1


SLICES = {
    "zero_part": lambda A: (A.zero_part(), lambda d: A.group.degree((0,) + d.values)),
    "positive_part": lambda A: (A.positive_part(), lambda d: d if d.values[0] >= 0 else None),
    "identity_component": lambda A: (A.identity_component(), lambda d: A.group.zero),
    "trivial_extension": lambda A: (
        A.trivial_extension(1),
        lambda d: None if d.values[0] else A.group.degree(d.values[1:]),
    ),
}


@pytest.mark.parametrize("kind", list(SLICES))
def test_a_slice_shares_its_parents_tables(kind):
    A = alg.polynomial_extension(_matrix(QQ, [0, 1, 1]), [1, 0])
    S, to_parent = SLICES[kind](A)
    for da, db in itertools.product(_box(S.group), repeat=2):
        pa, pb = to_parent(da), to_parent(db)
        table = S.pair_tensor(da, db)
        if pa is None or pb is None:
            assert not table.rows and table.out_dim == S.component_dim(da + db)
        else:
            assert table is A.pair_tensor(pa, pb)


def test_group_algebra_answers_every_pair_with_one_table():
    for F in FIELDS:
        A = alg.group_algebra(F, GradingGroup(1, (2,)))
        degrees = _degrees(A)
        tables = {id(A.pair_tensor(a, b)) for a in degrees for b in degrees}
        assert len(tables) == 1
        table = A.pair_tensor(A.group.zero, A.group.zero)
        assert list(table.items()) == [(0, 0, 0, F.one)] and table.out_dim == 1


def test_one_summand_hom_table_is_the_pair_tensor():
    A = _matrix(QQ, [0, 1, 2])
    s = [A.deg([v]) for v in (0, 1, -1)]
    for s1, s2, s3 in itertools.product(s, repeat=3):
        assert hom_table(A, (s1,), (s2,), (s3,)) is A.pair_tensor(s3 - s2, s2 - s1)
    # End(F)_0 of the regular module of forget(groupalg(G)) is its table
    G = alg.forget_grading(alg.group_algebra(GF(2), GradingGroup(0, (6,))))
    z = G.group.zero
    assert hom_table(G, (z,), (z,), (z,)) is G.pair_tensor(z, z)


DERIVED = [
    alg.SliceAlgebra,
    alg.RegradedAlgebra,
    alg.PolynomialExtensionAlgebra,
    alg.TensorProductAlgebra,
]


def test_derived_constructors_compose_and_answer_no_labels():
    for cls in DERIVED + [alg.MatrixAlgebra, alg.GroupAlgebraA]:
        assert "pair_tensor" not in vars(cls), cls
    for cls in DERIVED:
        assert "_mul_labels" not in vars(cls), cls
        assert "_pair_tensor" in vars(cls), cls
