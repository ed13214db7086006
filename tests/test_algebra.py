"""Graded algebra constructors: components, products, projections, grading
hypotheses."""

import itertools
import random

import pytest

from gradedk import algebra as alg
from gradedk._kernel import solve
from gradedk.algebra import AlgebraError, is_strongly_graded
from gradedk.fields import GF, QQ
from gradedk.grading import GradingGroup
from gradedk.gmod.presentations import relabel_entries, zero_slice

from reference_algorithms import regraded_basis_by_brute_force


def test_m5_component_dims(M5):
    # blocks of equal shifts 1,1,2,1 give 1+1+4+1 = 7 in degree zero
    assert M5.component_dim(M5.deg([0])) == 7
    assert M5.component_dim(M5.deg([1])) == 5
    assert M5.component_dim(M5.deg([-1])) == 5
    assert M5.component_dim(M5.deg([3])) == 1
    assert M5.component_dim(M5.deg([4])) == 0


def test_polynomial_positive_support(Qx):
    assert Qx.component_dim(Qx.deg([-3])) == 0
    assert Qx.component_dim(Qx.deg([5])) == 1
    assert Qx.positively_supported()
    lo, hi = Qx.support_bounds()[0]
    assert lo == 0 and hi is None


def test_matrix_unit_products(M201):
    d = M201.deg
    e12 = M201.basis_element(d([-1]), 0)
    e21 = M201.basis_element(d([1]), 0)
    prod = e12 * e21
    basis0 = M201.component_basis(d([0]))
    assert prod.degree == d([0])
    assert prod.coords[basis0.index((0, 0))] == QQ.one
    assert prod.coords[basis0.index((1, 1))] == QQ.zero
    # e21 * e12 = e22
    prod2 = e21 * e12
    assert prod2.coords[basis0.index((1, 1))] == QQ.one


def test_poly_variable_product(Qx):
    x = Qx.basis_element(Qx.deg([1]), 0)
    x2 = x * x
    assert x2.degree == Qx.deg([2])
    assert x2.coords == (QQ.one,)


def test_tensor_product_structure():
    M200 = alg.matrix_algebra(QQ, [0, 0])
    Qx = alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1])
    T = alg.tensor_product(M200, Qx)
    d = T.deg
    assert T.component_dim(d([0])) == 4
    assert T.component_dim(d([1])) == 4
    # (e12 (x) 1) * (1 (x) x) = e12 (x) x; 1 (x) x is the sum of the two
    # diagonal tensor basis elements in degree 1
    basis0 = T.component_basis(d([0]))
    basis1 = T.component_basis(d([1]))
    a = T.basis_element(d([0]), basis0.index(((0,), (0, 1), (0, (0, 0)))))
    one_x = [QQ.zero] * len(basis1)
    for i in (0, 1):
        one_x[basis1.index(((0,), (i, i), (1, (0, 0))))] = QQ.one
    b = T.element(d([1]), one_x)
    p = a * b
    assert p.degree == d([1])
    tgt = basis1.index(((0,), (0, 1), (1, (0, 0))))
    assert p.coords[tgt] == QQ.one
    assert sum(1 for c in p.coords if c) == 1


def test_zero_part_blocks(M5):
    Z = M5.zero_part()
    assert Z.group.is_trivial()
    assert Z.component_dim(Z.group.zero) == 7


def test_zero_part_of_poly_is_base(Qx):
    Z = Qx.zero_part()
    assert Z.component_dim(Z.group.zero) == 1
    B = alg.matrix_algebra(QQ, [0, 1])
    Bx = alg.polynomial_extension(B, [1, 0])
    ZB = Bx.zero_part()
    for k in (-1, 0, 1):
        assert ZB.component_dim(ZB.deg([k])) == B.component_dim(B.deg([k]))


def _pi(a):
    """The projection onto the embedded zero part as ``swan.functor_T``
    reads an entry: a 1 x 1 entry matrix along ``zero_slice``.  None
    stands for zero."""
    ((ent,),) = relabel_entries([[a]], a.algebra.zero_part_embedded(), zero_slice)
    return ent


def test_projection_pi(M5, Qx):
    e11 = M5.basis_element(M5.deg([0]), 0)
    assert _pi(e11).coords == e11.coords
    assert _pi(e11).algebra is M5.zero_part_embedded()
    x = Qx.basis_element(Qx.deg([1]), 0)
    assert _pi(x) is None


def test_projection_is_ring_hom_on_window(Qx):
    # brute force over a basis window: pi(ab) = pi(a) pi(b)
    degs = [Qx.deg([k]) for k in range(0, 3)]
    for da, db in itertools.product(degs, repeat=2):
        for i in range(Qx.component_dim(da)):
            for j in range(Qx.component_dim(db)):
                a = Qx.basis_element(da, i)
                b = Qx.basis_element(db, j)
                pa, pb = _pi(a), _pi(b)
                rhs = None if pa is None or pb is None else pa * pb
                if rhs is not None and rhs.is_zero():
                    rhs = None
                assert _pi(a * b) == rhs


def test_associativity_on_sampled_triples(M5):
    rng = random.Random(0)
    degs = [M5.deg([k]) for k in (-2, -1, 0, 1, 2)]
    for _ in range(30):
        da, db, dc = (rng.choice(degs) for _ in range(3))
        if not (
            M5.component_dim(da) and M5.component_dim(db) and M5.component_dim(dc)
        ):
            continue
        a = M5.basis_element(da, rng.randrange(M5.component_dim(da)))
        b = M5.basis_element(db, rng.randrange(M5.component_dim(db)))
        c = M5.basis_element(dc, rng.randrange(M5.component_dim(dc)))
        assert ((a * b) * c).coords == (a * (b * c)).coords


def test_unit_is_two_sided(M5):
    one = M5.one()
    for k in (-2, 0, 3):
        d = M5.deg([k])
        for i in range(M5.component_dim(d)):
            a = M5.basis_element(d, i)
            assert (one * a).coords == a.coords
            assert (a * one).coords == a.coords


# -- strongly graded ----------------------------------------------------------


def _strongly_graded_by_solve(A, window=None):
    """The verdict by one ``solve`` per degree, on the matrix whose columns
    are the products of A_g and A_{-g}: the construction ``is_strongly_graded``
    used before it grew a span, kept as its reference."""
    gens = A.group.generators()
    one = A.one().coords
    for g in list(gens) + [-g for g in gens] + list(window or []):
        bg, bng = A.component_basis(g), A.component_basis(-g)
        if not bg or not bng:
            return False
        cols = [
            (A.basis_element(g, i) * A.basis_element(-g, j)).coords
            for i in range(len(bg))
            for j in range(len(bng))
        ]
        mat = [[col[r] for col in cols] for r in range(len(one))]
        if solve(mat, [[c] for c in one], A.field.char) is None:
            return False
    return True


def test_strongly_graded_verdicts(M5, M201, Qx):
    # support of M2(Q)(0,1) over Z is {-1,0,1}: A_2 = 0, so the grading is
    # not strong over Z; reducing mod 2 makes it strong.  (The honest
    # enumeration overrides the loose expectation of a strong Z-grading.)
    # Each verdict agrees with the one solve finds.
    Z, Z2 = GradingGroup(1, ()), GradingGroup(0, (2,))
    C = alg.regrade_mod(M201, 2)
    cases = [
        (M201, None, False),
        (C, None, True),
        (C, list(C.group.torsion_elements()), True),
        (M5, None, False),
        (Qx, None, False),  # A_{-1} = 0
        (alg.group_algebra(QQ, Z), None, True),
        (alg.group_algebra(GF(2), Z2), None, True),
        # a tensor with a strongly graded group algebra is strongly graded
        (alg.tensor_product(M201, alg.group_algebra(QQ, Z)), None, True),
        (alg.tensor_product(C, alg.group_algebra(QQ, Z2)), None, True),
        # both components nonzero, but 1 is not a sum of their products
        (alg.tensor_product(Qx, M201), None, False),
    ]
    for A, window, want in cases:
        assert is_strongly_graded(A, window) == _strongly_graded_by_solve(A, window) == want


def test_strongly_graded_degrees_form_subgroup(M201):
    # window extension: on a strongly graded algebra every tested degree passes
    C = alg.regrade_mod(M201, 2)
    degs = list(C.group.torsion_elements())
    assert is_strongly_graded(C, window=degs)


# -- constructor validation -----------------------------------------------------


def test_poly_needs_free_direction():
    B = alg.group_algebra(QQ, GradingGroup(0, (2,)))
    with pytest.raises(AlgebraError):
        alg.PolynomialExtensionAlgebra(B, B.group.degree([1]))


def test_poly_prepends_fresh_coordinate(Bx):
    assert Bx.group == GradingGroup(1, (2,))
    assert Bx.component_dim(Bx.deg([1, 1])) == 1  # x itself
    assert Bx.component_dim(Bx.deg([1, 0])) == 1  # x * u_1
    assert Bx.component_dim(Bx.deg([-1, 0])) == 0


def test_tensor_rejects_unbounded_enumeration():
    L = alg.group_algebra(QQ, GradingGroup(1, ()))  # Laurent: unbounded
    Qx = alg.polynomial_extension(alg.matrix_algebra(QQ, [0]), [1])
    with pytest.raises(AlgebraError):
        alg.tensor_product(L, L)
    # bounded-below times bounded-below is fine
    T = alg.tensor_product(Qx, Qx)
    assert T.component_dim(T.deg([2])) == 3


def test_regrade_mod_components(M201):
    C = alg.regrade_mod(M201, 2)
    assert C.group == GradingGroup(0, (2,))
    assert C.component_dim(C.deg([0])) == 2
    assert C.component_dim(C.deg([1])) == 2


def test_forget_grading(M5):
    U = alg.forget_grading(M5)
    assert U.group.is_trivial()
    assert U.component_dim(U.group.zero) == 25


def _z_by_torsion(modulus):
    # a matrix algebra over Z x Z/modulus with shifts in both coordinates
    G = GradingGroup(1, (modulus,))
    shifts = [[0, 0], [1, 1], [1, 2], [2, 0], [3, 1]]
    return alg.matrix_algebra(QQ, [G.degree(s) for s in shifts], group=G)


REGRADINGS = [
    # (build, image of parent degree values, target moduli)
    pytest.param(
        lambda: alg.forget_grading(alg.matrix_algebra(QQ, [0, 1, 2, 2, 3])),
        lambda v: (),
        (),
        id="forget(M5)",
    ),
    pytest.param(
        lambda: alg.forget_grading(alg.group_algebra(QQ, GradingGroup(0, (2, 3)))),
        lambda v: (),
        (),
        id="forget(groupalg(Q,Z2xZ3))",
    ),
    # Z/2 goes before Z/3, and Z/3 after Z/2
    pytest.param(
        lambda: alg.regrade_mod(_z_by_torsion(3), 2),
        lambda v: (v[0] % 2, v[1]),
        (2, 3),
        id="regrade_mod(ZxZ3,2)",
    ),
    pytest.param(
        lambda: alg.regrade_mod(_z_by_torsion(2), 3),
        lambda v: (v[1], v[0] % 3),
        (2, 3),
        id="regrade_mod(ZxZ2,3)",
    ),
]


@pytest.mark.parametrize("build,image,moduli", REGRADINGS)
def test_regradings_match_a_brute_force_fibre_reference(build, image, moduli):
    # each component is the parent's components over its fibre, in the
    # order of their values, label for label; together they hold every
    # basis element of the parent once
    R = build()
    assert R.group == GradingGroup(0, moduli)
    total = 0
    for D in R.group.box([]):
        want = regraded_basis_by_brute_force(R.parent, image, D.values)
        assert list(R.component_basis(D)) == want
        total += len(want)
    P = R.parent
    ranges = [range(lo, hi + 1) for lo, hi in P.support_bounds()]
    assert total == sum(P.component_dim(d) for d in P.group.box(ranges)) > 0


@pytest.mark.parametrize(
    "regrade", [alg.forget_grading, lambda A: alg.regrade_mod(A, 2)], ids=["forget", "regrade_mod"]
)
def test_regrading_refuses_a_parent_without_finite_support(Qx, regrade):
    with pytest.raises(AlgebraError, match="regrading needs a finite-support parent"):
        regrade(Qx)


def test_identity_component(M5):
    I0 = M5.identity_component()
    assert I0.group.is_trivial()
    assert I0.component_dim(I0.group.zero) == 7


def test_positive_part(M201):
    T2 = M201.positive_part()
    assert T2.component_dim(T2.deg([-1])) == 0
    assert T2.component_dim(T2.deg([1])) == 1
    assert T2.component_dim(T2.deg([0])) == 2
    assert T2.positively_supported()


def test_trivial_extension_roundtrip(M5):
    E = M5.trivial_extension(1)
    assert E.group == GradingGroup(2, ())
    assert E.component_dim(E.deg([0, 1])) == 5
    assert E.component_dim(E.deg([1, 1])) == 0
    assert E.zero_part() is M5


def test_support_degrees_finite(M5):
    degs = {d.values[0] for d in M5.support_degrees()}
    assert degs == {-3, -2, -1, 0, 1, 2, 3}
    L = alg.group_algebra(QQ, GradingGroup(1, ()))
    with pytest.raises(AlgebraError):
        L.support_degrees()


# -- slices: zero part, positive part, identity component, trivial extension --

# (support_bounds, support_radius, describe()) of each slice
SLICE_VALUES = {
    ("M5", "zero_part"): ((), (), "zero_part(M5(Q)(0,1,2,2,3))"),
    ("M5", "positive_part"): (((0, 3),), (3,), "positive_part(M5(Q)(0,1,2,2,3))"),
    ("M5", "identity_component"): ((), (), "identity_component(M5(Q)(0,1,2,2,3))"),
    ("M5", "trivial_extension(1)"): (
        ((0, 0), (-3, 3)), (0, 3), "triv_ext(M5(Q)(0,1,2,2,3), 1)"
    ),
    ("M5", "trivial_extension(2)"): (
        ((0, 0), (0, 0), (-3, 3)), (0, 0, 3), "triv_ext(M5(Q)(0,1,2,2,3), 2)"
    ),
    ("Qx", "zero_part"): ((), (), "zero_part(M1(Q)(0)[x;1])"),
    ("Qx", "positive_part"): (((0, None),), (1,), "positive_part(M1(Q)(0)[x;1])"),
    ("Qx", "identity_component"): ((), (), "identity_component(M1(Q)(0)[x;1])"),
    ("Qx", "trivial_extension(1)"): (
        ((0, 0), (0, None)), (0, 1), "triv_ext(M1(Q)(0)[x;1], 1)"
    ),
    ("Qx", "trivial_extension(2)"): (
        ((0, 0), (0, 0), (0, None)), (0, 0, 1), "triv_ext(M1(Q)(0)[x;1], 2)"
    ),
    ("Bx", "zero_part"): ((), (), "zero_part(triv_ext(Q[Z/2], 1)[x;(1,1)])"),
    ("Bx", "positive_part"): (
        ((0, None),), (1,), "positive_part(triv_ext(Q[Z/2], 1)[x;(1,1)])"
    ),
    ("Bx", "identity_component"): (
        (), (), "identity_component(triv_ext(Q[Z/2], 1)[x;(1,1)])"
    ),
    ("Bx", "trivial_extension(1)"): (
        ((0, 0), (0, None)), (0, 1), "triv_ext(triv_ext(Q[Z/2], 1)[x;(1,1)], 1)"
    ),
    ("Bx", "trivial_extension(2)"): (
        ((0, 0), (0, 0), (0, None)),
        (0, 0, 1),
        "triv_ext(triv_ext(Q[Z/2], 1)[x;(1,1)], 2)",
    ),
    ("M201x", "zero_part"): (
        ((-1, 1),), (1,), "zero_part(triv_ext(M2(Q)(0,1), 1)[x;(1,0)])"
    ),
    ("M201x", "positive_part"): (
        ((0, None), (-1, 1)),
        (1, 1),
        "positive_part(triv_ext(M2(Q)(0,1), 1)[x;(1,0)])",
    ),
    ("M201x", "identity_component"): (
        (), (), "identity_component(triv_ext(M2(Q)(0,1), 1)[x;(1,0)])"
    ),
    ("M201x", "trivial_extension(1)"): (
        ((0, 0), (0, None), (-1, 1)),
        (0, 1, 1),
        "triv_ext(triv_ext(M2(Q)(0,1), 1)[x;(1,0)], 1)",
    ),
    ("M201x", "trivial_extension(2)"): (
        ((0, 0), (0, 0), (0, None), (-1, 1)),
        (0, 0, 1, 1),
        "triv_ext(triv_ext(M2(Q)(0,1), 1)[x;(1,0)], 2)",
    ),
    ("forget(M5)", "identity_component"): (
        (), (), "identity_component(regrade(M5(Q)(0,1,2,2,3) -> 1))"
    ),
    ("forget(M5)", "trivial_extension(1)"): (
        ((0, 0),), (0,), "triv_ext(regrade(M5(Q)(0,1,2,2,3) -> 1), 1)"
    ),
    ("forget(M5)", "trivial_extension(2)"): (
        ((0, 0), (0, 0)), (0, 0), "triv_ext(regrade(M5(Q)(0,1,2,2,3) -> 1), 2)"
    ),
}


def _slices(A):
    """Each slice of A with the map from its degrees to A's (None: empty)."""
    g = A.group

    def extension(k):
        return lambda d: None if any(d.values[:k]) else g.degree(d.values[k:])

    out = {
        "identity_component": (A.identity_component(), lambda d: g.zero),
        "trivial_extension(1)": (A.trivial_extension(1), extension(1)),
        "trivial_extension(2)": (A.trivial_extension(2), extension(2)),
    }
    if g.free_rank:
        out["zero_part"] = (A.zero_part(), lambda d: g.degree((0,) + d.values))
        out["positive_part"] = (
            A.positive_part(),
            lambda d: d if d.values[0] >= 0 else None,
        )
    return out


def _window(group, radius):
    for free in itertools.product(range(-radius, radius + 1), repeat=group.free_rank):
        for t in group.torsion_elements():
            yield group.degree(free + t.values[group.free_rank :])


def _unit(n, i):
    return [QQ.one if j == i else QQ.zero for j in range(n)]


@pytest.mark.parametrize("name", ["M5", "Qx", "Bx", "M201x", "forget(M5)"])
def test_slices_read_the_parent_along_their_maps(name, request):
    A = (
        alg.forget_grading(request.getfixturevalue("M5"))
        if name == "forget(M5)"
        else request.getfixturevalue(name)
    )
    slices = _slices(A)
    assert {kind for n, kind in SLICE_VALUES if n == name} == set(slices)
    for kind, (S, to_parent) in slices.items():
        assert S.field == A.field
        assert (S.support_bounds(), S.support_radius(), S.describe()) == SLICE_VALUES[
            (name, kind)
        ]
        for d in _window(S.group, 2):
            p = to_parent(d)
            assert S.component_basis(d) == (() if p is None else A.component_basis(p))
        assert S.one().coords == A.one().coords
        nonempty = [d for d in _window(S.group, 1) if S.component_dim(d)]
        for da, db in itertools.product(nonempty, repeat=2):
            pa, pb = to_parent(da), to_parent(db)
            na, nb = S.component_dim(da), S.component_dim(db)
            for i in range(na):
                for j in range(nb):
                    x, y = _unit(na, i), _unit(nb, j)
                    assert S.mul_coords(da, x, db, y) == A.mul_coords(pa, x, pb, y)
    for kind, (S, _to_parent) in _slices(A).items():
        assert S is slices[kind][0]
    assert A.trivial_extension(0) is A
    for k in (1, 2, 3):
        assert A.trivial_extension(k).zero_part() is A.trivial_extension(k - 1)
    if A.group.free_rank:
        assert A.zero_part_embedded() is A.zero_part().trivial_extension(1)
        assert A.zero_part_embedded() is A.zero_part_embedded()
    else:
        with pytest.raises(AlgebraError, match="no distinguished free coordinate"):
            A.zero_part()
        with pytest.raises(AlgebraError, match="no free coordinate to truncate"):
            A.positive_part()
