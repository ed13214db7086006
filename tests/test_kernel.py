"""Exact linear algebra kernel: elimination, coordinates and structure constants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedk._kernel import (
    Bilinear,
    EchelonBasis,
    mat_mul,
    nullspace,
    rank,
    rref,
    solve,
)

CHARS = [0, 2, 5, 10007]


def rand_matrix(rng, n, m, char):
    if char:
        return [[rng.randrange(char) for _ in range(m)] for _ in range(n)]
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(m)]
        for _ in range(n)
    ]


@pytest.mark.parametrize("char", CHARS)
def test_rref_reduces_to_unit_pivots(char):
    rng = random.Random(char + 1)
    for _ in range(10):
        a = rand_matrix(rng, 4, 6, char)
        red, pivots = rref(a, char)
        for r, c in enumerate(pivots):
            assert red[r][c] == (1 if char else Fraction(1))
            for i in range(len(red)):
                if i != r:
                    assert not red[i][c]


@pytest.mark.parametrize("char", CHARS)
def test_rank_matches_pivot_count(char):
    rng = random.Random(char + 2)
    for _ in range(15):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), char)
        _red, pivots = rref(a, char)
        assert rank(a, char) == len(pivots)


@pytest.mark.parametrize("char", [0, 2, 5])
def test_solve_and_nullspace(char):
    rng = random.Random(char + 3)
    for _ in range(10):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, n, k, char)
        x = rand_matrix(rng, k, 2, char)
        b = mat_mul(a, x, char)
        sol = solve(a, b, char)
        assert sol is not None
        assert mat_mul(a, sol, char) == b
        for v in nullspace(a, char):
            out = mat_mul(a, [[c] for c in v], char)
            assert all(not row[0] for row in out)


def rand_independent(rng, k, n, char):
    while True:
        basis = rand_matrix(rng, k, n, char)
        if rank(basis, char) == k:
            return basis


@pytest.mark.parametrize("char", [0, 5])
def test_echelon_basis_coords_match_solve(char):
    rng = random.Random(char + 6)
    for _ in range(25):
        n = rng.randint(1, 6)
        k = rng.randint(1, n)
        basis = rand_independent(rng, k, n, char)
        span = EchelonBasis(basis, char)
        cols = [[basis[i][r] for i in range(k)] for r in range(n)]
        for _ in range(4):
            c = rand_matrix(rng, 1, k, char)[0]
            vec = [
                sum((c[i] * basis[i][r] for i in range(k)), 0 if char else Fraction(0))
                for r in range(n)
            ]
            if char:
                vec = [x % char for x in vec]
            sol = solve(cols, [[x] for x in vec], char)
            assert span.coords(vec) == [row[0] for row in sol]
            assert span.coords(vec) == c
            assert span.contains(vec)


@pytest.mark.parametrize("char", [0, 5])
def test_echelon_basis_refuses_vectors_outside_span(char):
    rng = random.Random(char + 7)
    refused = 0
    for _ in range(25):
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        basis = rand_independent(rng, k, n, char)
        vec = rand_matrix(rng, 1, n, char)[0]
        span = EchelonBasis(basis, char)
        if rank(basis + [vec], char) == k + 1:
            assert span.coords(vec) is None
            assert not span.contains(vec)
            refused += 1
    assert refused >= 20


@pytest.mark.parametrize("char", [0, 5])
def test_echelon_basis_edge_cases(char):
    one = 1 if char else Fraction(1)
    zero = 0 if char else Fraction(0)
    with pytest.raises(ValueError):
        EchelonBasis([[one, one], [one + one, one + one]], char)
    empty = EchelonBasis([], char)
    assert empty.coords([zero, zero]) == []
    assert empty.coords([zero, one]) is None


def _combination(rng, vectors, n, char):
    """A random combination of ``vectors`` (of length n) and its coefficients."""
    c = rand_matrix(rng, 1, len(vectors), char)[0]
    vec = [
        sum((a * v[r] for a, v in zip(c, vectors)), 0 if char else Fraction(0))
        for r in range(n)
    ]
    return ([x % char for x in vec] if char else vec), c


def _rand_span(rng, char):
    """Up to six random vectors, some of them combinations of others."""
    n = rng.randint(1, 7)
    vecs = rand_matrix(rng, rng.randint(1, 6), n, char)
    for _ in range(rng.randint(0, 2)):
        vecs.append(_combination(rng, vecs, n, char)[0])
    rng.shuffle(vecs)
    return n, vecs


@pytest.mark.parametrize("char", CHARS)
def test_echelon_basis_grown_in_any_order_matches_rref_and_solve(char):
    # the pivots are those of the reduced echelon form whatever the order
    # of the adds, and coordinates in the vectors that grew the span are
    # the ones solve finds
    rng = random.Random(char + 21)
    for _ in range(30):
        n, vecs = _rand_span(rng, char)
        _red, want = rref(vecs, char)
        span = EchelonBasis([], char)
        grew = [span.add(v) for v in vecs]
        assert sorted(span.pivots) == want
        assert span.dim == len(want) == sum(grew)
        assert span.basis == [v for v, g in zip(vecs, grew) if g]
        other = EchelonBasis([], char)
        for v in rng.sample(vecs, len(vecs)):
            other.add(v)
        assert sorted(other.pivots) == want
        cols = [[b[r] for b in span.basis] for r in range(n)]
        for _ in range(4):
            vec, c = _combination(rng, span.basis, n, char)
            sol = solve(cols, [[x] for x in vec], char)
            assert span.coords(vec) == [row[0] for row in sol] == c
            assert span.contains(vec)
            assert other.residue(vec) == span.residue(vec) == [0] * n


@pytest.mark.parametrize("char", CHARS)
def test_echelon_basis_add_inside_the_span_changes_nothing(char):
    rng = random.Random(char + 22)
    for _ in range(30):
        n, vecs = _rand_span(rng, char)
        span = EchelonBasis([], char)
        for v in vecs:
            span.add(v)
        state = (list(span.basis), list(span.pivots), repr(span._free), repr(span._transform))
        vec, _c = _combination(rng, vecs, n, char)
        assert span.add(vec) is False
        assert (list(span.basis), list(span.pivots), repr(span._free), repr(span._transform)) == state


def _reduce_by_rref_rows(vec, rows, char):
    """vec minus vec[c] times each reduced echelon row of ``rows``, c its
    pivot, one row after another: the reduction the radical quotient
    used before it read ``residue``."""
    red, pivots = rref(rows, char)
    v = list(vec)
    for row, c in zip(red, pivots):
        x = v[c]
        if x:
            v = [(a - x * b) % char if char else a - x * b for a, b in zip(v, row)]
    return v


@pytest.mark.parametrize("char", CHARS)
def test_echelon_basis_residue_is_the_reduction_by_echelon_rows(char):
    rng = random.Random(char + 23)
    for _ in range(30):
        n, vecs = _rand_span(rng, char)
        span = EchelonBasis([], char)
        for v in vecs:
            span.add(v)
        for _ in range(4):
            vec = rand_matrix(rng, 1, n, char)[0]
            r = span.residue(vec)
            assert not any(r[c] for c in span.pivots)
            assert r == _reduce_by_rref_rows(vec, vecs, char)
            assert span.contains(vec) == (not any(r)) == (rank(vecs + [vec], char) == span.dim)


def _naive_bilinear(cells, out_dim, x, y, modulus):
    """sum_{i,j,k} x_i y_j c_ijk, one field operation per term."""
    out = [0 if modulus else Fraction(0)] * out_dim
    for (i, j), terms in cells.items():
        for k, c in terms:
            out[k] = out[k] + x[i] * y[j] * c
    return [v % modulus for v in out] if modulus else out


def _rand_cells(rng, n, out_dim, coeff, density=0.4):
    cells = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                cells[(i, j)] = [
                    (rng.randrange(out_dim), coeff()) for _ in range(rng.randint(1, 3))
                ]
    return cells


def _rand_fraction(rng, den_hi=9):
    return Fraction(rng.randint(-20, 20), rng.randint(1, den_hi) * rng.choice((1, -1)))


def _sparse_vec(rng, n, entry):
    zero = entry() * 0
    return [entry() if rng.random() < 0.5 else zero for _ in range(n)]


def test_bilinear_matches_naive_over_q():
    rng = random.Random(11)
    for _ in range(40):
        n, out_dim = rng.randint(1, 6), rng.randint(1, 6)
        cells = _rand_cells(rng, n, out_dim, lambda: _rand_fraction(rng))
        table = Bilinear(cells, out_dim)
        for _ in range(5):
            x = _sparse_vec(rng, n, lambda: _rand_fraction(rng))
            y = _sparse_vec(rng, n, lambda: _rand_fraction(rng))
            got = table(x, y)
            assert got == _naive_bilinear(cells, out_dim, x, y, 0)
            assert all(type(v) is Fraction for v in got)


def test_bilinear_matches_naive_over_gf5():
    rng = random.Random(12)
    for _ in range(40):
        n, out_dim = rng.randint(1, 6), rng.randint(1, 6)
        cells = _rand_cells(rng, n, out_dim, lambda: rng.randrange(-12, 12))
        table = Bilinear(cells, out_dim, 5)
        for _ in range(5):
            x = _sparse_vec(rng, n, lambda: rng.randrange(5))
            y = _sparse_vec(rng, n, lambda: rng.randrange(5))
            assert table(x, y) == _naive_bilinear(cells, out_dim, x, y, 5)


def test_bilinear_zero_inputs_and_cancelling_cells():
    half = Fraction(1, 2)
    # the two terms of cell (0, 1) cancel, and cell (1, 0) is all zeros
    cells = {(0, 0): [(1, half)], (0, 1): [(0, half), (0, -half)], (1, 0): [(1, 0)]}
    table = Bilinear(cells, 2)
    assert table.rows == {0: {0: ((1, 1),)}}
    assert table.den == 2
    zero = [Fraction(0), Fraction(0)]
    assert table(zero, [Fraction(3), Fraction(1)]) == zero
    assert table([Fraction(3), Fraction(1)], zero) == zero
    assert table([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]) == zero
    assert table([Fraction(2), Fraction(0)], [Fraction(-3, 7), Fraction(0)]) == [
        Fraction(0),
        Fraction(-6, 14),
    ]
    assert Bilinear({}, 3)([Fraction(1)], [Fraction(1)]) == [Fraction(0)] * 3


def test_bilinear_large_reconstructed_denominators():
    # coefficients of the size rational reconstruction returns for q**16
    rng = random.Random(13)
    big = lambda: Fraction(rng.randint(-(10**13), 10**13), rng.randint(1, 10**13))
    for _ in range(10):
        n = rng.randint(2, 5)
        cells = _rand_cells(rng, n, n, big, density=0.6)
        table = Bilinear(cells, n)
        x = _sparse_vec(rng, n, big)
        y = _sparse_vec(rng, n, big)
        assert table(x, y) == _naive_bilinear(cells, n, x, y, 0)


def test_bilinear_prime_power_modulus_and_reduction():
    q = 59
    M = q**16
    rng = random.Random(14)
    for _ in range(15):
        n = rng.randint(1, 5)
        cells = _rand_cells(rng, n, n, lambda: _rand_fraction(rng, den_hi=7))
        rational = Bilinear(cells, n)
        red = rational.reduce(M)
        assert red.modulus == M and red.den == 1

        def mod(c):
            return c.numerator * pow(c.denominator, -1, M) % M

        cells_mod = {ij: [(k, mod(c)) for k, c in t] for ij, t in cells.items()}
        direct = Bilinear(cells_mod, n, M)
        assert direct.rows == red.rows
        x = [rng.randrange(M) for _ in range(n)]
        y = [rng.randrange(M) for _ in range(n)]
        assert red(x, y) == _naive_bilinear(cells_mod, n, x, y, M)
        # reduction commutes with the product
        xq = [_rand_fraction(rng, den_hi=7) for _ in range(n)]
        yq = [_rand_fraction(rng, den_hi=7) for _ in range(n)]
        assert red([mod(a) for a in xq], [mod(b) for b in yq]) == [
            mod(v) for v in rational(xq, yq)
        ]


@pytest.mark.parametrize("modulus", [0, 7])
def test_bilinear_items_lists_the_merged_constants(modulus):
    c = Fraction(3, 4) if not modulus else 3
    cells = {(1, 0): [(2, c), (2, c)], (0, 2): [(0, c)]}
    table = Bilinear(cells, 3, modulus)
    doubled = (c + c) % 7 if modulus else c + c
    assert sorted(table.items()) == [(0, 2, 0, c), (1, 0, 2, doubled)]


@pytest.mark.parametrize("modulus", [0, 5, 59**16])
def test_bilinear_left_columns_are_products_with_basis_vectors(modulus):
    rng = random.Random(15 + modulus % 97)
    if modulus:
        coeff = lambda: rng.randrange(-12, 12)
        entry = lambda: rng.randrange(modulus)
        zero, one = 0, 1
    else:
        coeff = entry = lambda: _rand_fraction(rng)
        zero, one = Fraction(0), Fraction(1)
    for _ in range(25):
        n, m, out_dim = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        cells = {}
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.5:
                    cells[(i, j)] = [(rng.randrange(out_dim), coeff()) for _ in range(2)]
        table = Bilinear(cells, out_dim, modulus)
        x = _sparse_vec(rng, n, entry)
        left = table.left(x, m)
        assert len(left) == out_dim and all(len(row) == m for row in left)
        for b in range(m):
            e_b = [one if j == b else zero for j in range(m)]
            assert [row[b] for row in left] == table(x, e_b)
        if not modulus:
            assert all(type(v) is Fraction for row in left for v in row)


def test_solve_detects_inconsistency():
    a = [[Fraction(1)], [Fraction(1)]]
    b = [[Fraction(0)], [Fraction(1)]]
    assert solve(a, b, 0) is None


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_property(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    red, piv = rref(mat, 0)
    red2, piv2 = rref(red, 0)
    assert piv == piv2
    assert red == red2


@given(
    st.lists(
        st.lists(st.integers(0, 4), min_size=3, max_size=3), min_size=1, max_size=4
    )
)
@settings(max_examples=60, deadline=None)
def test_rank_bounded_by_dims_mod5(rows):
    r = rank(rows, 5)
    assert 0 <= r <= min(len(rows), 3)
