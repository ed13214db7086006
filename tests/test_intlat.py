"""Integer lattice utilities: Hermite forms; the Bareiss determinant as
a reference for unimodularity."""

import random

from gradedk import intlat

from reference_algorithms import int_det


# A lattice on which reducing above the pivots from the last row up
# leaves 57 above the pivot 47.
UNREDUCED_4X4 = [[-4, -4, 2, -3], [-6, 6, -3, 2], [2, -3, 0, 2], [-1, 3, -1, 1]]


def _random_lattices(seed):
    """Seeded random integer matrices of shapes 3x3, 3x4 and 4x4, and the
    4x4 matrix above."""
    rng = random.Random(seed)
    out = [UNREDUCED_4X4]
    for n, m in [(3, 3), (3, 4), (4, 4)] * 20:
        out.append([[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)])
    return out


def _mix(rows, rng, steps):
    """The same lattice, mixed unimodularly: add a multiple of one row to
    another and permute, ``steps`` times."""
    rows = [list(r) for r in rows]
    for _ in range(steps):
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randint(-3, 3)
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
    return rows


def _assert_canonical_shape(h):
    pivots = [next(j for j, x in enumerate(r) if x) for r in h]
    assert pivots == sorted(set(pivots))
    for i, r in enumerate(h):
        p = r[pivots[i]]
        assert p > 0
        for k in range(i):
            assert 0 <= h[k][pivots[i]] < p


def test_hnf_canonical_under_row_mixing():
    rng = random.Random(1)
    base = [[2, 1, 0], [0, 3, 1]]
    h0 = intlat.hnf(base)
    for _ in range(20):
        assert intlat.hnf(_mix(base, rng, 1)) == h0
    for base in _random_lattices(4):
        h0 = intlat.hnf(base)
        for _ in range(5):
            assert intlat.hnf(_mix(base, rng, 4)) == h0


def test_hnf_pivots_positive_and_reduced():
    _assert_canonical_shape(intlat.hnf([[4, 2], [6, 1]]))
    assert intlat.hnf(UNREDUCED_4X4) == [
        [1, 0, 0, 10], [0, 1, 0, 6], [0, 0, 1, 7], [0, 0, 0, 47]
    ]
    for rows in _random_lattices(5):
        _assert_canonical_shape(intlat.hnf(rows))


def test_reduce_mod_lattice_idempotent():
    h = intlat.hnf([[2, 0], [0, 3]])
    v = intlat.reduce_mod_lattice([7, -5], h)
    assert v == [1, 1]
    assert intlat.reduce_mod_lattice(v, h) == v
    assert intlat.reduce_mod_lattice([4, 9], h) == [0, 0]
    assert intlat.reduce_mod_lattice([1, 0], h) == [1, 0]


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    rng = random.Random(3)
    for _ in range(10):
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        # expansion by minors as the oracle
        def det3(m):
            return (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )

        assert int_det(a) == det3(a)


def test_hermite_form_is_the_identity_exactly_when_unimodular():
    # square matrices of sizes 0..4: unimodular ones built from the
    # identity by elementary row operations, singular ones with a row
    # that is a combination of two others, and random ones
    rng = random.Random(6)
    cases = [[]]
    for n in range(1, 5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(10):
            cases.append(_mix(eye, rng, 6) if n > 1 else [[rng.choice([-1, 1])]])
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cases.append(a)
            if n > 2:
                a = [list(r) for r in a]
                a[0] = [2 * x - y for x, y in zip(a[1], a[2])]
                cases.append(a)
            else:
                cases.append([[0] * n] + a[1:])
    unimodular = 0
    for a in cases:
        n = len(a)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert (intlat.hnf(a) == eye) == (abs(int_det(a)) == 1)
        unimodular += abs(int_det(a)) == 1
    assert 40 <= unimodular < len(cases)
