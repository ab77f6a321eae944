import random
from fractions import Fraction

import pytest

from linalg_oracle import add, column, conj_transpose, identity, is_hermitian, product, scale
from matrix_api import ldlh_psd, nullspace, psd_check, rank, solve_particular
from quivermoment import Matrix, Scalar
from quivermoment.scalar import ONE, ZERO


def m_int(rows):
    return Matrix.from_rows([[Scalar(x) for x in r] for r in rows])


def rand_matrix(rng, rows, cols, span=4):
    return m_int([[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)])


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(Matrix.zeros(3, 5)) == 0
    fixture = m_int(
        [
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
            [0, 0, 1, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [1, 0, 0, 0, 1, 0],
            [0, 1, 0, 0, 0, 1],
        ]
    )
    assert rank(fixture) == 4


def test_nullspace_examples():
    assert nullspace(identity(3)) == []
    basis = nullspace(m_int([[1, 1]]))
    assert basis == [(Scalar(-1), Scalar(1))]


def test_nullspace_canonical_echelon():
    # Pivot-free coordinate is 1; every other basis vector vanishes there.
    m = m_int([[1, 2, 0, 3], [0, 0, 1, 4]])
    basis = nullspace(m)
    assert len(basis) == 2
    free_cols = [1, 3]
    for i, v in enumerate(basis):
        for j, f in enumerate(free_cols):
            assert v[f] == (ONE if i == j else ZERO)


def test_rank_nullity_random():
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        assert rank(m) + len(nullspace(m)) == cols


def test_solve_particular_examples():
    a = m_int([[1, 0], [0, 0]])
    assert solve_particular(a, m_int([[0], [1]])) == (1, None)
    c = m_int([[3], [5]])
    assert solve_particular(identity(2), c) == (2, c)


def test_solve_particular_places_rows_at_pivot_columns():
    # Pivots of [a | c] skip a zero column, then a dependent one.
    assert solve_particular(m_int([[0, 1], [0, 0]]), m_int([[3], [0]])) == (1, m_int([[0], [3]]))
    a = m_int([[1, 2, 0], [0, 0, 1]])
    assert solve_particular(a, m_int([[5, 1], [7, 0]])) == (2, m_int([[5, 1], [0, 0], [7, 0]]))
    assert solve_particular(m_int([[0, 1], [0, 0]]), m_int([[1], [1]])) == (1, None)


def test_solve_particular_rank_criterion_random():
    rng = random.Random(4)
    for _ in range(30):
        g = rand_matrix(rng, 5, rng.randint(1, 5))
        a = product(g, conj_transpose(g))  # hermitian with a genuine range
        c = rand_matrix(rng, 5, 2)
        if rng.random() < 0.5:
            c = product(a, c)  # inside Ran(a)
        aug = Matrix(5, a.cols + 2, [e for i in range(5) for e in (*a.row(i), *c.row(i))])
        solvable = rank(aug) == rank(a)
        rank_a, x = solve_particular(a, c)
        assert rank_a == rank(a)
        assert (x is not None) == solvable
        if x is not None:
            assert product(a, x) == c
            # Free variables are zero; the last nonzero coordinate of each
            # nullspace vector is a free column of a.
            for v in nullspace(a):
                f = max(j for j, e in enumerate(v) if e)
                assert all(x.entry(f, j).is_zero() for j in range(x.cols))


def test_psd_examples():
    assert psd_check(m_int([[2 if i == j else 0 for j in range(7)] for i in range(7)])) is True
    diag = m_int([[d if i == j else 0 for j, d in enumerate([2, 3, 1, 1, 2, 3, 0])] for i in range(7)])
    assert psd_check(diag) is True
    assert psd_check(m_int([[1, 0], [0, -1]])) is False
    assert psd_check(m_int([[1, 1], [1, 1]])) is True


def test_psd_zero_diagonal_with_offdiagonal():
    assert psd_check(m_int([[0, 1], [1, 1]])) is False


def test_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check(m_int([[1, 2], [3, 1]]))


@pytest.mark.parametrize(
    "rows",
    [
        [[1, Scalar(0, 1)], [Scalar(0, 1), 1]],
        [[Scalar(1, 1), 0], [0, 1]],
        [[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 3), 1]],
        [[1, 2, 3], [2, 1, 0]],
    ],
    ids=["im_symmetric", "diagonal_non_real", "fractions", "not_square"],
)
def test_psd_and_ldlh_refuse_non_hermitian_with_their_own_text(rows):
    m = Matrix.from_rows([[x if isinstance(x, Scalar) else Scalar(x) for x in row] for row in rows])
    assert not is_hermitian(m)
    with pytest.raises(ValueError, match="^psd_check requires a hermitian matrix$"):
        psd_check(m)
    with pytest.raises(ValueError, match="^ldlh_psd requires a hermitian matrix$"):
        ldlh_psd(m)


def test_psd_complex_hermitian():
    i = Scalar(0, 1)
    m = Matrix.from_rows([[Scalar(2), i], [-i, Scalar(2)]])
    assert psd_check(m) is True
    m2 = Matrix.from_rows([[Scalar(1), Scalar(0, 2)], [Scalar(0, -2), Scalar(1)]])
    assert psd_check(m2) is False


def test_psd_matches_gram_construction_random():
    rng = random.Random(5)
    for _ in range(20):
        g = rand_matrix(rng, 4, rng.randint(1, 4))
        m = product(g, conj_transpose(g))
        assert psd_check(m) is True
        pivots = ldlh_psd(m)
        assert len(pivots) == rank(m)
        recon = Matrix.zeros(4, 4)
        for d, v in pivots:
            col = column(v)
            recon = add(recon, scale(product(col, conj_transpose(col)), d))
        assert recon == m
        assert all(d.is_real() and d.re > 0 for d, _ in pivots)


def test_determinism_bit_for_bit():
    rng = random.Random(6)
    m = rand_matrix(rng, 5, 5)
    assert nullspace(m) == nullspace(m)
    assert rank(m) == rank(m)
    a = product(m, conj_transpose(m))
    assert solve_particular(a, m) == solve_particular(a, m)
