"""The integer linalg kernels against two independent engines.

Every kernel of `quivermoment.linalg`, reached through the `Matrix`
signatures of `matrix_api.py`, must return exactly what the
`Scalar`-by-`Scalar` engine in `linalg_oracle.py` returns: the RREF (read
through the nullspace and the solution of `linalg._solve`) is unique, and
the product and the LDL^H pivot sequence are deterministic.  The
verdicts and echelon forms are also checked against sympy's `DomainMatrix`
over QQ<I> where sympy is installed.  Inputs cover real and complex data,
rank-deficient matrices, zero rows and columns, empty shapes and entries of
more than 1000 bits.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linalg_oracle as oracle
import matrix_api as api
from quivermoment import linalg
from quivermoment.errors import InternalInvariantError
from quivermoment.linalg import Matrix
from quivermoment.scalar import Scalar

MAX_DIM = 5
BITS = [3, 64, 1100]  # numerator and denominator sizes

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def scalars(draw, complex_: bool, bits: int) -> Scalar:
    def part() -> Fraction:
        if draw(st.integers(0, 3)) == 0:
            return Fraction(0)
        return Fraction(draw(st.integers(-(2**bits), 2**bits)), draw(st.integers(1, 2**bits)))

    return Scalar(part(), part() if complex_ else 0)


@st.composite
def matrices(draw, rows: int | None = None, cols: int | None = None) -> Matrix:
    """Dense, rank-deficient, or with zeroed rows and columns."""
    complex_ = draw(st.booleans())
    bits = draw(st.sampled_from(BITS))
    r = draw(st.integers(0, MAX_DIM)) if rows is None else rows
    c = draw(st.integers(0, MAX_DIM)) if cols is None else cols

    def block(nr: int, nc: int) -> Matrix:
        return Matrix(nr, nc, [draw(scalars(complex_, bits)) for _ in range(nr * nc)])

    kind = draw(st.sampled_from(["dense", "low_rank", "zero_lines"]))
    if kind == "low_rank":
        k = draw(st.integers(0, max(0, min(r, c) - 1)))
        return oracle.matmul(block(r, k), block(k, c))
    m = block(r, c)
    if kind == "zero_lines":
        zr = draw(st.sets(st.integers(0, max(r - 1, 0)))) if r else set()
        zc = draw(st.sets(st.integers(0, max(c - 1, 0)))) if c else set()
        zero = Scalar(0)
        m = Matrix(r, c, [zero if i in zr or j in zc else m.entry(i, j) for i in range(r) for j in range(c)])
    return m


@st.composite
def hermitian(draw) -> Matrix:
    """g g^H, positive semidefinite, or g g^H - h h^H, usually indefinite."""
    g = draw(matrices())
    m = oracle.matmul(g, oracle.conj_transpose(g))
    if draw(st.booleans()):
        h = draw(matrices(rows=g.rows))
        m = oracle.sub(m, oracle.matmul(h, oracle.conj_transpose(h)))
    return m


# -- against the Scalar engine ---------------------------------------------------


def free_columns(m: Matrix) -> list[int]:
    """The free column of each nullspace vector: its last nonzero coordinate.

    An RREF row has no entry left of its pivot, so a pivot coordinate p of
    the vector of free column f is nonzero only when p < f.
    """
    return [max(j for j, x in enumerate(v) if x) for v in api.nullspace(m)]


@SETTINGS
@given(matrices())
def test_rref_rank_nullspace_match_oracle(m):
    pivots = oracle.rref(m)[1]
    assert free_columns(m) == [j for j in range(m.cols) if j not in pivots]
    assert api.rank(m) == oracle.rank(m)
    assert api.nullspace(m) == oracle.nullspace(m)


def image_product(a: Matrix, b: Matrix) -> Matrix:
    """a·b as `linalg` forms it: the integer product of two images in one layout."""
    real = oracle._is_real(a.entries) and oracle._is_real(b.entries)
    (ra, da), (rb, db) = linalg._image(a, real), linalg._image(b, real)
    return linalg._matrix(linalg._product(ra, rb, b.cols), da * db, b.cols)


@SETTINGS
@given(st.data())
def test_product_matches_oracle(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert image_product(a, b) == oracle.matmul(a, b) == oracle.product(a, b)


@st.composite
def projections(draw, n: int) -> Matrix:
    """A 0/1 diagonal n x n matrix, as a vertex projection of a representation."""
    ones = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return Matrix(n, n, [Scalar(int(i == j and i in ones)) for i in range(n) for j in range(n)])


@SETTINGS
@given(st.data())
def test_product_with_projection_factors_matches_oracle(data):
    """A projection, and a Gaussian multiple of one, left of a matrix, right of
    one and on both sides: real factors sparse enough for the loop of
    `_product` that skips zero entries, and the same shapes in the Gaussian
    layout."""
    n = data.draw(st.integers(0, 9), label="n")
    p = data.draw(projections(n), label="p")
    c = data.draw(scalars(True, 3), label="c")
    cp = Matrix(n, n, [x if x.is_zero() else c for x in p.entries])
    m = data.draw(matrices(rows=n, cols=data.draw(st.integers(0, 9))), label="m")
    w = data.draw(matrices(rows=data.draw(st.integers(0, 9)), cols=n), label="w")
    for a, b in [(p, m), (w, p), (p, p), (p, oracle.matmul(p, m)), (cp, m), (w, cp), (cp, cp)]:
        assert image_product(a, b) == oracle.matmul(a, b) == oracle.product(a, b)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_matrix_held_as_an_image_equals_the_matrix_of_its_scalars(data):
    """`linalg._matrix` of an integer image and `Matrix` of the same `Scalar`s
    are equal, with equal hashes, one canonical image and the same entries,
    in both layouts: whatever nonzero factor scales the image given, and
    with real data also given in the (re, im) layout."""
    m = data.draw(matrices(), label="m")
    real = oracle._is_real(m.entries)
    flat, den = oracle._scaled(m.entries, real)
    size, n = m.rows * m.cols, m.cols
    im = [] if real else flat[size:]
    rows = [flat[i * n : (i + 1) * n] + im[i * n : (i + 1) * n] for i in range(m.rows)]
    if real and data.draw(st.booleans(), label="(re, im) layout"):
        rows = [r + [0] * n for r in rows]
    k = data.draw(st.sampled_from([1, -1, 2, -6, 3**40]), label="factor")
    held = linalg._matrix([[k * x for x in r] for r in rows], k * den, n)
    built = Matrix(m.rows, n, m.entries)
    assert held == built and built == held
    assert hash(held) == hash(built)
    assert held._integers() == built._integers()
    assert held._real() == real
    assert held.entries == m.entries
    if size:  # one entry moved by one: not equal
        moved = [[x + (i == j == 0) * k * den for j, x in enumerate(r)] for i, r in enumerate(rows)]
        other = linalg._matrix(moved, k * den, n)
        assert other != built and built != other


def test_zeros_hold_the_zero_image():
    for r, c in [(0, 0), (0, 3), (2, 0), (3, 2)]:
        z = Matrix.zeros(r, c)
        assert z == Matrix(r, c, [Scalar(0)] * (r * c)) and hash(z) == hash(Matrix(r, c, [Scalar(0)] * (r * c)))
        assert z._integers() == ([[0] * c for _ in range(r)], 1)


@SETTINGS
@given(st.data())
def test_image_transpose_and_equality_match_oracle(data):
    """Transposes and comparisons on images, in both layouts, agree with `Scalar` ones."""
    a = data.draw(matrices())
    b = data.draw(st.one_of(st.just(a), matrices(rows=a.rows, cols=a.cols)), label="b")
    real = oracle._is_real(a.entries + b.entries) and data.draw(st.booleans(), label="real layout")
    (rows, den), (brows, bden) = linalg._image(a, real), linalg._image(b, real)
    assert linalg._matrix(rows, den, a.cols) == a
    assert linalg._matrix(linalg._transpose(rows, a.cols), den, a.rows) == oracle.transpose(a)
    assert linalg._matrix(linalg._transpose(rows, a.cols, conj=True), den, a.rows) == oracle.conj_transpose(a)
    assert linalg._equal(rows, den, brows, bden) == (a == b)
    # the same values over a larger denominator
    assert linalg._equal(rows, den, [[3 * x for x in row] for row in rows], 3 * den)


@SETTINGS
@given(hermitian())
def test_psd_matches_oracle(m):
    assert api.psd_check(m) == oracle.psd_check(m)
    assert api.ldlh_psd(m) == oracle.ldlh_psd(m)


PIVOT_DIM = 12


def _gaussian(draw, complex_: bool, lo: int = -3, hi: int = 3) -> Scalar:
    return Scalar(draw(st.integers(lo, hi)), draw(st.integers(lo, hi)) if complex_ else 0)


def _hermitian_from(n: int, entries: dict) -> Matrix:
    """The n x n matrix with the given entries (i, j), i <= j, and their conjugates below."""
    zero = Scalar(0)

    def entry(i, j):
        return entries.get((i, j), zero) if i <= j else entries.get((j, i), zero).conjugate()

    return Matrix(n, n, [entry(i, j) for i in range(n) for j in range(n)])


@st.composite
def _pivoted_first(draw, n: int, s: int, complex_: bool, reach: int) -> Matrix:
    """sum_t w_t u_t u_t^H over t < s: u_t is 1 at t and zero before it, w_t > 0.

    Diagonal pivoting takes 0, ..., s-1 first and leaves zero on the indices
    from s on, so what is added there is what it meets after s pivots.  The
    first vector is 2 at `reach`, whose diagonal is thus at least 4.
    """
    m = Matrix.zeros(n, n)
    for t in range(s):
        u = [Scalar(0)] * t + [Scalar(1)] + [_gaussian(draw, complex_) for _ in range(n - t - 1)]
        if t == 0:
            u[reach] = Scalar(2)
        u = oracle.column(u)
        w = Scalar(draw(st.integers(1, 4)))
        m = oracle.add(m, oracle.scale(oracle.matmul(u, oracle.conj_transpose(u)), w))
    return m


PIVOT_KINDS = ["psd", "zero_above", "zero_below", "negative", "imaginary", "tiny"]


@st.composite
def pivoting_cases(draw, kind: str) -> Matrix:
    """Hermitian matrices of size <= 12 where an upper-triangle pivoting could go astray.

    - PSD matrices g g^H of every rank, with zero rows and columns inserted
      at random indices;
    - a zero diagonal whose one nonzero partner comes before it (above the
      diagonal, in a row above) or after it (in its own row), met at the
      start or after pivots;
    - a diagonal that is positive at the start and turns negative after one
      or more pivots;
    - purely imaginary off-diagonal entries;
    - 0 x 0 and 1 x 1 matrices.
    """
    complex_ = draw(st.booleans(), label="complex")
    if kind == "tiny":
        n = draw(st.integers(0, 1))
        return Matrix(n, n, [Scalar(draw(st.integers(-2, 2)))] * n)
    if kind == "psd":
        r = draw(st.integers(0, PIVOT_DIM))
        size = draw(st.integers(r, PIVOT_DIM))
        g = Matrix(size, r, [_gaussian(draw, complex_) for _ in range(size * r)])
        core = oracle.matmul(g, oracle.conj_transpose(g))
        n = draw(st.integers(size, PIVOT_DIM))
        at = dict(zip(sorted(draw(st.permutations(range(n)))[:size]), range(size)))  # the rest are zero lines
        zero = Scalar(0)
        return Matrix(n, n, [core.entry(at[i], at[j]) if i in at and j in at else zero for i in range(n) for j in range(n)])
    if kind == "imaginary":
        n = draw(st.integers(1, PIVOT_DIM))
        entries = {(i, i): Scalar(draw(st.integers(1, 9))) for i in range(n)}
        for i, j in combinations(range(n), 2):
            entries[i, j] = Scalar(0, draw(st.integers(-1, 1)))
        return _hermitian_from(n, entries)
    # s indices pivoted first, then the case at i, with its partner j
    first = 1 if kind == "negative" else 0
    n = draw(st.integers(first + 2, PIVOT_DIM))
    s = draw(st.integers(first, n - 2))
    i, j = draw(st.permutations(range(s, n)))[:2]
    if kind == "zero_above":
        i, j = max(i, j), min(i, j)
    elif kind == "zero_below":
        i, j = min(i, j), max(i, j)
    head = draw(_pivoted_first(n, s, complex_, i))
    entries = {(t, t): Scalar(draw(st.integers(0, 3))) for t in range(s, n)}  # zero lines are dropped
    entries[j, j] = Scalar(draw(st.integers(1, 3)))
    if kind == "negative":
        entries[i, i] = Scalar(-draw(st.integers(1, 3)))
    else:
        entries[i, i] = Scalar(0)
        entries[min(i, j), max(i, j)] = _gaussian(draw, complex_, 1, 3)
    return oracle.add(head, _hermitian_from(n, entries))


@pytest.mark.parametrize("kind", PIVOT_KINDS)
@settings(SETTINGS, max_examples=40)
@given(st.data())
def test_upper_triangle_pivoting_matches_oracle(kind, data):
    """Verdicts and LDL^H data equal the `Scalar` pivoting's; on PSD data the
    pivots are the RREF pivot columns, which the coset bases of
    `build_representation` and `compress_representation` rely on."""
    m = data.draw(pivoting_cases(kind), label="m")
    want = oracle.ldlh_psd(m)
    assert api.psd_check(m) == (want is not None)
    assert api.ldlh_psd(m) == want
    if want is not None:
        assert tuple(p for p, *_ in linalg._psd_pivots(m)) == oracle.rref(m)[1]


@SETTINGS
@given(st.data())
def test_solve_particular_matches_oracle_rref(data):
    """rank(a) and the RREF solution of a X = c by `linalg._solve`, against
    the oracle's RREF of [a | c].

    `a` is a general matrix or a hermitian one, as in the Schur completion
    and the solves of a compression; real and Gaussian data.
    """
    a = data.draw(st.one_of(matrices(), hermitian()))
    if data.draw(st.booleans()):
        c = oracle.matmul(a, data.draw(matrices(rows=a.cols)))  # consistent
    else:
        c = data.draw(matrices(rows=a.rows))
    assert api.solve_particular(a, c) == oracle.solve_particular(a, c)


def _stack_kernel(a: Matrix, c: Matrix, null) -> tuple[Matrix, Matrix]:
    """[a; N^H] and [c; 0] for the kernel basis N of `a`."""
    lhs = Matrix(a.rows + len(null), a.cols, a.entries + tuple(e.conjugate() for v in null for e in v))
    rhs = Matrix(c.rows + len(null), c.cols, c.entries + (Scalar(0),) * (len(null) * c.cols))
    return lhs, rhs


@SETTINGS
@given(hermitian(), st.data())
def test_solve_in_range_matches_oracle(a, data):
    """The solve of a X = c with the columns of X in Ran(a), for hermitian `a`.

    It is `solve_particular` on `a` stacked with the conjugate rows of its
    kernel basis, so X is the canonical solution orthogonal to ker a.  Both
    kernels the solve goes through must match the oracle's, the solution must
    exist exactly when c lies in Ran(a), and it must solve a X = c inside Ran(a).
    """
    c = data.draw(matrices(rows=a.rows))
    if data.draw(st.booleans()):
        c = oracle.matmul(a, c)  # inside Ran(a)
    null = api.nullspace(a)
    assert null == oracle.nullspace(a)
    lhs, rhs = _stack_kernel(a, c, null)
    x = api.solve_particular(lhs, rhs)[1]
    assert x == oracle.solve_particular(*_stack_kernel(a, c, oracle.nullspace(a)))[1]
    aug = Matrix(a.rows, a.cols + c.cols, [e for i in range(a.rows) for e in (*a.row(i), *c.row(i))])
    assert (x is not None) == (oracle.rank(aug) == oracle.rank(a))
    if x is not None:
        assert oracle.matmul(a, x) == c
        kernel_rows = lhs.block(a.rows, lhs.rows, 0, a.cols)
        assert oracle.matmul(kernel_rows, x) == rhs.block(a.rows, rhs.rows, 0, c.cols)  # zero


@SETTINGS
@given(st.data())
def test_solve_full_rank_matches_oracle(data):
    """The solve of an invertible system by `linalg._solve`."""
    n = data.draw(st.integers(0, MAX_DIM))
    a = data.draw(matrices(rows=n, cols=n))
    b = data.draw(matrices(rows=n))
    if oracle.rank(a) == n:
        assert api.solve_full_rank(a, b) == oracle.solve_full_rank(a, b)
    else:
        with pytest.raises(InternalInvariantError):
            api.solve_full_rank(a, b)


def _gaussian_rows(rng: Random, rows: int, cols: int, complex_: bool, bits: int) -> list[list[int]]:
    """Random integer rows in the layout of `linalg._image`."""
    width = 2 * cols if complex_ else cols
    return [[rng.randint(-(2**bits), 2**bits) for _ in range(width)] for _ in range(rows)]


def _vertex_graded_psd(rng: Random, labels: list[int], ranks: list[int], complex_: bool, bits: int) -> list[list[int]]:
    """The integer image of a PSD matrix that is zero between indices of different labels.

    Per label b, G G^H on its indices for a random integer G with ranks[b]
    columns, as in a moment matrix graded by terminal vertex.
    """
    n = len(labels)
    re, im = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for b, r in enumerate(ranks):
        at = [i for i, x in enumerate(labels) if x == b]
        g = _gaussian_rows(rng, len(at), r, complex_, bits)
        for s, i in enumerate(at):
            for t, j in enumerate(at):  # sum of g[s] conj(g[t])
                gs, gt = g[s], g[t]
                re[i][j] = sum(gs[c] * gt[c] + (gs[r + c] * gt[r + c] if complex_ else 0) for c in range(r))
                im[i][j] = sum(gs[r + c] * gt[c] - gs[c] * gt[r + c] for c in range(r)) if complex_ else 0
    return [re[i] + im[i] if complex_ else re[i] for i in range(n)]


@settings(SETTINGS, max_examples=150)
@given(st.data())
def test_pivot_solve_matches_the_elimination(data):
    """`linalg._psd_solve` against `linalg._solve` of [conj(m)[at, at] | c], as rationals.

    m is PSD, full rank or singular, and zero between indices of different
    labels (the vertices of a moment matrix); `at` is every LDL^H pivot, or
    the pivots of label 0 below a cut, the shape of the kept cosets of an
    arrow.  The right-hand sides are random; real and Gaussian data.
    """
    rng = Random(data.draw(st.integers(0, 2**32), label="seed"))
    complex_ = data.draw(st.booleans(), label="complex")
    bits = data.draw(st.sampled_from([2, 5, 64]), label="bits")
    n = data.draw(st.integers(1, 8), label="n")
    labels = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="labels")
    ranks = [data.draw(st.integers(0, labels.count(b)), label=f"rank{b}") for b in (0, 1)]
    rows = _vertex_graded_psd(rng, labels, ranks, complex_, bits)
    pivots = linalg._image_psd(linalg._upper(rows), 1)
    # a drawn G may lack full column rank: the pivots count the rank by elimination
    assert pivots is not None and len(pivots) == len(linalg._gauss_jordan([row[:] for row in rows], n)) <= sum(ranks)
    if data.draw(st.booleans(), label="all pivots"):
        at = [p for p, *_ in pivots]
    else:
        cut = data.draw(st.integers(0, n), label="cut")
        at = [p for p, *_ in pivots if labels[p] == 0 and p < cut]
    m = data.draw(st.integers(0, 4), label="columns")
    c = _gaussian_rows(rng, len(at), m, complex_, bits)
    xs, s = linalg._psd_solve(pivots, at, c, m)
    got = [[Fraction(x, s) for x in row] for row in xs]
    if not at:
        assert got == []
        return
    k = len(at)
    lhs = [[rows[p][q] for q in at] + ([-rows[p][n + q] for q in at] if complex_ else []) for p in at]
    aug = [a[:k] + b[:m] + a[k:] + b[m:] for a, b in zip(lhs, c)]
    solved, xr, scale = linalg._solve(aug, k, k + m)
    assert solved == list(range(k))
    want = [[Fraction(x, scale) for x, _ in row] + [Fraction(y, scale) for _, y in row if complex_] for row in xr]
    assert got == want


def test_pivot_solve_refuses_what_the_pivots_do_not_factor():
    """An index that is no pivot, or one coupled to a pivot outside the
    solved set, is an internal fault; so is a pivot that is not positive."""
    dense = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    pivots = linalg._image_psd(linalg._upper(dense), 1)
    assert [p for p, *_ in pivots] == [0, 1, 2]
    for at in ([1], [0, 2], [2, 1]):
        with pytest.raises(InternalInvariantError):
            linalg._psd_solve(pivots, at, [[1]] * len(at), 1)
    assert linalg._psd_solve(pivots, [0, 1], [[1], [0]], 1) == ([[2], [-1]], 3)  # a leading block
    singular = linalg._image_psd(linalg._upper([[1, 1], [1, 1]]), 1)
    assert [p for p, *_ in singular] == [0]
    with pytest.raises(InternalInvariantError):
        linalg._psd_solve(singular, [1], [[1]], 1)
    with pytest.raises(InternalInvariantError):
        linalg._psd_solve([(0, Fraction(0), 0, (), [], [])], [0], [[1]], 1)


def test_large_entries_exact():
    """2000-bit entries survive the integer scaling unchanged."""
    big = Fraction(3**1300 + 1, 2**1100 + 7)
    m = Matrix(2, 2, [Scalar(big), Scalar(1), Scalar(0, big), Scalar(1, 1)])
    assert api.nullspace(m) == oracle.nullspace(m)
    assert api.solve_particular(m, m) == oracle.solve_particular(m, m)
    mh = oracle.conj_transpose(m)
    assert image_product(m, mh) == oracle.matmul(m, mh) == oracle.product(m, mh)
    h = oracle.matmul(m, mh)
    assert api.ldlh_psd(h) == oracle.ldlh_psd(h)


@pytest.mark.parametrize("complex_", [True, False])
def test_elimination_stays_within_hadamard_bound(complex_, monkeypatch):
    """No elimination row outgrows the minors of its integer input, in the
    kernel and in `linalg._solve`.

    Every entry the engine keeps divides (in Z or Z[i]) a minor of the rows it
    was given, so its square is at most the product of their squared norms.
    Unchecked growth on a dense 12x12 system would exceed this by thousands
    of bits.
    """
    checked = []
    engine = linalg._gauss_jordan

    def bounded(rows, ncols):
        bound = prod(max(1, sum(x * x for x in row)) for row in rows)
        pivots = engine(rows, ncols)
        checked.append(all(x * x <= bound for row in rows for x in row))
        return pivots

    monkeypatch.setattr(linalg, "_gauss_jordan", bounded)
    rnd = Random(12)

    def dense(rows: int, cols: int) -> Matrix:
        def part() -> int:
            return rnd.randint(-16, 16)

        return Matrix(rows, cols, [Scalar(part(), part() if complex_ else 0) for _ in range(rows * cols)])

    m = dense(12, 13)
    assert api.nullspace(m) == oracle.nullspace(m)
    a, c = m.block(0, 12, 0, 10), m.block(0, 12, 10, 13)
    assert api.solve_particular(a, c) == oracle.solve_particular(a, c)
    g = dense(12, 8)
    a = oracle.matmul(g, oracle.conj_transpose(g))
    c = oracle.matmul(a, dense(12, 3))
    assert api.solve_particular(a, c) == oracle.solve_particular(a, c)
    # the nullspace, then `_solve` of the inconsistent [a | c] (and rank a
    # for the adapter's answer) and of the consistent one
    assert len(checked) == 4 and all(checked)


# -- against sympy's DomainMatrix over QQ<I> ---------------------------------------


def _to_domain(m: Matrix):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    qq, qq_i = sympy.QQ, sympy.QQ_I

    def conv(s: Scalar):
        return qq_i(qq(s.re.numerator, s.re.denominator), qq(s.im.numerator, s.im.denominator))

    rows = [[conv(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), qq_i)


@SETTINGS
@given(matrices())
def test_rref_matches_sympy(m):
    """The nullspace is read off the RREF, so it pins the RREF: the vector of
    free column f is e_f minus RREF[r][f] at each pivot column p_r."""
    dm = _to_domain(m)
    red, pivots = dm.rref()
    red = red.to_Matrix()
    want = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Scalar(0)] * m.cols
        v[f] = Scalar(1)
        for r, p in enumerate(pivots):
            re, im = red[r, f].as_real_imag()
            v[p] = -Scalar(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))
        want.append(tuple(v))
    assert api.nullspace(m) == want
    assert api.rank(m) == dm.rank()
    for v in api.nullspace(m):
        assert (dm * _to_domain(oracle.column(v))).to_Matrix().is_zero_matrix


@SETTINGS
@given(st.data())
def test_product_matches_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    assert _to_domain(image_product(a, b)).to_Matrix() == (_to_domain(a) * _to_domain(b)).to_Matrix()


@SETTINGS
@given(hermitian())
def test_psd_matches_principal_minors(m):
    """A hermitian matrix is PSD iff every principal minor is >= 0."""
    dm = _to_domain(m)
    minors = [
        dm.extract(list(idx), list(idx)).det()
        for size in range(1, m.rows + 1)
        for idx in combinations(range(m.rows), size)
    ]
    assert all(d.y == 0 for d in minors)
    assert api.psd_check(m) == all(d.x >= 0 for d in minors)
