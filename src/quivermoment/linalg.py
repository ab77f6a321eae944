"""Exact linear algebra over the Gaussian rationals, run on Python integers.

`Matrix` is the I/O type, with readers and constructors but no arithmetic.
It holds one form, its canonical integer image; its `Scalar` entries are
derived when read, and no `Scalar` is built otherwise.  The kernels take
integer images in and give integers out: `_image` and `_images` hand out
the image a matrix holds, `_psd_pivots` pivots it, and `_matrix` wraps
integer rows as a `Matrix`.  An image is the matrix times one positive
common denominator, as integer rows: plain ``int`` entries, or real parts
followed by imaginary parts when some entry is non-real.  A product is the
integer product of two images over the product of their denominators; two
images are equal iff their numerators agree after each is multiplied by the
other's denominator.  Nothing is floating point.

One fraction-free Gauss-Jordan engine backs every elimination
(`_gauss_jordan`); every entry it makes divides a minor of the scaled input.
The pivot is always the first nonzero entry of a column, scanning rows
top-down, so outputs are deterministic bit for bit and equal those of
elimination over `Scalar`.  One elimination of the primitive rows of
[A | C] gives the RREF solution of A X = C scaled to integers, or shows
that C leaves Ran A (`_solve`).

A hermitian matrix [[A, C], [C^H, B]] held as one integer image gets its
rank, flatness and kernel from its PSD pivoting when that succeeds
(`_psd_null_terms` reads the kernel off the pivots), and otherwise from
one echelon form (`_block_echelon`): the top rows [A | C] are eliminated
first, which gives rank A and the range test, and each lower row
[C^H | B] is reduced against their pivot rows.  Once Ran C <= Ran A a
reduced lower row is [0 | B - C^H X] up to a nonzero factor, with
A X = C, so B = C^H X iff every residual is zero; only nonzero residuals
are eliminated again, and no X or product is formed.  The kernel is read
off the echelon rows as integer numerators (`_null_terms`).

Positive semidefiniteness is decided by LDL^H diagonal pivoting in index
order (`_image_psd`) on the upper triangle of the rows still active, each
later row of a Schur complement one list comprehension divided exactly by
the previous pivot.  A pivot is handed out as its index, its weight, its
diagonal and its column at the indices still active.  The triangle is
trusted to be hermitian: a functional's blocks are by construction, and a
gram from a file is checked on its integers as it is read (`_upper`).  The
pivots also solve: a system on pivot indices is swept forward with the
Bareiss step and solved back through the pivot rows (`_psd_solve`), and the
kernel of a PSD image is the back substitution of the dropped indices
(`_psd_null_terms`), both on integers with exact divisions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import InternalInvariantError
from .scalar import Scalar, _common
from .scalar import from_numerators as _scalar

_set, _new = object.__setattr__, object.__new__


class Matrix:
    """Immutable dense matrix over Q(i), row-major: the I/O type.

    It holds one form, its canonical integer image (see `_integers`): built
    from `Scalar` entries it takes them to the image at once, and `entries`
    are derived from the image when read.  Equal matrices have equal images,
    which `==` and the hash compare.  It has no arithmetic, no transpose and
    no hermitian test: those run on the image.
    """

    __slots__ = ("rows", "cols", "_img")

    def __init__(self, rows: int, cols: int, entries):
        es = tuple(entries)
        if len(es) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(es)}")
        flat, den = _common([e.re for e in es] + [e.im for e in es])
        im = flat[len(es) :]
        _hold(self, [flat[i * cols : (i + 1) * cols] + im[i * cols : (i + 1) * cols] for i in range(rows)], den, cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows_data) -> Matrix:
        rows_data = [list(r) for r in rows_data]
        ncols = len(rows_data[0]) if rows_data else 0
        if any(len(r) != ncols for r in rows_data):
            raise ValueError("ragged rows")
        return Matrix(len(rows_data), ncols, [e for r in rows_data for e in r])

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return _matrix([[0] * cols for _ in range(rows)], 1, cols)

    @property
    def entries(self) -> tuple[Scalar, ...]:
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def _integers(self) -> tuple[list[list[int]], int]:
        """The canonical image (rows, den): den > 0 and no factor common to den and every
        numerator, in the real layout iff no entry is non-real (see `_image`).  Not to be changed."""
        return self._img

    def _real(self) -> bool:
        rows = self._img[0]
        return not rows or len(rows[0]) == self.cols

    def entry(self, i: int, j: int) -> Scalar:
        (rows, den), n = self._img, self.cols
        return _scalar(rows[i][j], 0 if len(rows[i]) == n else rows[i][n + j], den)

    def row(self, i: int) -> tuple[Scalar, ...]:
        return tuple(self.entry(i, j) for j in range(self.cols))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> Matrix:
        """The submatrix of rows r0..r1-1 and columns c0..c1-1."""
        rows, den = self._img
        n = self.cols
        return _matrix([r[c0:c1] + r[n + c0 : n + c1] for r in rows[r0:r1]], den, c1 - c0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._img == other._img

    def __hash__(self):
        rows, den = self._img
        return hash((self.rows, self.cols, den, *map(tuple, rows)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


# -- integer boundary -------------------------------------------------------------


def _entry(row: list[int], col: int, ncols: int) -> tuple[int, int]:
    """Entry `col` of an integer row as an (re, im) pair."""
    return (row[col], row[ncols + col]) if len(row) > ncols else (row[col], 0)


# -- elimination ---------------------------------------------------------------------


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _combine(dst: list[int], src: list[int], a: int, b: int) -> list[int]:
    """Primitive part of a*dst - b*src for real integer rows."""
    g = gcd(a, b)
    a, b = a // g, b // g
    return _primitive([a * x - b * y for x, y in zip(dst, src)])


def _bareiss(dst: list[int], src: list[int], a, b, prev, ncols: int) -> list[int]:
    """(a*dst - b*src) / prev for rows in the (re, im) layout, exact in Z[i].

    a, b and prev are Gaussian integers given as (re, im) pairs.
    """
    (ar, ai), (br, bi), (pr, pi) = a, b, prev
    parts = list(zip(dst[:ncols], dst[ncols:], src[:ncols], src[ncols:]))
    re = [ar * xr - ai * xi - br * yr + bi * yi for xr, xi, yr, yi in parts]
    im = [ar * xi + ai * xr - br * yi - bi * yr for xr, xi, yr, yi in parts]
    if not pi:
        return re + im if pr == 1 else [x // pr for x in re + im]
    norm = pr * pr + pi * pi
    quot = [((x * pr + y * pi) // norm, (y * pr - x * pi) // norm) for x, y in zip(re, im)]
    return [q for q, _ in quot] + [q for _, q in quot]


def _gauss_jordan(rows: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns the pivot columns.  Afterwards row r < len(pivots) is an integer
    multiple of row r of the reduced row echelon form, with its pivot at
    column pivots[r]; the remaining rows are zero.

    Real rows: a row with a nonzero entry in the pivot column becomes the
    primitive part of a*row - b*pivot_row; rows the pivot does not touch stay
    as they are.  Rows in the (re, im) layout: every row becomes
    (a*row - b*pivot_row) / previous pivot, Bareiss's exact division in Z[i].
    """
    pivots: list[int] = []
    nrows = len(rows)
    real = not rows or len(rows[0]) == ncols
    prev = (1, 0)
    for col in range(ncols):
        prow = len(pivots)
        if prow == nrows:
            break
        for sel in range(prow, nrows):
            if rows[sel][col] or (not real and rows[sel][ncols + col]):
                break
        else:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        src = rows[prow]
        if real:  # entries are read directly, not as (re, im) pairs
            a = src[col]
            for r in range(nrows):
                b = rows[r][col]
                if b and r != prow:
                    rows[r] = _combine(rows[r], src, a, b)
        else:
            a = _entry(src, col, ncols)
            for r in range(nrows):
                if r != prow:
                    rows[r] = _bareiss(rows[r], src, a, _entry(rows[r], col, ncols), prev, ncols)
            prev = a
        pivots.append(col)
    return pivots


def _image(m: Matrix, real: bool | None = None) -> tuple[list[list[int]], int]:
    """m times one positive common denominator, as integer rows, and that denominator.

    Real data gives one int per entry; otherwise each row holds its real
    parts, then its imaginary parts, the layout `_gauss_jordan` reads.
    `real=False` asks for the second layout on real data too.  The rows are
    a copy of the image `m` holds.
    """
    rows, den = m._integers()
    if real is False and m._real():
        return [r + [0] * m.cols for r in rows], den
    return [r[:] for r in rows], den


def _images(*ms: Matrix) -> list[tuple[list[list[int]], int]]:
    """`_image` of each matrix, all in one layout: one int per entry unless some entry is non-real."""
    real = all(m._real() for m in ms)
    return [_image(m, real) for m in ms]


def _matrix(rows: list[list[int]], den: int, ncols: int) -> Matrix:
    """The `Matrix` of integer rows over a nonzero den, in either layout (see `_image`); no `Scalar` is built."""
    m = _new(Matrix)
    _hold(m, rows, den, ncols)
    return m


def _hold(m: Matrix, rows: list[list[int]], den: int, ncols: int) -> None:
    """Set the slots of m to the canonical image of integer rows over den (see `_matrix`)."""
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g != 1:
        rows, den = [[x // g for x in r] for r in rows], den // g
    if rows and len(rows[0]) > ncols and not any(any(r[ncols:]) for r in rows):
        rows = [r[:ncols] for r in rows]
    for name, value in zip(Matrix.__slots__, (len(rows), ncols, (rows, den))):
        _set(m, name, value)


def _transpose(rows: list[list[int]], ncols: int, conj: bool = False) -> list[list[int]]:
    """The integer rows of the transpose (with `conj`, the conjugate transpose)."""
    cols = list(zip(*rows)) or [()] * ncols
    if not rows or len(rows[0]) == ncols:
        return [list(c) for c in cols]
    if conj:
        return [list(cols[j]) + [-x for x in cols[ncols + j]] for j in range(ncols)]
    return [list(cols[j] + cols[ncols + j]) for j in range(ncols)]


def _product(a: list[list[int]], b: list[list[int]], ncols: int) -> list[list[int]]:
    """The integer rows of a·b for integer rows in one layout; b has ncols columns.

    Real factors with many zero entries (a 0/1 vertex projection, say) skip
    them: each row of a sums the nonzero entries of the rows of b at its own
    nonzero entries, the faster loop while the nonzero fractions of a and b
    multiply to at most 1/2.  Otherwise each row is dotted with each column.
    """
    if not b:
        return [[0] * ncols for _ in a]
    k = len(b)
    if len(b[0]) == ncols and 2 * _nonzero(a) * _nonzero(b) <= len(a) * k * k * ncols:
        entries = [[(c, y) for c, y in enumerate(r) if y] for r in b]
        out = []
        for row in a:
            acc = [0] * ncols
            for x, pairs in zip(row, entries):
                if x:
                    for c, y in pairs:
                        acc[c] += x * y
            out.append(acc)
        return out
    cols = list(zip(*b))
    if len(b[0]) == ncols:
        return [[sum(map(mul, row, c)) for c in cols] for row in a]
    out = []
    for row in a:
        ar, ai = row[:k], row[k:]
        re, im = [], []
        for br, bi in zip(cols, cols[ncols:]):
            re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
            im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
        out.append(re + im)
    return out


def _nonzero(rows: list[list[int]]) -> int:
    """The number of nonzero integers in rows."""
    return sum(len(r) - r.count(0) for r in rows)


def _equal(a: list[list[int]], da: int, b: list[list[int]], db: int) -> bool:
    """a / da == b / db for integer rows of one shape and layout."""
    return all([x * db for x in ra] == [y * da for y in rb] for ra, rb in zip(a, b))


def _block_echelon(rows: list[list[int]], n: int, ncols: int) -> tuple[list[list[int]], list[int], int, bool]:
    """Echelon rows and pivot columns of [[A, C], [D, B]], rank A, and whether Ran C <= Ran A.

    A is n x n; the rows (either layout) are not changed.  The top rows
    [A | C] are eliminated first: rank A counts their pivots left of column
    n, and Ran C <= Ran A iff none lies right of it.  Each lower row is then
    reduced against their pivot rows: `_combine` on real rows, an exact Z[i]
    step and a content gcd on rows in the (re, im) layout.  Nonzero residuals
    are eliminated once more together with the top pivot rows.  The rows
    returned are one per pivot, each an integer multiple of its row of the
    reduced row echelon form, so the pivot count is the rank.

    For hermitian [[A, C], [C^H, B]] with Ran C <= Ran A, a row of C^H lies
    in the row space of A and a residual is [0 | B - C^H X] with A X = C, up
    to a nonzero factor: B = C^H X iff every residual is zero, and then the
    rank is rank A.
    """
    top = [row[:] for row in rows[:n]]
    pivots = _gauss_jordan(top, ncols)
    del top[len(pivots) :]
    rank_a = sum(p < n for p in pivots)
    range_ok = rank_a == len(pivots)
    real = not rows or len(rows[0]) == ncols
    residuals = []
    for row in rows[n:]:
        for src, p in zip(top, pivots):
            b = _entry(row, p, ncols)
            if b == (0, 0):
                continue
            a = _entry(src, p, ncols)
            row = _combine(row, src, a[0], b[0]) if real else _primitive(_bareiss(row, src, a, b, (1, 0), ncols))
        if any(row):
            residuals.append(row)
    if residuals:
        top += residuals
        pivots = _gauss_jordan(top, ncols)
        del top[len(pivots) :]
    return top, pivots, rank_a, range_ok


def _null_terms(rows: list[list[int]], pivots: list[int], ncols: int) -> list[tuple[list, int]]:
    """The reduced echelon kernel basis of a matrix, from its echelon rows.

    Row r holds a multiple of row r of the reduced row echelon form, with
    lead a_r at column pivots[r].  Free column f gives the vector with 1 at
    f and -x_r / a_r at pivots[r], x_r being row r's entry at f; every other
    basis vector is 0 at f.  Each vector is given as its nonzero entries
    [(column, (re, im))] in column order, f last with (den, 0), numerators
    over one positive denominator den with no factor common to all of them,
    so equal vectors are given equally.
    """
    pivot_set = set(pivots)
    leads = [_entry(row, p, ncols) for row, p in zip(rows, pivots)]
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        parts = [(p, x, a) for row, p, a in zip(rows, pivots, leads) if (x := _entry(row, f, ncols)) != (0, 0)]
        # -x / a = -x conj(a) / |a|^2
        norms = [ar * ar + ai * ai for _, _, (ar, ai) in parts]
        den, terms = lcm(*norms), []
        for (p, (xr, xi), (ar, ai)), norm in zip(parts, norms):
            s = den // norm
            terms.append((p, (-(xr * ar + xi * ai) * s, (xr * ai - xi * ar) * s)))
        terms.append((f, (den, 0)))
        g = gcd(den, *(x for _, c in terms for x in c))
        if g > 1:
            den, terms = den // g, [(c, (re // g, im // g)) for c, (re, im) in terms]
        out.append((terms, den))
    return out


def _back_substitute(steps, rows) -> None:
    """Back substitution through the upper triangular system of `steps`, in place.

    steps[r] is (d_r, coupled_r), coupled_r the pairs (t, a, b) with t > r,
    and rows[r] is (re, im), integer lists over the right-hand sides (im
    empty on real data).  From the last row up, rows[r] becomes
    (rows[r] - sum of (a + i b) rows[t]) / d_r, a division the caller
    knows to be exact.
    """
    for r in reversed(range(len(steps))):
        d, coupled = steps[r]
        re, im = rows[r]
        for t, a, b in coupled:
            yr, yi = rows[t]
            if b:
                re = [s - a * x + b * y for s, x, y in zip(re, yr, yi)]
                im = [s - a * y - b * x for s, x, y in zip(im, yr, yi)]
            else:
                re = [s - a * x for s, x in zip(re, yr)]
                im = [s - a * y for s, y in zip(im, yi)]
        rows[r] = [x // d for x in re], [x // d for x in im]


def _psd_solve(pivots, at: list[int], rhs: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
    """s X and s > 0 for the solution X of conj(m)[at, at] X = rhs, from the `_image_psd` pivots of m.

    `at` are pivot indices in increasing order and rhs one integer row per
    index, ncols columns in either layout (see `_image`); the rows returned
    are in the same layout.  No pivot at or below at[-1] may couple an index
    of `at` to a pivot outside it (InternalInvariantError), so m[at, at] is
    the positive definite block the pivots of `at` factor, scaled by the
    diagonals of the others.  Each pivot p, in order, sweeps the rows of `at`
    after it forward with Bareiss's step c_t <- (d c_t - conj(a_t) c_p) /
    prev, a_t its column at t, where a pivot outside `at` has a_t = 0 and
    only scales; then the pivot rows of conj(m), a_t at t, are solved back
    (`_back_substitute`) with s the last d, the minor of the pivots up to
    at[-1], so that every division is exact (Cramer).
    """
    if not at:
        return [], 1
    index = {p: r for r, p in enumerate(at)}
    known = {p for p, *_ in pivots}
    if not index.keys() <= known or any(b <= a for a, b in zip(at, at[1:])):
        raise InternalInvariantError("a solved index is not an LDL^H pivot")
    last = at[-1]
    cs = [(row[:ncols], row[ncols:]) for row in rhs]
    steps, prev, done = [], 1, 0  # done: the rows of `at` pivoted so far
    for p, _, d, active, cr, ci in pivots:
        if p > last:
            break
        if d <= 0:
            raise InternalInvariantError("a pivot of a positive definite block is not positive")
        r = index.get(p)
        coupled = []
        for i, a, b in zip(active, cr, ci):
            if i > last:
                break
            if a or b:
                t = index.get(i)
                if t is not None and r is not None:
                    coupled.append((t, a, b))
                elif t is not None or (r is not None and i in known):
                    raise InternalInvariantError("a pivot couples the solved indices to one outside them")
        if r is not None:
            done += 1
            steps.append((d, coupled))
            yr, yi = cs[r]
            for t, a, b in coupled:  # conj(a + i b) c_p = (a yr + b yi) + i (a yi - b yr)
                xr, xi = cs[t]
                if b:
                    cs[t] = (
                        [(d * x - a * u - b * v) // prev for x, u, v in zip(xr, yr, yi)],
                        [(d * x - a * v + b * u) // prev for x, u, v in zip(xi, yr, yi)],
                    )
                else:
                    cs[t] = (
                        [(d * x - a * u) // prev for x, u in zip(xr, yr)],
                        [(d * x - a * v) // prev for x, v in zip(xi, yi)],
                    )
        if d != prev:  # the rows after p that p did not touch
            swept = {t for t, *_ in coupled}
            for t in range(done, len(at)):
                if t not in swept:
                    cs[t] = tuple([d * x // prev for x in part] for part in cs[t])
        prev = d
    rows = [([prev * x for x in xr], [prev * x for x in xi]) for xr, xi in cs]
    _back_substitute(steps, rows)
    return [xr + xi for xr, xi in rows], prev


def _psd_null_terms(pivots, n: int) -> list[tuple[list, int]]:
    """`_null_terms` of conj(m) for an n x n PSD m, read off its `_image_psd` pivots.

    Each index the pivoting dropped, f, gives the x with x_f = 1, zero at
    the other dropped indices and, by `_back_substitute` through the pivot
    rows of conj(m), d x_p = -(sum of a_i x_i) over the column a of pivot p;
    x_p = 0 for p > f.  Every dropped index is one right-hand side of the
    same pass, x_f scaled by s_f, the last d below f: the minor of the
    pivots below f, so s_f x is integral (Cramer).
    """
    free = sorted(set(range(n)).difference(p for p, *_ in pivots))
    if not free:
        return []
    column = {f: c for c, f in enumerate(free)}
    index = {p: r for r, (p, *_) in enumerate(pivots)}
    real = not any(any(ci) for *_, ci in pivots)
    scales, r, s = [], 0, 1
    for f in free:
        while r < len(pivots) and pivots[r][0] < f:
            s, r = pivots[r][2], r + 1
        scales.append(s)
    steps, rows = [], []
    for p, _, d, active, cr, ci in pivots:
        re, im = [0] * len(free), [] if real else [0] * len(free)
        coupled = []
        for i, a, b in zip(active, cr, ci):
            if a or b:
                if i in index:
                    coupled.append((index[i], a, b))
                else:
                    c = column[i]
                    re[c] = -a * scales[c]
                    if b:
                        im[c] = -b * scales[c]
        steps.append((d, coupled))
        rows.append((re, im))
    _back_substitute(steps, rows)
    keys = list(index)
    out = []
    re_cols = list(zip(*(xr for xr, _ in rows))) or [()] * len(free)  # per dropped index, x at the pivots
    if real:
        for f, s, xr in zip(free, scales, re_cols):
            g = gcd(s, *xr)
            out.append(([(p, (x // g, 0)) for p, x in zip(keys, xr) if x] + [(f, (s // g, 0))], s // g))
        return out
    for f, s, xr, xi in zip(free, scales, re_cols, zip(*(xi for _, xi in rows))):
        g = gcd(s, *xr, *xi)
        out.append(([(p, (x // g, y // g)) for p, x, y in zip(keys, xr, xi) if x or y] + [(f, (s // g, 0))], s // g))
    return out


def _annihilates(rows: list[list[int]], vec: list[tuple[int, int]], ncols: int) -> bool:
    """rows · vec == 0 for integer rows in either layout and a vector of Gaussian integers (re, im)."""
    vr, vi = [x for x, _ in vec], [y for _, y in vec]
    complex_vec = any(vi)
    for row in rows:
        br, bi = row[:ncols], row[ncols:]
        if sum(map(mul, br, vr)) - sum(map(mul, bi, vi)):
            return False
        if (bi or complex_vec) and sum(map(mul, br, vi)) + sum(map(mul, bi, vr)):
            return False
    return True


def _solve(rows: list[list[int]], n: int, ncols: int) -> tuple[list[int], list[list[tuple[int, int]]], int] | None:
    """The RREF solution X of A X = C from the integer rows of [A | C], scaled to integers.

    A has n columns and C has ncols - n; the rows (either layout, over any
    one denominator) are not changed.  Their primitive parts are eliminated
    once: a pivot in C means Ran C is not inside Ran A (None).  Otherwise
    pivot row r, with lead a_r in column p_r, holds row p_r of X as its C
    part over a_r; the other rows of X are zero.  Returns the pivot columns,
    s times row p_r of X per pivot row as (re, im) pairs, and s = lcm |a_r|^2.
    """
    top = [_primitive(row) for row in rows]
    pivots = _gauss_jordan(top, ncols)
    if pivots and pivots[-1] >= n:
        return None
    leads = [_entry(top[r], p, ncols) for r, p in enumerate(pivots)]
    scale = lcm(*(ar * ar + ai * ai for ar, ai in leads))
    xs = []  # x / a = x conj(a) / |a|^2
    for row, (ar, ai) in zip(top, leads):
        f, parts = scale // (ar * ar + ai * ai), [_entry(row, c, ncols) for c in range(n, ncols)]
        xs.append([((x * ar + y * ai) * f, (y * ar - x * ai) * f) for x, y in parts])
    return pivots, xs, scale


# -- PSD pivoting ------------------------------------------------------------------------


def _upper(rows: list[list[int]]) -> list[list[list[int]]] | None:
    """The upper triangle of a square integer image (either layout), as `_image_psd` reads it, or None
    unless the image is hermitian: each row from its diagonal rightwards, real parts, then imaginary ones."""
    n = len(rows)
    re = [row[:n] for row in rows]
    im = [row[n:] for row in rows] if rows and len(rows[0]) > n else []
    if re != [list(col) for col in zip(*re)] or im != [[-x for x in col] for col in zip(*im)]:
        return None
    return [[row[i:] for i, row in enumerate(part)] for part in ([re, im] if im else [re])]


def _psd_pivots(m: Matrix):
    """`_image_psd` of a matrix from a file; ValueError unless its integer image is hermitian."""
    rows, den = _image(m)
    if m.rows != m.cols or (tri := _upper(rows)) is None:
        raise ValueError("matrix is not hermitian")
    return _image_psd(tri, den)


def _image_psd(tri: list[list[list[int]]], den: int):
    """LDL^H pivots of a hermitian matrix over den, from the upper triangle of its integer image, or None.

    `tri` holds the real parts, and the imaginary parts if the matrix has
    any, each row from its diagonal rightwards (see `_upper`); it is not
    changed.  The matrix S still to be pivoted, (re + i im) / scale on the
    active indices, is held so compacted.  A negative diagonal refutes; a
    zero one refutes if its row or its column in the rows above is nonzero
    and is dropped otherwise, and once every diagonal is zero what is left
    decides.
    The first active row p, with diagonal d, is pivoted out: each later row
    i becomes d*S[i][j] - conj(S[p][i])*S[p][j], one list comprehension per
    row and part, divided exactly by the previous d (Bareiss 1968: every
    entry is a minor of the image), and scale becomes scale * d / previous d.

    Each pivot is (p, w, d, active, cr, ci): weight w = d / scale (a
    `Fraction`), `active` the indices still to be pivoted, and column p at
    them, cr[t] + i ci[t] at active[t].  The LDL^H vector is 1 at p, that
    column over d at `active` and zero elsewhere.
    """
    real = len(tri) == 1
    scale, prev = Fraction(den), 1
    active = list(range(len(tri[0])))
    out = []
    while active:
        diag = [row[0] for row in tri[0]]
        if min(diag) < 0:
            return None
        if not all(diag):
            if not any(diag):
                return None if any(any(row) for mat in tri for row in mat) else out
            for a, x in enumerate(diag):
                if not x and any(any(mat[a]) or any(mat[b][a - b] for b in range(a)) for mat in tri):
                    return None
            keep = [a for a, x in enumerate(diag) if x]
            tri = [[[mat[b][c - b] for c in keep if c >= b] for b in keep] for mat in tri]
            active = [active[a] for a in keep]
        p = active.pop(0)
        d, tr = tri[0][0][0], tri[0][0][1:]  # row p right of its diagonal: S[p][j] for j in active
        if real:
            out.append((p, d / scale, d, tuple(active), tr, [0] * len(tr)))
            later = enumerate(zip(tri[0][1:], tr))
            tri = [[[(d * x - a * y) // prev for x, y in zip(row, tr[b:])] for b, (row, a) in later]]
        else:
            ti = tri[1][0][1:]
            out.append((p, d / scale, d, tuple(active), tr, [-y for y in ti]))
            new_re, new_im = [], []
            for b, (xr, xi, ar, ai) in enumerate(zip(tri[0][1:], tri[1][1:], tr, ti)):
                yr, yi = tr[b:], ti[b:]
                new_re.append([(d * x - ar * u - ai * v) // prev for x, u, v in zip(xr, yr, yi)])
                new_im.append([(d * x - ar * v + ai * u) // prev for x, u, v in zip(xi, yr, yi)])
            tri = [new_re, new_im]
        scale, prev = scale * d / prev, d
    return out
