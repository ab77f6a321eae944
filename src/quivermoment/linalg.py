"""Exact linear algebra over the Gaussian rationals, run on Python integers.

`Matrix` is the I/O type: the matrices that files and the public API hand
in and out, with readers and constructors but no arithmetic.  Each kernel
scales its input to integers at the boundary: every row (for elimination)
or the whole matrix (for an integer image, which the PSD pivoting reads) is
brought to a common denominator.  The loops then see plain ``int`` entries,
or real parts followed by imaginary parts when some entry is non-real, and
results go back to `Scalar` once, with one division per output entry.  A
product is the integer product of two images over the product of their
denominators, and two images are equal iff their numerators agree after
each is multiplied by the other's denominator.  Nothing is floating point.

A single fraction-free Gauss-Jordan engine backs rank, nullspace and the
solvers.  On real data a row with a nonzero entry in the pivot column is
replaced by an integer combination of itself and the pivot row, divided by
the gcd of its entries; rows the pivot does not touch are left alone.  A
combined row is thus the primitive integer multiple of its rational row.
On non-real data every row is updated and divided exactly by the previous
pivot in Z[i], as in Bareiss elimination (Bareiss 1968).  Either way every entry divides a minor
of the scaled input.  Pivot selection is always the first nonzero entry in
a column scanning rows top-down, so identical inputs yield identical
outputs bit for bit, equal to those of elimination over `Scalar`.

Positive semidefiniteness is decided by LDL^H diagonal pivoting in index
order on an integer image (`_image_psd`), which holds only the upper
triangle of the rows still active; each later row of a Schur complement is
one list comprehension, divided exactly by the previous pivot as in
Bareiss elimination.  A pivot is handed out as its index, its weight, its
diagonal and its column at the indices still active.

One elimination of [a | c] gives rank(a) and the RREF solution of a*X = c,
or shows that c leaves Ran(a) (`solve_particular`).

A hermitian matrix [[A, C], [C^H, B]] can also be held as one integer image
(`_image`: the matrix times one common denominator, as integer rows) that
its kernel, its flatness and its PSD pivoting all read.  One echelon form
gives its rank, its flatness and its kernel (`_block_echelon`): the top
rows [A | C] are eliminated first, which gives rank A and the range test,
and each lower row [C^H | B] is reduced against their pivot rows.  A is
hermitian, so once Ran C <= Ran A a reduced lower row is [0 | B - C^H X]
up to a nonzero factor, with A X = C, and B = C^H X holds iff every
residual is zero; only nonzero residuals are eliminated again.  No
solution X and no product is formed.  The kernel is read off the echelon
rows as integer numerators (`_null_terms`).  The PSD pivoting checks the
hermitian property on the same integers it pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InternalInvariantError
from .scalar import ONE, ZERO, Scalar
from .scalar import from_numerators as _scalar

_F0 = Fraction(0)


class Matrix:
    """Immutable dense matrix of `Scalar`, stored row-major: the I/O type.

    It carries values in and out (files, the public API, representations)
    and is read entry by entry; it has no arithmetic.  Products, solves and
    comparisons run on its integer image (`_image`).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows_data) -> Matrix:
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        flat = []
        for r in rows_data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return Matrix(nrows, ncols, flat)

    @staticmethod
    def zeros(rows: int, cols: int) -> Matrix:
        return Matrix(rows, cols, [ZERO] * (rows * cols))

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[Scalar, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> Matrix:
        """The submatrix of rows r0..r1-1 and columns c0..c1-1."""
        n = self.cols
        return Matrix(r1 - r0, c1 - c0, [e for i in range(r0, r1) for e in self.entries[i * n + c0 : i * n + c1]])

    def transpose(self) -> Matrix:
        return Matrix(self.cols, self.rows, [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)])

    def conjugate(self) -> Matrix:
        return Matrix(self.rows, self.cols, [e.conjugate() for e in self.entries])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            self.entry(i, j) == self.entry(j, i).conjugate()
            for i in range(self.rows)
            for j in range(i, self.cols)
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


# -- integer boundary -------------------------------------------------------------


def _is_real(entries) -> bool:
    return not any(e.im for e in entries)


def _scaled(entries, real: bool) -> tuple[list[int], int]:
    """Integers over one positive common denominator: (numerators, denominator).

    Real data gives one int per entry; otherwise real parts come first, then
    imaginary parts.
    """
    return _common([e.re for e in entries] if real else [e.re for e in entries] + [e.im for e in entries])


def _common(parts: list[Fraction]) -> tuple[list[int], int]:
    den = lcm(*[x.denominator for x in parts])
    if den == 1:
        return [x.numerator for x in parts], 1
    return [x.numerator * (den // x.denominator) for x in parts], den


def _entry(row: list[int], col: int, ncols: int) -> tuple[int, int]:
    """Entry `col` of an integer row as an (re, im) pair."""
    return (row[col], row[ncols + col]) if len(row) > ncols else (row[col], 0)


def _ratio(x: tuple[int, int], a: tuple[int, int]) -> Scalar:
    """x / a for Gaussian integers x and nonzero a."""
    (xr, xi), (ar, ai) = x, a
    if not ai:
        return _scalar(xr, xi, ar)
    return _scalar(xr * ar + xi * ai, xi * ar - xr * ai, ar * ar + ai * ai)


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
    (a*row - b*pivot_row) / previous pivot, Bareiss's exact division in Z[i]
    (a gcd in Z[i] would need a Euclidean algorithm run in Python).
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


def _rows(blocks: list[Matrix]) -> list[list[int]]:
    """Integer rows of the side-by-side block matrix [b0 | b1 | ...], each scaled on its own."""
    real = all(_is_real(b.entries) for b in blocks)
    return [_scaled([e for b in blocks for e in b.row(i)], real)[0] for i in range(blocks[0].rows)]


def _eliminate(blocks: list[Matrix]) -> tuple[list[list[int]], list[int]]:
    """Integer rows and pivot columns of the side-by-side block matrix [b0 | b1 | ...]."""
    rows = _rows(blocks)
    return rows, _gauss_jordan(rows, sum(b.cols for b in blocks))


def _image(m: Matrix, real: bool | None = None) -> tuple[list[list[int]], int]:
    """m times one positive common denominator, as integer rows, and that denominator.

    Real data gives one int per entry; otherwise each row holds its real
    parts, then its imaginary parts, the layout `_gauss_jordan` reads.
    `real=False` asks for the second layout on real data too.
    """
    n = m.cols
    real = _is_real(m.entries) if real is None else real
    flat, den = _scaled(m.entries, real)
    if real:
        return [flat[i * n : (i + 1) * n] for i in range(m.rows)], den
    size = m.rows * n
    return [flat[i * n : (i + 1) * n] + flat[size + i * n : size + (i + 1) * n] for i in range(m.rows)], den


def _images(*ms: Matrix) -> list[tuple[list[list[int]], int]]:
    """`_image` of each matrix, all in one layout: one int per entry unless some entry is non-real."""
    real = all(_is_real(m.entries) for m in ms)
    return [_image(m, real) for m in ms]


def _matrix(rows: list[list[int]], den: int, ncols: int) -> Matrix:
    """The `Matrix` of integer rows over den, in either layout (see `_image`)."""
    real = not rows or len(rows[0]) == ncols
    entries = [_scalar(row[j], 0 if real else row[ncols + j], den) for row in rows for j in range(ncols)]
    return Matrix(len(rows), ncols, entries)


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
    nonzero entries.  Otherwise, and on Gaussian rows, each row is dotted
    with each column of b, the faster loop once the nonzero fractions of a
    and b multiply to more than 1/2: on 3x3 to 40x40 factors of 4- to
    400-bit entries (one Xeon core), the skipping loop takes 0.2-0.9 of the
    time of the dotting loop when half or fewer of the entries of each factor
    are nonzero, and 1.0-1.5 times it when none is zero.
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
    return all(x * db == y * da for ra, rb in zip(a, b) for x, y in zip(ra, rb))


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


def _schur(rows: list[list[int]], den: int, n: int, ncols: int) -> tuple[list[tuple[int, int]], int] | None:
    """C^H X with A X = C for the integer rows of [A | C] over den.

    Returns the entries of C^H X, row-major, as numerators (re, im), and
    their denominator.  A is hermitian of size n and C has ncols - n
    columns; the rows (either layout) are not changed.  Their primitive
    parts are eliminated once: a pivot in C means Ran C is not inside Ran A
    (None).  Otherwise pivot row r, with lead a_r in column p_r, holds row
    p_r of X as its C part over a_r; the other rows of X are zero.  Scaled
    to s = lcm |a_r|^2, each entry of C^H X is one integer sum over den * s.
    """
    top = [_primitive(row) for row in rows]
    pivots = _gauss_jordan(top, ncols)
    if pivots and pivots[-1] >= n:
        return None
    leads = [_entry(top[r], p, ncols) for r, p in enumerate(pivots)]
    scale = lcm(*(ar * ar + ai * ai for ar, ai in leads))
    xs = []  # s times row p_r of X, as (re, im) pairs: x / a = x conj(a) / |a|^2
    for row, (ar, ai) in zip(top, leads):
        f, parts = scale // (ar * ar + ai * ai), [_entry(row, c, ncols) for c in range(n, ncols)]
        xs.append([((x * ar + y * ai) * f, (y * ar - x * ai) * f) for x, y in parts])
    out = []
    for i in range(n, ncols):
        cs = [_entry(rows[p], i, ncols) for p in pivots]  # conj(C) entries a - i b
        for j in range(ncols - n):
            re = sum(a * x[j][0] + b * x[j][1] for (a, b), x in zip(cs, xs))
            im = sum(a * x[j][1] - b * x[j][0] for (a, b), x in zip(cs, xs))
            out.append((re, im))
    return out, den * scale


# -- public API ------------------------------------------------------------------------


def rank(m: Matrix) -> int:
    """Exact rank over Q(i)."""
    return len(_eliminate([m])[1])


def nullspace(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Canonical basis of the right kernel.

    One vector per free column, with a 1 at the free coordinate and the
    pivot coordinates filled from the RREF.  For a free column f every other
    basis vector has coordinate 0 at f, so the list is in reduced echelon
    form.  Empty for injective matrices.
    """
    return _null_vectors(_rows([m]), m.cols)


def _null_vectors(rows: list[list[int]], ncols: int) -> list[tuple[Scalar, ...]]:
    """`nullspace` of the matrix of integer rows, which are eliminated in place."""
    basis = []
    for terms, den in _null_terms(rows, _gauss_jordan(rows, ncols), ncols):
        vec = [ZERO] * ncols
        for c, (re, im) in terms:
            vec[c] = _scalar(re, im, den)
        basis.append(tuple(vec))
    return basis


def solve_particular(a: Matrix, c: Matrix) -> tuple[int, Matrix | None]:
    """rank(a) and the RREF solution of a*X = c with free variables zero.

    The left block of the RREF of [a | c] is the RREF of `a`; a pivot right
    of it means some column of c lies outside Ran(a), and the solution is None.
    """
    if a.rows != c.rows:
        raise ValueError("row count mismatch")
    rows, pivots = _eliminate([a, c])
    rank_a = sum(p < a.cols for p in pivots)
    if rank_a < len(pivots):
        return rank_a, None
    ncols, out = a.cols + c.cols, [ZERO] * (a.cols * c.cols)
    for r, p in enumerate(pivots):
        lead = _entry(rows[r], p, ncols)
        out[p * c.cols : (p + 1) * c.cols] = [_ratio(_entry(rows[r], j, ncols), lead) for j in range(a.cols, ncols)]
    return rank_a, Matrix(a.cols, c.cols, out)


def solve_full_rank(a: Matrix, b: Matrix) -> Matrix:
    """Solve a*X = b for invertible `a` (raises if singular)."""
    rank_a, x = solve_particular(a, b)
    if x is None or rank_a < a.cols:
        raise InternalInvariantError("matrix expected to be invertible is singular")
    return x


def psd_check(m: Matrix) -> bool:
    """Exact positive-semidefiniteness test for a hermitian matrix.

    Recursive diagonal pivoting: a negative diagonal entry refutes, a zero
    diagonal with a nonzero off-diagonal entry in its row refutes, otherwise
    the first positive diagonal is pivoted out through an exact Schur
    complement.  Correct for semidefinite (not only definite) matrices.
    """
    return _psd_pivots(m, "psd_check") is not None


def ldlh_psd(m: Matrix) -> list[tuple[Scalar, tuple[Scalar, ...]]] | None:
    """Rational LDL^H data for a hermitian PSD matrix.

    Returns pairs (d, v) with d a positive rational pivot and v a vector such
    that m = sum d * v v^H.  Returns None when m is not PSD.
    """
    pivots = _psd_pivots(m, "ldlh_psd")
    return None if pivots is None else _ldlh(pivots, m.rows)


def _ldlh(pivots, n: int) -> list[tuple[Scalar, tuple[Scalar, ...]]]:
    """The (d, v) pairs of `ldlh_psd` from the integer pivot data of `_image_psd`, for size n."""
    out = []
    for p, weight, d, active, cr, ci in pivots:
        vec = [ZERO] * n
        vec[p] = ONE
        for i, x, y in zip(active, cr, ci):
            vec[i] = _scalar(x, y, d)
        out.append((Scalar._make(weight, _F0), tuple(vec)))
    return out


def _psd_pivots(m: Matrix, caller: str):
    if m.rows != m.cols:
        raise ValueError(f"{caller} requires a hermitian matrix")
    return _image_psd(*_image(m), caller)


def _image_psd(rows: list[list[int]], den: int, caller: str):
    """LDL^H pivots of the matrix rows / den, from its integer image (see `_image`), or None.

    The image is checked to be hermitian on its integers and is not changed.
    The matrix S still to be pivoted, (re + i im) / scale on the active
    indices, is held compacted as an upper triangle: each active row from
    its diagonal rightwards.  A negative diagonal refutes; a zero one
    refutes if its row or its column in the rows above is nonzero and is
    dropped otherwise, and once every diagonal is zero what is left decides.
    The first active row p, with diagonal d, is pivoted out: each later row
    i becomes d*S[i][j] - conj(S[p][i])*S[p][j], one list comprehension per
    row and part, divided exactly by the previous d (Bareiss 1968: every
    entry is a minor of the image), and scale becomes scale * d / previous d.

    Each pivot is (p, w, d, active, cr, ci): weight w = d / scale (a
    `Fraction`), `active` the indices still to be pivoted, and column p at
    them, cr[t] + i ci[t] at active[t].  The LDL^H vector is 1 at p, that
    column over d at `active` and zero elsewhere; `_ldlh` builds the `Scalar`s.
    """
    n = len(rows)
    real = not rows or len(rows[0]) == n
    re = [row[:n] for row in rows]
    im = [] if real else [row[n:] for row in rows]
    if re != [list(col) for col in zip(*re)] or im != [[-x for x in col] for col in zip(*im)]:
        raise ValueError(f"{caller} requires a hermitian matrix")
    tri = [[row[i:] for i, row in enumerate(mat)] for mat in ([re] if real else [re, im])]
    scale, prev = Fraction(den), 1
    active = list(range(n))
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
