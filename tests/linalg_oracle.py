"""The `Scalar`-by-`Scalar` linear algebra engine, kept as a test oracle.

This is the elimination, product and PSD pivoting code that
`quivermoment.linalg` ran before its kernels moved to Python integers.  It
works entry by entry on `Fraction`-backed scalars, so it is slow but plainly
correct; `test_linalg_engine.py` checks the integer engine against it.

It also holds the arithmetic `Matrix` had before it became an I/O type:
`product` (rows of the left factor and columns of the right factor each
scaled to integers on their own), `add`, `sub`, `scale`, `col`,
`transpose`, `conj_transpose`, `is_hermitian` and `is_zero`, and the
constructors `identity` and `column`.

`two_eliminations` is the route a functional's flatness report and kernel
took before one echelon form gave both: the kernel of the whole conjugated
integer image by one elimination, read as one `Scalar` ratio per entry
(`null_vectors`), and the block criterion by a second elimination of the
top rows [A | C] (`block_flat`), the two rank criteria cross-asserted.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from quivermoment.algebra import Element
from quivermoment.errors import InternalInvariantError
from quivermoment.linalg import (
    Matrix,
    _bareiss,
    _combine,
    _entry,
    _gauss_jordan,
    _primitive,
    _scalar,
)
from quivermoment.moment import FlatReport
from quivermoment.scalar import ONE, ZERO, Scalar, _common


def _is_real(entries) -> bool:
    return not any(e.im for e in entries)


def _scaled(entries, real: bool) -> tuple[list[int], int]:
    """Integers over one positive common denominator: (numerators, denominator).

    Real data gives one int per entry; otherwise real parts come first, then
    imaginary parts.
    """
    return _common([e.re for e in entries] if real else [e.re for e in entries] + [e.im for e in entries])


def product(a: Matrix, b: Matrix) -> Matrix:
    """The product a*b as `Matrix.__mul__` formed it: one integer sum per entry."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    real = _is_real(a.entries) and _is_real(b.entries)
    left = [_scaled(a.row(i), real) for i in range(a.rows)]
    right = [_scaled(col(b, j), real) for j in range(b.cols)]
    out = []
    if real:
        for x, dx in left:
            out.extend(_scalar(sum(map(mul, x, y)), 0, dx * dy) for y, dy in right)
    else:
        n = a.cols
        right = [(y[:n], y[n:], dy) for y, dy in right]
        for x, dx in left:
            xr, xi = x[:n], x[n:]
            for yr, yi, dy in right:
                re = sum(map(mul, xr, yr)) - sum(map(mul, xi, yi))
                im = sum(map(mul, xr, yi)) + sum(map(mul, xi, yr))
                out.append(_scalar(re, im, dx * dy))
    return Matrix(a.rows, b.cols, out)


def _shape_check(a: Matrix, b: Matrix) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise ValueError("shape mismatch")


def add(a: Matrix, b: Matrix) -> Matrix:
    _shape_check(a, b)
    return Matrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def sub(a: Matrix, b: Matrix) -> Matrix:
    _shape_check(a, b)
    return Matrix(a.rows, a.cols, [x - y for x, y in zip(a.entries, b.entries)])


def scale(m: Matrix, s: Scalar) -> Matrix:
    return Matrix(m.rows, m.cols, [s * x for x in m.entries])


def identity(n: int) -> Matrix:
    return Matrix(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])


def column(values) -> Matrix:
    values = list(values)
    return Matrix(len(values), 1, values)


def col(m: Matrix, j: int) -> tuple[Scalar, ...]:
    return m.entries[j :: m.cols] if m.cols else ()


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, [e for j in range(m.cols) for e in col(m, j)])


def conj_transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, [e.conjugate() for j in range(m.cols) for e in col(m, j)])


def is_hermitian(m: Matrix) -> bool:
    """`Scalar` comparison of every entry with the conjugate of its mirror."""
    if m.rows != m.cols:
        return False
    es, n = m.entries, m.cols
    return all(es[i * n + j] == es[j * n + i].conjugate() for i in range(n) for j in range(i, n))


def is_zero(m: Matrix) -> bool:
    return all(e.is_zero() for e in m.entries)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product a*b, summed entry by entry."""
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.rows}x{a.cols} * {b.rows}x{b.cols}")
    out, bs = [], b.entries
    for i in range(a.rows):
        ri = a.row(i)
        for j in range(b.cols):
            acc = ZERO
            for k in range(a.cols):
                x = ri[k]
                if x:
                    acc = acc + x * bs[k * b.cols + j]
            out.append(acc)
    return Matrix(a.rows, b.cols, out)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns (see `_rref`)."""
    data, pivots = _rref([list(m.row(i)) for i in range(m.rows)], m.cols)
    return Matrix(m.rows, m.cols, [e for row_ in data for e in row_]), pivots


def _rref(data: list[list[Scalar]], ncols: int) -> tuple[list[list[Scalar]], tuple[int, ...]]:
    """The rows of the reduced row echelon form, computed in place, and the pivot columns.

    Pivot choice: first nonzero entry in the current column, lowest row index
    first.  Pivots are scaled to 1 and cleared above and below.
    """
    nrows = len(data)
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = None
        for r in range(prow, nrows):
            if data[r][col]:
                sel = r
                break
        if sel is None:
            continue
        if sel != prow:
            data[prow], data[sel] = data[sel], data[prow]
        pv = data[prow][col]
        if pv != ONE:
            inv_row = data[prow]
            for c in range(col, ncols):
                if inv_row[c]:
                    inv_row[c] = inv_row[c] / pv
        for r in range(nrows):
            if r == prow:
                continue
            f = data[r][col]
            if f:
                src = data[prow]
                dst = data[r]
                for c in range(col, ncols):
                    if src[c]:
                        dst[c] = dst[c] - f * src[c]
        pivots.append(col)
        prow += 1
    return data, tuple(pivots)


def rank(m: Matrix) -> int:
    """Exact rank over Q(i)."""
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[tuple[Scalar, ...]]:
    """Canonical basis of the right kernel.

    One vector per free column, with a 1 at the free coordinate and the
    pivot coordinates filled from the RREF.  For a free column f every other
    basis vector has coordinate 0 at f, so the list is in reduced echelon
    form.  Empty for injective matrices.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for prow, pcol in enumerate(pivots):
            e = red.entry(prow, f)
            if e:
                vec[pcol] = -e
        basis.append(tuple(vec))
    return basis


def solve_particular(a: Matrix, c: Matrix) -> tuple[int, Matrix | None]:
    """rank(a) and the solution of a*X = c read off the RREF of [a | c]: row r
    of the RREF goes to the row of X at its pivot column, free rows are zero.
    None when the RREF has a pivot in the c block."""
    red, pivots = _rref([[*a.row(i), *c.row(i)] for i in range(a.rows)], a.cols + c.cols)
    if any(p >= a.cols for p in pivots):
        return rank(a), None
    x = [[ZERO] * c.cols for _ in range(a.cols)]
    for r, p in enumerate(pivots):
        x[p] = red[r][a.cols :]
    return len(pivots), Matrix(a.cols, c.cols, [e for row in x for e in row])


def solve_full_rank(a: Matrix, b: Matrix) -> Matrix:
    """Solve a*X = b for invertible `a` (raises if singular)."""
    red, pivots = _rref([[*a.row(i), *b.row(i)] for i in range(a.rows)], a.cols + b.cols)
    if len(pivots) != a.cols or any(p >= a.cols for p in pivots):
        raise InternalInvariantError("matrix expected to be invertible is singular")
    return Matrix(a.cols, b.cols, [e for row in red[: a.cols] for e in row[a.cols :]])


def psd_check(m: Matrix) -> bool:
    """Exact positive-semidefiniteness test for a hermitian matrix.

    Recursive diagonal pivoting: a negative diagonal entry refutes, a zero
    diagonal with a nonzero off-diagonal entry in its row refutes, otherwise
    the first positive diagonal is pivoted out through an exact Schur
    complement.  Correct for semidefinite (not only definite) matrices.
    """
    if not is_hermitian(m):
        raise ValueError("psd_check requires a hermitian matrix")
    return _psd_pivots(m) is not None


def ldlh_psd(m: Matrix) -> list[tuple[Scalar, tuple[Scalar, ...]]] | None:
    """Rational LDL^H data for a hermitian PSD matrix.

    Returns pairs (d, v) with d a positive rational pivot and v a vector such
    that m = sum d * v v^H.  Returns None when m is not PSD.
    """
    if not is_hermitian(m):
        raise ValueError("ldlh_psd requires a hermitian matrix")
    return _psd_pivots(m)


def _psd_pivots(m: Matrix):
    n = m.rows
    data = [list(m.row(i)) for i in range(n)]
    active = list(range(n))
    out: list[tuple[Scalar, tuple[Scalar, ...]]] = []
    while active:
        diag = {i: data[i][i] for i in active}
        for i in active:
            d = diag[i]
            if not d.is_real():
                raise ValueError("hermitian matrix has a non-real diagonal")
            if d.re < 0:
                return None
        zero_rows = [i for i in active if diag[i].is_zero()]
        for i in zero_rows:
            if any(data[i][j] for j in active if j != i):
                return None
        if zero_rows:
            active = [i for i in active if i not in set(zero_rows)]
            continue
        p = active[0]  # lowest-index positive diagonal
        d = data[p][p]
        col = {i: data[i][p] for i in active}
        vec = [ZERO] * n
        for i in active:
            vec[i] = col[i] / d
        out.append((d, tuple(vec)))
        rest = [i for i in active if i != p]
        for i in rest:
            fi = col[i] / d
            if fi.is_zero():
                continue
            for j in rest:
                cj = col[j]
                if cj:
                    data[i][j] = data[i][j] - fi * cj.conjugate()
        active = rest
    return out


def solve_canonical(rows, rhs, nvars):
    """Rational least-constraint solve: RREF, free variables zero; None if inconsistent."""
    if not rows:
        return [Fraction(0)] * nvars
    flat = []
    for row, r in zip(rows, rhs):
        flat.extend(Scalar(x) for x in row)
        flat.append(Scalar(r))
    aug = Matrix(len(rows), nvars + 1, flat)
    red, pivots = rref(aug)
    sol = [Fraction(0)] * nvars
    for prow, pcol in enumerate(pivots):
        if pcol == nvars:
            return None
        sol[pcol] = red.entry(prow, nvars).re
    return sol


# -- a functional's flatness and kernel by two eliminations ------------------------


def block_flat(rows: list[list[int]], n: int, ncols: int) -> tuple[int, bool, bool]:
    """rank A, Ran C <= Ran A, and B == C^H X with A X = C, for hermitian integer rows.

    The rows are those of [[A, C], [C^H, B]] with A of size n; they are not
    changed.  The top rows [A | C] are eliminated once.  Each lower row is
    then reduced against the pivot rows: `_combine` on real rows, an exact
    Z[i] step and a content gcd on rows in the (re, im) layout.  A is
    hermitian, so a row of C^H lies in the row space of A, and the residual
    is [0 | B - C^H X] up to a nonzero factor.
    """
    top = [row[:] for row in rows[:n]]
    pivots = _gauss_jordan(top, ncols)
    rank_a = sum(p < n for p in pivots)
    if rank_a < len(pivots):
        return rank_a, False, False
    real = not rows or len(rows[0]) == ncols
    for row in rows[n:]:
        for src, p in zip(top, pivots):
            b = _entry(row, p, ncols)
            if b == (0, 0):
                continue
            a = _entry(src, p, ncols)
            row = _combine(row, src, a[0], b[0]) if real else _primitive(_bareiss(row, src, a, b, (1, 0), ncols))
        if any(row):
            return rank_a, True, False
    return rank_a, True, True


def _ratio(x: tuple[int, int], a: tuple[int, int]) -> Scalar:
    """x / a for Gaussian integers x and nonzero a."""
    (xr, xi), (ar, ai) = x, a
    if not ai:
        return _scalar(xr, xi, ar)
    return _scalar(xr * ar + xi * ai, xi * ar - xr * ai, ar * ar + ai * ai)


def null_vectors(rows: list[list[int]], ncols: int) -> list[tuple[Scalar, ...]]:
    """The reduced echelon kernel basis of integer rows, eliminated in place,
    one `Scalar` ratio -x / a per pivot entry."""
    pivots = _gauss_jordan(rows, ncols)
    pivot_set = set(pivots)
    leads = [_entry(rows[r], p, ncols) for r, p in enumerate(pivots)]
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, p in enumerate(pivots):
            x = _entry(rows[r], f, ncols)
            if x != (0, 0):
                vec[p] = _ratio((-x[0], -x[1]), leads[r])
        basis.append(tuple(vec))
    return basis


def two_eliminations(functional) -> tuple[FlatReport, list[Element], bool]:
    """The flatness report, the echelon kernel and tip-maximality of a
    functional, from two eliminations of its integer image.

    rank B_{L_k} is the window size less the kernel dimension; rank A, the
    range test and the block criterion come from `block_flat`, and the two
    flatness criteria must agree.  Tip-maximal iff every kernel tip has
    length k.
    """
    from oracles import whole_image

    rows, _ = whole_image(functional)
    n = len(rows)
    conjugate = [row[:n] + [-x for x in row[n:]] for row in rows]
    vecs = null_vectors(conjugate, n)
    rank_k = n - len(vecs)
    rank_km1, range_ok, block = block_flat(rows, functional._end(functional.k - 1), n)
    if (rank_k == rank_km1) != block:
        raise InternalInvariantError(f"flatness criteria disagree: rank says {rank_k == rank_km1}, block says {block}")
    basis = functional.basis(functional.k)
    kernel = [Element(functional.double, {p: c for p, c in zip(basis, v) if c is not ZERO}) for v in vecs]
    tip_maximal = all(g.tip(functional.order)[0].length() == functional.k for g in kernel)
    return FlatReport(rank_k == rank_km1, rank_k, rank_km1, range_ok), kernel, tip_maximal
