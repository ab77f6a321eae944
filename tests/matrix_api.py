"""The integer kernels of `quivermoment.linalg` behind `Matrix` signatures.

The package hands its kernels integer images and reads integers back; only
the tests compare them with whole `Matrix` results, those of the `Scalar`
engine in `linalg_oracle.py` and of sympy.  Each function here takes its
`Matrix` arguments to integer images (`linalg._image`), runs one kernel and
builds the `Matrix` or `Scalar` result, with the signature of its
`linalg_oracle` twin:

* `rank` and `nullspace`: `_gauss_jordan`, and `_null_terms` on its rows;
* `solve_particular` and `solve_full_rank`: `_solve` of [a | c];
* `psd_check` and `ldlh_psd`: `_psd_pivots` (hermitian check, then
  `_image_psd`), each refusing a non-hermitian matrix in its own words;
  `ldlh_psd` builds the LDL^H vectors off the pivots;
* `schur_complete`: C^H X from `_solve` of [a | c], formed here.
"""

from __future__ import annotations

from math import lcm

from quivermoment import linalg
from quivermoment.errors import InternalInvariantError, NotFlatError
from quivermoment.linalg import Matrix
from quivermoment.scalar import ONE, ZERO, Scalar, from_numerators


def _beside(a: Matrix, c: Matrix) -> tuple[list[list[int]], int]:
    """The integer image of [a | c]: its rows and their denominator."""
    if a.rows != c.rows:
        raise ValueError("row count mismatch")
    (ra, da), (rc, dc) = linalg._images(a, c)
    den = lcm(da, dc)
    sa, sc = den // da, den // dc
    if a._real() and c._real():
        return [[x * sa for x in r] + [y * sc for y in t] for r, t in zip(ra, rc)], den
    n, m = a.cols, c.cols
    return [[x * sa for x in r[:n]] + [y * sc for y in t[:m]] + [x * sa for x in r[n:]] + [y * sc for y in t[m:]]
            for r, t in zip(ra, rc)], den


def rank(m: Matrix) -> int:
    return len(linalg._gauss_jordan(linalg._image(m)[0], m.cols))


def nullspace(m: Matrix) -> list[tuple[Scalar, ...]]:
    rows = linalg._image(m)[0]
    basis = []
    for terms, den in linalg._null_terms(rows, linalg._gauss_jordan(rows, m.cols), m.cols):
        vec = [ZERO] * m.cols
        for c, (re, im) in terms:
            vec[c] = from_numerators(re, im, den)
        basis.append(tuple(vec))
    return basis


def solve_particular(a: Matrix, c: Matrix) -> tuple[int, Matrix | None]:
    solved = linalg._solve(_beside(a, c)[0], a.cols, a.cols + c.cols)
    if solved is None:
        return rank(a), None
    pivots, xs, scale = solved
    out = [ZERO] * (a.cols * c.cols)
    for p, x in zip(pivots, xs):
        out[p * c.cols : (p + 1) * c.cols] = [from_numerators(re, im, scale) for re, im in x]
    return len(pivots), Matrix(a.cols, c.cols, out)


def solve_full_rank(a: Matrix, b: Matrix) -> Matrix:
    rank_a, x = solve_particular(a, b)
    if x is None or rank_a < a.cols:
        raise InternalInvariantError("matrix expected to be invertible is singular")
    return x


def _pivots(m: Matrix, name: str):
    try:
        return linalg._psd_pivots(m)
    except ValueError:
        raise ValueError(f"{name} requires a hermitian matrix") from None


def psd_check(m: Matrix) -> bool:
    return _pivots(m, "psd_check") is not None


def ldlh_psd(m: Matrix) -> list[tuple[Scalar, tuple[Scalar, ...]]] | None:
    """The pairs (d, v), d > 0 rational, with m = sum d v v^H, from the `_image_psd` pivots of m."""
    pivots = _pivots(m, "ldlh_psd")
    if pivots is None:
        return None
    out = []
    for p, weight, d, active, cr, ci in pivots:
        vec = [ZERO] * m.rows
        vec[p] = ONE
        for i, x, y in zip(active, cr, ci):
            vec[i] = from_numerators(x, y, d)
        out.append((Scalar(weight), tuple(vec)))
    return out


def schur_complete(a: Matrix, c: Matrix) -> Matrix:
    """The flat bottom-right block C^H X with A X = C, for hermitian A."""
    if a.rows != a.cols or linalg._upper(linalg._image(a)[0]) is None:
        raise ValueError("schur_complete requires a hermitian A")
    rows, den = _beside(a, c)
    n, ncols = a.cols, a.cols + c.cols
    solved = linalg._solve(rows, n, ncols)
    if solved is None:
        raise NotFlatError("Ran(C) is not contained in Ran(A); no flat completion exists")
    pivots, xs, scale = solved
    entries = []  # each entry of C^H X is one integer sum over den * scale
    for i in range(n, ncols):
        cs = [linalg._entry(rows[p], i, ncols) for p in pivots]  # conj(C) entries a - i b
        for j in range(c.cols):
            re = sum(x * y[j][0] + z * y[j][1] for (x, z), y in zip(cs, xs))
            im = sum(x * y[j][1] - z * y[j][0] for (x, z), y in zip(cs, xs))
            entries.append(from_numerators(re, im, den * scale))
    return Matrix(c.cols, c.cols, entries)
