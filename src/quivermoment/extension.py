"""Flat completions and rank-preserving extensions.

Two layers: the one-step extension of a tip-maximal functional, whose top
block is the exact Schur completion (the flat choice of the bottom-right
block), and the lazy full extension that evaluates any path through
Gröbner normal forms.

The one-step extension runs on the window of the extended functional and on
Gaussian-integer numerators.  Its odd-degree system holds one unknown per
star pair, so hermitian symmetry holds by substitution, and each equation is
one integer row over the base values' common denominator.  On real data
the system is block-diagonal: every kernel coefficient and every value is
real, so the imaginary rows touch only the v columns and have right-hand
side 0, and their canonical solution is v = 0; only the real rows over the
u columns are built.  The top degree is the Schur completion C^H X with
A X = C, A = B_{L_{k-1}} (Šmul'jan 1959): it is solved on the pivots of A
that the base's verdicts already hold, through its LDL^H pivots on PSD
data, and certified by one integer product over every row of A
(`_flat_block`).  Once the certificate holds the result is flat by that
lemma, so it is not pivoted again.  The base values are read as the
numerators the functional holds, and the extension is placed from
integers, so no value is a `Scalar` on the way.
"""

from __future__ import annotations

from math import gcd, lcm

from . import linalg
from .errors import ExtensionObstructed, InputError, InternalInvariantError
from .groebner import RightGroebnerBasis, kernel_groebner
from .moment import TruncatedFunctional
from .quiver import Path, _words
from .scalar import Scalar


def flat_extend_tip_maximal(
    functional: TruncatedFunctional,
    allow_general_quiver: bool = False,
) -> TruncatedFunctional:
    """Extend a tip-maximal order-(k-1) functional to a flat order-k one.

    Values on the new odd degree 2k-1 solve, per kernel generator g and new
    length-k path p, the linear system expressing that g stays in the kernel
    of the extended moment form.  Hermitian symmetry is substituted, not
    added as rows: each pair {m, m*} has one unknown z = u + i v, held at the
    member later in the path order, and the other member takes conj(z).  The
    system is solved canonically (reduced echelon form, free variables zero)
    in one elimination, and the top degree-2k block is filled by the Schur
    completion (`_flat_block`).  The old window is a prefix of the new one,
    so every path is addressed by its position in the new window.

    The construction is proved for free *-algebras (single-vertex quivers);
    pass allow_general_quiver=True to run it on any path *-algebra, where an
    inconsistent odd system or a C block outside Ran A raises
    ExtensionObstructed (InternalInvariantError on a free *-algebra).
    """
    free_algebra = functional.double.n_vertices() == 1
    if not free_algebra and not allow_general_quiver:
        raise InputError(
            "one-step extension is proved for free *-algebras only; "
            "pass allow_general_quiver=True to apply it to this quiver"
        )
    if not functional.is_tip_maximal():
        raise InputError("flat_extend_tip_maximal requires a tip-maximal functional")

    k = functional.k + 1
    ext = TruncatedFunctional.__new__(TruncatedFunctional)
    # The texts are kept for the file of the extension (`fileio.functional_to_dict`).
    star, ext._texts = ext._open(functional.double, k, functional.include_trivial, functional.order, named=True)
    keys, ends = ext._keys, ext._ends  # the keys of V_k, all that is read
    # window positions: V_{k-1} ends at n, V_k at nk; lengths 2k-1 start at odd, 2k at top
    n, nk, odd, top = (ends[min(t, len(ends) - 1)] for t in (k - 1, k, 2 * k - 2, 2 * k - 1))
    re, im, den = functional._re, functional._im, functional._den  # rebound before any change
    real = not any(im)

    # No path of odd length is its own star.  Columns [u | v] for z = u + i v
    # (only u on real data), pairs in the order of the member that holds z.
    unknown: dict[int, tuple[int, int]] = {}  # odd position -> (pair, sign of v)
    npairs = 0
    for i in range(odd, top):
        j = star[i]
        if j < i:
            unknown[i], unknown[j] = (npairs, 1), (npairs, -1)
            npairs += 1
    width = npairs if real else 2 * npairs

    # Per kernel element g and new path p: sum over q of conj(g_q) L(p q*) = 0,
    # times den and g's common denominator; the unknowns are den * z.
    rows: list[list[int]] = []  # the system's integer rows, right-hand side last
    new = keys[n:nk]
    for g, _ in functional._null:
        size, terms = len(g), [(x, -y) for x, y in g.values()]
        prods = ext._products(new, list(g))
        for at in range(0, len(prods), size):
            re_row, im_row, kr, ki, touched = [0] * (width + 1), [0] * (width + 1), 0, 0, False
            for i, (x, y) in zip(prods[at : at + size], terms):
                if i is None:
                    continue
                if i < odd:
                    kr += x * re[i] - y * im[i]
                    ki += x * im[i] + y * re[i]
                    continue
                j, sign = unknown[i]
                touched = True
                # (x + i y)(u + sign i v) = x u - sign y v + i (y u + sign x v)
                re_row[j] += x
                if not real:
                    re_row[npairs + j] -= sign * y
                    im_row[j] += y
                    im_row[npairs + j] += sign * x
            if touched or kr or ki:
                re_row[-1], im_row[-1] = -kr, -ki
                rows.extend((re_row,) if real else (re_row, im_row))

    pivots = linalg._gauss_jordan(rows, width + 1)
    if pivots and pivots[-1] == width:
        if free_algebra:
            raise InternalInvariantError("extension system inconsistent on a free *-algebra")
        raise ExtensionObstructed("one-step extension system is inconsistent")
    # Numerators over den * scale of every value of length <= 2k - 1.
    scale, w = lcm(*(rows[r][p] for r, p in enumerate(pivots))), [0] * width
    for r, p in enumerate(pivots):
        w[p] = rows[r][-1] * (scale // rows[r][p])
    re, im = [x * scale for x in re], [x * scale for x in im]
    for i in range(odd, top):
        j, sign = unknown[i]
        re.append(w[j])
        im.append(0 if real else sign * w[npairs + j])
    den *= scale

    # Degree-2k block: the Schur completion of the new C block over A = B_{L_{k-1}}.
    prods, nc = ext._products(keys[:n], new), nk - n
    parts = (re,) if real else (re, im)
    c = [[0 if i is None else x[i] for x in parts for i in prods[r * nc : r * nc + nc]] for r in range(n)]
    b = _flat_block(functional, c, nc)
    if b is None:
        if free_algebra:
            raise InternalInvariantError("range containment failed on a free *-algebra extension")
        raise ExtensionObstructed("extended C block left the range of A on this quiver")

    # Every value over den * s, the denominator of C^H X: A X = s C over the
    # base's den, and den is that times the odd system's scale.
    b, s = b
    s *= scale
    re = [x * s for x in re] + [0] * (len(star) - top)
    im = [x * s for x in im] + [0] * (len(star) - top)
    for i, (x, y) in zip(ext._products(new, new), (linalg._entry(row, j, nc) for row in b for j in range(nc))):
        if i is not None:
            re[i], im[i] = x, y
        elif x or y:
            raise ExtensionObstructed("Schur completion forces a nonzero value on a zero product")

    ext._place(range(len(star)), re, im, den * s, star)
    return ext


def _flat_block(functional: TruncatedFunctional, c: list[list[int]], w: int) -> tuple[list[list[int]], int] | None:
    """C^H X and s > 0 with A X = s C, for A the image of B_{L_{k-1}}, or None if Ran C is not inside Ran A.

    c holds the integer rows of C (w columns, either layout).  The pivot
    columns P of the base's `_echelon` span Ran A, and A[P, P] is
    nonsingular (A is hermitian).  On PSD data A[P, P] Y = s C[P, :] is
    solved through the base's LDL^H pivots, block by block
    (`TruncatedFunctional._psd_solve`, on conjugates), otherwise by one
    elimination of [A[P, P] | C[P, :]] (`linalg._solve`).  A[:, P] is read
    off the base's blocks.  The product A[:, P] Y = s C over every row of A
    certifies Y: then X = Y on P and 0 elsewhere solves A X = s C, and
    C^H X = C[P, :]^H Y, whichever solution X is.
    """
    at = functional._echelon[0]
    r, a = len(at), functional._entries(range(functional._end(functional.k)), at)
    # C is Gaussian when some odd value is, though A may be real without trivial paths
    real = not c or len(c[0]) == w
    if real or functional._real:
        a = [row[:r] if real else row + [0] * r for row in a]
    cp = [c[p] for p in at]
    if functional._ldlh is not None:
        conj = cp if real else [row[:w] + [-x for x in row[w:]] for row in cp]
        y, s = functional._psd_solve(at, conj, w)
        y = y if real else [row[:w] + [-x for x in row[w:]] for row in y]
    else:
        solved = linalg._solve([x[:r] + cx[:w] + x[r:] + cx[w:] for x, cx in zip((a[p] for p in at), cp)], r, r + w)
        if solved is None:
            return None
        pivots, xs, s = solved
        y = [[0] * (w if real else 2 * w) for _ in at]
        for p, x in zip(pivots, xs):
            y[p] = [u for u, _ in x] + ([] if real else [v for _, v in x])
    if not linalg._equal(linalg._product(a, y, w), s, c, 1):
        return None
    return linalg._product(linalg._transpose(cp, w, conj=True), y, w), s


class FlatExtension:
    """The rank-preserving extension of a flat functional, evaluated lazily.

    Every path reduces through the kernel Gröbner basis into the V_{k-1}
    window, where the base functional takes over; values are cached.  The
    normal form of a path is folded letter by letter through the basis's
    tip table (`groebner.TipTable`), on the table's path ids.

    The base values on V_{k-1} are held as Gaussian-integer numerators over
    one denominator, looked up by the ids of the table the first time a
    normal form meets them, so a value is one integer dot product.
    """

    def __init__(self, base: TruncatedFunctional):
        report = base.is_flat()
        if not report.flat:
            raise InputError("FlatExtension requires a flat base functional")
        self.base = base
        self.gb: RightGroebnerBasis = kernel_groebner(base)
        self.cache: dict[Path, Scalar] = {}
        # V_{k-1} is a prefix of the window; its values over their own lcm denominator
        n = base._end(base.k - 1)
        re, im = base._re[:n], base._im[:n]
        g = gcd(base._den, *re, *im)
        self._den = base._den // g
        self._window = {key: (a // g, b // g) for key, a, b in zip(base._keys, re, im)}
        self._moments: dict[int, tuple[int, int]] = {}  # table id -> value numerators

    def evaluate(self, p: Path) -> Scalar:
        if p in self.cache:
            return self.cache[p]
        return self._value(p, *self.gb.tip_table._fold((p.vertex, p.letters)))

    def _value(self, p: Path, vec: dict, den: int) -> Scalar:
        """L(NF(p)) for NF(p) = vec/den, a vector of the tip table's layout; cached."""
        moments, re, im = self._moments, 0, 0
        for i, (a, b) in self.gb.tip_table._gaussian(vec).items():
            m = moments.get(i)
            if m is None:
                m = moments[i] = self._moment(p, i)
            lr, li = m
            re, im = re + a * lr - b * li, im + a * li + b * lr
        value = self.cache[p] = linalg._scalar(re, im, den * self._den)
        return value

    def _moment(self, p: Path, i: int) -> tuple[int, int]:
        """The numerators of L at the path with table id i, a term of NF(p) in V_{k-1}."""
        key = self.gb.tip_table._keys[i]
        m = self._window.get(key)
        if m is None:
            if len(key[1]) >= self.base.k:
                raise InternalInvariantError(f"normal form of {p} escaped the V_{self.base.k - 1} window")
            # The one short path outside V_{k-1}: a trivial path, in a
            # window without them; value() raises its WindowError.
            self.base.value(Path(self.base.double, *key))
        return m

    def truncated_view(self, m: int) -> TruncatedFunctional:
        """Materialize the extension as an order-m functional (m >= k).

        NF(p·c) = NF(NF(p)·c), and every window word extends a word of the
        previous length, so each normal form is one fold step from its
        parent's.  Only the layer still to be extended is held.
        """
        if m < self.base.k:
            raise InputError("truncated_view order must be >= the base order")
        table = self.gb.tip_table
        double, order = self.base.double, self.base.order
        roots = {v: table._start(v) for v in order.vertex_seq}
        vals = {}
        if self.base.include_trivial:
            for v, nf in roots.items():
                e = Path(double, v, ())
                vals[e] = self._value(e, *nf)
        parents: dict = {}
        for words in _words(double, order, 2 * m):
            layer = {}
            for w in words:
                parent = parents[w[:-1]] if len(w) > 1 else roots[double.source[w[0]]]
                nf = layer[w] = table._run(*parent, w[-1:])
                p = Path(double, None, w)
                vals[p] = self._value(p, *nf)
            parents = layer
        return TruncatedFunctional(double, m, vals, self.base.include_trivial, order)
