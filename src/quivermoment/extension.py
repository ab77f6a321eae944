"""Flat completions and rank-preserving extensions.

Two layers: the one-step extension of a tip-maximal functional, whose top
block is the exact Schur completion (the flat choice of the bottom-right
block), and the lazy full extension that evaluates any path on the finite
quotient of a flat functional.

The full extension of a flat functional is unique, and its quotient by the
kernel ideal is the span of the pivot paths P of B_{L_k}, all in V_{k-1}.
The class of a free path of V_k is minus the other terms of its echelon
kernel element, which is monic there, so each letter acts on the quotient
by one integer matrix whose row at a pivot p is the class of p·a
(`FlatQuotient`); Laurent and Mourrain (2009) read the multiplication
matrices of a flat moment matrix off its kernel in the same way.  A long
word is folded two letters per step through the products of letter pairs,
each formed once, and its value is one dot product with the base values at
P.  No Gröbner basis is built; two exact checks on the kernel stand for
the ones its construction makes.  `gns build` takes its arrows from the
same quotient.

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

from functools import cached_property
from math import gcd, lcm
from operator import add, mul, sub

from . import linalg
from .errors import ExtensionObstructed, InputError, InternalInvariantError
from .moment import TruncatedFunctional
from .quiver import Key, Path, _proper_prefixes, _words
from .scalar import Scalar

_GCD_EVERY = 16  # letters between two gcd divisions of a running fold


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


class FlatQuotient:
    """The quotient of a flat functional's unique extension, on the pivot paths of B_{L_k}.

    Its basis is the pivot positions P of `TruncatedFunctional._echelon`,
    all in V_{k-1}, and a class is an integer vector on P over a
    denominator: [re | im] on Gaussian data, re alone while every kernel
    element is real.  A pivot is its own class.  A free position f of V_k
    is the tip of one echelon kernel element g, whose numerator at f is its
    denominator, so the class of f is f - g: minus g's other terms, all on
    P, over g's denominator.  The kernel ideal is a right ideal, so the
    class of f·b is the class of f times the letter matrix M_b, whose row
    at a pivot p is the class of p·b, a path of V_k, and zero when b does
    not start where p ends.  Every matrix is held over one denominator D,
    the lcm of the denominators of its rows and of the letters' classes, as
    (re rows, im rows), im None while every class is real.

    Two exact checks, run once, raise `InternalInvariantError`: every
    kernel element whose tip has no proper prefix among the kernel tips
    pairs to zero with the V_k window (the pairing check), and every other
    free path f = f'·b has class(f) = class(f')·M_b (the closure check), so
    the kernel ideal meets V_k in the right multiples of those elements.
    Flatness guarantees both.
    """

    def __init__(self, base: TruncatedFunctional):
        k, pivots, double = base.k, base._echelon[0], base.double
        if pivots and pivots[-1] >= base._end(k - 1):
            raise InternalInvariantError(f"the flat extension's quotient escaped the V_{k - 1} window")
        keys, source, target = base._keys, double.source, double.target
        tips = {next(reversed(terms)): (terms, den) for terms, den in base._null}  # each tip comes last
        if [i for i, key in enumerate(keys) if key not in tips] != pivots:
            raise InternalInvariantError("coset basis differs from the pivot paths of the moment matrix")
        self.base, self.pivots, letters = base, pivots, double.letters()
        r = len(pivots)
        self.real = real = not any(y for terms, _ in tips.values() for _, y in terms.values())
        self.width = r if real else 2 * r
        self._at = at = {keys[p]: j for j, p in enumerate(pivots)}
        self._values = [base._re[p] for p in pivots], [base._im[p] for p in pivots]  # L at P, over base._den
        self._classes: dict[Key, tuple[list[int], int]] = {}
        for tip, (terms, den) in tips.items():
            v = [0] * self.width
            for key, (x, y) in terms.items():
                if key != tip:
                    v[at[key]] = -x
                    if not real:
                        v[r + at[key]] = -y
            self._classes[tip] = v, den

        rows = {a: [] for a in letters}  # per letter, the class of p·a per pivot p, or None
        for p in pivots:
            vertex, word = keys[p]
            end = target[word[-1]] if word else vertex
            for a, out in rows.items():
                out.append(self.cls((None, word + (a,))) if source[a] == end else None)
        self.start = {a: self.cls((None, (a,))) for a in letters}
        d = self.den = lcm(*(c[1] for out in rows.values() for c in out if c), *(den for _, den in self.start.values()))
        self._probe = d**_GCD_EVERY
        self.matrices = {}
        for a, out in rows.items():
            m = [[0] * self.width if c is None else [x * (d // c[1]) for x in c[0]] for c in out]
            self.matrices[a] = (m, None) if real else ([row[:r] for row in m], [row[r:] for row in m])
        self.single = {a: _columns(m) for a, m in self.matrices.items()}

        kept = {tip: tips.keys().isdisjoint(_proper_prefixes(tip, double)) for tip in tips}
        for tip, (terms, _) in tips.items():  # the pairing check
            j = base.first_pairing(terms) if kept[tip] else None
            if j is not None:
                raise InternalInvariantError(
                    f"pairing check: the kernel element with tip {Path(double, *tip)} pairs nontrivially"
                    f" with {base.basis(k)[j]}"
                )
        for tip, (v, den) in self._classes.items():  # the closure check
            if kept[tip]:
                continue
            parent, b = _proper_prefixes(tip, double)[-1], tip[1][-1]
            u, pden = self.cls(parent)
            if [x * pden * d for x in v] != [x * den for x in self.step(u, self.single[b])]:
                raise InternalInvariantError(
                    f"closure check: the class of {Path(double, *tip)} is not the class of"
                    f" {Path(double, *parent)} times {double.letter_name(b)}"
                )

    def step(self, v: list[int], cols: list) -> list[int]:
        """The vector v times the matrix with these step columns (`_step`, `_gaussian_step`)."""
        return (_step if self.real else _gaussian_step)(v, cols)

    def cls(self, key: Key) -> tuple[list[int], int]:
        """The class of the path of V_k with this key, canonical, as (vector, denominator)."""
        c = self._classes.get(key)
        if c is None:
            v = [0] * self.width
            v[self._at[key]] = 1
            c = v, 1
        return c

    def canonical(self, v: list[int], den: int) -> tuple[list[int], int]:
        """v/den with no factor common to den and every entry.

        den divides a power of D, so the common factor has only primes of
        D: it is divided out through the gcds of D^_GCD_EVERY with den and
        the entries, each linear in their size, until one is 1.  A fold's
        den grows by D at every letter, and one gcd of two such numbers
        would cost the square of their size.
        """
        while True:
            g = gcd(self._probe, den, *v)
            if g == 1:
                return v, den
            den //= g
            v = [x // g for x in v]

    def value(self, v: list[int], den: int) -> Scalar:
        """L at the class v/den: one dot product with the base's numerators at P."""
        base, r = self.base, len(self.pivots)
        re, im = self._values
        if self.real:
            return linalg._scalar(sum(map(mul, v, re)), sum(map(mul, v, im)), den * base._den)
        x, y = v[:r], v[r:]
        dot = sum(map(mul, x, re)) - sum(map(mul, y, im)), sum(map(mul, x, im)) + sum(map(mul, y, re))
        return linalg._scalar(*dot, den * base._den)


class FlatExtension:
    """The rank-preserving extension of a flat functional, evaluated lazily.

    A path acts on the base's quotient (`FlatQuotient`), built when first
    needed: its first letter's class is stepped by the rest two letters at
    a time, through the product of their letter matrices, formed once per
    pair, with an odd last letter alone.  Its value is L at the class, read
    off the base values at the pivot paths; a trivial path is read off the
    base.  Values are cached.
    """

    def __init__(self, base: TruncatedFunctional):
        report = base.is_flat()
        if not report.flat:
            raise InputError("FlatExtension requires a flat base functional")
        self.base = base
        self.cache: dict[Path, Scalar] = {}
        self._pairs: dict = {}  # (letter, letter) -> the step columns of their matrices' product

    @cached_property
    def gb(self):
        """The reduced right Gröbner basis of the kernel ideal (`groebner.kernel_groebner`), built when asked for."""
        from .groebner import kernel_groebner

        return kernel_groebner(self.base)

    @cached_property
    def _quotient(self) -> FlatQuotient:
        return FlatQuotient(self.base)

    def evaluate(self, p: Path) -> Scalar:
        value = self.cache.get(p)
        if value is None:
            value = self.cache[p] = self._quotient.value(*self._fold(p)) if p.letters else self.base.value(p)
        return value

    def _fold(self, p: Path) -> tuple[list[int], int]:
        """The canonical class of a path of one letter or more.

        The first letter's class takes the rest two letters per step,
        through the product of their matrices, and an odd last letter alone.
        Each letter scales the denominator by D, whose common factor with
        the vector is divided out every `_GCD_EVERY` letters and at the end.
        """
        q, letters = self._quotient, p.letters
        v, den = q.start[letters[0]]
        step, d, pairs, since = _step if q.real else _gaussian_step, q.den, self._pairs, 0
        rest = letters[1:]
        for ab in zip(rest[::2], rest[1::2]):
            cols = pairs.get(ab)
            v = step(v, self._pair(*ab) if cols is None else cols)
            den *= d * d
            since += 2
            if since >= _GCD_EVERY:
                v, den = q.canonical(v, den)
                since = 0
        if len(rest) % 2:
            v = step(v, q.single[rest[-1]])
            den *= d
        return q.canonical(v, den)

    def _pair(self, a, b) -> list:
        """The step columns of M_a·M_b, over D², formed once per pair of letters."""
        mats = self._quotient.matrices
        pair = self._pairs[a, b] = _columns(_product(mats[a], mats[b]))
        return pair

    def truncated_view(self, m: int) -> TruncatedFunctional:
        """Materialize the extension as an order-m functional (m >= k).

        Every window word extends a word of the previous length, so its
        class is one matrix step from its parent's.  Only the layer still to
        be extended is held.
        """
        if m < self.base.k:
            raise InputError("truncated_view order must be >= the base order")
        q = self._quotient
        double, order = self.base.double, self.base.order
        vals = {}
        if self.base.include_trivial:
            for v in order.vertex_seq:
                e = Path(double, v, ())
                vals[e] = self.evaluate(e)
        parents: dict = {}
        for words in _words(double, order, 2 * m):
            layer = {}
            for w in words:
                if len(w) > 1:
                    v, den = parents[w[:-1]]
                    c = q.canonical(q.step(v, q.single[w[-1]]), den * q.den)
                else:
                    c = q.start[w[0]]
                layer[w], p = c, Path(double, None, w)
                vals[p] = self.cache[p] = q.value(*c)
            parents = layer
        return TruncatedFunctional(double, m, vals, self.base.include_trivial, order)


def _product(m: tuple, n: tuple) -> tuple:
    """The product of two square matrices held as (re rows, im rows), im None on real data."""

    def times(x, y):
        cols = list(zip(*y))
        return [[sum(map(mul, row, col)) for col in cols] for row in x]

    (ar, ai), (br, bi) = m, n
    if ai is None:
        return times(ar, br), None
    re = [list(map(sub, *rows)) for rows in zip(times(ar, br), times(ai, bi))]
    return re, [list(map(add, *rows)) for rows in zip(times(ar, bi), times(ai, br))]


def _columns(m: tuple) -> list:
    """A matrix as its step columns: each column, or on Gaussian data (re, im, re + im) per column."""
    re, im = m
    if im is None:
        return [list(col) for col in zip(*re)]
    return [(list(cr), list(ci), list(map(add, cr, ci))) for cr, ci in zip(zip(*re), zip(*im))]


def _step(v: list[int], cols: list[list[int]]) -> list[int]:
    """The row vector v times the matrix with these columns."""
    return [sum(map(mul, v, col)) for col in cols]


def _gaussian_step(v: list[int], cols: list) -> list[int]:
    """[x | y] times R + iI, for x + iy: three products per column, not four.

    With t1 = x·R_j and t2 = y·I_j, the column's re part is t1 - t2 and its
    im part (x + y)·(R_j + I_j) - t1 - t2.
    """
    r = len(cols)
    x, y = v[:r], v[r:]
    s, re, im = list(map(add, x, y)), [], []
    for cr, ci, cs in cols:
        t1, t2 = sum(map(mul, x, cr)), sum(map(mul, y, ci))
        re.append(t1 - t2)
        im.append(sum(map(mul, s, cs)) - t1 - t2)
    return re + im
