"""Truncated hermitian functionals and their moment matrices.

A functional of order k assigns a Gaussian rational to every basis path of
length <= 2k in the chosen window (with or without trivial paths).  The
order-t moment matrix pairs window paths p, q through L(p q*); entries where
p q* vanishes in the path semigroup are exact zeros.

A functional holds its values as Gaussian-integer numerators (re, im) over
one common denominator, from the loader on, and its window as integers: the
code of each letter word and the position of each path's star
(`quiver.window_layers`); the loader alone asks for the window's texts.
(vertex, letters) keys are built for V_k, the part of the window B_{L_k}
reads; the keys and `Path`s of the whole window are built only when asked
for.  B_{L_k} is gathered once from those numerators by window position,
as an integer image, and every matrix a functional hands out is read off
it (`principal`); a `Scalar` is built only for a value or a matrix asked
for by a caller.  One LDL^H pivoting of the image decides PSD and gives
the flatness report, the rank, tip-maximality and the echelon kernel, held
as integer numerators until `kernel_basis()` builds `Element`s; only data
that is not PSD takes one echelon form, with V_{k-1} first.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from . import linalg
from .algebra import Element
from .errors import InputError, InternalInvariantError, WindowError
from .linalg import Matrix
from .quiver import DoubleQuiver, Key, Path, PathOrder, Record, _digit, window_keys, window_layers
from .scalar import Scalar, from_numerators


class TruncatedFunctional:
    """Hermitian scalar assignment on the length <= 2k basis window.

    A functional is immutable after construction.  It enumerates its window
    once, layer by layer (`quiver.window_layers`): the position of each
    letter word by its code (`_at`), of each trivial path by its vertex
    (`_trivial`), and the number of paths of each length or less (`_ends`).
    It holds the (vertex, letters) keys of V_k (`_keys`); the keys of the
    whole window (`_window_keys`) are built the first time a longer path is
    asked for.  Its values are held in window order as numerators `_re`,
    `_im` over one denominator `_den`, with no factor common to all of them;
    `Path` objects and `Scalar` values are built only for what is asked for.
    Its integer image of B_{L_k} and the one pivoting (or, off PSD data,
    echelon form) its verdicts and its kernel read are computed once.
    """

    def __init__(
        self,
        double: DoubleQuiver,
        k: int,
        values,
        include_trivial: bool = True,
        order: PathOrder | None = None,
    ):
        given = {(p.vertex, p.letters): v.numerators() for p, v in dict(values).items()}
        star, _ = self._open(double, k, include_trivial, order)
        slots = map(self._index, given)
        self._place({key if i is None else i: v for i, (key, v) in zip(slots, given.items())}, star)

    @classmethod
    def from_texts(cls, double, k, read, include_trivial=True, order=None):
        """The functional of the values `read` gives, as a file lists them.

        `read(texts, index)` is handed the window position of every window
        path's text (as `str(Path)` writes it), and `index(key)`, the window
        position of a (vertex, letters) key or None.  It returns the given
        values as (re, im, den) triples (see `scalar.parse_literal`), keyed
        by window position, or by key for a path outside the window, in the
        order given.  When the window cannot be built (an order below 1, an
        over-large window) the text table is empty and no key has a
        position, and that error is raised after `read` returns, so the
        errors `read` raises come first.
        """
        f = cls.__new__(cls)
        try:
            star, texts = f._open(double, k, include_trivial, order, named=True)
        except InputError:
            read({}, lambda key: None)
            raise
        f._place(read(dict(zip(texts, range(len(texts)))), f._index), star)
        return f

    def _open(self, double, k, include_trivial, order, named=False) -> tuple[list[int], list[str] | None]:
        """Enumerate the window (`quiver.window_layers`).

        Returns the window position of each window path's star, and with
        `named` the text of each window path.  The (vertex, letters) keys are
        built for V_k only, the part of the window that B_{L_k} reads.
        """
        if k < 1:
            raise InputError("functional order k must be >= 1")
        self.double = double
        self.k = k
        self.include_trivial = include_trivial
        self.order = order or double.default_order()
        # Lengths come first in the order: the paths of length <= t are a prefix of the window.
        self._ends, codes, stars, texts = window_layers(double, self.order, 2 * k, include_trivial, named)
        self._keys = window_keys(double, self.order, k, include_trivial)
        self._paths: list[Path] = []  # the window paths built so far, a prefix
        # Window positions by key: trivial paths by vertex, letter words by code.
        trivial = range(self._ends[0])
        self._trivial = dict(zip(self.order.vertex_seq, trivial))
        self._base = 2 * len(double.base.arrows) + 1
        at = self._at = dict(zip(codes, range(self._ends[0], self._ends[-1])))
        return [*trivial, *map(at.__getitem__, stars)], texts

    @cached_property
    def _window_keys(self) -> list[Key]:
        """The key of every window path, built the first time a path beyond V_k is asked for."""
        return window_keys(self.double, self.order, 2 * self.k, self.include_trivial)

    def _code(self, word) -> int:
        """The integer of a letter word: its letters' digits in base `_base`, first letter first.

        code(p q*) = code(p) * base ** len(q*) + code(q*), and no digit is 0,
        so distinct words have distinct codes.
        """
        base, c = self._base, 0
        for letter in word:
            c = c * base + _digit(letter)
        return c

    def _index(self, key: Key) -> int | None:
        """The window position of a (vertex, letters) key, or None outside the window."""
        vertex, word = key
        return self._at.get(self._code(word)) if word else self._trivial.get(vertex)

    def _place(self, given: dict, star: list[int]) -> None:
        """Place the given values and close them under the star.

        `given` maps a window position, or a key for a path outside the
        window, to a value (re, im, den); `star` is the position of each
        window position's star.  The values are brought to the lcm of
        their denominators.  Errors in this order: a path outside the window
        (the first one given), then a hermitian conflict between the member of
        a star pair given first and its partner.  An omitted partner takes the
        conjugate value; each pair is looked at once.
        """
        den = lcm(*set(map(itemgetter(2), given.values())))
        re, im = [0] * len(star), [0] * len(star)
        state = bytearray(len(star))  # 1: given; 2: given, star pair already checked
        try:
            for i, (a, b, d) in given.items():
                if d != den:
                    a, b = a * (den // d), b * (den // d)
                re[i], im[i] = a, b
                state[i] = 1
        except TypeError:  # i is a key, not a position: the first path given outside
            raise self._outside(Path(self.double, *i)) from None
        for i in given:
            if state[i] == 2:
                continue
            j = star[i]
            if not state[j]:
                re[j], im[j] = re[i], -im[i]
                continue
            if re[j] != re[i] or im[j] != -im[i]:
                p, ps = (Path(self.double, *self._window_keys[x]) for x in (i, j))
                raise InputError(f"hermitian conflict between {p} and {ps}")
            state[j] = 2
        g = gcd(den, *re, *im) if den > 1 else 1
        if g > 1:
            den, re, im = den // g, [x // g for x in re], [x // g for x in im]
        self._re, self._im, self._den = re, im, den

    # -- evaluation ------------------------------------------------------------

    @cached_property
    def values(self) -> dict[Path, Scalar]:
        """Every window value, keyed by path, in window order."""
        den = self._den
        return dict(zip(self._window, [from_numerators(a, b, den) for a, b in zip(self._re, self._im)]))

    def value(self, p: Path) -> Scalar:
        i = self._index((p.vertex, p.letters))
        if i is None:
            raise self._outside(p)
        return from_numerators(self._re[i], self._im[i], self._den)

    def _outside(self, p: Path) -> WindowError:
        return WindowError(f"path {p} outside the length <= {2 * self.k} window")

    # -- windows and matrices ----------------------------------------------------

    @property
    def _window(self) -> tuple[Path, ...]:
        return self._prefix(self._ends[-1])

    def _prefix(self, n: int) -> tuple[Path, ...]:
        """The first n window paths; each is built once, when first asked for."""
        paths = self._paths
        if len(paths) < n:
            keys = self._keys if n <= len(self._keys) else self._window_keys
            paths.extend([Path(self.double, *key) for key in keys[len(paths) : n]])
        return tuple(paths[:n])

    def basis(self, t: int) -> tuple[Path, ...]:
        """The window paths of length <= t, a prefix of the window."""
        if t < 0:
            return ()
        if t > 2 * self.k:
            raise InputError(f"basis order {t} exceeds the window length {2 * self.k}")
        return self._prefix(self._end(t))

    def _end(self, t: int) -> int:
        """The number of window paths of length <= t, for t >= 0."""
        return self._ends[min(t, len(self._ends) - 1)]

    def _gather(self, rows: list[Key], cols: list[Key]) -> tuple[list[int], list[int]]:
        """The numerators (re, im) of L(p q*) over row keys p and column keys q, row-major."""
        at = self._products(rows, cols, -1)  # position -1 reads the appended zero
        return list(map((self._re + [0]).__getitem__, at)), list(map((self._im + [0]).__getitem__, at))

    def _products(self, rows: list[Key], cols: list[Key], zero=None) -> list:
        """The window position of p q* over row keys p and column keys q, row-major.

        p q* is a path iff p and q end at the same vertex, and `zero`
        otherwise.  Only the window is read, not the values: a letter word
        p q* is found by its code, code(p) * base ** len(q*) + code(q*).
        Every product asked for has length <= 2k, so it is in the window.
        """
        double, at, trivial = self.double, self._at.__getitem__, self._trivial.__getitem__
        target, star_word = double.target, double.star_word
        # (terminal vertex of q, base ** len(q*), code of q*) per column
        stars = [(target[w[-1]], self._base ** len(w), self._code(star_word(w))) if w else (v, 1, 0) for v, w in cols]
        out = []
        try:
            for v, word in rows:
                if word:
                    end, c = target[word[-1]], self._code(word)
                    out += [at(c * m + s) if t == end else zero for t, m, s in stars]
                else:  # e_v q* is q*, and e_v for q = e_v
                    out += [(at(s) if s else trivial(v)) if t == v else zero for t, _, s in stars]
        except KeyError:
            raise InternalInvariantError("a moment product left the window") from None
        return out

    def principal(self, at) -> Matrix:
        """B_{L_k} at the window positions `at`, as rows and as columns, read off the integer image."""
        rows, den = self._image
        n, at = len(rows), list(at)
        cols = at if not rows or len(rows[0]) == n else at + [n + c for c in at]  # the real parts, then the imaginary
        return linalg._matrix([[rows[i][c] for c in cols] for i in at], den, len(at))

    def moment_matrix(self, t: int | None = None) -> MomentMatrix:
        """B_{L_t}: the order-k matrix for t = k, its top-left corner for t < k."""
        t = self.k if t is None else t
        if t > self.k:
            raise InputError(f"moment matrix order {t} exceeds functional order {self.k}")
        basis = self.basis(t)
        return MomentMatrix(basis, self.principal(range(len(basis))))

    # -- kernel and verdicts -------------------------------------------------------

    def kernel_basis(self) -> list[Element]:
        """Echelon basis of ker B_{L_k} as elements, largest path as pivot.

        The nullspace of the conjugated moment matrix is taken so that each
        returned element g satisfies L(g q*) = 0 = L(q g*) for every window
        path q, also over complex data.  Each call returns a fresh list.
        """
        return list(self._kernel)

    @cached_property
    def _image(self) -> tuple[list[list[int]], int]:
        """B_{L_k} times the values' denominator, as integer rows, and that denominator.

        The numerators are gathered by window position.  The echelon form
        and the PSD verdict read the rows; see `linalg._image` for the
        layout, real unless some entry is non-real.
        """
        n = self._end(self.k)
        keys = self._keys[:n]
        re, im = self._gather(keys, keys)
        if any(im):
            return [re[i * n : (i + 1) * n] + im[i * n : (i + 1) * n] for i in range(n)], self._den
        return [re[i * n : (i + 1) * n] for i in range(n)], self._den

    def first_pairing(self, terms: dict[Key, tuple[int, int]]) -> int | None:
        """The first position j of V_k with L(g q_j*) != 0, or None.

        g is given by numerators {key: (re, im)} over any denominator, on
        V_k.  Its pairings are the combination of the image's rows at its
        support: row p of B_{L_k} holds L(p q*) over the window paths q.
        """
        rows, _ = self._image
        n = len(rows)
        if rows and len(rows[0]) == n and not any(ci for _, ci in terms.values()):  # one product per entry
            acc = [0] * n
            for key, (cr, _) in terms.items():
                acc = [s + cr * x for s, x in zip(acc, rows[self._index(key)])]
            return next((j for j, s in enumerate(acc) if s), None)
        re, im = [0] * n, [0] * n
        for key, (cr, ci) in terms.items():
            row = rows[self._index(key)]
            br, bi = row[:n], row[n:] or [0] * n  # a real image has no imaginary parts
            re = [s + cr * x - ci * y for s, x, y in zip(re, br, bi)]
            im = [s + ci * x + cr * y for s, x, y in zip(im, br, bi)]
        return next((j for j in range(n) if re[j] or im[j]), None)

    @cached_property
    def _echelon(self) -> tuple[list[int], int, bool, list[tuple[dict[Key, tuple[int, int]], int]]]:
        """The pivot columns of B_{L_k}, rank B_{L_{k-1}}, whether Ran C <= Ran A, and the echelon kernel.

        On PSD data they are read off the LDL^H pivots (`_ldlh`), which come
        in window order: rank A counts those in V_{k-1}, and Ran C <= Ran A
        holds for every PSD block matrix (Albert 1969).  Otherwise they come
        from one elimination of conj(B_{L_k}) (`linalg._block_echelon`).
        The kernel, per free column numerators {key: (re, im)} in window
        order, its tip last, over one denominator (`linalg._null_terms`), is
        checked exactly: conj(B_{L_k}) times the sum of its vectors is zero.
        """
        rows, _ = self._image
        n, m = len(rows), self._end(self.k - 1)
        conj = [row[:n] + [-x for x in row[n:]] for row in rows] if rows and len(rows[0]) > n else rows
        if self._ldlh is None:
            top, pivots, rank_km1, range_ok = linalg._block_echelon(conj, m, n)
            null = linalg._null_terms(top, pivots, n)
        else:
            pivots = [p for p, *_ in self._ldlh]
            rank_km1, range_ok = sum(p < m for p in pivots), True
            null = linalg._psd_null_terms(self._ldlh, n)
        total = [[0, 0] for _ in range(n)]
        for terms, _ in null:
            for c, (re, im) in terms:
                total[c][0] += re
                total[c][1] += im
        if not linalg._annihilates(conj, total, n):
            raise InternalInvariantError("the echelon kernel is not annihilated by the moment matrix")
        keys = self._keys
        return pivots, rank_km1, range_ok, [({keys[c]: v for c, v in terms}, den) for terms, den in null]

    @cached_property
    def _null(self) -> list[tuple[dict[Key, tuple[int, int]], int]]:
        """The echelon kernel of B_{L_k} as integers: per element, numerators
        {key: (re, im)} in window order, its tip last, over one denominator."""
        return self._echelon[3]

    @cached_property
    def _kernel(self) -> tuple[Element, ...]:
        paths = dict(zip(self._keys, self.basis(self.k)))
        double = self.double
        return tuple(
            Element(double, {paths[key]: from_numerators(re, im, den) for key, (re, im) in terms.items()})
            for terms, den in self._null
        )

    def is_flat(self) -> FlatReport:
        """Both flatness criteria, read off `_echelon`.

        Rank criterion: rank B_{L_k} = rank B_{L_{k-1}}.  Block criterion:
        Ran(C) <= Ran(A) and B equals the exact Schur completion C^H X with
        A X = C.  For hermitian data the two are the same fact.  Off PSD
        data each lower row [C^H | B] is reduced against the pivot rows of
        [A | C], and B = C^H X iff every residual is zero.
        """
        pivots, rank_km1, range_ok, _ = self._echelon
        return FlatReport(len(pivots) == rank_km1, len(pivots), rank_km1, range_ok)

    def is_tip_maximal(self) -> bool:
        """True iff every kernel pivot path has length exactly k.

        Equivalent to ker B_{L_k} meeting V_{k-1} trivially: a kernel tip is
        a free column, so the verdict holds iff every column of V_{k-1} is a
        pivot column of `_echelon`.
        """
        m = self._end(self.k - 1)
        return self._echelon[0][:m] == list(range(m))

    def is_psd(self) -> bool:
        """Whether B_{L_k} is PSD, by the LDL^H pivoting of its integer image."""
        return self._ldlh is not None

    @cached_property
    def _ldlh(self) -> list[tuple] | None:
        """The integer LDL^H pivot data of B_{L_k} (`linalg._image_psd`), or None.

        On PSD data an index is dropped with a zero diagonal iff its column lies
        in the span of the columns pivoted before it: the pivots are the pivot
        columns, the rest the kernel tips.
        """
        return linalg._image_psd(*self._image)


class MomentMatrix(Record):
    """The moment matrix `m` over the window paths `basis`."""

    _fields = ("basis", "m")


class FlatReport(Record):
    """The flatness verdict, rank B_{L_k}, rank B_{L_{k-1}} and whether Ran C <= Ran A."""

    _fields = ("flat", "rank_k", "rank_km1", "range_contained")

    def __bool__(self) -> bool:
        return self.flat
