"""Truncated hermitian functionals and their moment matrices.

A functional of order k assigns a Gaussian rational to every basis path of
length <= 2k in the chosen window (with or without trivial paths).  The
order-t moment matrix pairs window paths p, q through L(p q*); entries where
p q* vanishes in the path semigroup are exact zeros.

A functional holds its values as Gaussian-integer numerators (re, im) over
one common denominator, from the loader on, and its window as integers: the
code of each letter word and the position of each path's star
(`quiver.window_layers`); only the loader and the one-step extension ask
for the window's texts.  (vertex, letters) keys are built for V_k, the part
of the window B_{L_k} reads; the keys and `Path`s of the whole window are
built only when asked for.

The trivial paths are orthogonal idempotents, so L(p q*) = 0 unless p and
q end at the same vertex: grouped by terminal vertex (e_v ends at v, a
word at the target of its last letter), V_k splits into blocks, each in
window order, and B_{L_k} is the direct sum of its principal submatrices
at the blocks.  Each nonempty block is gathered once from the numerators
by window position, as the upper triangle of an integer image (the values
are closed under the star, so the block is hermitian), and pivoted on its
own.  The verdicts combine: B_{L_k} is PSD iff every block is, its rank is
the sum of theirs, and it is flat or tip-maximal iff every block is.  The
pivots merge back into window order; the kernel is per block, each
element within the block of its tip.  Full rows are rebuilt from the
triangles for the readers that need them: every matrix a functional hands
out is read off them (`principal`), and a `Scalar` is built only for a
value or a matrix asked for by a caller.  The LDL^H pivoting decides PSD
and gives the flatness report, the rank, tip-maximality and the echelon
kernel, held as integer numerators until `kernel_basis()` builds
`Element`s; only data that is not PSD takes one echelon form of the whole
matrix, with V_{k-1} first.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm
from operator import itemgetter, neg

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
    Its integer image of B_{L_k}, one upper triangle per terminal-vertex
    block (`_blocks`, `_image`), and the pivoting of each block (or, off PSD
    data, the echelon form) its verdicts and its kernel read are computed
    once.
    """

    # The window's texts, kept only by a functional built to be written (the
    # one-step extension); a loaded functional holds none.
    _texts: list[str] | None = None

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
        slots = [key if i is None else i for key, i in zip(given, map(self._index, given))]
        self._place(*_columns(slots, given.values()), star)

    @classmethod
    def from_texts(cls, double, k, read, include_trivial=True, order=None):
        """The functional of the values `read` gives, as a file lists them.

        `read(texts, index)` is handed the text of every window path in
        window order (as `str(Path)` writes it), and `index(key)`, the window
        position of a (vertex, letters) key or None.  It returns the given
        values as the columns `_place` takes: their window positions (a
        `range` when the values are the whole window in window order), or
        keys for paths outside the window, each once, in the order given,
        and their numerators over one denominator (see `_columns`).  When
        the window cannot be built (an order below 1, an over-large window)
        there are no texts and no key has a position, and that error is
        raised after `read` returns, so the errors `read` raises come first.
        """
        f = cls.__new__(cls)
        try:
            star, texts = f._open(double, k, include_trivial, order, named=True)
        except InputError:
            read([], lambda key: None)
            raise
        f._place(*read(texts, f._index), star)
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

    def _place(self, slots, re: list[int], im: list[int] | None, den: int, star: list[int]) -> None:
        """Place the given values and close them under the star.

        `slots` holds the window position of each given value, or its key
        for a path outside the window, each once, in the order given, or is
        `range(len(star))` when the values are the whole window in window
        order; `re` and `im` hold their numerators over `den`, with `im` None
        when every value is real, and are taken over, not copied; `star` is
        the position of each window position's star.  The bulk pass scatters
        the columns (a whole window needs no scatter), then, only when some
        position is omitted, gives each omitted one the conjugate of its
        partner (zero when both are omitted), and checks the star closure
        with two list comparisons, re o star == re and -im o star == im (the
        second only with an imaginary column).  Errors in this order: a path
        outside the window (the first one given), then a hermitian conflict,
        named by the ordered loop that runs only when a comparison fails:
        the first member given of a pair in conflict, and its partner.  The
        numerators are then divided by the factor common to all of them.
        """
        n = len(star)
        if slots == range(n):  # the whole window, in window order
            values, imag = re, [0] * n if im is None else im
        else:
            values = [0] * n
            try:
                for i, a in zip(slots, re):
                    values[i] = a
            except TypeError:  # i is a key, not a position: the first path given outside
                raise self._outside(Path(self.double, *i)) from None
            imag = [0] * n
            if im is not None:
                for i, b in zip(slots, im):
                    imag[i] = b
        if len(slots) < n:
            # An omitted position whose partner is omitted too stays zero.
            for j in set(range(n)).difference(slots):
                values[j], imag[j] = values[star[j]], -imag[star[j]]
        if list(map(values.__getitem__, star)) != values or (
            im is not None and list(map(neg, map(imag.__getitem__, star))) != imag
        ):
            # Omitted positions agree with their partners now, so the
            # conflict is between two given values, or a self-star non-real one.
            for i in slots:
                j = star[i]
                if values[j] != values[i] or imag[j] != -imag[i]:
                    p, ps = (Path(self.double, *self._window_keys[x]) for x in (i, j))
                    raise InputError(f"hermitian conflict between {p} and {ps}")
        g = gcd(den, *values, *imag) if den > 1 else 1
        if g > 1:
            den, values, imag = den // g, [x // g for x in values], [x // g for x in imag]
        self._re, self._im, self._den = values, imag, den

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

    def _gather(self, keys: list[Key]) -> list[list[list[int]]]:
        """The numerators of L(p q*) over the keys of one block, as its upper triangle.

        The real parts, then, when some value is non-real, the imaginary
        parts (see `linalg._upper`): row r holds L(p_r q*) for q the keys
        from the r-th on.
        """
        at = self._products(keys, keys, upper=True)
        rows = []
        for values in (self._re, self._im) if any(self._im) else (self._re,):
            flat, o, part = list(map(values.__getitem__, at)), 0, []
            for m in range(len(keys), 0, -1):
                part.append(flat[o : o + m])
                o += m
            rows.append(part)
        return rows

    def _products(self, rows: list[Key], cols: list[Key], zero=None, upper=False) -> list:
        """The window position of p q* over row keys p and column keys q, row-major.

        p q* is a path iff p and q end at the same vertex, and `zero`
        otherwise.  Only the window is read, not the values: a letter word
        p q* is found by its code, code(p) * base ** len(q*) + code(q*).
        Every product asked for has length <= 2k, so it is in the window.
        With `upper`, rows and cols are one list and row r is read from
        column r on.
        """
        double, at, trivial = self.double, self._at.__getitem__, self._trivial.__getitem__
        target, star_word = double.target, double.star_word
        # (terminal vertex of q, base ** len(q*), code of q*) per column
        stars = [(target[w[-1]], self._base ** len(w), self._code(star_word(w))) if w else (v, 1, 0) for v, w in cols]
        out = []
        try:
            for r, (v, word) in enumerate(rows):
                tail = stars[r:] if upper else stars
                if word:
                    end, c = target[word[-1]], self._code(word)
                    out += [at(c * m + s) if t == end else zero for t, m, s in tail]
                else:  # e_v q* is q*, and e_v for q = e_v
                    out += [(at(s) if s else trivial(v)) if t == v else zero for t, _, s in tail]
        except KeyError:
            raise InternalInvariantError("a moment product left the window") from None
        return out

    def principal(self, at) -> Matrix:
        """B_{L_k} at the window positions `at`, as rows and as columns, read off the integer image."""
        at = list(at)
        return linalg._matrix(self._entries(at, at), self._image[1], len(at))

    def _entries(self, rows, cols) -> list[list[int]]:
        """The image of B_{L_k} at window positions rows x cols, as integer rows in its layout (see `linalg._image`).

        An entry is read off its block's rows (`_full`), and is zero between
        blocks.
        """
        full, where, real = self._full, self._where, self._real
        cols = [where[c] for c in cols]
        out = []
        for i in rows:
            b, r = where[i]
            row, m = full[b][r], len(self._blocks[b])
            re = [row[s] if c == b else 0 for c, s in cols]
            out.append(re if real else re + [row[m + s] if c == b else 0 for c, s in cols])
        return out

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
    def _blocks(self) -> list[list[int]]:
        """The positions of V_k grouped by terminal vertex, each group in window order.

        e_v ends at v and a word at the target of its last letter.  L(p q*)
        is zero unless p and q end at one vertex, so B_{L_k} is the direct
        sum of its principal submatrices at the groups.  Only nonempty
        groups are kept, in the order of their first positions.
        """
        target, groups = self.double.target, {}
        for i, (v, word) in enumerate(self._keys[: self._end(self.k)]):
            groups.setdefault(target[word[-1]] if word else v, []).append(i)
        return list(groups.values())

    @cached_property
    def _where(self) -> list[tuple[int, int]]:
        """Per position of V_k, its block and its index in the block."""
        where = [(0, 0)] * self._end(self.k)
        for b, block in enumerate(self._blocks):
            for r, i in enumerate(block):
                where[i] = (b, r)
        return where

    @cached_property
    def _image(self) -> tuple[list[list[list[list[int]]]], int]:
        """Per block, B_{L_k} there times the values' denominator, as its upper triangle; and that denominator.

        Each block is gathered once, its upper triangle only (`_gather`),
        its imaginary parts only when some value is non-real.  The triangles
        hold imaginary parts iff some entry is non-real, in every block
        alike; `linalg._image_psd` pivots them as they are.
        """
        tris = [self._gather([self._keys[i] for i in block]) for block in self._blocks]
        if not any(any(map(any, tri[1])) for tri in tris if len(tri) > 1):
            tris = [tri[:1] for tri in tris]
        return tris, self._den

    @cached_property
    def _real(self) -> bool:
        """Whether the image is held without imaginary parts."""
        return all(len(tri) == 1 for tri in self._image[0])

    @cached_property
    def _full(self) -> list[list[list[int]]]:
        """Per block, its image as full integer rows in the layout of `linalg._image`.

        Row r is the block's column r above the diagonal, conjugated, then
        its row r of the triangle.
        """
        out = []
        for tri in self._image[0]:
            re, *im = ([[0] * r + row for r, row in enumerate(part)] for part in tri)
            rows = [[*col[:r], *row[r:]] for r, (col, row) in enumerate(zip(zip(*re), re))]
            if im:
                rows = [x + [-y for y in col[:r]] + row[r:] for r, (x, col, row) in enumerate(zip(rows, zip(*im[0]), im[0]))]
            out.append(rows)
        return out

    def first_pairing(self, terms: dict[Key, tuple[int, int]]) -> int | None:
        """The first position j of V_k with L(g q_j*) != 0, or None.

        g is given by numerators {key: (re, im)} over any denominator, on
        V_k.  Its pairings are the combination of the image's rows at its
        support: row p of B_{L_k} holds L(p q*) over the window paths q,
        nonzero only in the block of p.  A kernel element ends at one vertex
        (it is right uniform), so its rows lie in one block.
        """
        full, where, blocks = self._full, self._where, self._blocks
        plain = self._real and not any(ci for _, ci in terms.values())  # one product per entry
        sums: dict[int, tuple[list[int], list[int]]] = {}  # per block, the pairings' (re, im)
        for key, (cr, ci) in terms.items():
            b, r = where[self._index(key)]
            row, m = full[b][r], len(blocks[b])
            re, im = sums.get(b) or ([0] * m, [0] * m)
            if plain:
                sums[b] = [s + cr * x for s, x in zip(re, row)], im
                continue
            br, bi = row[:m], row[m:] or [0] * m  # a real image has no imaginary parts
            sums[b] = (
                [s + cr * x - ci * y for s, x, y in zip(re, br, bi)],
                [s + ci * x + cr * y for s, x, y in zip(im, br, bi)],
            )
        firsts = [next((blocks[b][j] for j, xy in enumerate(zip(re, im)) if any(xy)), None) for b, (re, im) in sums.items()]
        return min((j for j in firsts if j is not None), default=None)

    @cached_property
    def _echelon(self) -> tuple[list[int], int, bool, list[tuple[dict[Key, tuple[int, int]], int]]]:
        """The pivot columns of B_{L_k}, rank B_{L_{k-1}}, whether Ran C <= Ran A, and the echelon kernel.

        On PSD data they are read off the LDL^H pivots of the blocks
        (`_ldlh`), merged into window order: rank A counts those in V_{k-1},
        and Ran C <= Ran A holds for every PSD block matrix (Albert 1969).
        Otherwise they come from one elimination of conj(B_{L_k}), its rows
        rebuilt whole from the blocks (`linalg._block_echelon`).  The kernel,
        per free column numerators {key: (re, im)} in window order, its tip
        last, over one denominator (`linalg._null_terms`), is checked
        exactly, block by block: conj(B_{L_k}) times the sum of its vectors
        is zero.
        """
        n, m = self._end(self.k), self._end(self.k - 1)
        blocks, real = self._blocks, self._real
        if self._ldlh is None:
            conj = self._entries(range(n), range(n))
            if not real:
                conj = [row[:n] + [-x for x in row[n:]] for row in conj]
            top, pivots, rank_km1, range_ok = linalg._block_echelon(conj, m, n)
            null = linalg._null_terms(top, pivots, n)
        else:
            pivots = self._pivots
            rank_km1, range_ok = sum(p < m for p in pivots), True
            null = sorted(
                (([(block[c], v) for c, v in terms], den) for block, ldlh in zip(blocks, self._ldlh)
                 for terms, den in linalg._psd_null_terms(ldlh, len(block))),
                key=lambda vec: vec[0][-1][0],  # by tip, as the echelon form gives them
            )
        total = [[0, 0] for _ in range(n)]
        for terms, _ in null:
            for c, (re, im) in terms:
                total[c][0] += re
                total[c][1] += im
        for block, rows in zip(blocks, self._full):
            w = len(block)
            conj = rows if real else [row[:w] + [-x for x in row[w:]] for row in rows]
            if not linalg._annihilates(conj, [total[i] for i in block], w):
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
    def _ldlh(self) -> list[list[tuple]] | None:
        """Per block, the integer LDL^H pivot data of its triangle (`linalg._image_psd`), or None.

        None unless every block is PSD; the pivot indices are the block's
        own.  On PSD data an index is dropped with a zero diagonal iff its
        column lies in the span of the columns pivoted before it: the pivots
        are the pivot columns, the rest the kernel tips.
        """
        tris, den = self._image
        out = []
        for tri in tris:
            pivots = linalg._image_psd(tri, den)
            if pivots is None:
                return None
            out.append(pivots)
        return out

    @cached_property
    def _pivots(self) -> list[int]:
        """The window positions of the LDL^H pivots of every block, in window order (PSD data only)."""
        return sorted(block[p] for block, pivots in zip(self._blocks, self._ldlh) for p, *_ in pivots)

    def _psd_solve(self, at: list[int], rhs: list[list[int]], ncols: int) -> tuple[list[list[int]], int]:
        """s X and s > 0 for the solution X of conj(B_{L_k})[at, at] X = rhs, on PSD data.

        `at` are pivot positions in window order, rhs one integer row per
        position (see `linalg._psd_solve`).  The system is the direct sum
        of its blocks' systems: each is solved through its own block's
        pivots, and the solutions are brought to one s.
        """
        where, parts = self._where, {}
        for t, p in enumerate(at):
            parts.setdefault(where[p][0], []).append(t)
        solved = [
            (ts, *linalg._psd_solve(self._ldlh[b], [where[at[t]][1] for t in ts], [rhs[t] for t in ts], ncols))
            for b, ts in parts.items()
        ]
        s = lcm(*(sb for *_, sb in solved))
        out = [[]] * len(at)
        for ts, xs, sb in solved:
            for t, x in zip(ts, xs):
                out[t] = x if sb == s else [s // sb * v for v in x]
        return out, s


def _columns(slots: list, triples) -> tuple[list, list[int], list[int] | None, int]:
    """Given values as the columns `TruncatedFunctional._place` takes.

    `triples` holds the (re, im, den) of each slot's value (see
    `scalar.parse_literal`); the numerators are brought to the lcm of the
    denominators, and the imaginary column is None when every value is real.
    """
    triples = list(triples)
    den = lcm(*set(map(itemgetter(2), triples)))
    re, im = [], []
    for a, b, d in triples:
        if d != den:
            a, b = a * (den // d), b * (den // d)
        re.append(a)
        im.append(b)
    return slots, re, im if any(im) else None, den


class MomentMatrix(Record):
    """The moment matrix `m` over the window paths `basis`."""

    _fields = ("basis", "m")


class FlatReport(Record):
    """The flatness verdict, rank B_{L_k}, rank B_{L_{k-1}} and whether Ran C <= Ran A."""

    _fields = ("flat", "rank_k", "rank_km1", "range_contained")

    def __bool__(self) -> bool:
        return self.flat
