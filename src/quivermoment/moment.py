"""Truncated hermitian functionals and their moment matrices.

A functional of order k assigns a Scalar to every basis path of length <= 2k
in the chosen window (with or without trivial paths).  The order-t moment
matrix pairs window paths p, q through L(p q*); entries where p q* vanishes in
the path semigroup are exact zeros.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from . import linalg
from .algebra import Element
from .errors import InputError, InternalInvariantError, WindowError
from .linalg import Matrix
from .quiver import DoubleQuiver, Key, Path, PathOrder, Record, window_keys, window_texts
from .scalar import ZERO, Scalar


def _length(key: Key) -> int:
    return len(key[1])


class TruncatedFunctional:
    """Hermitian scalar assignment on the length <= 2k basis window.

    A functional is immutable after construction.  It enumerates its window
    once, as (vertex, letters) keys with one position each, and holds its
    values in window order; `Path` objects are built only for the window
    prefixes asked for.  It builds its order-k moment matrix once, by
    position; every lower-order basis is a prefix of the window and every
    lower-order matrix or block a slice of the order-k matrix, because the
    path order compares lengths first.  Its flatness report and its kernel
    basis are computed once as well.
    """

    def __init__(
        self,
        double: DoubleQuiver,
        k: int,
        values,
        include_trivial: bool = True,
        order: PathOrder | None = None,
    ):
        given = {(p.vertex, p.letters): v for p, v in dict(values).items()}
        self._open(double, k, include_trivial, order)
        position = self._position
        self._place({position.get(key, key): v for key, v in given.items()})

    @classmethod
    def from_texts(cls, double, k, read, include_trivial=True, order=None):
        """The functional of the values `read` gives, as a file lists them.

        `read(texts, position)` is handed the window position of every
        window path's text (as `str(Path)` writes it) and of every window
        key.  It returns the given values keyed by window position, or by
        (vertex, letters) key for a path outside the window, in the order
        given.  When the window cannot be built (an order below 1, an
        over-large window) both tables are empty, and that error is raised
        after `read` returns, so the errors `read` raises come first.
        """
        f = cls.__new__(cls)
        try:
            texts, stars = f._open(double, k, include_trivial, order, named=True)
        except InputError:
            read({}, {})
            raise
        at = dict(zip(texts, range(len(texts))))
        star = list(map(at.__getitem__, stars))
        f._place(read(at, f._position), star)
        return f

    def _open(self, double, k, include_trivial, order, named=False):
        """Enumerate the window; with `named`, return the texts of its paths and of their stars."""
        if k < 1:
            raise InputError("functional order k must be >= 1")
        self.double = double
        self.k = k
        self.include_trivial = include_trivial
        self.order = order or double.default_order()
        if named:
            keys, *texts = window_texts(double, self.order, 2 * k, include_trivial)
        else:
            keys, texts = window_keys(double, self.order, 2 * k, include_trivial), None
        self._keys = keys
        self._position = dict(zip(keys, range(len(keys))))
        # Lengths come first in the order: the paths of length <= t are a
        # prefix of the window, and the last window key is a longest one.
        longest = len(keys[-1][1]) if keys else 0
        self._ends = [bisect_right(keys, t, key=_length) for t in range(longest + 1)]
        self._paths: list[Path] = []  # the window paths built so far, a prefix
        return texts

    def _place(self, given: dict, star: list[int] | None = None) -> None:
        """Place the given values and close them under the star.

        `given` is keyed by window position, or by key for a path outside
        the window; `star`, if known, is the position of each window
        position's star.  Errors in this order: a path outside the window (the
        first one given), then a hermitian conflict between the member of a
        star pair given first and its partner.  An omitted partner takes the
        conjugate value; each pair is looked at once.
        """
        keys, position, star_word = self._keys, self._position, self.double.star_word
        vals = [ZERO] * len(keys)
        state = bytearray(len(keys))  # 1: given; 2: given, star pair already checked
        try:
            for i, v in given.items():
                vals[i] = v
                state[i] = 1
        except TypeError:  # i is a key, not a position: the first path given outside
            raise self._outside(Path(self.double, *i)) from None
        for i in given:
            if state[i] == 2:
                continue
            if star is not None:
                j = star[i]
            else:
                word = keys[i][1]
                j = position[(None, star_word(word))] if word else i
            want = vals[i].conjugate()
            if not state[j]:
                vals[j] = want
                continue
            have = vals[j]
            if have is not want and have != want:
                p, ps = Path(self.double, *keys[i]), Path(self.double, *keys[j])
                raise InputError(f"hermitian conflict between {p} and {ps}")
            state[j] = 2
        self._vals = vals

    # -- evaluation ------------------------------------------------------------

    @cached_property
    def values(self) -> dict[Path, Scalar]:
        """Every window value, keyed by path, in window order."""
        return dict(zip(self._window, self._vals))

    def value(self, p: Path) -> Scalar:
        i = self._position.get((p.vertex, p.letters))
        if i is None:
            raise self._outside(p)
        return self._vals[i]

    def _outside(self, p: Path) -> WindowError:
        return WindowError(f"path {p} outside the length <= {2 * self.k} window")

    # -- windows and matrices ----------------------------------------------------

    @property
    def _window(self) -> tuple[Path, ...]:
        return self._prefix(len(self._keys))

    def _prefix(self, n: int) -> tuple[Path, ...]:
        """The first n window paths; each is built once, when first asked for."""
        paths = self._paths
        if len(paths) < n:
            double = self.double
            paths.extend([Path(double, *key) for key in self._keys[len(paths) : n]])
        return tuple(paths[:n])

    def basis(self, t: int) -> tuple[Path, ...]:
        """The window paths of length <= t, a prefix of the window."""
        if t < 0:
            return ()
        if t > 2 * self.k:
            raise InputError(f"basis order {t} exceeds the window length {2 * self.k}")
        return self._prefix(self._ends[min(t, len(self._ends) - 1)])

    def moment_block(self, rows, cols) -> Matrix:
        """The matrix of L(p q*) over row paths p and column paths q.

        Entries where p q* vanishes in the path semigroup are exact zeros.
        When every row and column lies in V_k, the block is read off the
        order-k matrix.
        """
        rows = [(p.vertex, p.letters) for p in rows]
        cols = [(q.vertex, q.letters) for q in cols]
        full = self._matrix.m
        n, position = full.rows, self._position
        ri = [position.get(key, n) for key in rows]
        ci = [position.get(key, n) for key in cols]
        if max(ri, default=0) < n and max(ci, default=0) < n:
            ents = full.entries
            return Matrix(len(ri), len(ci), [ents[i * n + j] for i in ri for j in ci])
        return Matrix(len(rows), len(cols), self._moments(rows, cols))

    def _moments(self, rows: list[Key], cols: list[Key]) -> list[Scalar]:
        """L(p q*) over row keys p and column keys q, row-major, by window position."""
        vals = self._vals
        return [ZERO if i is None else vals[i] for i in self._products(rows, cols)]

    def _products(self, rows: list[Key], cols: list[Key]) -> list[int | None]:
        """The window position of p q* over row keys p and column keys q, row-major.

        p q* is a path iff p and q end at the same vertex, and a zero
        (None) otherwise.  Only the window is read, not the values.
        """
        double = self.double
        target, position = double.target, self._position
        # (terminal vertex of q, key of q*) per column
        stars = [(target[w[-1]], (None, double.star_word(w))) if w else (v, (v, ())) for v, w in cols]
        out = []
        for p in rows:
            v, word = p
            end = target[word[-1]] if word else v
            for t, qs in stars:
                if t != end:
                    out.append(None)
                    continue
                pq = p if not qs[1] else qs if not word else (None, word + qs[1])
                i = position.get(pq)
                if i is None:
                    raise self._outside(Path(double, *pq))
                out.append(i)
        return out

    @cached_property
    def _matrix(self) -> MomentMatrix:
        basis = self.basis(self.k)
        keys = self._keys[: len(basis)]
        return MomentMatrix(basis, Matrix(len(keys), len(keys), self._moments(keys, keys)))

    def moment_matrix(self, t: int | None = None) -> MomentMatrix:
        """B_{L_t}: the order-k matrix for t = k, its top-left corner for t < k."""
        if t is None:
            t = self.k
        if t > self.k:
            raise InputError(f"moment matrix order {t} exceeds functional order {self.k}")
        full = self._matrix
        if t == self.k:
            return full
        n = len(self.basis(t))
        return MomentMatrix(full.basis[:n], full.m.block(0, n, 0, n))

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
        """B_{L_k} times one common denominator, as integer rows, and that denominator.

        The kernel, both flatness criteria and the PSD verdict read it; see
        `linalg._image` for the layout.
        """
        return linalg._image(self.moment_matrix().m)

    def first_pairing(self, terms: dict[Key, tuple[int, int]]) -> int | None:
        """The first position j of V_k with L(g q_j*) != 0, or None.

        g is given by numerators {key: (re, im)} over any denominator, on
        V_k.  Its pairings are the combination of the image's rows at its
        support: row p of B_{L_k} holds L(p q*) over the window paths q.
        """
        rows, _ = self._image
        n, position = len(rows), self._position
        re, im = [0] * n, [0] * n
        for key, (cr, ci) in terms.items():
            row = rows[position[key]]
            br, bi = row[:n], row[n:] or [0] * n  # a real image has no imaginary parts
            re = [s + cr * x - ci * y for s, x, y in zip(re, br, bi)]
            im = [s + ci * x + cr * y for s, x, y in zip(im, br, bi)]
        return next((j for j in range(n) if re[j] or im[j]), None)

    @cached_property
    def _kernel(self) -> tuple[Element, ...]:
        rows, _ = self._image
        n = len(rows)
        conjugate = [row[:n] + [-x for x in row[n:]] for row in rows]
        vecs = linalg._null_vectors(conjugate, n)
        basis, double = self.basis(self.k), self.double
        # The paths are distinct and a null vector holds the shared ZERO at its
        # zero coordinates, so the support is read off without arithmetic.
        return tuple(Element(double, {p: c for p, c in zip(basis, v) if c is not ZERO}) for v in vecs)

    def is_flat(self) -> FlatReport:
        """Both flatness criteria, cross-asserted.

        Rank criterion: rank B_{L_k} = rank B_{L_{k-1}}.  Block criterion:
        Ran(C) <= Ran(A) and B equals the exact Schur completion C^H X with
        A X = C.  The top rows [A | C] of B_{L_k}'s integer image are
        eliminated once, which gives rank A and the range test; each lower
        row [C^H | B] is then reduced against their pivot rows, and B = C^H X
        iff every residual is zero (`linalg._block_flat`).  The two criteria
        are equivalent for hermitian data, so disagreement is a hard failure.
        """
        return self._flat_report

    @cached_property
    def _flat_report(self) -> FlatReport:
        rows, _ = self._image
        # rank conj(B_{L_k}) = rank B_{L_k}
        rank_k = len(rows) - len(self._kernel)
        rank_km1, range_ok, block_flat = linalg._block_flat(rows, len(self.basis(self.k - 1)), len(rows))
        rank_flat = rank_k == rank_km1

        if rank_flat != block_flat:
            raise InternalInvariantError(
                f"flatness criteria disagree: rank says {rank_flat}, block says {block_flat}"
            )
        return FlatReport(rank_flat, rank_k, rank_km1, range_ok)

    def is_tip_maximal(self) -> bool:
        """True iff every kernel pivot path has length exactly k.

        Equivalent to ker B_{L_k} meeting V_{k-1} trivially: the echelon
        normalization puts the largest support path of each kernel generator
        in pivot position, so the verdict is read off directly.
        """
        for g in self.kernel_basis():
            pivot, _ = g.tip(self.order)
            if pivot.length() != self.k:
                return False
        return True

    def is_psd(self) -> bool:
        """`linalg.psd_check` of B_{L_k}, pivoted on its integer image."""
        return self._ldlh is not None

    @cached_property
    def _ldlh(self) -> list[tuple[Scalar, tuple[Scalar, ...]]] | None:
        """`linalg.ldlh_psd` of B_{L_k}, or None.

        On PSD data an index is dropped with a zero diagonal iff its column lies
        in the span of the columns pivoted before it: the pivots are the pivot
        columns, the rest the kernel tips.
        """
        return linalg._image_psd(*self._image, "psd_check")


class MomentMatrix(Record):
    """The moment matrix `m` over the window paths `basis`."""

    _fields = ("basis", "m")


class FlatReport(Record):
    """The flatness verdict, rank B_{L_k}, rank B_{L_{k-1}} and whether Ran C <= Ran A."""

    _fields = ("flat", "rank_k", "rank_km1", "range_contained")

    def __bool__(self) -> bool:
        return self.flat
