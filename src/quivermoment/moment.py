"""Truncated hermitian functionals and their moment matrices.

A functional of order k assigns a Scalar to every basis path of length <= 2k
in the chosen window (with or without trivial paths).  The order-t moment
matrix pairs window paths p, q through L(p q*); entries where p q* vanishes in
the path semigroup are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from . import linalg
from .algebra import Element
from .errors import InputError, InternalInvariantError, WindowError
from .linalg import Matrix
from .quiver import ZERO_PATH, DoubleQuiver, Path, PathOrder, compose, enumerate_basis
from .scalar import ZERO, Scalar


class TruncatedFunctional:
    """Hermitian scalar assignment on the length <= 2k basis window.

    A functional is immutable after construction.  It enumerates its window
    once and builds its order-k moment matrix once; every lower-order basis
    is a prefix of the window and every lower-order matrix or block a slice
    of the order-k matrix, because the path order compares lengths first.
    Its flatness report and its kernel basis are computed once as well.
    """

    def __init__(
        self,
        double: DoubleQuiver,
        k: int,
        values,
        include_trivial: bool = True,
        order: PathOrder | None = None,
    ):
        if k < 1:
            raise InputError("functional order k must be >= 1")
        self.double = double
        self.k = k
        self.include_trivial = include_trivial
        self.order = order or double.default_order()
        window = enumerate_basis(double, self.order, 2 * k, include_trivial)
        given = dict(values)
        vals: dict[Path, Scalar] = dict.fromkeys(window, ZERO)
        vals.update(given)
        if len(vals) != len(window):
            window_set = set(window)
            outside = next(p for p in given if p not in window_set)
            raise WindowError(f"path {outside} outside the length <= {2 * k} window")
        # Hermitian closure: fill omitted starred partners, reject conflicts.
        for p, v in given.items():
            ps = p.star()
            want = v.conjugate()
            have = given.get(ps)
            if have is None:
                vals[ps] = want
            elif have != want:
                raise InputError(f"hermitian conflict between {p} and {ps}")
        # Lengths come first in the order: the last window path is a longest one.
        per_length = [0] * (window[-1].length() + 1 if window else 1)
        for p in window:
            per_length[p.length()] += 1
        self._window = tuple(window)
        self._ends = list(accumulate(per_length))  # window paths of length <= t
        self.values = vals

    # -- evaluation ------------------------------------------------------------

    def value(self, p: Path) -> Scalar:
        try:
            return self.values[p]
        except KeyError:
            raise WindowError(f"path {p} outside the length <= {2 * self.k} window") from None

    # -- windows and matrices ----------------------------------------------------

    def basis(self, t: int) -> tuple[Path, ...]:
        """The window paths of length <= t, a prefix of the window."""
        if t < 0:
            return ()
        if t > 2 * self.k:
            raise InputError(f"basis order {t} exceeds the window length {2 * self.k}")
        return self._window[: self._ends[min(t, len(self._ends) - 1)]]

    def moment_block(self, rows, cols) -> Matrix:
        """The matrix of L(p q*) over row paths p and column paths q.

        Entries where p q* vanishes in the path semigroup are exact zeros.
        """
        stars = [q.star() for q in cols]
        value = self.value
        ents = []
        for p in rows:
            for qs in stars:
                pq = compose(p, qs)
                ents.append(ZERO if pq is ZERO_PATH else value(pq))
        return Matrix(len(rows), len(cols), ents)

    @cached_property
    def _matrix(self) -> MomentMatrix:
        basis = self.basis(self.k)
        return MomentMatrix(basis, self.moment_block(basis, basis))

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

    def block_decompose(self) -> BlockDecomposition:
        """Split the order-k matrix over V_k = V_{k-1} (+) span(new length-k paths)."""
        full = self.moment_matrix()
        n, m = len(self.basis(self.k - 1)), full.m
        return BlockDecomposition(
            m.block(0, n, 0, n),
            m.block(0, n, n, m.cols),
            m.block(n, m.rows, n, m.cols),
            full.basis[:n],
            full.basis[n:],
        )

    # -- kernel and verdicts -------------------------------------------------------

    def kernel_basis(self) -> list[Element]:
        """Echelon basis of ker B_{L_k} as elements, largest path as pivot.

        The nullspace of the conjugated moment matrix is taken so that each
        returned element g satisfies L(g q*) = 0 = L(q g*) for every window
        path q, also over complex data.  Each call returns a fresh list.
        """
        return list(self._kernel)

    @cached_property
    def _kernel(self) -> tuple[Element, ...]:
        mm = self.moment_matrix()
        vecs = linalg.nullspace(mm.m.conjugate())
        return tuple(Element.from_terms(self.double, zip(mm.basis, v)) for v in vecs)

    def is_flat(self) -> FlatReport:
        """Both flatness criteria, cross-asserted.

        Rank criterion: rank B_{L_k} = rank B_{L_{k-1}}.  Block criterion:
        Ran(C) <= Ran(A) and B equals the exact Schur completion C^H X with
        A X = C.  The two are equivalent for hermitian data, so disagreement
        is a hard failure.
        """
        return self._flat_report

    @cached_property
    def _flat_report(self) -> FlatReport:
        blocks = self.block_decompose()
        # rank conj(B_{L_k}) = rank B_{L_k}; [A | C] gives rank A, Ran C <= Ran A and X.
        rank_k = len(self.basis(self.k)) - len(self._kernel)
        rank_km1, x = linalg.solve_particular(blocks.a, blocks.c)
        rank_flat = rank_k == rank_km1
        range_ok = x is not None
        # A is hermitian, so C^H X is the same for every solution of A X = C.
        block_flat = range_ok and blocks.b == blocks.c.conj_transpose() * x

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
        return linalg.psd_check(self.moment_matrix().m)


@dataclass(frozen=True)
class MomentMatrix:
    basis: tuple[Path, ...]
    m: Matrix


@dataclass(frozen=True)
class BlockDecomposition:
    a: Matrix
    c: Matrix
    b: Matrix
    old_basis: tuple[Path, ...]
    new_basis: tuple[Path, ...]


@dataclass(frozen=True)
class FlatReport:
    flat: bool
    rank_k: int
    rank_km1: int
    range_contained: bool

    def __bool__(self) -> bool:
        return self.flat
