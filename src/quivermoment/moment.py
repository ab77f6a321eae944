"""Truncated hermitian functionals and their moment matrices.

A functional of order k assigns a Scalar to every basis path of length <= 2k
in the chosen window (with or without trivial paths).  The order-t moment
matrix pairs window paths p, q through L(p q*); entries where p q* vanishes in
the path semigroup are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .algebra import Element
from .errors import InputError, InternalInvariantError, WindowError
from .linalg import Matrix
from .quiver import ZERO_PATH, DoubleQuiver, Path, PathOrder, compose, enumerate_basis
from .scalar import ZERO, Scalar


class TruncatedFunctional:
    """Hermitian scalar assignment on the length <= 2k basis window.

    A functional is immutable after construction, so its flatness report and
    its kernel basis are computed once and reused.
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
        window_set = set(window)
        vals: dict[Path, Scalar] = {}
        for p, v in dict(values).items():
            if p not in window_set:
                raise WindowError(f"path {p} outside the length <= {2 * k} window")
            vals[p] = v
        # Hermitian closure: fill omitted starred partners, reject conflicts.
        for p in list(vals):
            ps = p.star()
            want = vals[p].conjugate()
            if ps in vals:
                if vals[ps] != want:
                    raise InputError(f"hermitian conflict between {p} and {ps}")
            else:
                vals[ps] = want
        for p in window:
            vals.setdefault(p, ZERO)
        self._window = tuple(window)
        self._window_set = window_set
        self.values = vals

    # -- evaluation ------------------------------------------------------------

    def value(self, p: Path) -> Scalar:
        if p not in self._window_set:
            raise WindowError(f"path {p} outside the length <= {2 * self.k} window")
        return self.values[p]

    def riesz_eval(self, f: Element) -> Scalar:
        """Sum of coeff(p) * value(p) over the support of f."""
        acc = ZERO
        for p, c in f.terms.items():
            acc = acc + c * self.value(p)
        return acc

    def pairing(self, f: Element, g: Element) -> Scalar:
        """The sesquilinear moment pairing L(f g*)."""
        return self.riesz_eval(f * g.star())

    # -- windows and matrices ----------------------------------------------------

    def basis(self, t: int) -> tuple[Path, ...]:
        if t < 0:
            return ()
        return tuple(enumerate_basis(self.double, self.order, t, self.include_trivial))

    def moment_block(self, rows, cols) -> Matrix:
        """The matrix of L(p q*) over row paths p and column paths q.

        Entries where p q* vanishes in the path semigroup are exact zeros.
        """
        stars = [q.star() for q in cols]
        ents = []
        for p in rows:
            for qs in stars:
                pq = compose(p, qs)
                ents.append(ZERO if pq is ZERO_PATH else self.value(pq))
        return Matrix(len(rows), len(cols), ents)

    def moment_matrix(self, t: int | None = None) -> MomentMatrix:
        if t is None:
            t = self.k
        if t > self.k:
            raise InputError(f"moment matrix order {t} exceeds functional order {self.k}")
        basis = self.basis(t)
        return MomentMatrix(basis, self.moment_block(basis, basis))

    def block_decompose(self) -> BlockDecomposition:
        """Split the order-k matrix over V_k = V_{k-1} (+) span(new length-k paths)."""
        old = self.basis(self.k - 1)
        full = self.basis(self.k)
        old_set = set(old)
        new = tuple(p for p in full if p not in old_set)
        a = self.moment_block(old, old)
        c = self.moment_block(old, new)
        b = self.moment_block(new, new)
        return BlockDecomposition(a, c, b, old, new)

    def restrict(self, t: int) -> TruncatedFunctional:
        if t > self.k:
            raise InputError("cannot restrict to a larger order")
        keep = set(enumerate_basis(self.double, self.order, 2 * t, self.include_trivial))
        vals = {p: v for p, v in self.values.items() if p in keep}
        return TruncatedFunctional(self.double, t, vals, self.include_trivial, self.order)

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
        mm = self.moment_matrix(self.k)
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
        rank_k = linalg.rank(self.moment_matrix(self.k).m)
        rank_km1 = linalg.rank(self.moment_matrix(self.k - 1).m)
        rank_flat = rank_k == rank_km1

        blocks = self.block_decompose()
        x = linalg.solve_in_range(blocks.a, blocks.c)
        range_ok = x is not None
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
        return linalg.psd_check(self.moment_matrix(self.k).m)


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
