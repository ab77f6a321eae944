"""Flat completions and rank-preserving extensions.

Three layers: the exact Schur completion of a hermitian block (the flat
choice of the bottom-right block), the one-step extension of a tip-maximal
functional (the kernel-propagation equations in one unknown per star pair,
so hermitian symmetry holds by substitution; canonical solution, then
Schur-completing the top degree), and the lazy full extension that evaluates
any path through Gröbner normal forms.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    ExtensionObstructed,
    InputError,
    InternalInvariantError,
    NotFlatError,
)
from .groebner import RightGroebnerBasis, kernel_groebner
from .linalg import Matrix
from .moment import TruncatedFunctional
from .quiver import ZERO_PATH, Path, _words, compose, paths_of_length
from .scalar import ZERO, Scalar


def schur_complete(a: Matrix, c: Matrix) -> Matrix:
    """The unique flat bottom-right block C^H (A|Ran A)^{-1} C.

    Requires every column of c inside Ran(a); hermitian PSD in, hermitian PSD
    out, and independent of the solution choice of A X = C (C^H X = X'^H C
    for any two solutions), so one elimination of [A | C] serves.
    """
    if not a.is_hermitian():
        raise ValueError("schur_complete requires a hermitian A")
    x = linalg.solve_particular(a, c)[1]
    if x is None:
        raise NotFlatError("Ran(C) is not contained in Ran(A); no flat completion exists")
    return c.conj_transpose() * x


def flat_extend_tip_maximal(
    functional: TruncatedFunctional,
    allow_general_quiver: bool = False,
) -> TruncatedFunctional:
    """Extend a tip-maximal order-(k-1) functional to a flat order-k one.

    Values on the new odd degree 2k-1 solve, per kernel generator g and new
    length-k path p, the linear system expressing that g stays in the kernel
    of the extended moment form.  Hermitian symmetry is substituted, not
    added as rows: each pair {m, m*} has one unknown z, held at the member
    later in the path order, and the other member takes conj(z).  The system
    is solved canonically (reduced echelon form, free variables zero) in one
    `linalg.solve_particular`, and the top degree-2k block is filled by the
    Schur completion.

    The construction is proved for free *-algebras (single-vertex quivers);
    pass allow_general_quiver=True to run it on any path *-algebra, in which
    case flatness of the result is verified at runtime.
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
    double = functional.double
    order = functional.order
    kernel = functional.kernel_basis()
    new_paths = paths_of_length(double, order, k)
    odd_paths = paths_of_length(double, order, 2 * k - 1)
    # No path of odd length is its own star.  Columns [u | v] for z = u + i v,
    # pairs in the order of the member that holds z.
    position = {p: i for i, p in enumerate(odd_paths)}
    held = [m for m in odd_paths if position[m.star()] < position[m]]
    npairs = len(held)
    unknown: dict[Path, tuple[int, int]] = {}  # path -> (pair, sign of v)
    for j, m in enumerate(held):
        unknown[m] = (j, 1)
        unknown[m.star()] = (j, -1)

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def add_equation(coeffs: dict[Path, Scalar], value: Scalar) -> None:
        re_row = [Fraction(0)] * (2 * npairs)
        im_row = [Fraction(0)] * (2 * npairs)
        for m, c in coeffs.items():
            j, sign = unknown[m]
            # c (u + sign i v) = c.re u - sign c.im v + i (c.im u + sign c.re v)
            re_row[j] += c.re
            re_row[npairs + j] -= sign * c.im
            im_row[j] += c.im
            im_row[npairs + j] += sign * c.re
        rows.extend((re_row, im_row))
        rhs.extend((value.re, value.im))

    for g in kernel:
        for p in new_paths:
            coeffs: dict[Path, Scalar] = {}
            known = ZERO
            for q, cq in g.terms.items():
                pq = compose(p, q.star())
                if pq is ZERO_PATH:
                    continue
                cst = cq.conjugate()
                if pq.length() == 2 * k - 1:
                    coeffs[pq] = coeffs.get(pq, ZERO) + cst
                else:
                    known = known + cst * functional.value(pq)
            if coeffs or not known.is_zero():
                add_equation(coeffs, -known)

    def scalars(xs):
        return [Scalar(x) if x else ZERO for x in xs]

    system = Matrix(len(rows), 2 * npairs, scalars(x for row in rows for x in row))
    solution = linalg.solve_particular(system, Matrix.column(scalars(rhs)))[1]
    if solution is None:
        if free_algebra:
            raise InternalInvariantError(
                "extension system inconsistent on a free *-algebra"
            )
        raise ExtensionObstructed("one-step extension system is inconsistent")

    values = dict(functional.values)
    for m in odd_paths:
        j, sign = unknown[m]
        values[m] = Scalar(solution.entry(j, 0).re, sign * solution.entry(npairs + j, 0).re)

    # Degree-2k block through the Schur completion of the new C block;
    # values now holds every path of length <= 2k - 1.
    base = functional.moment_matrix()

    def ent(p: Path, q: Path) -> Scalar:
        pq = compose(p, q.star())
        return ZERO if pq is ZERO_PATH else values[pq]

    c = Matrix(len(base.basis), len(new_paths), [ent(p, q) for p in base.basis for q in new_paths])
    try:
        b = schur_complete(base.m, c)
    except NotFlatError:
        if free_algebra:
            raise InternalInvariantError(
                "range containment failed on a free *-algebra extension"
            ) from None
        raise ExtensionObstructed(
            "extended C block left the range of A on this quiver"
        ) from None

    for i, u in enumerate(new_paths):
        for j, v in enumerate(new_paths):
            word = compose(u, v.star())
            if word is ZERO_PATH:
                if not b.entry(i, j).is_zero():
                    raise ExtensionObstructed(
                        "Schur completion forces a nonzero value on a zero product"
                    )
                continue
            values[word] = b.entry(i, j)

    extended = TruncatedFunctional(double, k, values, functional.include_trivial, order)
    report = extended.is_flat()
    if not report.flat:
        if free_algebra:
            raise InternalInvariantError("one-step extension produced a non-flat functional")
        raise ExtensionObstructed("one-step extension is not flat on this quiver")
    return extended


class FlatExtension:
    """The rank-preserving extension of a flat functional, evaluated lazily.

    Every path reduces through the kernel Gröbner basis into the V_{k-1}
    window, where the base functional takes over; values are cached.

    The base values on V_{k-1} are held as Gaussian-integer numerators over
    one denominator, keyed like the normal forms of the tip table, so a
    value is one integer dot product.
    """

    def __init__(self, base: TruncatedFunctional):
        report = base.is_flat()
        if not report.flat:
            raise InputError("FlatExtension requires a flat base functional")
        self.base = base
        self.gb: RightGroebnerBasis = kernel_groebner(base)
        self.cache: dict[Path, Scalar] = {}
        short = base.basis(base.k - 1)
        vals = [base.value(q) for q in short]
        nums, self._den = linalg._common([v.re for v in vals] + [v.im for v in vals])
        n = len(short)
        self._moments = {(q.vertex, q.letters): (nums[i], nums[n + i]) for i, q in enumerate(short)}

    def evaluate(self, p: Path) -> Scalar:
        if p in self.cache:
            return self.cache[p]
        return self._value(p, *self.gb.tip_table.fold((p.vertex, p.letters)))

    def _value(self, p: Path, terms, den: int) -> Scalar:
        """L(NF(p)) for NF(p) = terms/den; cached."""
        re = im = 0
        for key, (a, b) in terms.items():
            m = self._moments.get(key)
            if m is None:
                if len(key[1]) >= self.base.k:
                    raise InternalInvariantError(
                        f"normal form of {p} escaped the V_{self.base.k - 1} window"
                    )
                # The one short path outside V_{k-1}: a trivial path, in a
                # window without them; value() raises its WindowError.
                self.base.value(Path(self.base.double, *key))
            lr, li = m
            re, im = re + a * lr - b * li, im + a * li + b * lr
        value = self.cache[p] = linalg._scalar(re, im, den * self._den)
        return value

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
        roots = {v: table.start(v) for v in order.vertex_seq}
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
                nf = layer[w] = table.step(*parent, w[-1])
                p = Path(double, None, w)
                vals[p] = self._value(p, *nf)
            parents = layer
        return TruncatedFunctional(double, m, vals, self.base.include_trivial, order)
