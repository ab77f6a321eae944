"""Verification of sum-of-hermitian-squares certificates.

Only the verification face of the cone is implemented: a certificate is
either an explicit list of squares (optionally with positive rational
weights) or a hermitian PSD Gram matrix over a path basis.  A passing Gram
witness is converted to explicit weighted squares through the exact rational
LDL^H decomposition; certificate search is out of scope.

A Gram certificate is taken to one integer image, checked there to be
hermitian and pivoted once: that pivoting decides PSD and gives the squares.
"""

from __future__ import annotations

from . import linalg
from .algebra import Element
from .errors import InputError
from .linalg import Matrix
from .quiver import Path, compose
from .scalar import ONE, Scalar


def expand_squares(squares, weights=None) -> Element:
    squares = list(squares)
    if weights is None:
        weights = [ONE] * len(squares)
    if len(weights) != len(squares):
        raise InputError("weights and squares must align")
    if not squares:
        raise InputError("empty square list")
    acc = Element.zero(squares[0].double)
    for w, g in zip(weights, squares):
        if not (w.is_real() and w.re > 0):
            raise InputError("square weights must be positive rationals")
        acc = acc + (g * g.star()).scale(w)
    return acc


def verify_squares(target: Element, squares, d: int | None = None, weights=None) -> bool:
    """Exact check that target = sum w_i g_i g_i* (degree-bounded when d given)."""
    squares = list(squares)
    if d is not None:
        for g in squares:
            deg = g.degree()
            if deg is not None and deg > d:
                raise InputError(f"square of degree {deg} exceeds the bound {d}")
    if not squares:
        return target.is_zero()
    return expand_squares(squares, weights) == target


def expand_gram(basis: list[Path], gram: Matrix) -> Element:
    if gram.rows != len(basis) or gram.cols != len(basis):
        raise InputError("gram size must match the basis")
    if not basis:
        raise InputError("empty certificate basis")
    stars = [q.star() for q in basis]
    pairs = ((compose(p, qs), gram.entry(i, j)) for i, p in enumerate(basis) for j, qs in enumerate(stars))
    return Element.from_terms(basis[0].double, pairs)


def verify_gram(target: Element, basis: list[Path], gram: Matrix, d: int | None = None) -> bool:
    """True iff gram is hermitian PSD and the gram expansion equals the target."""
    return gram_pivots(target, basis, gram, d) is not None


def gram_pivots(target: Element, basis: list[Path], gram: Matrix, d: int | None = None):
    """The LDL^H pivots of a gram that certifies the target (see `verify_gram`), or None.

    The gram's integer image decides hermitian (else `InputError`), then one
    pivoting decides PSD; the degree bound is checked in between.
    """
    try:
        pivots = linalg._psd_pivots(gram)
    except ValueError:
        raise InputError("certificate gram must be hermitian") from None
    if d is not None:
        for p in basis:
            if p.length() > d:
                raise InputError(f"basis path {p} exceeds the degree bound {d}")
    if pivots is None or expand_gram(basis, gram) != target:
        return None
    return pivots


def gram_to_squares(basis: list[Path], gram: Matrix, pivots=None) -> list[tuple[Scalar, Element]]:
    """Weighted squares from a PSD Gram witness via rational LDL^H pivots.

    Each pivot d with vector v contributes the pair (d, sum v_i p_i); the
    weights stay explicit because their square roots may be irrational.
    `pivots`, when given, are the gram's integer pivot data (from `gram_pivots`).
    """
    if pivots is None:
        pivots = linalg._psd_pivots(gram)
    if pivots is None:
        raise InputError("gram witness is not PSD")
    return [(d, Element.from_terms(basis[0].double, zip(basis, vec))) for d, vec in linalg._ldlh(pivots, gram.rows)]
