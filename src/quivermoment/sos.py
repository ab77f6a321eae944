"""Verification of sum-of-hermitian-squares certificates.

Only the verification face of the cone is implemented: a certificate is
either an explicit list of squares (optionally with positive rational
weights) or a hermitian PSD Gram matrix over a path basis.  A passing Gram
witness is converted to explicit weighted squares through the exact rational
LDL^H decomposition; certificate search is out of scope.

A Gram certificate runs on integers from the file to the output
(`_certify`): its target is numerators over one denominator, its gram an
integer image, checked there to be hermitian.  The expansion
sum gram[i][j] p_i q_j* is summed on the image and compared with the
target's numerators first; only a gram that matches is pivoted, once, and
that pivoting decides PSD and gives the squares (`_squares`).
`expand_gram`, `gram_pivots`, `verify_gram` and `gram_to_squares` are
adapters over the same core.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .algebra import Element
from .errors import InputError
from .linalg import Matrix
from .quiver import Key, Path
from .scalar import ONE, Scalar, from_numerators, numerator_text

# A linear combination of paths as numerators: {path key: (re, im)} over
# one positive denominator, zero terms left out.
Numerators = tuple[dict[Key, tuple[int, int]], int]


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
    terms, den = _expansion(basis, gram)
    double = basis[0].double
    return Element.from_terms(double, ((Path(double, *key), from_numerators(*c, den)) for key, c in terms.items()))


def _expansion(basis: list[Path], gram: Matrix) -> Numerators:
    """sum gram[i][j] p_i q_j* as numerators over the den of the gram's integer image.

    p q* is nonzero iff p and q end at one vertex v; its key is (v, ()) when
    both are trivial and (None, letters of p + letters of q*) otherwise.
    """
    if gram.rows != len(basis) or gram.cols != len(basis):
        raise InputError("gram size must match the basis")
    if not basis:
        raise InputError("empty certificate basis")
    rows, den = gram._integers()
    n, real, star_word = len(basis), gram._real(), basis[0].double.star_word
    stars = [(q.terminal(), star_word(q.letters)) for q in basis]
    acc: dict[Key, tuple[int, int]] = {}
    for p, row in zip(basis, rows):
        end, word = p.terminal(), p.letters
        for j, (q_end, q_star) in enumerate(stars):
            re, im = row[j], 0 if real else row[n + j]
            if (re or im) and q_end == end:
                key = (None, word + q_star) if word or q_star else (end, ())
                have = acc.get(key)
                acc[key] = (re, im) if have is None else (have[0] + re, have[1] + im)
    return {key: c for key, c in acc.items() if c != (0, 0)}, den


def verify_gram(target: Element, basis: list[Path], gram: Matrix, d: int | None = None) -> bool:
    """True iff gram is hermitian PSD and the gram expansion equals the target."""
    return gram_pivots(target, basis, gram, d) is not None


def gram_pivots(target: Element, basis: list[Path], gram: Matrix, d: int | None = None):
    """The LDL^H pivots of a gram that certifies the target (see `verify_gram`), or None."""
    parts = [c.numerators() for c in target.terms.values()]
    den = lcm(*{q for *_, q in parts})
    terms = {(p.vertex, p.letters): (re * (den // q), im * (den // q)) for p, (re, im, q) in zip(target.terms, parts)}
    pivots = _certify((terms, den), basis, gram, d)
    return pivots if pivots is None or target.double is basis[0].double else None


def _certify(target: Numerators, basis: list[Path], gram: Matrix, d: int | None):
    """The `linalg._image_psd` pivots of a gram that certifies the target, or None.

    In this order: the gram's integer image must be hermitian (else
    `InputError`), the basis must keep the degree bound, the expansion must
    equal the target, and only then is the gram pivoted, which decides PSD.
    `_expansion` refuses a gram whose size is not the basis's, or an empty
    basis, and only once the gram is pivoted PSD: a false verdict comes first.
    """
    rows, den = gram._integers()
    if gram.rows != gram.cols or (tri := linalg._upper(rows)) is None:
        raise InputError("certificate gram must be hermitian")
    if d is not None:
        for p in basis:
            if p.length() > d:
                raise InputError(f"basis path {p} exceeds the degree bound {d}")
    shaped = gram.rows == len(basis) and basis
    if shaped:
        (terms, den_x), (want, wden) = _expansion(basis, gram), target
        if terms.keys() != want.keys() or any(
            re * wden != want[p][0] * den_x or im * wden != want[p][1] * den_x for p, (re, im) in terms.items()
        ):
            return None
    pivots = linalg._image_psd(tri, den)
    if pivots is not None and not shaped:
        _expansion(basis, gram)  # raises
    return pivots


def _squares(basis: list[Path], pivots) -> list[tuple]:
    """Per LDL^H pivot (see `linalg._image_psd`): its weight w, its diagonal d and the
    nonzero terms (path, re, im) of g = sum v_i p_i over d, so the gram is sum w g g*."""
    out = []
    for p, weight, d, active, cr, ci in pivots:
        acc = {basis[p]: (d, 0)}
        for i, x, y in zip(active, cr, ci):
            if x or y:
                have = acc.get(basis[i])
                acc[basis[i]] = (x, y) if have is None else (have[0] + x, have[1] + y)
        out.append((weight, d, [(q, re, im) for q, (re, im) in acc.items() if re or im]))
    return out


def _square_dicts(basis: list[Path], pivots) -> list[dict]:
    """The squares of `_squares` as `sos verify` prints them: weights and terms as text, terms in path order."""
    if not pivots:
        return []
    key = basis[0].double.default_order().key
    return [
        {
            "weight": numerator_text(w.numerator, 0, w.denominator),
            "element": {
                "terms": [
                    {"path": str(q), "coeff": numerator_text(re, im, d)}
                    for q, re, im in sorted(terms, key=lambda t: key(t[0]))
                ]
            },
        }
        for w, d, terms in _squares(basis, pivots)
    ]


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
    return [
        (Scalar(w), Element.from_terms(basis[0].double, [(q, from_numerators(re, im, d)) for q, re, im in terms]))
        for w, d, terms in _squares(basis, pivots)
    ]
