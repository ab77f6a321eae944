"""Verification of sum-of-hermitian-squares certificates.

Only the verification face of the cone is implemented: a certificate is
either an explicit list of squares (optionally with positive rational
weights) or a hermitian PSD Gram matrix over a path basis.  A passing Gram
witness is converted to explicit weighted squares through the exact rational
LDL^H decomposition; certificate search is out of scope.

Both kinds run on integers from the file to the output, the target as
numerators over one denominator.  A Gram certificate's gram is an integer
image, checked there to be hermitian (`_certify`).  Squares g_i with
weights w_i are the gram G = sum w_i c_i c_i^H over the union of their
supports, c_i the coefficients of g_i (`_squares_gram`), PSD by
construction.  The expansion sum G[i][j] p_i q_j* is summed on the image
(`_expansion`) and compared with the target (`_matches`); only a Gram
certificate that matches is pivoted, once, which decides PSD and gives the
squares (`_squares`).  The public functions are adapters over this core.
"""

from __future__ import annotations

from math import lcm

from . import linalg
from .algebra import Element, _numerators
from .errors import InputError
from .linalg import Matrix
from .quiver import DoubleQuiver, Key, Path
from .scalar import Scalar, from_numerators, numerator_text

# A linear combination of paths as numerators: {path key: (re, im)} over
# one positive denominator, zero terms left out.
Numerators = tuple[dict[Key, tuple[int, int]], int]


def expand_squares(squares, weights=None) -> Element:
    """sum w_i g_i g_i*, with every w_i = 1 when no weights are given."""
    squares = list(squares)
    if not squares and not weights:
        raise InputError("empty square list")
    double = squares[0].double if squares else None
    basis, gram = _squares_gram(double, [_numerators(g) for g in squares], _weights(weights), None)
    return expand_gram(basis, gram) if basis else Element.zero(double)


def verify_squares(target: Element, squares, d: int | None = None, weights=None) -> bool:
    """Exact check that target = sum w_i g_i g_i* (degree-bounded when d given)."""
    nums = [_numerators(g) for g in squares]
    return _verify_squares(target.double, _numerators(target), nums, _weights(weights), d)


def _weights(weights) -> list[tuple[int, int, int]] | None:
    return None if weights is None else [w.numerators() for w in weights]


def _verify_squares(double: DoubleQuiver, target: Numerators, squares: list[Numerators], weights, d) -> bool:
    """Whether the target is sum w_i g_i g_i* for squares and weights as numerators (see `_squares_gram`)."""
    basis, gram = _squares_gram(double, squares, weights, d)
    return _matches(target, _expansion(basis, gram)) if basis else not target[0]


def _squares_gram(double: DoubleQuiver, squares: list[Numerators], weights, d: int | None) -> tuple[list[Path], Matrix]:
    """The union of the squares' supports, as paths, and the gram G = sum w_i c_i c_i^H over it.

    Weights are (re, im, den) triples, or None for every w_i = 1.  Refused in
    this order: the first square past the degree bound d, weights that do not
    align with the squares, and a weight that is not a positive rational.
    """
    if d is not None:
        for terms, _ in squares:
            if terms and (deg := max(len(letters) for _, letters in terms)) > d:
                raise InputError(f"square of degree {deg} exceeds the bound {d}")
    weights = [(1, 0, 1)] * len(squares) if weights is None else weights
    if len(weights) != len(squares):
        raise InputError("weights and squares must align")
    if any(im or re <= 0 for re, im, _ in weights):
        raise InputError("square weights must be positive rationals")
    index = {key: i for i, key in enumerate(dict.fromkeys(key for terms, _ in squares for key in terms))}
    n, den = len(index), lcm(*(wd * sd * sd for (_, _, wd), (_, sd) in zip(weights, squares)))
    rows = [[0] * (2 * n) for _ in range(n)]  # real parts, then imaginary parts
    for (w, _, wd), (terms, sd) in zip(weights, squares):
        f, vec = w * (den // (wd * sd * sd)), [(index[key], x, y) for key, (x, y) in terms.items()]
        for i, x, y in vec:  # row i gains f c_i conj(c_j) = f (x + iy)(u - iv)
            for j, u, v in vec:
                rows[i][j] += f * (x * u + y * v)
                rows[i][n + j] += f * (y * u - x * v)
    return [Path(double, *key) for key in index], linalg._matrix(rows, den, n)


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
    pivots = _certify(_numerators(target), basis, gram, d)
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
    if shaped and not _matches(target, _expansion(basis, gram)):
        return None
    pivots = linalg._image_psd(tri, den)
    if pivots is not None and not shaped:
        _expansion(basis, gram)  # raises
    return pivots


def _matches(target: Numerators, expansion: Numerators) -> bool:
    """Whether two linear combinations given as numerators are equal."""
    (want, wden), (terms, den) = target, expansion
    return terms.keys() == want.keys() and all(
        re * wden == want[p][0] * den and im * wden == want[p][1] * den for p, (re, im) in terms.items()
    )


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
