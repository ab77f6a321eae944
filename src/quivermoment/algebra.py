"""Elements of the path *-algebra: finite linear combinations of paths."""

from __future__ import annotations

from .errors import InputError
from .quiver import ZERO_PATH, DoubleQuiver, Path, PathOrder, compose
from .scalar import ONE, ZERO, Scalar, _common


class Element:
    """A finite Scalar-linear combination of paths of one double quiver.

    The support dict never stores zero coefficients or the zero path, so
    equality is structural.
    """

    __slots__ = ("double", "terms")

    def __init__(self, double: DoubleQuiver, terms: dict[Path, Scalar]):
        object.__setattr__(self, "double", double)
        object.__setattr__(self, "terms", dict(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(double: DoubleQuiver) -> Element:
        return Element(double, {})

    @staticmethod
    def from_path(p: Path, coeff: Scalar = ONE) -> Element:
        if p is ZERO_PATH or coeff.is_zero():
            raise InputError("from_path needs a nonzero path and coefficient")
        return Element(p.double, {p: coeff})

    @staticmethod
    def from_terms(double: DoubleQuiver, pairs) -> Element:
        """The sum of the (path, coefficient) pairs.

        A path's first nonzero coefficient is stored as it is; only a
        repeated path costs an addition and a zero test.
        """
        acc: dict[Path, Scalar] = {}
        for p, c in pairs:
            if p is ZERO_PATH or c.is_zero():
                continue
            have = acc.get(p)
            if have is None:
                acc[p] = c
                continue
            cur = have + c
            if cur.is_zero():
                del acc[p]
            else:
                acc[p] = cur
        return Element(double, acc)

    @staticmethod
    def unit(double: DoubleQuiver) -> Element:
        """The algebra unit: the sum of all trivial paths."""
        return Element(double, {e: ONE for e in double.trivial_paths()})

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: Element) -> Element:
        self._same_double(other)
        acc = dict(self.terms)
        for p, c in other.terms.items():
            cur = acc.get(p, ZERO) + c
            if cur.is_zero():
                acc.pop(p, None)
            else:
                acc[p] = cur
        return Element(self.double, acc)

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __neg__(self) -> Element:
        return Element(self.double, {p: -c for p, c in self.terms.items()})

    def scale(self, s: Scalar) -> Element:
        if s.is_zero():
            return Element.zero(self.double)
        return Element(self.double, {p: s * c for p, c in self.terms.items()})

    def __mul__(self, other: Element) -> Element:
        """Bilinear extension of path composition; non-composable products vanish."""
        self._same_double(other)
        acc: dict[Path, Scalar] = {}
        for p, cp in self.terms.items():
            for q, cq in other.terms.items():
                pq = compose(p, q)
                if pq is ZERO_PATH:
                    continue
                cur = acc.get(pq, ZERO) + cp * cq
                if cur.is_zero():
                    acc.pop(pq, None)
                else:
                    acc[pq] = cur
        return Element(self.double, acc)

    def star(self) -> Element:
        """Conjugate coefficients and star paths; (fg)* = g* f*."""
        return Element(self.double, {p.star(): c.conjugate() for p, c in self.terms.items()})

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Max support length, or None for the zero element."""
        if not self.terms:
            return None
        return max(p.length() for p in self.terms)

    def coeff(self, p: Path) -> Scalar:
        return self.terms.get(p, ZERO)

    def tip(self, order: PathOrder) -> tuple[Path, Scalar]:
        """The order-largest support path with its coefficient."""
        if not self.terms:
            raise InputError("the zero element has no tip")
        p = max(self.terms, key=order.key)
        return p, self.terms[p]

    def sorted_terms(self, order: PathOrder | None = None) -> list[tuple[Path, Scalar]]:
        o = order or self.double.default_order()
        return sorted(self.terms.items(), key=lambda t: o.key(t[0]))

    def sort_key(self, order: PathOrder):
        """Deterministic total order on elements, for canonical tie-breaking.

        Compares supports from the largest path down, then coefficients.
        """
        return tuple(
            (o_key, c.sort_key())
            for o_key, c in sorted(
                ((order.key(p), c) for p, c in self.terms.items()),
                key=lambda t: t[0],
                reverse=True,
            )
        )

    def _same_double(self, other: Element) -> None:
        if self.double is not other.double:
            raise InputError("elements live in different double quivers")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.double is other.double and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for p, c in self.sorted_terms():
            bits.append(f"({c})·{p}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"Element({self!s})"


def _numerators(e: Element) -> tuple[dict[tuple, tuple[int, int]], int]:
    """e as numerators {(vertex, letters): (re, im)} over one denominator; gcd 1 by construction."""
    cs = e.terms.values()
    nums, den = _common([c.re for c in cs] + [c.im for c in cs])
    n = len(cs)
    return {(p.vertex, p.letters): c for p, c in zip(e.terms, zip(nums[:n], nums[n:]))}, den
