"""Exact Gaussian-rational scalars.

Every number in the package is an element of Q(i): a rational real part plus a
rational imaginary part.  `fractions.Fraction` keeps both parts in lowest terms
with positive denominators, so equality is structural and arithmetic is exact.

Text grammar (used by every file format): ``"p/q"`` for rationals (``/q``
omitted when the denominator is 1) and ``"p/q+r/s i"`` for complex values.
Whitespace is insignificant and signs are allowed on both parts.  An
imaginary part that follows a real part carries its sign, so a literal
reads one way only: ``"12i"`` is 12i, ``"1/23i"`` is 1/23 i, and
``"1+2i"`` is 1 + 2i.

`parse_literal` reads a literal as Gaussian-integer numerators over one
denominator, ``(re, im, den)`` with ``den > 0`` and no common factor of all
three, so that two literals are equal iff their triples are.  The loaders
that hold integer images read it directly; `Scalar.parse` wraps it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError

# A rational part is a signed numerator and an optional denominator; the
# groups are (re num, re den, im num, im den).  A real part must be followed
# by a sign or the end, so an imaginary part after it carries its sign.
_RAT = r"([+-]?\d+)(?:/(\d+))?"
_SCALAR_RE = re.compile(rf"^(?:{_RAT}(?=[+-]|$))?(?:{_RAT}i)?$")
_SPACE_RE = re.compile(r"\s+")
_F0 = Fraction(0)


class Scalar:
    """An immutable Gaussian rational."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def _make(re: Fraction, im: Fraction) -> Scalar:
        s = _new(Scalar)
        _set_re(s, re)
        _set_im(s, im)
        return s

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        return Scalar._make(self.re + other.re, self.im + other.im)

    def __sub__(self, other: Scalar) -> Scalar:
        return Scalar._make(self.re - other.re, self.im - other.im)

    def __neg__(self) -> Scalar:
        return Scalar._make(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> Scalar:
        if not self.im and not other.im:
            return Scalar._make(self.re * other.re, _F0)
        return Scalar._make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: Scalar) -> Scalar:
        if self.im == 0 and other.im == 0:
            if other.re == 0:
                raise ZeroDivisionError("division by zero Scalar")
            return Scalar._make(self.re / other.re, _F0)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar._make(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> Scalar:
        if not self.im:
            return self
        return Scalar._make(self.re, -self.im)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def numerators(self) -> tuple[int, int, int]:
        """(re, im, den) with self = (re + im i) / den, den > 0, gcd 1: `parse_literal`'s form."""
        re, im = self.re, self.im
        return _canonical(re.numerator, re.denominator, im.numerator, im.denominator)

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Total order on scalars used only for deterministic tie-breaking."""
        return (self.re, self.im)

    # -- text grammar -------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return _text(self.re)
        im_txt = _text(self.im) if self.im < 0 else "+" + _text(self.im)
        return f"{_text(self.re)}{im_txt} i"

    def __repr__(self) -> str:
        return f"Scalar({self!s})"

    @staticmethod
    def parse(text: str) -> Scalar:
        a, b, c, d = _parts(text)
        return Scalar._make(Fraction(a) if b == 1 else Fraction(a, b), Fraction(c, d) if c else _F0)


# The slots' own setters, past the immutable __setattr__.
_new = object.__new__
_set_re, _set_im = Scalar.re.__set__, Scalar.im.__set__


def _text(x: Fraction) -> str:
    """str(x), also for parts past Python's int-to-string digit limit (see `_part`)."""
    try:
        return str(x)
    except ValueError:
        return _part(x.numerator, x.denominator)


def numerator_text(re: int, im: int, den: int) -> str:
    """str(from_numerators(re, im, den)) for den > 0, with no `Scalar` built."""
    if not im:
        return _part(re, den)
    im_txt = _part(im, den)
    return f"{_part(re, den)}{im_txt if im < 0 else '+' + im_txt} i"


def _part(x: int, den: int) -> str:
    """str(Fraction(x, den)) for den > 0.

    Integers past Python's int-to-string digit limit are formatted through
    an exact `decimal` context, which does not go through int.__str__;
    shorter ones give the same bytes.  `decimal` is imported only then, as
    it adds to every start-up.
    """
    g = gcd(x, den)
    if g > 1:
        x, den = x // g, den // g
    try:
        return str(x) if den == 1 else f"{x}/{den}"
    except ValueError:
        import decimal

        exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
        num = format(exact.create_decimal(x), "f")
        return num if den == 1 else f"{num}/{format(exact.create_decimal(den), 'f')}"


def parse_literal(text: str) -> tuple[int, int, int]:
    """The literal as (re, im, den): the value (re + im i) / den, den > 0, gcd 1."""
    return _canonical(*_parts(text))


def _canonical(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """a/b + (c/d) i for b, d > 0 as (re, im, den) over one denominator, with no common factor."""
    if b == d == 1:
        return a, c, 1
    re, im, den = a * d, c * b, b * d
    g = gcd(re, im, den)
    return (re // g, im // g, den // g) if g > 1 else (re, im, den)


def _parts(text: str) -> tuple[int, int, int, int]:
    """The grammar: (a, b, c, d) of a literal a/b + (c/d) i, as written, with b, d > 0.

    Every refusal of a literal is raised here, in this order.
    """
    if not isinstance(text, str):
        raise InputError(f"scalar literal must be a string, not {text!r}")
    # The commonest literals, a signed decimal integer p and a fraction p/q of
    # decimal integers, skip the regex.  `isdecimal` accepts exactly the
    # characters the regex's \d does.
    num, slash, den = text.partition("/")
    if (num[1:] if num[:1] in ("+", "-") else num).isdecimal() and (den.isdecimal() or not slash):
        try:
            q = int(den) if slash else 1
            if q:  # a zero denominator is refused below
                return int(num), q, 0, 1
        except ValueError:  # past Python's int conversion limit: refused below
            pass
    compact = _SPACE_RE.sub("", text)
    if not compact:
        raise InputError(f"empty scalar literal {text!r}")
    m = _SCALAR_RE.match(compact)
    if m is None or (m.group(1) is None and m.group(3) is None):
        raise InputError(f"malformed scalar literal {text!r}")
    re_num, re_den, im_num, im_den = m.groups()
    try:
        return (*_rational(re_num, re_den), *_rational(im_num, im_den))
    except ZeroDivisionError:
        raise InputError(f"zero denominator in scalar literal {text!r}") from None
    except ValueError:  # a part longer than Python's int conversion limit
        raise InputError(f"scalar literal of {len(text)} characters exceeds the integer digit limit") from None


def _rational(num: str | None, den: str | None) -> tuple[int, int]:
    """A part's numerator and positive denominator, as written; (0, 1) when absent."""
    if num is None:
        return 0, 1
    if den is None:
        return int(num), 1
    n, d = int(num), int(den)
    if not d:
        raise ZeroDivisionError
    return n, d


def _common(parts: list[Fraction]) -> tuple[list[int], int]:
    """Fractions as integers over their least common denominator: (numerators, denominator)."""
    den = lcm(*[x.denominator for x in parts])
    if den == 1:
        return [x.numerator for x in parts], 1
    return [x.numerator * (den // x.denominator) for x in parts], den


def from_numerators(re: int, im: int, den: int) -> Scalar:
    """(re + im i) / den for a nonzero int den; zero is the shared ZERO."""
    if not im:
        return Scalar._make(Fraction(re, den), _F0) if re else ZERO
    return Scalar._make(Fraction(re, den) if re else _F0, Fraction(im, den))


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
