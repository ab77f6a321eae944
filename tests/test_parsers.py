"""The table-driven path and scalar parsers against the parsers they replaced.

`oracles.parse_path` builds a path prefix by prefix from arrows found by a
scan, and `oracles.scalar_parse` runs `Fraction` on the text of each part.
On every input the package's parsers must return the same value, or raise
the same error class with the same message; `parse_literal` returns that
value as its canonical numerators over a denominator.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quivermoment import InputError, Quiver, Scalar, build_double
from quivermoment.fileio import parse_path
from quivermoment.scalar import parse_literal

SETTINGS = settings(max_examples=400, deadline=None, derandomize=True)


def outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as e:  # the class and the message are compared
        return (type(e), str(e))


# -- paths ---------------------------------------------------------------------

QUIVERS = {
    "a2": Quiver(["e1", "e2"], [("x", "e1", "e2")]),
    "loop": Quiver(["v"], [("x", "v", "v")]),
    "chain": Quiver(["e1", "e2", "e3"], [("x", "e1", "e2"), ("y", "e2", "e3")]),
    # Unusual names that still read back: a vertex named like a trivial-path
    # token, `*` inside a name, and an arrow named `e`.
    "odd_names": Quiver(["e:v", "w*"], [("a*b", "e:v", "w*"), ("e", "w*", "w*"), ("b", "w*", "e:v")]),
}
DOUBLES = {name: build_double(q) for name, q in QUIVERS.items()}
JUNK = ["z", "*", "**", "x**", "a***", "e:", "e:nowhere", "1", "X", "x*x"]


@st.composite
def path_texts(draw):
    double = draw(st.sampled_from(sorted(DOUBLES)))
    d = DOUBLES[double]
    names = [d.letter_name(l) for l in d.letters()] + ["e:" + v for v in d.vertices]
    tokens = draw(st.lists(st.sampled_from(names + JUNK), max_size=6))
    seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", "\n "]), min_size=len(tokens) + 1))
    text = seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))
    return double, text, draw(st.sampled_from([None, "f.json"]))


@SETTINGS
@given(path_texts())
def test_parse_path_matches_oracle(case):
    double, text, source = case
    d = DOUBLES[double]
    assert outcome(parse_path, d, text, source) == outcome(oracles.parse_path, d, text, source)


@pytest.mark.parametrize(
    "double, text",
    [("loop", "x x* e:v"), ("loop", "e:v x"), ("loop", "e:v"), ("loop", "x x*"), ("a2", "x x"),
     ("a2", "x z"), ("a2", "x* x x*"), ("a2", ""), ("odd_names", "a*b e e* b"),
     ("odd_names", "e:e:v"), ("odd_names", "e:w*"), ("odd_names", "a*b* a*b"), ("odd_names", "a* b"),
     ("odd_names", "e:v"), ("odd_names", "e e:w*")],
)
def test_parse_path_fixed_cases(double, text):
    d = DOUBLES[double]
    assert outcome(parse_path, d, text, "f.json") == outcome(oracles.parse_path, d, text, "f.json")


# -- scalars -------------------------------------------------------------------

SCALAR_CHARS = "0123456789+-/i _xe.\t٣² "


@st.composite
def scalar_texts(draw):
    """Free text over the grammar's characters, or text shaped like the grammar."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=SCALAR_CHARS, max_size=14))
    digits = st.text(alphabet="0123456789٣", min_size=1, max_size=4)

    def part():
        sign = draw(st.sampled_from(["", "+", "-", " - "]))
        den = draw(st.one_of(st.just(""), digits.map(lambda d: "/" + d)))
        return sign + draw(digits) + den

    re_part = part() if draw(st.booleans()) else ""
    im_part = part() + draw(st.sampled_from(["i", " i", "i "])) if draw(st.booleans()) else ""
    return re_part + im_part


@SETTINGS
@given(scalar_texts())
def test_scalar_parse_matches_oracle(text):
    assert outcome(Scalar.parse, text) == outcome(oracles.scalar_parse, text)


@pytest.mark.parametrize(
    "text",
    ["1_000", "0x10", "1e3", " 7 ", "٣", "²", "+5", "3/0", "1/2+3/4 i", "12i", "-0/5",
     "", " ", "i", "1/2/3", "-12i", "1/23i", "1/2+3i", "1 2i", "1+2",
     # the signed-integer route and what it must leave to the grammar
     "-٣", "+0", "-0", "007", "-", "+", "--1", "+-1", "1 2", "7" * 5000, "-" + "7" * 5000],
    ids=lambda text: f"{len(text)}_digits" if len(text) > 100 else None,
)
def test_scalar_parse_fixed_cases(text):
    assert outcome(Scalar.parse, text) == outcome(oracles.scalar_parse, text)


@pytest.mark.parametrize("value", [5, 1.5, None, ["1"]])
def test_scalar_parse_refuses_non_strings(value):
    with pytest.raises(InputError, match="must be a string"):
        Scalar.parse(value)
    with pytest.raises(InputError, match="must be a string"):
        parse_literal(value)


@SETTINGS
@given(scalar_texts())
def test_parse_literal_is_canonical_and_matches_the_oracle(text):
    # (re, im, den) with den > 0 and no common factor: equal values give
    # equal triples, whatever their texts.
    got, want = outcome(parse_literal, text), outcome(oracles.scalar_parse, text)
    if want[0] != "value":
        assert got == want
        return
    re, im, den = got[1]
    assert den > 0 and gcd(re, im, den) == 1
    assert Scalar(Fraction(re, den), Fraction(im, den)) == want[1]
    assert want[1].numerators() == got[1]
