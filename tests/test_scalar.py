import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoment import InputError, Scalar
from quivermoment.scalar import from_numerators, numerator_text


def test_parse_rational_forms():
    assert Scalar.parse("3/4") == Scalar(Fraction(3, 4))
    assert Scalar.parse("-2") == Scalar(-2)
    assert Scalar.parse(" 7 / 2 ") == Scalar(Fraction(7, 2))


def test_parse_complex_forms():
    assert Scalar.parse("3/4+1/2 i") == Scalar(Fraction(3, 4), Fraction(1, 2))
    assert Scalar.parse("-1/2-3i") == Scalar(Fraction(-1, 2), -3)
    assert Scalar.parse("2i") == Scalar(0, 2)


@pytest.mark.parametrize(
    "text, value",
    [
        ("12i", Scalar(0, 12)),
        ("-12i", Scalar(0, -12)),
        ("1/23i", Scalar(0, Fraction(1, 23))),
        ("1 2 i", Scalar(0, 12)),
        ("1+2i", Scalar(1, 2)),
        ("1/2+3i", Scalar(Fraction(1, 2), 3)),
        ("-1/2-3/4 i", Scalar(Fraction(-1, 2), Fraction(-3, 4))),
    ],
)
def test_parse_imaginary_part_after_a_real_part_carries_its_sign(text, value):
    # Unsigned digits before `i` are all imaginary: "12i" is 12i, not 1 + 2i.
    assert Scalar.parse(text) == value


@pytest.mark.parametrize("bad", ["", "i", "1/2/3", "one", "3/0", "++1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InputError):
        Scalar.parse(bad)


LONG = "7" * 5000  # past Python's default 4300-digit int conversion limit


@pytest.mark.parametrize("text", [LONG, f"1/{LONG}", f"2+{LONG}i", f"-1/3-1/{LONG} i"])
def test_parse_refuses_parts_past_int_digit_limit_by_length(text):
    with pytest.raises(InputError) as err:
        Scalar.parse(text)
    assert f"{len(text)} characters" in str(err.value)
    assert LONG[:100] not in str(err.value)


def test_format_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        s = Scalar(
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        )
        assert Scalar.parse(str(s)) == s


def test_conjugation_involution():
    rng = random.Random(2)
    for _ in range(100):
        s = Scalar(rng.randint(-9, 9), rng.randint(-9, 9))
        assert s.conjugate().conjugate() == s
        assert (s.conjugate() == s) == (s.im == 0)


def test_field_arithmetic():
    a = Scalar(1, 2)
    b = Scalar(Fraction(1, 3), -1)
    assert a * b / b == a
    assert (a + b) - b == a
    assert a * (b + b) == a * b + a * b
    with pytest.raises(ZeroDivisionError):
        a / Scalar(0)


def test_lowest_terms_after_every_operation():
    s = Scalar(Fraction(2, 4))
    assert s.re.denominator == 2 and s.re.numerator == 1
    t = Scalar(Fraction(1, 3)) + Scalar(Fraction(2, 3))
    assert t.re.denominator == 1


BIG = 10**4400 + 7  # a part past Python's 4300-digit int-to-string limit


def fraction_text(x: int, den: int) -> str:
    """str(Fraction(x, den)) with the int-to-string digit limit lifted: the oracle."""
    limit = getattr(sys, "set_int_max_str_digits", None)
    if limit is None:  # a Python without the limit
        return str(Fraction(x, den))
    old = sys.get_int_max_str_digits()
    limit(0)
    try:
        return str(Fraction(x, den))
    finally:
        limit(old)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, -1, BIG, -BIG]),
    st.integers(-(10**30), 10**30) | st.sampled_from([0, 1, -1, BIG, -BIG]),
    st.integers(1, 10**20) | st.sampled_from([1, 2, BIG]),
)
def test_numerator_text_is_the_text_of_the_scalar(re, im, den):
    # The writers format numerators without building the `Scalar`: the text
    # is the scalar's, zero, negative and Gaussian parts, den 1 and parts
    # past the digit limit (the `decimal` route) included.
    text = numerator_text(re, im, den)
    assert text == str(from_numerators(re, im, den))
    if not im:
        assert text == fraction_text(re, den)
    else:
        im_text = fraction_text(im, den)
        assert text == f"{fraction_text(re, den)}{im_text if im < 0 else '+' + im_text} i"


@pytest.mark.parametrize(
    "re, im, den, text",
    [
        (0, 0, 1, "0"),
        (0, 0, 7, "0"),
        (6, 0, 4, "3/2"),
        (-6, 0, 3, "-2"),
        (0, 3, 6, "0+1/2 i"),
        (2, -4, 6, "1/3-2/3 i"),
        (BIG, 0, 1, "1" + "0" * 4399 + "7"),
        (2, -BIG, 1, "2-1" + "0" * 4399 + "7 i"),
    ],
    ids=["zero", "zero over 7", "reduced", "negative", "imaginary", "gaussian", "long", "long imaginary"],
)
def test_numerator_text_examples(re, im, den, text):
    assert numerator_text(re, im, den) == text
