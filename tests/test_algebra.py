import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoment import ZERO_PATH, Element, InputError, Scalar, enumerate_basis

import oracles
from conftest import elem, path, sc
from oracles import truncate


def test_multiply_examples(fix_a2):
    f = elem(fix_a2, ("x", 1), ("x*", 1))
    assert f * elem(fix_a2, ("x", 1)) == elem(fix_a2, ("x* x", 1))
    unit = Element.unit(fix_a2)
    g = elem(fix_a2, ("x x*", 2), ("x*", -1))
    assert g * unit == g and unit * g == g
    lhs = elem(fix_a2, ("x x* x", 1), ("x", -1)) * elem(fix_a2, ("x*", 1))
    assert lhs == elem(fix_a2, ("x x* x x*", 1), ("x x*", -1))


def test_star_examples(fix_a2):
    f = Element.from_terms(
        fix_a2,
        [(path(fix_a2, "x"), sc(2)), (path(fix_a2, "x x*"), Scalar(0, 1))],
    )
    assert f.star() == Element.from_terms(
        fix_a2,
        [(path(fix_a2, "x*"), sc(2)), (path(fix_a2, "x x*"), Scalar(0, -1))],
    )
    q = elem(fix_a2, ("x x*", 1), ("x* x", 1))
    assert q.star() == q
    assert elem(fix_a2, ("x x* x", 1), ("x", -1)).star() == elem(
        fix_a2, ("x* x x*", 1), ("x*", -1)
    )


def test_tip_examples(fix_a2, fix_loop):
    o = fix_a2.default_order()
    p, c = elem(fix_a2, ("x x* x", 1), ("x", -1)).tip(o)
    assert (str(p), c) == ("x x* x", sc(1))
    ol = fix_loop.default_order()
    f = elem(fix_loop, ("x* x*", -5), ("x* x x* x*", 2), ("x* x* x x*", 1))
    p, c = f.tip(ol)
    assert (str(p), c) == ("x* x* x x*", sc(1))
    g = Element.from_terms(fix_a2, [(fix_a2.trivial("e1"), sc(3))])
    p, c = g.tip(o)
    assert p == fix_a2.trivial("e1") and c == sc(3)
    with pytest.raises(InputError):
        Element.zero(fix_a2).tip(o)


def test_truncate_examples(fix_a2):
    f = elem(fix_a2, ("x", 1), ("x x* x", 1))
    assert truncate(f, 1) == elem(fix_a2, ("x", 1))
    assert truncate(f, f.degree()) == f
    assert truncate(Element.zero(fix_a2), 5) == Element.zero(fix_a2)
    assert Element.zero(fix_a2).degree() is None


def random_element(double, rng, max_len=3, terms=3):
    pool = enumerate_basis(double, double.default_order(), max_len, include_trivial=True)
    pairs = [(rng.choice(pool), sc(rng.randint(-3, 3))) for _ in range(terms)]
    return Element.from_terms(double, pairs)


def test_tip_multiplicativity(fix_a2, fix_loop):
    from quivermoment import ZERO_PATH, compose

    rng = random.Random(11)
    for double in (fix_a2, fix_loop):
        o = double.default_order()
        checked = 0
        for _ in range(600):
            f, g = random_element(double, rng), random_element(double, rng)
            if f.is_zero() or g.is_zero():
                continue
            tp = compose(f.tip(o)[0], g.tip(o)[0])
            if tp is ZERO_PATH:
                continue
            # A nonzero tip product survives and is the tip of the product.
            fg = f * g
            checked += 1
            assert not fg.is_zero()
            assert fg.tip(o)[0] == tp
            assert fg.tip(o)[1] == f.tip(o)[1] * g.tip(o)[1]
        assert checked > 100


def test_multiply_associative_distributive(fix_a2, fix_loop):
    rng = random.Random(12)
    for double in (fix_a2, fix_loop):
        for _ in range(150):
            f, g, h = (random_element(double, rng, 2) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g).star() == f.star() + g.star()
            assert (f * g).star() == g.star() * f.star()


def test_star_involution(fix_loop):
    rng = random.Random(13)
    for _ in range(200):
        f = random_element(fix_loop, rng)
        assert f.star().star() == f


@st.composite
def term_lists(draw, double):
    """(path, coefficient) pairs over few paths, so that paths repeat and
    coefficients cancel; zero coefficients and the zero path included."""
    pool = enumerate_basis(double, double.default_order(), 2, include_trivial=True)
    paths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    path_or_zero = st.one_of(st.sampled_from(paths), st.just(ZERO_PATH))
    coeff = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    return draw(st.lists(st.tuples(path_or_zero, coeff), max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_from_terms_matches_the_adding_oracle(fix_a2, data):
    pairs = data.draw(term_lists(fix_a2))
    got, want = Element.from_terms(fix_a2, pairs), oracles.element_from_terms(fix_a2, pairs)
    # the same terms in the same order
    assert list(got.terms.items()) == list(want.terms.items())


def test_from_terms_repeats_and_cancellations(fix_a2):
    x, xs, e1 = path(fix_a2, "x"), path(fix_a2, "x*"), fix_a2.trivial("e1")
    pairs = [(x, sc(1)), (xs, sc(2)), (x, sc(-1)), (e1, sc(0)), (ZERO_PATH, sc(3)), (x, sc(4)), (xs, sc(1))]
    got = Element.from_terms(fix_a2, pairs)
    assert list(got.terms.items()) == [(xs, sc(3)), (x, sc(4))]
    assert list(got.terms.items()) == list(oracles.element_from_terms(fix_a2, pairs).terms.items())
