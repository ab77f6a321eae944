import random

import pytest

from quivermoment import (
    InputError,
    Matrix,
    Scalar,
    build_representation,
    expand_gram,
    gram_to_squares,
    verify_gram,
    verify_squares,
)

from conftest import elem, path, sc, state_functional
from linalg_oracle import col, identity, is_hermitian
from matrix_api import psd_check
from oracles import inner, right_action_matrix, riesz_eval


def test_verify_squares_examples(fix_loop, fix_a2):
    q = elem(fix_loop, ("x x*", 1), ("x* x", 1))
    gs = [elem(fix_loop, ("x", 1)), elem(fix_loop, ("x*", 1))]
    assert verify_squares(q, gs, 1) is True
    bad = elem(fix_loop, ("x x*", 1), ("x* x", -1))
    assert verify_squares(bad, gs, 1) is False
    g = elem(fix_a2, ("x x* x", 1), ("x", -1))
    target = g * g.star()
    assert target == elem(
        fix_a2, ("x x* x x* x x*", 1), ("x x* x x*", -2), ("x x*", 1)
    )
    assert verify_squares(target, [g], 3) is True


def test_verify_squares_degree_bound(fix_loop):
    g = elem(fix_loop, ("x x", 1))
    with pytest.raises(InputError):
        verify_squares(g * g.star(), [g], 1)


def test_verify_gram_examples(fix_loop, fix_a2):
    q = elem(fix_loop, ("x x*", 1), ("x* x", 1))
    basis = [path(fix_loop, "x"), path(fix_loop, "x*")]
    assert verify_gram(q, basis, identity(2)) is True
    indef = Matrix.from_rows([[sc(1), sc(0)], [sc(0), sc(-1)]])
    assert verify_gram(q, basis, indef) is False

    basis2 = [path(fix_a2, "x"), path(fix_a2, "x x* x")]
    g2 = Matrix.from_rows([[sc(2), sc(1)], [sc(1), sc(1)]])
    target = expand_gram(basis2, g2)
    expected = elem(
        fix_a2,
        ("x x*", 2),
        ("x x* x x*", 2),
        ("x x* x x* x x*", 1),
    )
    assert target == expected
    assert verify_gram(target, basis2, g2) is True


def test_verify_gram_rejects_non_hermitian(fix_loop):
    q = elem(fix_loop, ("x x*", 1))
    with pytest.raises(InputError):
        verify_gram(q, [path(fix_loop, "x")], Matrix.from_rows([[Scalar(0, 1)]]))


def test_gram_to_squares_round_trip(fix_a2, fix_loop):
    cases = [
        (
            [path(fix_a2, "x"), path(fix_a2, "x x* x")],
            Matrix.from_rows([[sc(2), sc(1)], [sc(1), sc(1)]]),
        ),
        (
            [path(fix_loop, "x"), path(fix_loop, "x*")],
            Matrix.from_rows([[sc(3), sc(1)], [sc(1), sc(2)]]),
        ),
    ]
    for basis, gram in cases:
        target = expand_gram(basis, gram)
        assert verify_gram(target, basis, gram) is True
        weighted = gram_to_squares(basis, gram)
        squares = [g for _, g in weighted]
        weights = [w for w, _ in weighted]
        assert verify_squares(target, squares, weights=weights) is True


def test_soundness_against_psd_functionals(fix_loop):
    # A verified square sum pairs nonnegatively with every PSD functional.
    rng = random.Random(23)
    g1 = elem(fix_loop, ("x", 1), ("x x*", -1))
    g2 = elem(fix_loop, ("x*", 2), ("x x", 1))
    target = g1 * g1.star() + g2 * g2.star()
    assert verify_squares(target, [g1, g2], 2) is True
    for _ in range(6):
        f = state_functional(fix_loop, 2, True, [4], rng)
        v = riesz_eval(f, target)
        assert v.is_real() and v.re >= 0


def test_representation_positivity(fix_l2_ext, example2_l4, fix_a2, fix_loop):
    # The image form of a certified square sum is exactly PSD.
    targets = {
        fix_a2: elem(fix_a2, ("x x* x x* x x*", 1), ("x x* x x*", -2), ("x x*", 1)),
        fix_loop: elem(fix_loop, ("x x*", 1), ("x* x", 1)),
    }
    for f in (fix_l2_ext, example2_l4):
        rep = build_representation(f)
        q = targets[f.double]
        action = right_action_matrix(rep, q)
        form = Matrix(
            rep.dim,
            rep.dim,
            [
                inner(rep, list(col(action, j)), [sc(1) if r == i else sc(0) for r in range(rep.dim)])
                for i in range(rep.dim)
                for j in range(rep.dim)
            ],
        )
        assert is_hermitian(form)
        assert psd_check(form)
