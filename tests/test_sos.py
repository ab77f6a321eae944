import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivermoment import (
    InputError,
    Matrix,
    Quiver,
    Scalar,
    build_double,
    build_representation,
    enumerate_basis,
    expand_gram,
    gram_to_squares,
    verify_gram,
    verify_squares,
)

import oracles
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


def test_verify_gram_refusals_keep_their_order(fix_loop):
    # The comparison comes before the pivoting, but the order of verdicts and
    # errors is kept: a gram that is not hermitian is refused first, then a
    # basis past the degree bound; a gram whose size is not the basis's, or
    # an empty basis, is refused only when the gram is PSD, and is otherwise
    # a false verdict.
    q = elem(fix_loop, ("x x*", 1))
    one, two = [path(fix_loop, "x")], [path(fix_loop, "x"), path(fix_loop, "x*")]
    indef = Matrix.from_rows([[sc(1), sc(0)], [sc(0), sc(-1)]])
    with pytest.raises(InputError, match="hermitian"):
        verify_gram(q, [path(fix_loop, "x x")], Matrix.from_rows([[Scalar(0, 1)]]), 1)
    with pytest.raises(InputError, match="degree bound"):
        verify_gram(q, [path(fix_loop, "x x")], indef, 1)
    assert verify_gram(q, one, indef) is False
    with pytest.raises(InputError, match="gram size must match the basis"):
        verify_gram(q, one, identity(2))
    assert verify_gram(q, two, identity(2)) is False  # the expansion is x x* + x* x
    with pytest.raises(InputError, match="empty certificate basis"):
        verify_gram(q, [], Matrix(0, 0, []))


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


def _scalar_route(double, target, basis, gram, degree):
    """`sos verify` of a Gram certificate as it ran on `Scalar`s: the expansion
    as an `Element`, compared with the target, and the squares built as
    `Element`s off the LDL^H vectors and written by `element_to_dict`."""
    from quivermoment import Element, compose, fileio
    from matrix_api import ldlh_psd

    expansion = Element.from_terms(
        double, ((compose(p, q.star()), gram.entry(i, j)) for i, p in enumerate(basis) for j, q in enumerate(basis))
    )
    pairs = ldlh_psd(gram)
    if pairs is None or expansion != target or any(p.length() > degree for p in basis):
        return {"valid": False, "kind": "gram"}
    squares = [{"weight": str(w), "element": fileio.element_to_dict(Element.from_terms(double, zip(basis, v)))}
               for w, v in pairs]
    return {"valid": True, "kind": "gram", "squares": squares}


@pytest.mark.parametrize("quiver", ["fix_xyz", "fix_two_loops", "fix_a2"])
def test_gram_certificates_verify_as_on_scalars(quiver, request, tmp_path, capsys):
    # Derandomized certificates on integers from the file to the output
    # against the `Scalar` route: bases with repeated and trivial paths and
    # paths that do not compose, PSD grams and indefinite ones, real and
    # Gaussian, target terms split into repeated paths or written as "1",
    # and one coefficient moved.
    import json

    from linalg_oracle import conj_transpose, matmul, sub
    from quivermoment import Element, compose, enumerate_basis, fileio
    from quivermoment.cli import main

    double = request.getfixturevalue(quiver)
    window = list(enumerate_basis(double, double.default_order(), 2, True))
    rng, verdicts = random.Random(2501), []
    for case in range(24):
        complex_ = case % 2 == 1
        basis = [rng.choice(window) for _ in range(rng.randint(1, 6))]
        n, r = len(basis), rng.randint(0, 4)

        def draw(rows, cols):
            def entry():
                re = Scalar(rng.randint(-4, 4) if rng.random() < 0.7 else Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                return re + Scalar(0, rng.randint(-3, 3) if complex_ else 0)

            return Matrix(rows, cols, [entry() for _ in range(rows * cols)])

        g = draw(n, r)
        gram = matmul(g, conj_transpose(g))
        if case % 3 == 2:
            h = draw(n, 1)
            gram = sub(gram, matmul(h, conj_transpose(h)))
        expansion = Element.from_terms(
            double, ((compose(p, q.star()), gram.entry(i, j)) for i, p in enumerate(basis) for j, q in enumerate(basis))
        )
        terms = fileio.element_to_dict(expansion)["terms"]
        if terms and case % 4 == 1:  # a coefficient split over a repeated path
            c = Scalar.parse(terms[0]["coeff"])
            rest = str(c - Scalar(Fraction(1, 3)))
            terms = [{**terms[0], "coeff": "1/3"}, {**terms[0], "coeff": rest}] + terms[1:]
        if case % 4 == 3:  # "1" adds 2 at every trivial path, which the terms take back
            terms = [{"path": "1", "coeff": "2"}] + terms + [{"path": f"e:{v}", "coeff": "-2"} for v in double.vertices]
        if terms and case % 5 == 4:  # one coefficient moved
            terms[-1] = {**terms[-1], "coeff": str(Scalar.parse(terms[-1]["coeff"]) + Scalar(0, 1))}
        data = {
            "quiver": fileio.quiver_to_dict(double.base),
            "target": {"terms": terms},
            "degree": rng.choice([None, 1, 2]),
            "basis": [fileio.path_to_text(p) for p in basis],
            "gram": fileio.matrix_to_rows(gram),
        }
        fpath = tmp_path / f"cert{case}.json"
        fpath.write_text(json.dumps(data), encoding="utf-8")
        code = main(["sos", "verify", str(fpath)])
        out, err = capsys.readouterr()
        degree = 99 if data["degree"] is None else data["degree"]
        if any(p.length() > degree for p in basis):
            assert code == 2 and "exceeds the degree bound" in err
            continue
        file_target = fileio.element_from_dict(double, data["target"])
        want = _scalar_route(double, file_target, basis, gram, degree)
        assert (code, json.loads(out)) == (0 if want["valid"] else 1, want)
        verdicts.append(want["valid"])
    assert True in verdicts and False in verdicts


# -- squares certificates: the integer gram against the `Element` route ---------------

SQUARE_QUIVERS = {
    "one_loop": build_double(Quiver(["e"], [("x", "e", "e")])),
    "two_vertex": build_double(Quiver(["u", "v"], [("x", "u", "v"), ("y", "v", "v")])),
}


@st.composite
def square_certificates(draw):
    """Weighted Gaussian squares over a one-loop or a two-vertex quiver: up to
    three squares of up to four terms on paths of length <= 2 (repeated paths
    and terms that cancel included), weights that are positive, negative,
    zero, non-real, misaligned or absent, a degree bound of 0-2 or none, and
    a target that is the squares' expansion, that plus a drawn element, or drawn."""
    double = SQUARE_QUIVERS[draw(st.sampled_from(sorted(SQUARE_QUIVERS)), label="quiver")]
    window = list(enumerate_basis(double, double.default_order(), 2, True))
    part = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coeff = st.builds(Scalar, part, st.one_of(st.just(0), part))

    def element(label):
        terms = draw(st.lists(st.tuples(st.sampled_from(window), coeff), max_size=4), label=label)
        return oracles.element_from_terms(double, terms)

    squares = [element(f"square {i}") for i in range(draw(st.integers(0, 3), label="squares"))]
    weight = st.one_of(st.builds(Scalar, st.builds(Fraction, st.integers(1, 9), st.integers(1, 5))), coeff)
    weights = draw(st.one_of(st.none(), st.lists(weight, min_size=len(squares), max_size=len(squares)),
                             st.lists(weight, max_size=4)), label="weights")
    degree = draw(st.sampled_from([None, 0, 1, 2]), label="degree")
    kind = draw(st.sampled_from(["expansion", "moved", "drawn"]), label="target")
    target = element("target")
    if kind != "drawn":
        try:
            target = oracles.element_expand_squares(squares, weights)
        except InputError:
            pass
        if kind == "moved":
            target = target + element("moved by")
    return double, target, squares, weights, degree


def _element_verdict(target, squares, degree, weights):
    """The `Element` route's verdict or refusal text; an empty square list checks its weights first."""
    try:
        if not squares and weights:
            raise InputError("weights and squares must align")
        return oracles.element_verify_squares(target, squares, degree, weights)
    except InputError as e:
        return str(e)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(square_certificates())
def test_squares_certificates_verify_as_on_elements(tmp_path_factory, capsys, cert):
    # The integer gram of the squares, through the library adapter and
    # through `sos verify` of the certificate file, against the `Element`
    # route: the same verdicts and the same refusal texts, in their order.
    import json

    from quivermoment import fileio
    from quivermoment.cli import main

    double, target, squares, weights, degree = cert
    want = _element_verdict(target, squares, degree, weights)
    try:
        got = verify_squares(target, squares, degree, weights)
    except InputError as e:
        got = str(e)
    assert got == want
    data = {
        "quiver": fileio.quiver_to_dict(double.base),
        "target": fileio.element_to_dict(target),
        "degree": degree,
        "squares": [fileio.element_to_dict(g) for g in squares],
    }
    if weights is not None:
        data["weights"] = [str(w) for w in weights]
    fpath = tmp_path_factory.mktemp("squares") / "cert.json"
    fpath.write_text(json.dumps(data), encoding="utf-8")
    code = main(["sos", "verify", str(fpath)])
    out, err = capsys.readouterr()
    if isinstance(want, str):
        assert (code, out, err) == (2, "", f"error: {fpath}: {want}\n")
    else:
        assert (code, json.loads(out), err) == (0 if want else 1, {"valid": want, "kind": "squares"}, "")


@pytest.mark.parametrize("weights, code", [(["-1"], 2), (["1"], 2), ([], 0), (None, 0)])
def test_an_empty_square_list_checks_its_weights(weights, code, tmp_path, capsys):
    # With no squares, the weights are still checked: one weight for no
    # square is refused (exit 2) however it reads, and then the target
    # must be zero.
    import json

    from quivermoment.cli import main

    cert = {"quiver": {"vertices": ["e"], "arrows": [{"name": "x", "from": "e", "to": "e"}]},
            "target": {"terms": []}, "squares": []}
    if weights is not None:
        cert["weights"] = weights
    fpath = tmp_path / "cert.json"
    fpath.write_text(json.dumps(cert), encoding="utf-8")
    assert main(["sos", "verify", str(fpath)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert (out, err) == ("", f"error: {fpath}: weights and squares must align\n")
    else:
        assert (json.loads(out), err) == ({"valid": True, "kind": "squares"}, "")
        fpath.write_text(json.dumps({**cert, "target": {"terms": [{"path": "x", "coeff": "1"}]}}), encoding="utf-8")
        assert main(["sos", "verify", str(fpath)]) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False, "kind": "squares"}
