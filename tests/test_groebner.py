import json
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path as FsPath

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quivermoment import (
    Element,
    algebra,
    fileio,
    ExtensionObstructed,
    InputError,
    InternalInvariantError,
    Scalar,
    TruncatedFunctional,
    enumerate_basis,
    flat_extend_tip_maximal,
    groebner,
    kernel_groebner,
    right_groebner,
)

from conftest import elem, hermitian_functional, path, pd_functional, sc, state_functional
from groebner_api import normal_form, total_reduce
from oracles import (
    completion_kernel_groebner,
    left_divides,
    pairing,
    scalar_fold,
    scalar_normal_form,
    scalar_right_groebner,
    scalar_tip_table,
    scalar_total_reduce,
)


def test_left_divides_examples(fix_loop):
    t = path(fix_loop, "x x")
    m = path(fix_loop, "x x x*")
    assert left_divides(t, m) == path(fix_loop, "x*")
    assert left_divides(path(fix_loop, "x*"), path(fix_loop, "x x*")) is None
    rem = left_divides(m, m)
    assert rem is not None and rem.is_trivial()


def test_left_divides_trivial_prefix(fix_a2):
    e1 = fix_a2.trivial("e1")
    assert left_divides(e1, path(fix_a2, "x x*")) == path(fix_a2, "x x*")
    assert left_divides(e1, path(fix_a2, "x* x")) is None


def test_total_reduce_examples(fix_loop):
    o = fix_loop.default_order()
    h = elem(fix_loop, ("x* x* x* x", 1))
    assert total_reduce(h, [elem(fix_loop, ("x* x* x*", 1))], o).is_zero()
    # x^3 = (x^2 - 1)·x + x
    g = elem(fix_loop, ("x x", 1)) - Element.unit(fix_loop)
    r = total_reduce(elem(fix_loop, ("x x x", 1)), [g], o)
    assert r == elem(fix_loop, ("x", 1))
    h2 = elem(fix_loop, ("x x*", 2), ("x", -1))
    assert total_reduce(h2, [], o) == h2
    # A basis element is used divided by its tip coefficient.
    trace = []
    assert total_reduce(elem(fix_loop, ("x x", 1)), [elem(fix_loop, ("x", 2))], o, trace).is_zero()
    assert [(str(e.target), str(e.by), str(e.cofactor)) for e in trace] == [("x x", "x", "x")]
    # A term that cancels to zero is not reduced, though a tip divides it:
    # x* x - x x - (x* - x)·x leaves 0·x x, and x x = x·x.
    trace = []
    basis = [elem(fix_loop, ("x*", 1), ("x", -1)), elem(fix_loop, ("x", 1), ("e:e", -2))]
    assert total_reduce(elem(fix_loop, ("x* x", 1), ("x x", -1)), basis, o, trace).is_zero()
    assert [(str(e.target), str(e.by), str(e.cofactor)) for e in trace] == [("x* x", "x*", "x")]


def test_right_groebner_printed_example(fix_h4, fix_g4, fix_loop):
    gb = right_groebner(fix_h4, fix_loop.default_order())
    assert list(gb.elements) == fix_g4
    assert [(str(e.target), str(e.by), str(e.cofactor)) for e in gb.trace] == [
        ("x* x* x* x", "x* x* x*", "x"),
        ("x* x* x* x*", "x* x* x*", "x*"),
    ]


def test_right_groebner_hand_example(fix_loop):
    o = fix_loop.default_order()
    gens = [elem(fix_loop, ("x x", 1)), elem(fix_loop, ("x x x*", 1), ("x", -1))]
    gb = right_groebner(gens, o)
    assert list(gb.elements) == [elem(fix_loop, ("x", 1))]


def test_right_groebner_singleton(fix_loop):
    gb = right_groebner([elem(fix_loop, ("x", 1))], fix_loop.default_order())
    assert list(gb.elements) == [elem(fix_loop, ("x", 1))]


def test_right_groebner_monic_output(fix_loop):
    gb = right_groebner([elem(fix_loop, ("x x", 7))], fix_loop.default_order())
    assert list(gb.elements) == [elem(fix_loop, ("x x", 1))]


def test_normal_form_examples(fix_l2_ext, fix_g4, fix_loop):
    d = fix_l2_ext.double
    gb = kernel_groebner(fix_l2_ext)
    p8 = elem(d, ("x x* x x* x x* x x*", 1))
    assert normal_form(p8, gb) == elem(d, ("x x*", 1))
    for g in gb.elements:
        assert normal_form(g, gb).is_zero()
    gb4 = right_groebner(fix_g4, fix_loop.default_order())
    f = elem(fix_loop, ("x* x*", 1))
    assert normal_form(f, gb4) == f


def test_normal_form_linear_idempotent(fix_g4, fix_loop):
    o = fix_loop.default_order()
    gb = right_groebner(fix_g4, o)
    rng = random.Random(17)
    from quivermoment import enumerate_basis

    pool = enumerate_basis(fix_loop, o, 5, include_trivial=False)
    for _ in range(40):
        f = Element.from_terms(
            fix_loop, [(rng.choice(pool), sc(rng.randint(-3, 3))) for _ in range(3)]
        )
        g = Element.from_terms(
            fix_loop, [(rng.choice(pool), sc(rng.randint(-3, 3))) for _ in range(3)]
        )
        nf = normal_form(f, gb)
        ng = normal_form(g, gb)
        assert normal_form(f - g, gb) == nf - ng
        assert normal_form(nf, gb) == nf


def test_kernel_groebner_fixture(fix_l2_ext):
    d = fix_l2_ext.double
    gb = kernel_groebner(fix_l2_ext)
    assert list(gb.elements) == [
        elem(d, ("x x* x", 1), ("x", -1)),
        elem(d, ("x* x x*", 1), ("x*", -1)),
    ]
    assert gb.trace == ()


def test_kernel_groebner_printed_route(example2_l4, fix_h4, fix_g4):
    # The minimal-tip selection is the printed basis; the completion reaches
    # it from the printed generators and from the echelon kernel, with the
    # two printed reductions each time.
    gb = kernel_groebner(example2_l4)
    assert list(gb.elements) == fix_g4
    assert gb.trace == ()
    for gens in (fix_h4, example2_l4.kernel_basis()):
        completed = right_groebner(gens, example2_l4.order)
        assert completed.elements == gb.elements
        assert len(completed.trace) == 2


def test_kernel_groebner_zero_generators(fix_a2):
    # A flat functional always has a nonzero kernel (rank cannot reach the
    # full window): the zero functional's kernel is its whole window, and
    # its basis is the two letters.  The zero ideal comes from an empty
    # generating set.
    zero = TruncatedFunctional(fix_a2, 2, {}, include_trivial=False)
    assert zero.is_flat().flat
    gb = kernel_groebner(zero)
    assert gb.elements == (elem(fix_a2, ("x", 1)), elem(fix_a2, ("x*", 1)))
    assert gb.elements == right_groebner(zero.kernel_basis(), zero.order).elements
    assert right_groebner([], fix_a2.default_order()).elements == ()


def test_kernel_groebner_requires_flat(fix_a2, example2_order3):
    with pytest.raises(InputError):
        kernel_groebner(example2_order3)


def test_ideal_membership_soundness(fix_h4, fix_loop):
    o = fix_loop.default_order()
    gb = right_groebner(fix_h4, o)
    for h in fix_h4:
        assert total_reduce(h, list(gb.elements), o).is_zero()


def test_self_reduced_tips(fix_h4, fix_loop, example2_l4):
    o = fix_loop.default_order()
    for gb in (right_groebner(fix_h4, o), kernel_groebner(example2_l4)):
        tips = [g.tip(gb.order)[0] for g in gb.elements]
        for i, t in enumerate(tips):
            for j, t2 in enumerate(tips):
                if i != j:
                    assert left_divides(t2, t) is None


def test_determinism(fix_h4, fix_loop):
    o = fix_loop.default_order()
    g1 = right_groebner(fix_h4, o)
    g2 = right_groebner(fix_h4, o)
    assert g1.elements == g2.elements and g1.trace == g2.trace


def test_trunk_realized_for_flat_kernel(fix_l2_ext, example2_l4):
    # Kernel elements times a path, staying in V_k with nonzero tip product,
    # pair to zero against the whole window.
    from quivermoment import ZERO_PATH, compose

    for f in (fix_l2_ext, example2_l4):
        order = f.order
        window = f.basis(f.k)
        for g in f.kernel_basis():
            tip, _ = g.tip(order)
            for w in window:
                if tip.length() + w.length() > f.k or compose(tip, w) is ZERO_PATH:
                    continue
                gw = g * Element.from_path(w)
                for v in window:
                    assert pairing(f, gw, Element.from_path(v)).is_zero()


# -- the minimal-tip selection against the completion ------------------------


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_kernel_groebner_is_the_completion_of_the_kernel(data, fix_two_loops, fix_loop, fix_a2, fix_xyz, fix_chain):
    # Where the guard fires, the completion route must fail as well.
    f = draw_flat_functional(data, [fix_two_loops, fix_loop, fix_a2, fix_xyz, fix_chain], (fix_two_loops, fix_xyz))
    try:
        gb = kernel_groebner(f)
    except InternalInvariantError:
        with pytest.raises(InternalInvariantError):
            completion_kernel_groebner(f)
        return
    assert gb.elements == right_groebner(f.kernel_basis(), f.order).elements
    assert gb.trace == ()


@settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_one_reduction_pass_is_the_completion_of_the_kernel(data, fix_two_loops, fix_loop, fix_a2, fix_xyz, fix_chain):
    # `groebner --from-kernel` reduces the kernel elements that are not kept
    # by the kept ones, once each: the same elements and the same reductions,
    # event for event, as the completion of the whole kernel basis.
    f = draw_flat_functional(data, [fix_two_loops, fix_loop, fix_a2, fix_xyz, fix_chain], (fix_two_loops, fix_xyz))
    completion = right_groebner(f.kernel_basis(), f.order)
    gb = kernel_groebner(f, trace=True)
    assert gb.elements == completion.elements
    assert gb.trace == completion.trace
    assert gb.elements == kernel_groebner(f).elements


def draw_flat_functional(data, doubles, slow):
    """A flat PSD state of small rank, or the flat extension of a random
    hermitian tip-maximal functional, which is mostly not PSD; on the
    quivers `slow` the extended base has order 1."""
    double = data.draw(st.sampled_from(doubles))
    k = data.draw(st.integers(1, 3), label="k")
    include_trivial, complex_ = data.draw(st.booleans()), data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    # A zero dimension makes the trivial path at that vertex a kernel tip.
    dims = [rng.randint(0, 2) for _ in double.vertices]
    if data.draw(st.booleans(), label="psd state"):
        f = state_functional(double, k, include_trivial, dims, rng, complex_)
    else:
        # A base of order 1 or 2; an order-2 base on two loops or x, y, z
        # takes seconds to extend.
        k = 2 if double in slow else max(k, 2)
        low_rank = data.draw(st.booleans(), label="low rank")
        base = hermitian_functional(double, k - 1, include_trivial, rng, complex_, dims if low_rank else None)
        assume(base.is_tip_maximal())
        try:
            f = flat_extend_tip_maximal(base, allow_general_quiver=True)
        except ExtensionObstructed:  # possible off the free *-algebras
            assume(False)
    assume(f.is_flat().flat)
    return f


# -- the tip-table engine against the completion's reducer -------------------


@pytest.fixture(scope="module")
def fixture_bases(fix_h4, fix_loop, fix_l2_ext, example2_l4):
    return [
        right_groebner(fix_h4, fix_loop.default_order()),
        kernel_groebner(fix_l2_ext),
        kernel_groebner(example2_l4),
    ]


def gaussian_rationals(gaussian=True):
    im = st.integers(-2, 2) if gaussian else st.just(0)
    parts = st.tuples(st.integers(-4, 4), im, st.integers(1, 3))
    return parts.filter(lambda t: t[0] or t[1]).map(
        lambda t: Scalar(Fraction(t[0], t[2]), Fraction(t[1], t[2]))
    )


def elements(double, max_len, max_terms, gaussian=True):
    pool = enumerate_basis(double, double.default_order(), max_len, True)
    coeffs = gaussian_rationals(gaussian)
    terms = st.lists(st.tuples(st.sampled_from(pool), coeffs), max_size=max_terms)
    return terms.map(lambda t: Element.from_terms(double, t))


def assert_reduced_fold(gb, p):
    # The integer fold keeps its numerators and denominator coprime.
    terms, den = gb.tip_table.fold((p.vertex, p.letters))
    assert den > 0 and gcd(den, *(x for c in terms.values() for x in c)) == 1


def assert_engines_agree(gb, f):
    nf = normal_form(f, gb)
    assert nf == total_reduce(f, list(gb.elements), gb.order)
    table = scalar_tip_table(gb)
    assert nf == scalar_normal_form(f, table)
    for p in f.terms:
        tips = [g.tip(gb.order)[0] for g in gb.elements]
        assert gb.reducible(p) == any(left_divides(t, p) is not None for t in tips)
        assert gb.nf(p) == Element(p.double, scalar_fold(p, table))
        assert_reduced_fold(gb, p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_normal_form_matches_total_reduce_on_fixture_bases(data, fixture_bases):
    gb = data.draw(st.sampled_from(fixture_bases))
    f = data.draw(elements(gb.elements[0].double, 7, 6))
    assert_engines_agree(gb, f)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_normal_form_matches_total_reduce_on_random_bases(data, fix_a2, fix_loop, fix_chain):
    double = data.draw(st.sampled_from([fix_a2, fix_loop, fix_chain]))
    gens = data.draw(st.lists(elements(double, 3, 3), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # A generator supported on trivial paths has a trivial-path tip.
        gens.append(data.draw(elements(double, 0, 2)))
    gb = right_groebner(gens, double.default_order())
    f = data.draw(elements(double, 6, 5))
    assert_engines_agree(gb, f)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_integer_fold_matches_scalar_fold_and_total_reduce(data, fix_a2, fix_loop, fix_two_loops, fix_xyz):
    # Real or Gaussian generators, so the table's tails have rational
    # denominators, on free and non-free quivers.
    double = data.draw(st.sampled_from([fix_loop, fix_two_loops, fix_a2, fix_xyz]))
    gaussian = data.draw(st.booleans())
    gens = data.draw(st.lists(elements(double, 3, 4, gaussian), min_size=1, max_size=3))
    gb = right_groebner(gens, double.default_order())
    f = data.draw(elements(double, 7, 5, gaussian))
    assert_engines_agree(gb, f)


# -- the integer completion against the `Scalar` completion ------------------


def assert_completions_agree(gens, order):
    gb = right_groebner(gens, order)
    oracle = scalar_right_groebner(gens, order)
    assert gb.elements == oracle.elements
    assert len(gb.trace) == len(oracle.trace)
    for ev, want in zip(gb.trace, oracle.trace):
        assert (ev.target, ev.by, ev.cofactor) == (want.target, want.by, want.cofactor)
    return gb


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_completion_matches_the_scalar_completion(data, fix_a2, fix_loop, fix_chain, fix_two_loops, fix_xyz):
    # Random non-monic generators, on quivers where most are not right-
    # uniform, with a scaled duplicate and a trivial-path tip drawn in; or
    # the echelon kernel of a random flat state.
    double = data.draw(st.sampled_from([fix_a2, fix_loop, fix_chain, fix_two_loops, fix_xyz]))
    gaussian = data.draw(st.booleans(), label="gaussian")
    if data.draw(st.booleans(), label="flat state kernel"):
        k = data.draw(st.integers(1, 2), label="k")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        dims = [rng.randint(0, 2) for _ in double.vertices]
        f = state_functional(double, k, data.draw(st.booleans()), dims, rng, gaussian)
        assume(f.is_flat().flat)
        gb = assert_completions_agree(f.kernel_basis(), f.order)
        assert gb.elements == kernel_groebner(f).elements
        return
    gens = data.draw(st.lists(elements(double, 3, 4, gaussian), min_size=1, max_size=4))
    if data.draw(st.booleans(), label="duplicate"):
        gens.append(data.draw(st.sampled_from(gens)).scale(data.draw(gaussian_rationals(gaussian))))
    if data.draw(st.booleans(), label="trivial tip"):
        gens.append(data.draw(elements(double, 0, 2, gaussian)))
    assert_completions_agree(gens, double.default_order())


@settings(max_examples=120, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_total_reduce_matches_the_scalar_reducer(data, fix_a2, fix_loop, fix_chain, fix_two_loops, fix_xyz):
    # Monic bases whose tips are not prefix-free, with repeated tips: the
    # divisor is the longest dividing tip, and among elements with that tip
    # the canonically least one.
    double = data.draw(st.sampled_from([fix_a2, fix_loop, fix_chain, fix_two_loops, fix_xyz]))
    gaussian = data.draw(st.booleans(), label="gaussian")
    order = double.default_order()
    drawn = data.draw(st.lists(elements(double, 3, 4, gaussian), min_size=1, max_size=5))
    basis = [g.scale(Scalar(1) / g.tip(order)[1]) for g in drawn if not g.is_zero()]
    assume(basis)
    for g in data.draw(st.lists(st.sampled_from(basis), max_size=3), label="repeated tips"):
        tip = g.tip(order)[0]
        lower = data.draw(elements(double, 3, 3, gaussian))
        below = {p: c for p, c in lower.terms.items() if order.key(p) < order.key(tip)}
        basis.append(Element.from_path(tip) + Element(double, below))
    h = data.draw(elements(double, 6, 6, gaussian))
    trace, want_trace = [], []
    assert total_reduce(h, basis, order, trace) == scalar_total_reduce(h, basis, order, want_trace)
    assert trace == want_trace


@pytest.mark.parametrize("shape", ["two_loops", "two_loops_gaussian", "two_vertex"])
def test_groebner_from_kernel_bytes_match_the_scalar_completion(shape, tmp_path, capsys, fix_two_loops):
    # The sizes of flat_gns instances, whose completions make 300+
    # reductions: a rank-3 state on two loops with trivial paths and k = 3,
    # real and Gaussian, and the two-vertex rank-5 state (3 + 2) on x, y, z
    # at k = 3, whose V_k ends 57 times at e1 and 35 times at e2.
    from quivermoment import cli

    if shape == "two_vertex":
        f = fileio.load_functional(FsPath(__file__).parent / "fixtures" / "fix_two_vertex.json")
    else:
        f = state_functional(fix_two_loops, 3, True, [3], random.Random(11), complex_=shape.endswith("gaussian"))
    fpath, opath = tmp_path / "f.json", tmp_path / "gb.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    assert cli.main(["groebner", "--from-kernel", str(fpath), "--trace", "-o", str(opath)]) == 0
    out = capsys.readouterr().out
    oracle = scalar_right_groebner(f.kernel_basis(), f.order)
    assert len(oracle.trace) > 300
    data = fileio.groebner_to_dict(oracle, f.double)
    lines = [json.dumps(ev) for ev in data["reductions"]] + [json.dumps({"written": str(opath)})]
    assert out == "".join(line + "\n" for line in lines)
    assert opath.read_text(encoding="utf-8") == json.dumps(data, indent=2) + "\n"


def random_word(double, rng, length):
    letters = [rng.choice(double.letters())]
    while len(letters) < length:
        end = double.target[letters[-1]]
        letters.append(rng.choice([l for l in double.letters() if double.source[l] == end]))
    return double.path(letters)


@pytest.mark.parametrize("shape", ["example2", "loop_real", "loop_gaussian", "a2_real", "a2_gaussian"])
def test_integer_fold_on_long_paths_of_tip_maximal_extensions(shape, example2_l4, fix_loop, fix_a2):
    # Words of 300-340 letters, where the running denominator grows with
    # every tip hit unless the gcd is divided out.
    rng = random.Random(61)
    if shape == "example2":
        flat = example2_l4
    else:
        double = fix_loop if shape.startswith("loop") else fix_a2
        base = pd_functional(double, 1, True, rng, complex_=shape.endswith("gaussian"))
        flat = flat_extend_tip_maximal(base, allow_general_quiver=True)
    gb = kernel_groebner(flat)
    assert gb.tip_table.den > 1 or shape == "example2"
    table = scalar_tip_table(gb)
    for length in (300, 320, 340):
        p = random_word(flat.double, rng, length)
        assert gb.nf(p) == Element(p.double, scalar_fold(p, table))
        assert_reduced_fold(gb, p)
    assert gb.nf(p) == total_reduce(Element.from_path(p), list(gb.elements), gb.order)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_compiled_moves_match_the_oracles(data, fix_loop, fix_two_loops, fix_xyz, fix_a2, fix_chain):
    # The per-letter moves on path ids against the `Scalar` fold, the
    # `Scalar` normal form and the reducer, on real and Gaussian data: the
    # kernel bases of flat states on one loop, two loops and two vertices
    # (finite quotients, words of up to 1500 letters), and completed
    # generator bases (quotients that may be infinite, shorter words).
    gaussian = data.draw(st.booleans(), label="gaussian")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    if data.draw(st.booleans(), label="flat kernel"):
        shapes = [(fix_loop, [2]), (fix_loop, [3]), (fix_two_loops, [2]), (fix_xyz, [2, 1]), (fix_xyz, [1, 2])]
        double, dims = data.draw(st.sampled_from(shapes), label="state")
        f = state_functional(double, 2, True, dims, rng, gaussian)
        assume(f.is_flat().flat)
        gb = kernel_groebner(f)
        lengths = [1, 2, 7, 60, 600, 1500]
    else:
        double = data.draw(st.sampled_from([fix_loop, fix_a2, fix_chain, fix_two_loops]), label="quiver")
        gens = data.draw(st.lists(elements(double, 3, 4, gaussian), min_size=1, max_size=3), label="generators")
        gb = right_groebner(gens, double.default_order())
        lengths = [1, 2, 7, 20]
    table = scalar_tip_table(gb)
    words = [rng.choice(double.trivial_paths())] + [random_word(double, rng, n) for n in lengths]
    for p in words:
        assert gb.nf(p) == Element(double, scalar_fold(p, table))
        assert_reduced_fold(gb, p)
        if p.length() <= 60:
            assert gb.nf(p) == total_reduce(Element.from_path(p), list(gb.elements), gb.order)
            tips = [g.tip(gb.order)[0] for g in gb.elements]
            assert gb.reducible(p) == any(left_divides(t, p) is not None for t in tips)
    f = data.draw(elements(double, 6, 5, gaussian), label="element")
    assert normal_form(f, gb) == scalar_normal_form(f, table) == total_reduce(f, list(gb.elements), gb.order)


def test_entering_a_tip_drops_the_computed_moves(fix_loop):
    # A fold computes the move of (x, x*) as a re-key to x x*; entering the
    # tip x x* (and a new denominator) must not leave that move behind.
    d = fix_loop
    x, xs = d.letter_of["x"], d.letter_of["x*"]
    table, tails = groebner.TipTable(d), {}

    def key(text):
        p = path(d, text)
        return p.vertex, p.letters

    def add(tip, den, *terms):
        table.add(key(tip), {key(t): c for t, c in terms}, den)
        tails[path(d, tip)] = {path(d, t): Scalar(Fraction(re, den), Fraction(im, den)) for t, (re, im) in terms}

    def agree(text):
        got = groebner._element(d, *table.fold(key(text)))
        assert got == Element(d, scalar_fold(path(d, text), tails))

    add("x x", 2, ("x*", (1, 0)))
    agree("x x* x x x*")
    assert table._moves[table._letter[xs]][table._ids[(None, (x,))]] == table._ids[(None, (x, xs))]
    add("x x*", 5, ("x* x", (3, 1)), ("e:e", (1, 0)))
    assert table.den == 10 and not table.real
    agree("x x* x x x*")
    agree("x* x x* x x x x* x*")


def test_kernel_groebner_folds_each_support_path_once(fix_two_loops, monkeypatch):
    # The tails of the table and the zero check of the other kernel elements
    # share their support paths: each one is folded once per call.
    f = state_functional(fix_two_loops, 3, True, [3], random.Random(11))
    folded = []
    fold = groebner.TipTable._fold

    def counted(self, key):
        folded.append(key)
        return fold(self, key)

    monkeypatch.setattr(groebner.TipTable, "_fold", counted)
    gb = kernel_groebner(f)
    assert len(folded) == len(set(folded)) > 0
    assert gb.elements == kernel_groebner(f, trace=True).elements


def test_trivial_tip_kills_its_vertex(fix_a2):
    # g = e1 + 2·e2 has tip e2; g·e2 = 2·e2 puts every path from e2 in the ideal.
    g = elem(fix_a2, ("e:e1", 1), ("e:e2", 2))
    gb = right_groebner([g], fix_a2.default_order())
    for text in ("e:e2", "x*", "x* x", "x* x x*"):
        assert normal_form(elem(fix_a2, (text, 1)), gb).is_zero()


def test_generator_that_is_not_right_uniform_is_split(fix_a2):
    # e1 = g·e1 and e2 = g·e2 / 2 both lie in the right ideal of g = e1 + 2·e2.
    g = elem(fix_a2, ("e:e1", 1), ("e:e2", 2))
    gb = right_groebner([g], fix_a2.default_order())
    for text in ("e:e1", "e:e2"):
        assert normal_form(elem(fix_a2, (text, 1)), gb).is_zero()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_right_ideal_members_reduce_to_zero(data, fix_a2, fix_loop, fix_chain):
    # Every g·e_v·b of random generators g, vertices v and paths b is in the
    # right ideal, so its normal form against the completed basis is zero.
    double = data.draw(st.sampled_from([fix_a2, fix_loop, fix_chain]))
    gens = data.draw(st.lists(elements(double, 3, 4), min_size=1, max_size=3))
    gb = right_groebner(gens, double.default_order())
    tails = enumerate_basis(double, double.default_order(), 2, True)
    for g in gens:
        for e in double.trivial_paths():
            part = g * Element.from_path(e)
            for b in data.draw(st.lists(st.sampled_from(tails), min_size=1, max_size=3)):
                member = part * Element.from_path(b)
                assert normal_form(member, gb).is_zero()


def integer_kernel_entry(f, g):
    """g as an entry of the functional's integer kernel `_null`: numerators
    {key: (re, im)} in path order, the tip last, over one denominator."""
    terms, den = algebra._numerators(g)
    return dict(sorted(terms.items(), key=lambda t: f.order.key_of(t[0]))), den


def test_containment_check_names_the_first_offending_path(fix_l2_ext, monkeypatch):
    # x + 2·x x* x is not in the kernel; the check names the first window
    # path it pairs nontrivially with, as the pairing oracle finds it.
    f = fix_l2_ext
    g = elem(f.double, ("x", 1), ("x x* x", 2))
    first = next(q for q in f.basis(f.k) if not pairing(f, g, Element.from_path(q)).is_zero())
    monkeypatch.setattr(f, "_null", [integer_kernel_entry(f, g)])
    for trace in (False, True):  # the normal-form route and the one reduction pass
        with pytest.raises(InternalInvariantError, match=re.escape(f"(pairs nontrivially with {first})")):
            kernel_groebner(f, trace)


def test_guard_refuses_a_kernel_element_outside_the_selections_ideal(fix_l2_ext, monkeypatch):
    # x x* x x* has the kept tip x x* x as a prefix, but its normal form
    # through the kept elements is x x*, not zero.
    f = fix_l2_ext
    outside = elem(f.double, ("x x* x x*", 1))
    monkeypatch.setattr(f, "_null", f._null + [integer_kernel_entry(f, outside)])
    for trace in (False, True):  # the normal-form route and the one reduction pass
        with pytest.raises(InternalInvariantError, match="not in the right ideal of the minimal-tip elements"):
            kernel_groebner(f, trace)


# -- the kernel checks on Gaussian data ---------------------------------------


@pytest.fixture(scope="module")
def gauss_loop():
    # A flat state on one loop with k = 2, whose moments and kernel are not
    # all real: the integer image holds (re, im) rows.
    fpath = FsPath(__file__).parent / "fixtures" / "fix_gauss_loop.json"
    return fileio.load_functional(fpath)


def test_containment_check_names_the_first_offending_path_on_gaussian_data(gauss_loop, monkeypatch):
    # L(x - x*) = 40i: the first offending path, e:e, pairs to a purely
    # imaginary value.
    f = gauss_loop
    g = elem(f.double, ("x", 1), ("x*", -1))
    first = next(q for q in f.basis(f.k) if not pairing(f, g, Element.from_path(q)).is_zero())
    assert pairing(f, g, Element.from_path(first)) == Scalar(0, 40)
    monkeypatch.setattr(f, "_null", [integer_kernel_entry(f, g)])
    for trace in (False, True):  # the normal-form route and the one reduction pass
        with pytest.raises(InternalInvariantError, match=re.escape(f"(pairs nontrivially with {first})")):
            kernel_groebner(f, trace)


def test_guard_refuses_an_element_outside_the_selections_ideal_on_gaussian_data(gauss_loop, monkeypatch):
    # (1 + 2i)·x x x has the kept tip x x as a prefix, but its normal form
    # through the kept elements is not zero.
    f = gauss_loop
    outside = elem(f.double, ("x x x", Scalar(1, 2)))
    assert not normal_form(outside, kernel_groebner(f)).is_zero()
    monkeypatch.setattr(f, "_null", f._null + [integer_kernel_entry(f, outside)])
    for trace in (False, True):  # the normal-form route and the one reduction pass
        with pytest.raises(InternalInvariantError, match="not in the right ideal of the minimal-tip elements"):
            kernel_groebner(f, trace)
