"""Shared fixtures: the two fixture quivers, the worked functionals, and the
printed generator/basis lists of the second worked example."""

from __future__ import annotations

from fractions import Fraction

import pytest

from linalg_oracle import column, conj_transpose, product
from quivermoment import (
    Element,
    Matrix,
    Quiver,
    Scalar,
    TruncatedFunctional,
    build_double,
    enumerate_basis,
    flat_extend_tip_maximal,
)
from quivermoment.fileio import parse_path
from quivermoment.scalar import ZERO


def sc(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    return Scalar(Fraction(x))


def elem(double, *terms) -> Element:
    """Build an element from (path text, coefficient) pairs."""
    return Element.from_terms(
        double, ((parse_path(double, t), sc(c)) for t, c in terms)
    )


def path(double, text):
    return parse_path(double, text)


@pytest.fixture(scope="session")
def fix_a2():
    """Two vertices e1, e2 and one arrow x: e1 -> e2 (so x·x = 0 = x*·x*)."""
    return build_double(Quiver(["e1", "e2"], [("x", "e1", "e2")]))


@pytest.fixture(scope="session")
def fix_loop():
    """One vertex, one loop: the free *-algebra on x, x*."""
    return build_double(Quiver(["e"], [("x", "e", "e")]))


@pytest.fixture(scope="session")
def fix_chain():
    """Three vertices in a line; exercises genuinely asymmetric composability."""
    return build_double(Quiver(["e1", "e2", "e3"], [("x", "e1", "e2"), ("y", "e2", "e3")]))


@pytest.fixture(scope="session")
def fix_two_loops():
    """One vertex, two loops: the free *-algebra on x, x*, y, y*."""
    return build_double(Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]))


@pytest.fixture(scope="session")
def fix_xyz():
    """Two vertices with x: e1 -> e2, y: e2 -> e1 and a loop z at e1."""
    return build_double(Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")]))


FIX_L2_VALUES = [
    ("x x*", 1),
    ("x* x", 1),
    ("x x* x", 0),
    ("x* x x*", 0),
    ("x x* x x*", 1),
    ("x* x x* x", 1),
]


@pytest.fixture(scope="session")
def fix_l2(fix_a2):
    """Order-2, non-unital window: a1 = a2 = a5 = a6 = 1, a3 = a4 = 0."""
    values = {path(fix_a2, t): sc(v) for t, v in FIX_L2_VALUES}
    return TruncatedFunctional(fix_a2, 2, values, include_trivial=False)


def l3_functional(fix_a2, a, include_trivial=False):
    """Order-3 functional on the two-vertex quiver from the ten matrix labels.

    `a` maps 1..10 to rational values.  Hermitianness pairs the labels 3/4
    and 7/8 (each names the star of the other's word), so real instances
    must satisfy a4 = a3 and a8 = a7.
    """
    words = {
        1: "x x*",
        2: "x* x",
        3: "x x* x",
        4: "x* x x*",
        5: "x x* x x*",
        6: "x* x x* x",
        7: "x x* x x* x",
        8: "x* x x* x x*",
        9: "x x* x x* x x*",
        10: "x* x x* x x* x",
    }
    values = {path(fix_a2, words[i]): sc(a.get(i, 0)) for i in words}
    return TruncatedFunctional(fix_a2, 3, values, include_trivial=include_trivial)


@pytest.fixture(scope="session")
def fix_l2_ext(fix_a2):
    """The flat order-3 extension of FIX-L2: a7 = a8 = 0, a9 = a10 = 1."""
    return l3_functional(fix_a2, {1: 1, 2: 1, 5: 1, 6: 1, 9: 1, 10: 1})


FIX_H4_TERMS = [
    [("x* x* x*", 1)],
    [("x x x x", 1)],
    [("x x x x*", 1), ("x x", -1)],
    [("x x x* x", 1), ("x x", -2)],
    [("x x x* x*", 1)],
    [("x x* x x", 1)],
    [("x x* x x*", 1), ("x x*", -3)],
    [("x x* x* x", 1), ("x x*", -1)],
    [("x x* x* x*", 1)],
    [("x* x x x", 1)],
    [("x x* x* x*", 1)],
    [("x* x x x", 1)],
    [("x* x x x*", 1), ("x* x", -1)],
    [("x* x x* x", 1), ("x* x", -2)],
    [("x* x x* x*", 1)],
    [("x* x* x x", 1)],
    [("x* x* x x*", 1), ("x* x*", -3)],
    [("x* x* x* x", 1)],
    [("x* x* x* x*", 1)],
]

FIX_G4_INDICES = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16]


@pytest.fixture(scope="session")
def fix_h4(fix_loop):
    """The 19 printed kernel generators (two listed twice)."""
    return [elem(fix_loop, *terms) for terms in FIX_H4_TERMS]


@pytest.fixture(scope="session")
def fix_g4(fix_loop):
    """The 15 printed right Gröbner basis elements."""
    return [elem(fix_loop, *FIX_H4_TERMS[i]) for i in FIX_G4_INDICES]


EXAMPLE2_ORDER3_VALUES = [
    ("x x*", 1),
    ("x* x", 1),
    ("x x x* x*", 1),
    ("x x* x x*", 1),
    ("x* x x* x", 1),
    ("x* x* x x", 1),
    ("x x x x* x* x*", 1),
    ("x x x* x x* x*", 2),
    ("x x* x x* x x*", 3),
    ("x x* x* x x x*", 1),
    ("x* x x x* x* x", 1),
    ("x* x x* x x* x", 2),
    ("x* x* x x* x x", 3),
]


@pytest.fixture(scope="session")
def example2_order3(fix_loop):
    """The order-3 state of the second worked example: PSD, tip-maximal,
    kernel spanned by x*^3, nonzero moments only on w w* words."""
    values = {path(fix_loop, t): sc(v) for t, v in EXAMPLE2_ORDER3_VALUES}
    return TruncatedFunctional(fix_loop, 3, values, include_trivial=False)


@pytest.fixture(scope="session")
def example2_l4(example2_order3):
    """The flat order-4 extension whose kernel is the printed 19-element list."""
    return flat_extend_tip_maximal(example2_order3)


# -- random PSD/PD functionals from vector states of quiver representations ----


def _draw(rng, complex_, lo=-3, hi=3) -> Scalar:
    """A random integer, or Gaussian integer when complex_ is set."""
    re = rng.randint(lo, hi)
    return Scalar(re, rng.randint(lo, hi)) if complex_ else sc(re)


def letter_maps(double, dims, rng, lo=-3, hi=3, complex_=False):
    """Random integer matrices per base arrow; stars act as conjugate transposes."""
    maps = {}
    for i, a in enumerate(double.base.arrows):
        src = double.base.vertex_index[a.source]
        dst = double.base.vertex_index[a.target]
        m = Matrix(
            dims[dst],
            dims[src],
            [_draw(rng, complex_, lo, hi) for _ in range(dims[dst] * dims[src])],
        )
        maps[(i, False)] = m
        maps[(i, True)] = conj_transpose(m)
    return maps


def state_functional(double, k, include_trivial, dims, rng, complex_=False):
    """L(p) = <T_p xi_{o(p)}, xi_{t(p)}> for random integer arrow maps and xi.

    Always hermitian and PSD; PD with high probability once dims are at least
    the per-vertex window sizes.  With complex_ the maps and xi have Gaussian
    integer entries.
    """
    maps = letter_maps(double, dims, rng, complex_=complex_)
    xi = {
        v: column([_draw(rng, complex_) for _ in range(dims[v])])
        for v in range(len(dims))
    }
    order = double.default_order()
    window = enumerate_basis(double, order, 2 * k, include_trivial)
    values = {}
    vecs = {}  # (origin, letters) -> T_p xi_{o(p)}; prefixes precede in the window
    for p in window:
        o = p.origin()
        if p.is_trivial():
            vec = xi[o]
        else:
            prefix = vecs[(o, p.letters[:-1])] if len(p.letters) > 1 else xi[o]
            vec = product(maps[p.letters[-1]], prefix)
        vecs[(o, p.letters)] = vec
        target = xi[p.terminal()]
        acc = ZERO
        for i in range(vec.rows):
            acc = acc + target.entry(i, 0).conjugate() * vec.entry(i, 0)
        values[p] = acc
    return TruncatedFunctional(double, k, values, include_trivial, order)


def pd_functional(double, k, include_trivial, rng, dims=None, tries=40, complex_=False):
    """A random positive-definite functional (full-rank moment matrix)."""
    from matrix_api import rank

    order = double.default_order()
    window = enumerate_basis(double, order, k, include_trivial)
    if dims is None:
        per_vertex = [0] * double.n_vertices()
        for p in window:
            per_vertex[p.terminal()] += 1
        dims = [max(1, c) for c in per_vertex]
    for _ in range(tries):
        f = state_functional(double, k, include_trivial, dims, rng, complex_)
        if rank(f.moment_matrix().m) == len(window):
            return f
    raise RuntimeError("failed to draw a positive-definite functional")


def hermitian_functional(double, k, include_trivial, rng, complex_, dims=None):
    """Random hermitian values: Gaussian integers, real on paths that are their
    own star; with dims, the difference of two states of those dimensions,
    of low rank and usually indefinite."""
    if dims is not None:
        a, b = (state_functional(double, k, include_trivial, dims, rng, complex_) for _ in range(2))
        return TruncatedFunctional(double, k, {p: v - b.values[p] for p, v in a.values.items()}, include_trivial)
    values = {}
    for p in enumerate_basis(double, double.default_order(), 2 * k, include_trivial):
        if p not in values and p.star() not in values:
            im = rng.randint(-3, 3) if complex_ and p != p.star() else 0
            values[p] = Scalar(rng.randint(-3, 3), im)
    return TruncatedFunctional(double, k, values, include_trivial)
