"""B_{L_k} per terminal-vertex block against the whole-image route.

L(p q*) is zero unless p and q end at the same vertex, so a functional
gathers B_{L_k} block by block, each block's upper triangle once, and
pivots each block on its own (`moment._image`, `moment._ldlh`).  The route
it replaced, one gather of all n^2 entries and one pivoting of the whole
matrix, lives on in `oracles.whole_route` and its readers.  Both must give
the same verdicts and rank, the same pivots in window order with the same
weights, the same kernel numerators, the same principal submatrices at any
positions (the `gns build` gram among them), the same first pairings, and
the same solutions, as rationals, of every system `gns compress` and
`extend` solve through the pivots.  The data: vector states (PSD; zero at
one vertex, of rank 0 or full), differences of two states and random
hermitian values (mostly not PSD), real and Gaussian, with and without
trivial paths, on a two-vertex quiver with a loop, a three-vertex chain,
A2 and a quiver with an isolated vertex.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import hermitian_functional, state_functional
from quivermoment import ExtensionObstructed, Quiver, TruncatedFunctional, build_double, compress_representation
from quivermoment.extension import flat_extend_tip_maximal

QUIVERS = {
    "two_vertex": build_double(Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")])),
    "chain": build_double(Quiver(["e1", "e2", "e3"], [("x", "e1", "e2"), ("y", "e2", "e3")])),
    "a2": build_double(Quiver(["e1", "e2"], [("x", "e1", "e2")])),
    # no letter leaves or enters "u"
    "isolated": build_double(Quiver(["u", "v", "w"], [("x", "v", "w"), ("y", "w", "w")])),
}
KINDS = ("state", "zero_vertex", "difference", "values")


@st.composite
def functionals(draw) -> TruncatedFunctional:
    name = draw(st.sampled_from(sorted(QUIVERS)), label="quiver")
    double = QUIVERS[name]
    k = draw(st.integers(1, 2), label="k")
    include_trivial, complex_ = draw(st.booleans(), label="trivial"), draw(st.booleans(), label="complex")
    kind = draw(st.sampled_from(KINDS), label="kind")
    rng = random.Random(draw(st.integers(0, 2**32), label="seed"))
    nv = double.n_vertices()
    if kind in ("state", "zero_vertex"):
        dims = [rng.randint(1, 3) for _ in range(nv)]
        if kind == "zero_vertex":
            dims[rng.randrange(nv)] = 0
        return state_functional(double, k, include_trivial, dims, rng, complex_)
    return hermitian_functional(double, k, include_trivial, rng, complex_, [1] * nv if kind == "difference" else None)


def same_solution(got, want) -> bool:
    """(X, s) and (Y, t) hold the same rationals X / s == Y / t."""
    (xs, s), (ys, t) = got, want
    return [[Fraction(x, s) for x in row] for row in xs] == [[Fraction(y, t) for y in row] for row in ys]


def check(f: TruncatedFunctional, data) -> int:
    """Compare f's block route with the whole-image route; returns the number of systems solved."""
    whole = oracles.whole_route(f)
    assert f.is_psd() is whole.psd
    assert f.is_flat() == whole.report
    assert f.is_tip_maximal() is whole.tip_maximal
    assert f._echelon[0] == whole.pivots
    assert [(list(t.items()), d) for t, d in f._null] == [(list(t.items()), d) for t, d in whole.null]
    if whole.psd:
        weights = sorted((block[p], w) for block, ldlh in zip(f._blocks, f._ldlh) for p, w, *_ in ldlh)
        assert weights == whole.weights
        assert f._pivots == whole.pivots

    n = f._end(f.k)
    positions = st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])
    for at in (whole.pivots, list(range(n)), data.draw(positions, label="positions")):
        assert f.principal(at) == oracles.whole_principal(f, at)

    for terms, _ in f._null:
        assert f.first_pairing(terms) is None
    if n:
        keys = f._keys[:n]
        parts = st.integers(-3, 3)
        for im in (st.just(0), parts):
            drawn = data.draw(st.dictionaries(st.sampled_from(keys), st.tuples(parts, im), max_size=4), label="terms")
            assert f.first_pairing(drawn) == oracles.whole_first_pairing(f, drawn)

    # every system `gns compress` and `extend` solve through the pivots
    solves = []
    solve = TruncatedFunctional._psd_solve

    def recorded(self, at, rhs, ncols):
        out = solve(self, at, rhs, ncols)
        solves.append((self, list(at), [row[:] for row in rhs], ncols, out))
        return out

    with mock.patch.object(TruncatedFunctional, "_psd_solve", recorded):
        if whole.psd and f.include_trivial:
            compress_representation(f)
        if whole.tip_maximal:
            try:
                flat_extend_tip_maximal(f, allow_general_quiver=True)
            except ExtensionObstructed:
                pass
    for g, at, rhs, ncols, out in solves:
        assert g is f
        assert same_solution(out, oracles.whole_psd_solve(f, at, rhs, ncols))
    return len(solves)


def test_blocks_match_the_whole_image():
    # The drawn cases reach PSD data and not, flat and not, tip-maximal
    # bases, real and Gaussian data, windows with an empty block, and
    # systems solved through the pivots.
    seen, solved = set(), []

    @settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(functionals(), st.data())
    def run(f, data):
        solved.append(check(f, data))
        seen.update({
            ("psd", f.is_psd()),
            ("flat", f.is_flat().flat),
            ("tip_maximal", f.is_tip_maximal()),
            ("real", f._real),
            ("empty block", len(f._blocks) < f.double.n_vertices()),
        })

    run()
    assert seen == {(name, b) for name in ("psd", "flat", "tip_maximal", "real", "empty block") for b in (True, False)}
    assert sum(solved) > 0
