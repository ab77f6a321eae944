"""The verdicts and the kernel of a PSD functional, read off its LDL^H pivoting.

On PSD data `moment._echelon` reads the flatness report, the pivot columns,
tip-maximality and the echelon kernel off the pivots of `linalg._image_psd`
(`linalg._psd_null_terms`), and runs no elimination.  Here that route is
compared with the echelon route it replaces on such data:
`linalg._block_echelon` and `linalg._null_terms`, called directly on the
conjugated whole integer image (`oracles.whole_image`).  Both must give the
same report, the same pivot columns, the same tip-maximality and the same
kernel numerators, key order included.  A few cases are also checked against the `Scalar` nullspace of
`linalg_oracle`.  The data are vector states, so PSD: real and Gaussian,
flat and not, of rank 0 and of full rank, on one loop, two loops, a
two-vertex quiver and a quiver with an isolated vertex, with and without
trivial paths.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linalg_oracle
import oracles
from conftest import pd_functional, state_functional
from quivermoment import Quiver, TruncatedFunctional, build_double, linalg
from quivermoment.linalg import Matrix
from quivermoment.moment import FlatReport
from quivermoment.scalar import ZERO, from_numerators

QUIVERS = {
    "one_loop": (build_double(Quiver(["e"], [("x", "e", "e")])), 3),
    "two_loops": (build_double(Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")])), 2),
    "two_vertex": (build_double(Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")])), 2),
    # no letter leaves "u"
    "isolated": (build_double(Quiver(["u", "v"], [("x", "v", "v")])), 3),
}


def echelon_route(f: TruncatedFunctional):
    """The report, pivot columns, tip-maximality and kernel of f from one echelon form."""
    rows, _ = oracles.whole_image(f)
    n, m = len(rows), f._end(f.k - 1)
    conj = [row[:n] + [-x for x in row[n:]] for row in rows] if rows and len(rows[0]) > n else rows
    top, pivots, rank_km1, range_ok = linalg._block_echelon(conj, m, n)
    null = [({f._keys[c]: v for c, v in terms}, den) for terms, den in linalg._null_terms(top, pivots, n)]
    return FlatReport(len(pivots) == rank_km1, len(pivots), rank_km1, range_ok), pivots, pivots[:m] == list(range(m)), null


def check_routes(f: TruncatedFunctional) -> FlatReport:
    """f's verdicts and kernel, read off its pivoting, against the echelon route."""
    report, pivots, tip_maximal, null = echelon_route(f)
    assert f._ldlh is not None
    assert f.is_flat() == report
    assert f._echelon[0] == pivots
    assert f.is_tip_maximal() == tip_maximal
    assert [(list(terms.items()), den) for terms, den in f._null] == [(list(t.items()), d) for t, d in null]
    return report


def check_oracle(f: TruncatedFunctional) -> None:
    """f's kernel against the `Scalar` nullspace of conj(B_{L_k})."""
    m = f.moment_matrix().m
    vecs = linalg_oracle.nullspace(Matrix(m.rows, m.cols, [e.conjugate() for e in m.entries]))
    at = {key: i for i, key in enumerate(f._keys[: m.rows])}
    got = []
    for terms, den in f._null:
        vec = [ZERO] * m.rows
        for key, (re, im) in terms.items():
            vec[at[key]] = from_numerators(re, im, den)
        got.append(tuple(vec))
    assert got == vecs


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_pivoting_route_matches_the_echelon_route(data):
    double, max_k = QUIVERS[data.draw(st.sampled_from(sorted(QUIVERS)), label="quiver")]
    k = data.draw(st.integers(1, max_k), label="k")
    include_trivial, complex_ = data.draw(st.booleans()), data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    dims = [rng.randint(0, 3) for _ in double.vertices]
    check_routes(state_functional(double, k, include_trivial, dims, rng, complex_))


@pytest.fixture(scope="module")
def named_cases():
    """States that between them are flat and not, real and Gaussian, zero,
    of rank 0 and of full rank, on every quiver and both windows."""
    one, two, vertex2, isolated = (QUIVERS[name][0] for name in ("one_loop", "two_loops", "two_vertex", "isolated"))
    return {
        "zero": TruncatedFunctional(one, 2, {}, True),
        "rank0_gauss": state_functional(two, 2, False, [0], random.Random(1), complex_=True),
        "full_rank": pd_functional(two, 2, True, random.Random(5)),
        "full_rank_gauss": pd_functional(one, 2, False, random.Random(6), complex_=True),
        "flat_rank1": state_functional(one, 2, True, [1], random.Random(3)),
        "flat_gauss": state_functional(two, 2, True, [2], random.Random(7), complex_=True),
        "two_vertex": state_functional(vertex2, 2, True, [2, 1], random.Random(8)),
        "two_vertex_gauss": state_functional(vertex2, 1, False, [1, 2], random.Random(9), complex_=True),
        "isolated": state_functional(isolated, 2, True, [1, 2], random.Random(10)),
        "isolated_zero_vertex": state_functional(isolated, 3, False, [0, 1], random.Random(11)),
    }


def test_named_cases_meet_every_verdict(named_cases):
    seen = set()
    for name, f in named_cases.items():
        report = check_routes(f)
        n = len(f.basis(f.k))
        seen |= {
            ("flat", report.flat),
            ("real", all(v.is_real() for v in f.values.values())),
            ("trivial", f.include_trivial),
            ("rank", "0" if report.rank_k == 0 else "full" if report.rank_k == n else "between"),
        }
    assert seen == {
        *(("flat", b) for b in (True, False)),
        *(("real", b) for b in (True, False)),
        *(("trivial", b) for b in (True, False)),
        *(("rank", r) for r in ("0", "full", "between")),
    }


@pytest.mark.parametrize("name", ["zero", "full_rank_gauss", "flat_gauss", "two_vertex", "isolated_zero_vertex"])
def test_pivoting_kernel_matches_the_oracle_nullspace(name, named_cases):
    check_oracle(named_cases[name])
