"""One echelon form per moment matrix, against the two eliminations it replaced.

A functional's flatness report, its rank, its tip-maximality and its
echelon kernel all come from one elimination of conj(B_{L_k}) with V_{k-1}
first (`moment._echelon`).  `linalg_oracle.two_eliminations` is the route
they took before: the kernel of the whole image by one elimination, the
block criterion by a second of the top rows, the two rank criteria
cross-asserted.  Both must give the same report, the same kernel elements,
the same tip-maximality and the rank `moment rank` prints.  The data are
real and Gaussian; flat, not flat and failing the range test; tip-maximal
and not; on windows with and without trivial paths.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import linalg_oracle
from conftest import hermitian_functional, path, pd_functional, state_functional
from quivermoment import Scalar, TruncatedFunctional, cli, enumerate_basis, fileio


def sparse_functional(double, k, include_trivial, rng, complex_):
    """Hermitian values that are mostly zero, so that A is often singular
    and C often leaves its range."""
    values = {}
    for p in enumerate_basis(double, double.default_order(), 2 * k, include_trivial):
        if p not in values and p.star() not in values:
            re = rng.randint(-2, 2) if rng.random() < 0.3 else 0
            im = rng.randint(-2, 2) if complex_ and p != p.star() and rng.random() < 0.3 else 0
            values[p] = Scalar(re, im)
    return TruncatedFunctional(double, k, values, include_trivial)


def check_against_oracle(f, tmp_path, capsys):
    """The verdicts, the kernel and `moment rank` of f against the two-elimination route."""
    report, kernel, tip_maximal = linalg_oracle.two_eliminations(f)
    assert f.is_flat() == report
    assert f.kernel_basis() == kernel
    assert f.is_tip_maximal() == tip_maximal
    # the commands, on the functional read back from its file
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(fileio.functional_to_dict(f)), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["moment", "rank", str(fpath)]) == 0
    assert cli.main(["moment", "tipmax", str(fpath)]) == (0 if tip_maximal else 1)
    out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert out == [{"rank": report.rank_k, "order": f.k}, {"tip_maximal": tip_maximal}]


KINDS = ["state", "pd", "hermitian", "difference", "sparse"]


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_one_echelon_form_matches_two_eliminations(data, fix_two_loops, fix_loop, fix_a2, fix_chain, tmp_path, capsys):
    double = data.draw(st.sampled_from([fix_loop, fix_a2, fix_chain, fix_two_loops]))
    k = data.draw(st.integers(1, 2 if double is fix_two_loops else 3), label="k")
    include_trivial, complex_ = data.draw(st.booleans()), data.draw(st.booleans())
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    dims = [rng.randint(0, 2) for _ in double.vertices]
    if kind == "state":
        f = state_functional(double, k, include_trivial, dims, rng, complex_)
    elif kind == "pd":
        f = pd_functional(double, k, include_trivial, rng, complex_=complex_)
    elif kind == "sparse":
        f = sparse_functional(double, k, include_trivial, rng, complex_)
    else:
        f = hermitian_functional(double, k, include_trivial, rng, complex_, dims if kind == "difference" else None)
    check_against_oracle(f, tmp_path, capsys)


@pytest.fixture
def fixed_cases(fix_loop, fix_a2, fix_two_loops, fix_l2, fix_l2_ext, example2_order3, example2_l4):
    """Named functionals that between them meet every verdict and both
    windows, on real and on Gaussian data."""
    x = path(fix_loop, "x")
    cases = {
        "fix_l2": fix_l2,
        "fix_l2_ext": fix_l2_ext,
        "example2_order3": example2_order3,
        "example2_l4": example2_l4,
        "gauss_loop": fileio.load_functional(Path(__file__).parent / "fixtures" / "fix_gauss_loop.json"),
        # A = (L(e)) = 0 and C = (L(x*), L(x)) != 0: Ran C leaves Ran A.
        "range_real": TruncatedFunctional(fix_loop, 1, {x: Scalar(1)}, True),
        "range_gauss": TruncatedFunctional(fix_loop, 1, {x: Scalar(0, 1)}, True),
        "pd_gauss": pd_functional(fix_two_loops, 1, True, random.Random(4), complex_=True),
        "state_gauss": state_functional(fix_a2, 2, False, [1, 1], random.Random(8), complex_=True),
    }
    return cases


def test_fixed_cases_meet_every_verdict(fixed_cases, tmp_path, capsys):
    seen = set()
    for name, f in fixed_cases.items():
        check_against_oracle(f, tmp_path, capsys)
        report = f.is_flat()
        real = all(v.is_real() for v in f.values.values())
        seen |= {
            ("flat", report.flat),
            ("range", report.range_contained),
            ("tip_maximal", f.is_tip_maximal()),
            ("trivial", f.include_trivial),
            ("real", real),
            ("flat, real", report.flat, real),
            ("range, real", report.range_contained, real),
        }
    want = {(key, value) for key in ("flat", "range", "tip_maximal", "trivial", "real") for value in (True, False)}
    want |= {(key, a, b) for key in ("flat, real", "range, real") for a in (True, False) for b in (True, False)}
    assert seen == want
