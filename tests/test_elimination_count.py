"""Each matrix a verdict or a construction needs is eliminated once.

The count is of calls to the one Gauss-Jordan engine in `linalg`.  A fresh
functional's flatness report and kernel take two: the kernel of B_{L_k}
(which also gives its rank) and one elimination of [A | C] (rank A, range
containment and the block solution).  Compression adds one elimination of
the gram and one of its kept block per base arrow.
"""

from __future__ import annotations

import random

import pytest

from conftest import pd_functional, state_functional
from quivermoment import Quiver, TruncatedFunctional, build_double, compress_representation, linalg

ONE_LOOP = build_double(Quiver(["e"], [("x", "e", "e")]))
TWO_LOOPS = build_double(Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]))


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    engine = linalg._gauss_jordan

    def counted(rows, ncols):
        calls.append(ncols)
        return engine(rows, ncols)

    monkeypatch.setattr(linalg, "_gauss_jordan", counted)
    return calls


@pytest.fixture(scope="module")
def pd_two_loops():
    return pd_functional(TWO_LOOPS, 2, True, random.Random(5))


def fresh(f: TruncatedFunctional) -> TruncatedFunctional:
    return TruncatedFunctional(f.double, f.k, f.values, f.include_trivial, f.order)


@pytest.mark.parametrize("flat", [True, False])
def test_flatness_and_kernel_eliminate_twice(flat, pd_two_loops, eliminations):
    # A rank-1 state is flat with a singular A; the PD state is not flat.
    f = state_functional(ONE_LOOP, 2, True, [1], random.Random(3)) if flat else fresh(pd_two_loops)
    report = f.is_flat()
    f.kernel_basis()
    assert report.flat == flat
    assert len(eliminations) == 2


def test_compress_eliminates_once_per_matrix(pd_two_loops, eliminations):
    rep = compress_representation(fresh(pd_two_loops))
    assert rep.dim == 21
    assert len(eliminations) <= 2 + len(TWO_LOOPS.base.arrows)
