import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quivermoment import (
    Element,
    InputError,
    InternalInvariantError,
    Matrix,
    Quiver,
    Scalar,
    TruncatedFunctional,
    WindowError,
    ZERO_PATH,
    build_double,
    compose,
    enumerate_basis,
)
from matrix_api import rank

from conftest import elem, hermitian_functional, l3_functional, path, pd_functional, sc, state_functional
from linalg_oracle import identity, is_hermitian, is_zero
from oracles import block_decompose, compose_moment_block, pairing, reassemble, restrict, riesz_eval


def test_riesz_eval_fixture(fix_l2):
    d = fix_l2.double
    assert riesz_eval(fix_l2, elem(d, ("x x*", 1), ("x* x", 1))) == sc(2)
    assert riesz_eval(fix_l2, Element.zero(d)) == sc(0)
    assert riesz_eval(fix_l2, elem(d, ("x x* x", 1))) == sc(0)


def test_riesz_rejects_out_of_window(fix_l2):
    with pytest.raises(WindowError):
        riesz_eval(fix_l2, elem(fix_l2.double, ("x x* x x* x", 1)))


def test_hermitian_closure_and_conflict(fix_a2):
    f = TruncatedFunctional(
        fix_a2, 1, {path(fix_a2, "x"): Scalar(0, 1)}, include_trivial=False
    )
    assert f.value(path(fix_a2, "x*")) == Scalar(0, -1)
    with pytest.raises(InputError):
        TruncatedFunctional(
            fix_a2,
            1,
            {path(fix_a2, "x"): Scalar(0, 1), path(fix_a2, "x*"): Scalar(0, 1)},
            include_trivial=False,
        )
    # A self-star path must carry a real value.
    with pytest.raises(InputError):
        TruncatedFunctional(
            fix_a2, 1, {path(fix_a2, "x x*"): Scalar(0, 1)}, include_trivial=False
        )


def test_moment_matrix_fixture_identity(fix_l2):
    mm = fix_l2.moment_matrix(2)
    assert [str(p) for p in mm.basis] == ["x", "x*", "x x*", "x* x"]
    assert mm.m == identity(4)


def test_moment_matrix_symbolic_pattern(fix_a2):
    # Distinct values at the labels reproduce the printed 6x6 pattern; the
    # star-paired labels 3/4 and 7/8 share a value, as hermitianness forces.
    a = {i + 1: p for i, p in enumerate([2, 3, 5, 5, 11, 13, 17, 17, 23, 29])}
    f = l3_functional(fix_a2, a)
    mm = f.moment_matrix(3)
    A = [
        [a[1], 0, 0, a[3], a[5], 0],
        [0, a[2], a[4], 0, 0, a[6]],
        [0, a[4], a[5], 0, 0, a[7]],
        [a[3], 0, 0, a[6], a[8], 0],
        [a[5], 0, 0, a[8], a[9], 0],
        [0, a[6], a[7], 0, 0, a[10]],
    ]
    assert mm.m == Matrix.from_rows([[sc(v) for v in row] for row in A])


def test_moment_matrix_zero_functional(fix_a2):
    f = TruncatedFunctional(fix_a2, 2, {}, include_trivial=False)
    assert f.moment_matrix(2).m == Matrix.zeros(4, 4)


def test_block_decompose_fixture(fix_l2_ext):
    blocks = block_decompose(fix_l2_ext)
    assert blocks.a == identity(4)
    assert [str(p) for p in blocks.new_basis] == ["x x* x", "x* x x*"]
    expect_c = Matrix.from_rows(
        [[sc(1), sc(0)], [sc(0), sc(1)], [sc(0), sc(0)], [sc(0), sc(0)]]
    )
    assert blocks.c == expect_c
    assert reassemble(blocks) == fix_l2_ext.moment_matrix(3).m


def test_block_decompose_zero(fix_a2):
    f = TruncatedFunctional(fix_a2, 2, {}, include_trivial=False)
    blocks = block_decompose(f)
    assert is_zero(blocks.a) and is_zero(blocks.b) and is_zero(blocks.c)


def test_kernel_basis_fixture(fix_l2_ext):
    d = fix_l2_ext.double
    kb = fix_l2_ext.kernel_basis()
    assert kb == [
        elem(d, ("x x* x", 1), ("x", -1)),
        elem(d, ("x* x x*", 1), ("x*", -1)),
    ]


def test_kernel_basis_nondegenerate_empty(fix_l2):
    assert fix_l2.kernel_basis() == []


def test_kernel_spans_printed_list(example2_l4, fix_h4):
    d = example2_l4.double
    order = d.default_order()
    window = enumerate_basis(d, order, 4, include_trivial=False)
    idx = {p: i for i, p in enumerate(window)}

    def row_matrix(elems):
        rows = []
        for g in elems:
            row = [sc(0)] * len(window)
            for p, c in g.terms.items():
                row[idx[p]] = c
            rows.append(row)
        return Matrix.from_rows(rows)

    kb = example2_l4.kernel_basis()
    mk, mh = row_matrix(kb), row_matrix(fix_h4)
    stacked = Matrix.from_rows(
        [list(mk.row(i)) for i in range(mk.rows)] + [list(mh.row(i)) for i in range(mh.rows)]
    )
    assert rank(mk) == 17
    assert rank(mh) == 17
    assert rank(stacked) == 17


def test_is_flat_fixture_and_perturbation(fix_a2, fix_l2_ext):
    report = fix_l2_ext.is_flat()
    assert report.flat and report.rank_k == 4 and report.rank_km1 == 4
    bumped = l3_functional(fix_a2, {1: 1, 2: 1, 5: 1, 6: 1, 9: 2, 10: 1})
    assert not bumped.is_flat().flat
    assert bumped.is_flat().rank_k == 5


def test_is_flat_zero_functional(fix_a2):
    f = TruncatedFunctional(fix_a2, 2, {}, include_trivial=False)
    assert f.is_flat().flat


def test_is_flat_window_boundary(fix_a2):
    # Non-unital k = 1 has an empty old basis: flat iff the order-1 matrix
    # vanishes identically.
    zero = TruncatedFunctional(fix_a2, 1, {}, include_trivial=False)
    rep = zero.is_flat()
    assert rep.flat and rep.rank_k == rep.rank_km1 == 0
    nonzero = TruncatedFunctional(
        fix_a2, 1, {path(fix_a2, "x x*"): sc(1)}, include_trivial=False
    )
    assert not nonzero.is_flat().flat


def test_is_tip_maximal(fix_l2, fix_l2_ext, fix_a2):
    assert fix_l2.is_tip_maximal() is True
    assert fix_l2_ext.is_tip_maximal() is True
    # a2 = a5 = a6 = 1, a1 = 0: the kernel is spanned by the path x alone.
    vals = {
        path(fix_a2, "x* x"): sc(1),
        path(fix_a2, "x x* x x*"): sc(1),
        path(fix_a2, "x* x x* x"): sc(1),
    }
    f = TruncatedFunctional(fix_a2, 2, vals, include_trivial=False)
    kb = f.kernel_basis()
    assert [str(g) for g in kb] == ["(1)·x"]
    assert f.is_tip_maximal() is False


def test_is_psd_fixture_and_negative_diagonal(fix_l2, fix_a2):
    assert fix_l2.is_psd() is True
    f = TruncatedFunctional(
        fix_a2, 1, {path(fix_a2, "x x*"): sc(-1)}, include_trivial=False
    )
    assert f.is_psd() is False


def test_is_psd_pd_conditions_random(fix_a2):
    # a2 > 0, a6 > 0, a2 a5 > a4^2, a1 a6 > a3^2  =>  the order-2 matrix is PD.
    rng = random.Random(14)
    from fractions import Fraction

    for _ in range(20):
        a2v = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a6v = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        a3v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        a4v = a3v  # star-paired with a3
        a5v = a4v * a4v / a2v + Fraction(rng.randint(1, 5), rng.randint(1, 3))
        a1v = a3v * a3v / a6v + Fraction(rng.randint(1, 5), rng.randint(1, 3))
        vals = {
            path(fix_a2, "x x*"): sc(a1v),
            path(fix_a2, "x* x"): sc(a2v),
            path(fix_a2, "x x* x"): sc(a3v),
            path(fix_a2, "x* x x*"): sc(a4v),
            path(fix_a2, "x x* x x*"): sc(a5v),
            path(fix_a2, "x* x x* x"): sc(a6v),
        }
        f = TruncatedFunctional(fix_a2, 2, vals, include_trivial=False)
        assert f.is_psd() is True
        assert rank(f.moment_matrix().m) == 4


def test_example2_order3_matrix_matches_printed_blocks(example2_order3):
    # The reconstructed order-3 state reproduces the printed block data: the
    # degree <= 2 block is the identity, the degree-3 diagonal carries
    # (1,2,3,1,1,2,3,0) with the printed seven-entry tail, the only nonzero
    # cross entries are the printed ones, and the kernel is spanned by x*^3.
    mm = example2_order3.moment_matrix(3)
    names = [str(p) for p in mm.basis]
    assert names == [
        "x", "x*", "x x", "x x*", "x* x", "x* x*",
        "x x x", "x x x*", "x x* x", "x x* x*", "x* x x", "x* x x*", "x* x* x", "x* x* x*",
    ]
    for i in range(6):
        for j in range(6):
            assert mm.m.entry(i, j) == (sc(1) if i == j else sc(0))
    deg3_diag = [mm.m.entry(i, i) for i in range(6, 14)]
    assert deg3_diag == [sc(v) for v in (1, 2, 3, 1, 1, 2, 3, 0)]
    cross = {
        (i, j)
        for i in range(6)
        for j in range(6, 14)
        if not mm.m.entry(i, j).is_zero()
    }
    # x pairs with x^2 x* and x x* x; x* pairs with x* x x* and x*^2 x.
    assert cross == {(0, 7), (0, 8), (1, 11), (1, 12)}
    assert all(mm.m.entry(i, j) == sc(1) for i, j in cross)
    assert example2_order3.is_psd()
    assert [str(g) for g in example2_order3.kernel_basis()] == ["(1)·x* x* x*"]


def test_moment_matrix_hermitian_random(fix_a2, fix_loop):
    rng = random.Random(15)
    for double, dims in ((fix_a2, [2, 2]), (fix_loop, [3])):
        f = state_functional(double, 2, True, dims, rng)
        assert is_hermitian(f.moment_matrix().m)


def test_flat_equations_dimension_counts(fix_l2_ext, example2_l4):
    # ker B_k ∩ V_{k-1} = ker B_{k-1} and V_k = V_{k-1} + ker B_k, by exact counts.
    for f in (fix_l2_ext, example2_l4):
        k = f.k
        nk = len(f.basis(k))
        nkm1 = len(f.basis(k - 1))
        kb = f.kernel_basis()
        low = [g for g in kb if g.degree() is not None and g.degree() <= k - 1]
        low_rank = len(low)
        kb_km1 = restrict(f, k - 1).kernel_basis()
        assert low_rank == len(kb_km1)
        report = f.is_flat()
        assert len(kb) == nk - report.rank_k
        # dim(V_{k-1} + ker) = dim V_{k-1} + dim ker - dim(ker ∩ V_{k-1})
        assert nkm1 + len(kb) - low_rank == nk


def trunk_pairs(functional):
    """All (kernel element, window path) pairs with nonzero tip product in V_k."""
    order = functional.order
    out = []
    for g in functional.kernel_basis():
        tip, _ = g.tip(order)
        for w in functional.basis(functional.k):
            if tip.length() + w.length() > functional.k:
                continue
            if compose(tip, w) is ZERO_PATH:
                continue
            out.append((g, w))
    return out


def test_trunk_property(fix_l2_ext, example2_l4):
    for f in (fix_l2_ext, example2_l4):
        pairs = trunk_pairs(f)
        for g, w in pairs:
            gw = g * Element.from_path(w)
            for v in f.basis(f.k):
                assert pairing(f, gw, Element.from_path(v)).is_zero()
    assert trunk_pairs(example2_l4)  # the x*^3 generator admits genuine cofactors


def test_lemf_positivity_transfer(fix_loop, fix_a2):
    # A PSD base extended by the flat completion stays PSD.
    from quivermoment import flat_extend_tip_maximal

    rng = random.Random(16)
    for double, kw in ((fix_loop, {}), (fix_a2, {"allow_general_quiver": True})):
        for _ in range(3):
            base = pd_functional(double, 1, True, rng)
            ext = flat_extend_tip_maximal(base, **kw)
            assert base.is_psd()
            assert ext.is_psd()
            assert ext.is_flat().flat


def test_lower_orders_and_blocks_are_slices_of_the_order_k_matrix(fix_l2, fix_l2_ext, example2_l4, fix_chain):
    # Bases, lower-order matrices and blocks agree with what an independent
    # enumeration and the compose-based block build from scratch.
    rng = random.Random(12)
    functionals = [fix_l2, fix_l2_ext, example2_l4, pd_functional(fix_chain, 2, True, rng)]
    for f in functionals:
        for t in range(-1, f.k + 1):
            basis = tuple(enumerate_basis(f.double, f.order, t, f.include_trivial)) if t >= 0 else ()
            assert f.basis(t) == basis
            mm = f.moment_matrix(t)
            assert mm.basis == basis and mm.m == compose_moment_block(f.value, basis, basis)
        old = tuple(enumerate_basis(f.double, f.order, f.k - 1, f.include_trivial))
        new = tuple(p for p in enumerate_basis(f.double, f.order, f.k, f.include_trivial) if p not in old)
        blocks = block_decompose(f)
        assert (blocks.old_basis, blocks.new_basis) == (old, new)
        assert blocks.a == compose_moment_block(f.value, old, old)
        assert blocks.c == compose_moment_block(f.value, old, new)
        assert blocks.b == f.principal(range(len(old), len(old) + len(new))) == compose_moment_block(f.value, new, new)


@pytest.mark.parametrize("complex_", [False, True])
def test_principal_reads_any_window_positions(fix_chain, complex_):
    # Positions of V_k in any order and with repeats, read off the integer
    # image as rows and as columns; no position gives the 0x0 matrix.  No
    # caller asks for a product longer than 2k: one is an internal fault.
    f = pd_functional(fix_chain, 2, True, random.Random(4), complex_=complex_)
    basis = f.basis(2)
    at = [len(basis) - 1 - i for i in range(len(basis))] + [0, 3, 0]
    paths = [basis[i] for i in at]
    assert f.principal(at) == compose_moment_block(f.value, paths, paths)
    assert f.principal(iter(at)) == f.principal(at)
    assert f.principal([]) == Matrix(0, 0, [])
    longer = [(p.vertex, p.letters) for p in f.basis(4) if p.length() > 2]
    with pytest.raises(InternalInvariantError, match="a moment product left the window"):
        f._products(longer, longer)


# -- flatness and PSD against the `Scalar` blocks ------------------------------

SHAPES = {
    "one_loop": build_double(Quiver(["e"], [("x", "e", "e")])),
    "two_loops": build_double(Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")])),
    "a2": build_double(Quiver(["e1", "e2"], [("x", "e1", "e2")])),
}
KINDS = ("state", "pd", "difference", "values")


def drawn_functional(shape, k, include_trivial, kind, complex_, seed) -> TruncatedFunctional:
    """A hermitian functional: a state of dimension 1 or 2 per vertex (PSD,
    low rank), a PD state, a difference of two rank-1 states (low rank,
    usually indefinite) or random values; real or Gaussian-integer."""
    double, rng = SHAPES[shape], random.Random(seed)
    nv = double.n_vertices()
    if kind == "state":
        return state_functional(double, k, include_trivial, [1 + seed % 2] * nv, rng, complex_)
    if kind == "pd":
        return pd_functional(double, k, include_trivial, rng, complex_=complex_)
    return hermitian_functional(double, k, include_trivial, rng, complex_, [1] * nv if kind == "difference" else None)


@st.composite
def drawn_cases(draw):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    kind = draw(st.sampled_from(KINDS))
    # the PD state on two loops at k = 2 takes a 21-dimensional state
    k = draw(st.integers(1, 1 if (shape, kind) == ("two_loops", "pd") else 2))
    return shape, k, draw(st.booleans()), kind, draw(st.booleans()), draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn_cases())
def test_flatness_and_psd_match_the_scalar_blocks(case):
    f = drawn_functional(*case)
    assert f.is_flat() == oracles.flat_report(f)
    assert f.is_psd() == oracles.is_psd(f)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize(
    "shape, k, kind, flat, contained, singular, psd",
    [
        ("two_loops", 2, "state", True, True, True, True),
        ("two_loops", 2, "difference", True, True, True, False),
        ("a2", 2, "pd", False, True, False, True),
        ("a2", 2, "values", False, True, False, False),
        ("a2", 1, "values", False, False, True, False),
    ],
)
def test_flatness_and_psd_cases_match_the_scalar_blocks(shape, k, kind, complex_, flat, contained, singular, psd):
    f = drawn_functional(shape, k, True, kind, complex_, 0)
    report = f.is_flat()
    assert (report.flat, report.range_contained, report.rank_km1 < len(f.basis(k - 1))) == (flat, contained, singular)
    assert f.is_psd() is psd
    assert report == oracles.flat_report(f)
    assert f.is_psd() == oracles.is_psd(f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drawn_cases(), st.data())
def test_first_pairing_of_a_real_image_matches_the_gaussian_route(case, data):
    """A real image is combined with one product per entry.  The same image
    in the (re, im) layout takes the Gaussian route, and both give the same
    position: None for the kernel elements, and for combinations of window
    rows with real or Gaussian numerators the first nonzero pairing.  The
    image's first columns are zeroed in every block's rows, so that the
    positions vary."""
    shape, k, include_trivial, kind, _, seed = case
    f = drawn_functional(shape, k, include_trivial, kind, False, seed)
    n = f._end(f.k)
    t = data.draw(st.integers(0, n - 1), label="zeroed columns")
    full = [[[0 if i < t else x for i, x in zip(block, row)] for row in rows] for block, rows in zip(f._blocks, f._full)]
    real, gauss = (TruncatedFunctional(f.double, f.k, f.values, f.include_trivial, f.order) for _ in range(2))
    vars(real).update(_full=full, _real=True)
    vars(gauss).update(_full=[[row + [0] * len(row) for row in rows] for rows in full], _real=False)
    for terms, _ in f._null:
        assert real.first_pairing(terms) is None
        assert gauss.first_pairing(terms) is None
    keys = f._keys[:n]
    parts = st.integers(-3, 3)
    for im in (st.just(0), parts):
        drawn = data.draw(st.dictionaries(st.sampled_from(keys), st.tuples(parts, im), max_size=4))
        if f._null and data.draw(st.booleans()):  # a kernel element plus the drawn rows
            total = dict(f._null[0][0])
            for key, (a, b) in drawn.items():
                x, y = total.get(key, (0, 0))
                total[key] = (x + a, y + b)
            drawn = total
        assert real.first_pairing(drawn) == gauss.first_pairing(drawn)
