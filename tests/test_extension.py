import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from quivermoment import (
    Element,
    ExtensionObstructed,
    FlatExtension,
    FlatReport,
    InputError,
    InternalInvariantError,
    Matrix,
    NotFlatError,
    Quiver,
    TruncatedFunctional,
    build_double,
    enumerate_basis,
    flat_extend_tip_maximal,
    right_groebner,
)
from quivermoment import extension, groebner, linalg
from matrix_api import rank, schur_complete, solve_particular
from quivermoment.scalar import ONE

import linalg_oracle
from conftest import hermitian_functional, l3_functional, path, pd_functional, sc, state_functional
from oracles import (
    block_decompose,
    extension_odd_values,
    restrict,
    riesz_eval,
    scalar_flat_extend_tip_maximal,
    scalar_fold,
    scalar_tip_table,
)


def m_int(rows):
    return Matrix.from_rows([[sc(x) for x in r] for r in rows])


def test_schur_complete_examples(fix_l2_ext):
    blocks = block_decompose(fix_l2_ext)
    assert solve_particular(blocks.a, blocks.c) == (blocks.a.rows, blocks.c)  # A is the identity
    assert schur_complete(blocks.a, blocks.c) == linalg_oracle.identity(2)
    assert schur_complete(linalg_oracle.identity(3), Matrix.zeros(3, 2)) == Matrix.zeros(2, 2)
    assert schur_complete(m_int([[1, 0], [0, 0]]), m_int([[1], [0]])) == m_int([[1]])


def test_schur_complete_not_flat():
    with pytest.raises(NotFlatError):
        schur_complete(m_int([[1, 0], [0, 0]]), m_int([[0], [1]]))


def test_schur_complete_requires_hermitian():
    with pytest.raises(ValueError):
        schur_complete(m_int([[0, 1], [0, 0]]), m_int([[1], [0]]))


def test_flat_extend_fixture(fix_l2, fix_a2):
    ext = flat_extend_tip_maximal(fix_l2, allow_general_quiver=True)
    assert ext.k == 3
    vals = {
        "x x* x x* x": 0,
        "x* x x* x x*": 0,
        "x x* x x* x x*": 1,
        "x* x x* x x* x": 1,
    }
    for text, v in vals.items():
        assert ext.value(path(fix_a2, text)) == sc(v)
    assert ext.is_flat().flat
    assert ext.is_psd()


def test_flat_extend_requires_flag_on_quivers(fix_l2):
    with pytest.raises(InputError):
        flat_extend_tip_maximal(fix_l2)


def test_flat_extend_requires_tip_maximal(fix_a2):
    vals = {
        path(fix_a2, "x* x"): sc(1),
        path(fix_a2, "x x* x x*"): sc(1),
        path(fix_a2, "x* x x* x"): sc(1),
    }
    f = TruncatedFunctional(fix_a2, 2, vals, include_trivial=False)
    with pytest.raises(InputError):
        flat_extend_tip_maximal(f, allow_general_quiver=True)


def closed_form_a9(a):
    return (a[6] * a[5] ** 2 - 2 * a[3] * a[5] * a[8] + a[1] * a[8] ** 2) / (
        a[1] * a[6] - a[3] ** 2
    )


def closed_form_a10(a):
    return (a[5] * a[6] ** 2 - 2 * a[4] * a[6] * a[7] + a[2] * a[7] ** 2) / (
        a[2] * a[5] - a[4] ** 2
    )


def printed_eq1(a):
    return (a[6] ** 2 * a[5] - 2 * a[3] * a[5] * a[8] + a[1] * a[8] ** 2) / (
        a[1] * a[6] - a[3] ** 2
    )


def printed_eq2(a):
    return (a[5] * a[8] ** 2 - 2 * a[4] * a[6] * a[7] + a[2] * a[7] ** 2) / (
        a[2] * a[5] - a[4] ** 2
    )


def random_pd_labels(rng):
    """Random a1..a8 with the PD conditions.

    Hermitianness of a real functional pairs the labels 3/4 and 7/8 (each
    names the star of the other's word), so a4 = a3 and a8 = a7 here.
    """
    a = {}
    a[2] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    a[6] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    a[3] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    a[4] = a[3]
    a[5] = a[4] * a[4] / a[2] + Fraction(rng.randint(1, 5), rng.randint(1, 3))
    a[1] = a[3] * a[3] / a[6] + Fraction(rng.randint(1, 5), rng.randint(1, 3))
    a[7] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    a[8] = a[7]
    return a


def test_schur_matches_closed_forms_random(fix_a2):
    rng = random.Random(18)
    for _ in range(10):
        a = random_pd_labels(rng)
        f = l3_functional(fix_a2, {i: a.get(i, 0) for i in range(1, 9)})
        blocks = block_decompose(f)
        b = schur_complete(blocks.a, blocks.c)
        assert b.entry(0, 0) == sc(closed_form_a9(a))
        assert b.entry(1, 1) == sc(closed_form_a10(a))
        full_labels = dict(a)
        full_labels[9] = closed_form_a9(a)
        full_labels[10] = closed_form_a10(a)
        full = l3_functional(fix_a2, full_labels)
        report = full.is_flat()
        assert report.flat and report.rank_k == 4


def test_printed_eq2_discrepancy_documented():
    # On the FIX-L2 labels the printed closed form gives 0 where the
    # rank-preserving completion gives 1; eq1 happens to agree there.
    a = {1: Fraction(1), 2: Fraction(1), 3: Fraction(0), 4: Fraction(0),
         5: Fraction(1), 6: Fraction(1), 7: Fraction(0), 8: Fraction(0)}
    assert printed_eq2(a) == 0
    assert closed_form_a10(a) == 1
    assert printed_eq1(a) == closed_form_a9(a) == 1


def test_flat_extend_canonical_solution_matches_closed_forms(fix_a2):
    # A PD order-2 base has an empty kernel system, so the canonical solution
    # zeroes the degree-5 values (a7 = a8 = 0) and the Schur completion gives
    # the closed forms evaluated there.
    rng = random.Random(24)
    for _ in range(5):
        a = random_pd_labels(rng)
        a[7] = a[8] = Fraction(0)
        base = restrict(l3_functional(fix_a2, {i: a[i] for i in range(1, 7)}), 2)
        ext = flat_extend_tip_maximal(base, allow_general_quiver=True)
        assert ext.value(path(fix_a2, "x x* x x* x")) == sc(0)
        assert ext.value(path(fix_a2, "x* x x* x x*")) == sc(0)
        assert ext.value(path(fix_a2, "x x* x x* x x*")) == sc(closed_form_a9(a))
        assert ext.value(path(fix_a2, "x* x x* x x* x")) == sc(closed_form_a10(a))


@pytest.mark.parametrize(
    "shape, order", [("loop", 1), ("loop", 2), ("two_loops", 1), ("a2", 1), ("a2", 2), ("xyz", 1)]
)
def test_odd_degree_matches_the_system_with_every_unknown(shape, order, fix_loop, fix_two_loops, fix_a2, fix_xyz):
    # The extension holds one unknown per star pair; the oracle holds one per
    # path and adds the hermitian symmetry as rows.  Both take the RREF
    # solution with free variables zero, so the odd values agree, and an
    # inconsistent system fails in both.  Real and Gaussian values, full-rank
    # and low-rank bases.  Order-2 bases on two loops and x, y, z are left
    # out: the `Scalar` oracle takes 9-23 s per system there.
    double = {"loop": fix_loop, "two_loops": fix_two_loops, "a2": fix_a2, "xyz": fix_xyz}[shape]
    free_algebra = double.n_vertices() == 1
    compared = with_free = 0
    for seed in range(8):
        rng = random.Random(seed)
        complex_, low_rank = seed % 2 == 1, seed % 4 >= 2
        dims = [rng.randint(0, 2) for _ in double.vertices] if low_rank else None
        base = hermitian_functional(double, order, seed % 3 != 0, rng, complex_, dims)
        if not base.is_tip_maximal():
            continue
        expected, free = extension_odd_values(base)
        with_free += free > 0
        try:
            ext = flat_extend_tip_maximal(base, allow_general_quiver=True)
        except (ExtensionObstructed, InternalInvariantError) as e:
            if expected is None:
                assert type(e) is (InternalInvariantError if free_algebra else ExtensionObstructed)
                assert "inconsistent" in str(e)
            else:
                assert "inconsistent" not in str(e)
            continue
        assert expected is not None
        assert {m: ext.values[m] for m in expected} == expected
        compared += 1
    assert compared and with_free


# Quivers for the comparison with the `Scalar` route, each with the base
# orders it is run at: order-2 bases on two loops and x, y, z are left out,
# as the `Scalar` route takes seconds per system there.
EXTENSION_QUIVERS = {
    "loop": (Quiver(["e"], [("x", "e", "e")]), (1, 2)),
    "two_loops": (Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]), (1,)),
    "a2": (Quiver(["e1", "e2"], [("x", "e1", "e2")]), (1, 2)),
    "xyz": (Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")]), (1,)),
}


def extend_or_error(extend, f):
    try:
        return extend(f, allow_general_quiver=True).values
    except (ExtensionObstructed, InternalInvariantError, InputError) as e:
        return type(e), str(e)


@settings(max_examples=160, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(EXTENSION_QUIVERS)), st.booleans(), st.data())
def test_one_step_extension_matches_the_scalar_route(name, complex_, data):
    """Every value of the extension, in window order, or the error's type and message.

    Full-rank (positive-definite states), low-rank (states of small
    dimension) and indefinite bases (random hermitian values, or the
    difference of two small states), real and Gaussian, on one vertex and,
    with allow_general_quiver, on two; many of the indefinite ones are not
    tip-maximal.  A negated state is tip-maximal when the state is, and not
    PSD, so its Schur step takes the elimination route.  Neither route
    pivots its result: every extension is checked flat here, and PSD
    exactly when its base is.
    """
    quiver, orders = EXTENSION_QUIVERS[name]
    double = build_double(quiver)
    k = data.draw(st.sampled_from(orders), label="k")
    kind = data.draw(st.sampled_from(["full", "low", "negated", "hermitian", "difference"]), label="kind")
    include_trivial = data.draw(st.booleans(), label="include_trivial")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    dims = [rng.randint(0, 2) for _ in double.vertices]
    if kind == "full":
        base = pd_functional(double, k, include_trivial, rng, complex_=complex_)
    elif kind in ("low", "negated"):
        base = state_functional(double, k, include_trivial, dims, rng, complex_)
        if kind == "negated":
            base = TruncatedFunctional(double, k, {p: -v for p, v in base.values.items()}, include_trivial)
    else:
        base = hermitian_functional(
            double, k, include_trivial, rng, complex_, dims if kind == "difference" else None
        )
    new = extend_or_error(flat_extend_tip_maximal, base)
    old = extend_or_error(scalar_flat_extend_tip_maximal, base)
    assert new == old
    if isinstance(new, dict):
        assert list(new) == list(old)
        assert any(not v.is_real() for v in new.values()) <= complex_
        ext = TruncatedFunctional(double, k + 1, new, include_trivial)
        assert ext.is_flat().flat
        assert ext.is_psd() == base.is_psd()


def force_range_failure(monkeypatch):
    """Make the Schur step of both routes find Ran C outside Ran A."""
    monkeypatch.setattr(extension, "_flat_block", lambda *args: None)
    solve = linalg_oracle.solve_particular
    calls = []

    def second_fails(a, c):  # the `Scalar` route's second solve is its Schur step
        calls.append(c.cols)
        rank_a, x = solve(a, c)
        return (rank_a, None) if len(calls) == 2 else (rank_a, x)

    monkeypatch.setattr(linalg_oracle, "solve_particular", second_fails)


def force_nonzero_top(monkeypatch):
    """Make the Schur step of both routes return the all-ones block."""
    monkeypatch.setattr(extension, "_flat_block", lambda f, c, w: ([[1] * w for _ in range(w)], 1))
    monkeypatch.setattr(linalg_oracle, "product", lambda a, b: Matrix(a.rows, b.cols, [ONE] * (a.rows * b.cols)))


def force_not_flat(monkeypatch):
    """Make the `Scalar` route's closing pivoting find its result not flat."""
    monkeypatch.setattr(TruncatedFunctional, "is_flat", lambda self: FlatReport(False, 1, 0, True))


EXTEND_ROUTES = {"integer": flat_extend_tip_maximal, "scalar": scalar_flat_extend_tip_maximal}

# A seeded search over 3000 random quivers (1-3 vertices, 1-3 arrows), path
# orders and real or Gaussian bases (states of every rank, random hermitian
# values) reached none of these guards.  Once the odd system is solved,
# every kernel element of A pairs to zero with every column of C, so
# Ran C <= Ran A; and A and C vanish off the blocks of paths with a common
# terminal vertex, so C^H X vanishes wherever u v* = 0.  The guards are
# reached here by forcing the Schur step (`extension._flat_block`).  Once
# A X = C holds the result is flat, so the integer route has no flatness
# guard after them: `test_one_step_extension_matches_the_scalar_route`
# checks every result.  The `Scalar` route keeps its closing pivoting,
# reached by forcing `is_flat`.
GUARDS = [
    (force_range_failure, "a2", ExtensionObstructed, "extended C block left the range of A on this quiver"),
    (force_range_failure, "loop", InternalInvariantError, "range containment failed on a free *-algebra extension"),
    (force_nonzero_top, "a2", ExtensionObstructed, "Schur completion forces a nonzero value on a zero product"),
]
SCALAR_GUARDS = [
    (force_not_flat, "a2", ExtensionObstructed, "one-step extension is not flat on this quiver"),
    (force_not_flat, "loop", InternalInvariantError, "one-step extension produced a non-flat functional"),
]


@pytest.mark.parametrize(
    "route, force, shape, error, message",
    [(route, *guard) for route in EXTEND_ROUTES for guard in GUARDS] + [("scalar", *guard) for guard in SCALAR_GUARDS],
)
def test_extension_guards(route, force, shape, error, message, fix_l2, fix_loop, monkeypatch):
    base = fix_l2 if shape == "a2" else pd_functional(fix_loop, 1, True, random.Random(19))
    base.kernel_basis()
    force(monkeypatch)
    with pytest.raises(error) as info:
        EXTEND_ROUTES[route](base, allow_general_quiver=True)
    assert str(info.value) == message


def corrupt_the_solution(monkeypatch) -> list:
    """Raise one entry of the solution Y of A[P, P] Y = s C[P, :] by one, on
    the LDL^H route and on the elimination route; returns the routes taken."""
    taken, psd_solve, solve = [], linalg._psd_solve, linalg._solve

    def pivoted(*args):
        taken.append("psd")
        y, s = psd_solve(*args)
        y[0][0] += 1
        return y, s

    def eliminated(*args):
        taken.append("eliminate")
        pivots, xs, s = solve(*args)
        re, im = xs[0][0]
        xs[0][0] = (re + 1, im)
        return pivots, xs, s

    monkeypatch.setattr(linalg, "_psd_solve", pivoted)
    monkeypatch.setattr(linalg, "_solve", eliminated)
    return taken


@pytest.mark.parametrize("psd", [True, False], ids=["psd", "negated"])
@pytest.mark.parametrize(
    "shape, error, message",
    [
        ("a2", ExtensionObstructed, "extended C block left the range of A on this quiver"),
        ("loop", InternalInvariantError, "range containment failed on a free *-algebra extension"),
    ],
)
def test_the_certificate_catches_a_corrupted_solution(shape, error, message, psd, fix_l2, fix_loop, monkeypatch):
    # The product A[:, P] Y = s C over every row of A is the one check behind
    # the Schur step: one entry of Y off by one is caught, with the error of
    # a C block outside Ran A.  A PSD base and its negation, which is not
    # PSD and has the same kernel, so it takes the elimination route.
    base = fix_l2 if shape == "a2" else pd_functional(fix_loop, 1, True, random.Random(19))
    if not psd:
        base = TruncatedFunctional(
            base.double, base.k, {p: -v for p, v in base.values.items()}, base.include_trivial, base.order
        )
    assert base.is_psd() == psd and base.is_tip_maximal()
    assert flat_extend_tip_maximal(base, allow_general_quiver=True).is_flat().flat
    taken = corrupt_the_solution(monkeypatch)
    with pytest.raises(error) as info:
        flat_extend_tip_maximal(base, allow_general_quiver=True)
    assert str(info.value) == message
    # the LDL^H route solves once per block that holds a pivot (two on A2)
    blocks = len({base._where[p][0] for p in base._echelon[0]})
    assert taken == (["psd"] * blocks if psd else ["eliminate"])
    assert blocks == (2 if shape == "a2" else 1)


def test_pd_preserving_flat_output(fix_loop):
    rng = random.Random(19)
    for _ in range(5):
        base = pd_functional(fix_loop, 1, True, rng)
        ext = flat_extend_tip_maximal(base)
        assert ext.is_psd()
        assert ext.is_flat().flat


def test_evaluate_examples(fix_l2_ext):
    d = fix_l2_ext.double
    ext = FlatExtension(fix_l2_ext)
    assert ext.evaluate(path(d, "x x* x x* x x* x x*")) == sc(1)
    assert ext.evaluate(path(d, "x* x x* x x* x x* x x* x")) == sc(1)
    window = enumerate_basis(d, fix_l2_ext.order, 6, include_trivial=False)
    for p in window:
        assert ext.evaluate(p) == fix_l2_ext.value(p)


def test_evaluate_hermitian(fix_l2_ext):
    d = fix_l2_ext.double
    ext = FlatExtension(fix_l2_ext)
    for p in enumerate_basis(d, fix_l2_ext.order, 9, include_trivial=False):
        assert ext.evaluate(p.star()) == ext.evaluate(p).conjugate()


def test_truncated_view(fix_l2_ext):
    ext = FlatExtension(fix_l2_ext)
    tv3 = ext.truncated_view(3)
    assert tv3.values == fix_l2_ext.values
    for m in (3, 4, 5):
        tv = ext.truncated_view(m)
        assert rank(tv.moment_matrix().m) == 4
        assert tv.is_psd()
        assert tv.is_flat().flat


def test_uniqueness_across_generator_orderings(fix_loop):
    # The completion of the kernel basis in another order gives the basis
    # of the extension, and its normal forms give the extension's values.
    rng = random.Random(20)
    base = pd_functional(fix_loop, 1, True, rng)
    flat = flat_extend_tip_maximal(base)
    shuffled = flat.kernel_basis()
    rng.shuffle(shuffled)
    assert shuffled != flat.kernel_basis()
    ext = FlatExtension(flat)
    gb = right_groebner(shuffled, flat.order)
    assert gb.elements == ext.gb.elements
    for p in enumerate_basis(fix_loop, fix_loop.default_order(), 8, include_trivial=True):
        assert ext.evaluate(p) == riesz_eval(flat, gb.nf(p))


def test_round_trip_restriction(fix_loop):
    rng = random.Random(21)
    base = pd_functional(fix_loop, 1, True, rng)
    ext = flat_extend_tip_maximal(base)
    assert restrict(ext, 1).values == base.values


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("shape", ["loop", "a2", "xyz_dead_vertex"])
def test_truncated_view_matches_per_path_evaluate(shape, complex_, fix_loop, fix_a2, fix_xyz):
    # The view folds each path from its parent's normal form; a second
    # extension of the same base folds every path from its first letter.
    # Tip-maximal extensions of PD states on the one-loop (free) and A2
    # quivers, and a rank-3 state on x, y, z that is zero at e2, so the
    # trivial path e2 is a tip.
    rng = random.Random(62)
    if shape == "xyz_dead_vertex":
        flat = state_functional(fix_xyz, 2, True, [3, 0], rng, complex_=complex_)
    else:
        double = fix_loop if shape == "loop" else fix_a2
        base = pd_functional(double, 2, True, rng, complex_=complex_)
        flat = flat_extend_tip_maximal(base, allow_general_quiver=True)
    double = flat.double
    assert any(not v.is_real() for v in flat.values.values()) == complex_
    view, single = FlatExtension(flat), FlatExtension(flat)
    assert view.gb.tip_table.den > 1
    for m in (flat.k, flat.k + 1, flat.k + 2):
        tv = view.truncated_view(m)
        window = enumerate_basis(double, flat.order, 2 * m, include_trivial=True)
        assert len(tv.values) == len(window)
        assert all(tv.values[p] == single.evaluate(p) for p in window)
    assert single.cache == view.cache


@settings(max_examples=15, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_truncated_view_matches_per_path_evaluate_on_flat_states(data, fix_loop, fix_two_loops, fix_xyz):
    # Flat states of low rank, real or Gaussian, with or without trivial
    # paths: the view steps each word from its parent's normal form, and
    # `evaluate` folds it from its first letter through the same table.
    gaussian = data.draw(st.booleans(), label="gaussian")
    include_trivial = data.draw(st.booleans(), label="trivial paths")
    double, dims, m = data.draw(
        st.sampled_from([(fix_loop, [2], 3), (fix_two_loops, [2], 2), (fix_xyz, [2, 1], 3)]), label="state"
    )
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    flat = state_functional(double, 2, include_trivial, dims, rng, complex_=gaussian)
    assume(flat.is_flat().flat)
    view, single = FlatExtension(flat), FlatExtension(flat)
    tv = view.truncated_view(m)
    window = enumerate_basis(double, flat.order, 2 * m, include_trivial)
    assert list(tv.values) == list(window)
    assert all(tv.values[p] == single.evaluate(p) for p in window)


def random_word(double, rng, length):
    letters = [rng.choice(double.letters())]
    while len(letters) < length:
        end = double.target[letters[-1]]
        letters.append(rng.choice([l for l in double.letters() if double.source[l] == end]))
    return double.path(letters)


@pytest.mark.parametrize("complex_", [False, True])
def test_long_evaluate_computes_each_move_once(complex_, fix_loop, monkeypatch):
    # A 1200-letter word meets the few non-tips of a flat rank-6 state on
    # one loop (k = 3, as in the extend_eval benchmark) over and over; each
    # (id, letter) move is computed once.
    rng = random.Random(63)
    flat = state_functional(fix_loop, 3, False, [6], rng, complex_)
    assert flat.is_flat().flat
    ext = FlatExtension(flat)
    table = ext.gb.tip_table
    assert table.real != complex_
    computed = []
    move = groebner.TipTable._move

    def counted(self, i, n):
        computed.append((i, n))
        return move(self, i, n)

    monkeypatch.setattr(groebner.TipTable, "_move", counted)
    p = random_word(fix_loop, rng, 1200)
    value = ext.evaluate(p)
    assert len(computed) == len(set(computed)) <= len(table._keys) * len(fix_loop.letters())
    assert value == riesz_eval(flat, Element(fix_loop, scalar_fold(p, scalar_tip_table(ext.gb))))


def test_truncated_view_requires_larger_order(fix_l2_ext):
    ext = FlatExtension(fix_l2_ext)
    with pytest.raises(InputError):
        ext.truncated_view(2)
