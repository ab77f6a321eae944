import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from quivermoment import (
    Element,
    InputError,
    InternalInvariantError,
    Matrix,
    Quiver,
    Representation,
    TruncatedFunctional,
    build_double,
    build_from_groebner,
    build_representation,
    check_relations,
    compose,
    compress_representation,
    enumerate_basis,
    rep_kernel,
    right_groebner,
)
import linalg_oracle
from linalg_oracle import conj_transpose, identity, is_zero, product, scale
from oracles import adjoint_pair_ok, apply_right_element, element_matrix_word_order, inner
from quivermoment.scalar import ONE, ZERO, Scalar

from conftest import elem, path, pd_functional, sc, state_functional

PRINTED_REPRESENTATIVES = [
    "x", "x*", "x x", "x x*", "x* x", "x* x*",
    "x x x", "x x x*", "x x* x", "x x* x*", "x* x x", "x* x x*", "x* x* x",
]


def element_in_span(e, basis_elements, double, max_len):
    from matrix_api import rank

    order = double.default_order()
    window = enumerate_basis(double, order, max_len, include_trivial=True)
    idx = {p: i for i, p in enumerate(window)}

    def row(g):
        r = [ZERO] * len(window)
        for p, c in g.terms.items():
            r[idx[p]] = c
        return r

    base = [row(g) for g in basis_elements]
    m0 = Matrix.from_rows(base) if base else Matrix.zeros(0, len(window))
    m1 = Matrix.from_rows(base + [row(e)])
    return rank(m0) == rank(m1)


def test_build_representation_fixture(fix_l2_ext):
    rep = build_representation(fix_l2_ext)
    assert rep.dim == 4
    assert [str(p) for p in rep.basis] == ["x", "x*", "x x*", "x* x"]
    assert rep.gram == identity(4)
    mx = rep.letter_matrix("x")
    cols = {
        str(rep.basis[j]): {str(rep.basis[i]): mx.entry(i, j) for i in range(4) if mx.entry(i, j)}
        for j in range(4)
    }
    assert cols == {
        "x": {},
        "x*": {"x* x": ONE},
        "x x*": {"x": ONE},
        "x* x": {},
    }
    assert rep.cyclic is None  # non-unital window
    assert check_relations(rep).passed


def test_build_representation_requires_flat_psd(fix_l2, fix_a2):
    with pytest.raises(InputError):
        build_representation(fix_l2)  # not flat
    vals = {path(fix_a2, "x x*"): sc(-1)}
    neg = TruncatedFunctional(fix_a2, 1, vals, include_trivial=False)
    if neg.is_flat().flat:
        with pytest.raises(InputError):
            build_representation(neg)


def test_build_representation_refuses_a_coset_basis_off_the_pivots(fix_l2_ext, monkeypatch):
    # The coset basis is the window paths at the LDL^H pivots of B_{L_k};
    # a pivoting that dropped one of them is an internal fault.
    f = fix_l2_ext
    assert f.is_psd()
    monkeypatch.setattr(f, "_pivots", f._pivots[:-1])
    with pytest.raises(InternalInvariantError, match="^coset basis differs from the pivot paths of the moment matrix$"):
        build_representation(f)


def test_build_representation_zero_functional(fix_a2):
    zero = TruncatedFunctional(fix_a2, 2, {}, include_trivial=False)
    rep = build_representation(zero)
    assert rep.dim == 0
    assert check_relations(rep).passed


def test_example2_representation(example2_l4, fix_g4, fix_loop):
    rep = build_representation(example2_l4)
    assert rep.dim == 13
    assert [str(p) for p in rep.basis] == PRINTED_REPRESENTATIVES
    # Adjointness holds against the moment gram of the reconstructed state.
    assert adjoint_pair_ok(rep, "x")
    assert check_relations(rep).passed

    # Reconstruction from the printed basis with the printed identity gram:
    gb = right_groebner(fix_g4, fix_loop.default_order())
    rep_i = build_from_groebner(fix_loop, gb, identity(13))
    assert rep_i.dim == 13
    assert rep_i.arrows == rep.arrows
    # The printed identity gram contradicts the printed kernel relations:
    # (xx*)^2 - 3xx* in the kernel forces <[xx*x],[xx*x]> = 3<[xx*],[xx*]>,
    # so right multiplications cannot be mutually adjoint for gram = I.
    assert not adjoint_pair_ok(rep_i, "x")
    assert rep.gram != identity(13)


def test_example2_kernel_contains_printed_elements(example2_l4, fix_loop):
    rep = build_representation(example2_l4)
    kern = rep_kernel(rep, 4)
    printed = [
        elem(fix_loop, ("x x x", 1)),
        elem(fix_loop, ("x* x*", -5), ("x* x x* x*", 2), ("x* x* x x*", 1)),
        elem(fix_loop, ("x* x x x*", 1), ("x x* x* x", -1)),
    ]
    for q in printed:
        assert is_zero(element_matrix_word_order(rep, q))
        assert element_in_span(q, kern, fix_loop, 4)


def test_example2_factors_through_cube_zero_quotient(example2_l4):
    rep = build_representation(example2_l4)
    mx = rep.letter_matrix("x")
    mxs = rep.letter_matrix("x*")
    assert is_zero(product(product(mx, mx), mx))
    assert is_zero(product(product(mxs, mxs), mxs))
    assert not is_zero(product(mx, mx))


def test_rep_kernel_faithful_empty(fix_loop):
    # A generic 2-dimensional *-representation of the free algebra is
    # faithful in low degree: the kernel window is empty.
    shift = Matrix.from_rows([[sc(0), sc(1)], [sc(0), sc(0)]])
    rep = Representation(
        fix_loop,
        (path(fix_loop, "x"), path(fix_loop, "x*")),
        identity(2),
        {"x": shift, "x*": conj_transpose(shift)},
        {"e": identity(2)},
        None,
    )
    assert rep_kernel(rep, 1) == []


def test_check_relations_reports_failures(fix_a2):
    bad = Representation(
        fix_a2,
        (path(fix_a2, "x"), path(fix_a2, "x*")),
        identity(2),
        {
            "x": Matrix.from_rows([[sc(0), sc(1)], [sc(0), sc(0)]]),
            "x*": Matrix.from_rows([[sc(0), sc(0)], [sc(2), sc(0)]]),
        },
        {"e1": identity(2), "e2": Matrix.zeros(2, 2)},
        None,
    )
    report = check_relations(bad)
    assert not report.passed
    assert any("adjointness x" in name for name in report.failures())


def _with(m: Matrix, changes: dict) -> Matrix:
    """m with the entries at the given (row, column) positions replaced."""
    return Matrix(m.rows, m.cols, [changes.get(divmod(i, m.cols), e) for i, e in enumerate(m.entries)])


@pytest.mark.parametrize(
    "changes, message",
    [
        ({(1, 0): sc(5)}, "gram matrix must be hermitian"),
        ({(3, 3): Scalar(1, 1)}, "gram matrix must be hermitian"),
        ({(2, 2): sc(-1), (0, 4): sc(2)}, "gram matrix must be hermitian"),  # not PSD either
        ({(2, 2): sc(-1)}, "gram matrix must be PSD"),
        ({(0, 1): sc(2), (1, 0): sc(2)}, "gram matrix must be PSD"),
    ],
    ids=["lower_only", "diagonal_non_real", "hermitian_first", "negative_diagonal", "indefinite"],
)
def test_build_from_groebner_refuses_the_gram(fix_loop, fix_g4, changes, message):
    # The 13 cosets of the printed basis; a non-hermitian gram is refused
    # before its PSD verdict, and a hermitian one that is not PSD after.
    gb = right_groebner(fix_g4, fix_loop.default_order())
    with pytest.raises(InputError, match=f"^{message}$"):
        build_from_groebner(fix_loop, gb, _with(identity(13), changes))


@pytest.mark.parametrize("lower", [sc(5), Scalar(0, 1)], ids=["real", "gaussian"])
def test_a_gram_from_a_file_is_checked_hermitian_on_every_route(fix_loop, fix_g4, lower):
    # The PSD pivoting reads the upper triangle alone.  A gram whose upper
    # triangle is the identity but whose lower triangle is not its conjugate
    # is refused by `gns build` from a Gröbner basis, by a Gram certificate
    # and by `gns check`.
    from quivermoment.sos import verify_gram

    gb = right_groebner(fix_g4, fix_loop.default_order())
    with pytest.raises(InputError, match="^gram matrix must be hermitian$"):
        build_from_groebner(fix_loop, gb, _with(identity(13), {(1, 0): lower}))
    gram = _with(identity(2), {(1, 0): lower})
    basis = [path(fix_loop, "x"), path(fix_loop, "x*")]
    target = elem(fix_loop, ("x x*", 1), ("x* x", 1))
    assert verify_gram(target, basis, identity(2))
    with pytest.raises(InputError, match="^certificate gram must be hermitian$"):
        verify_gram(target, basis, gram)
    x = Matrix.from_rows([[sc(0), sc(0)], [sc(1), sc(0)]])
    rep = Representation(fix_loop, (path(fix_loop, "x"), path(fix_loop, "x x")), gram,
                         {"x": x, "x*": conj_transpose(x)}, {"e": identity(2)}, None)
    assert [name for name in check_relations(rep).failures() if name.startswith("gram")] == ["gram hermitian", "gram PSD"]


@pytest.mark.parametrize(
    "gram, failed",
    [
        ([[1, 2], [3, 1]], ["gram hermitian", "gram PSD"]),
        ([[1, Scalar(0, 1)], [Scalar(0, 1), 1]], ["gram hermitian", "gram PSD"]),
        ([[1, 2], [2, 1]], ["gram PSD"]),
        ([[1, Scalar(0, 1)], [Scalar(0, -1), 1]], []),
    ],
)
def test_check_relations_records_the_gram_verdicts(fix_loop, gram, failed):
    x = Matrix.from_rows([[sc(0), sc(0)], [sc(1), sc(0)]])
    rep = Representation(
        fix_loop,
        (path(fix_loop, "x"), path(fix_loop, "x x")),
        Matrix.from_rows([[sc(e) for e in row] for row in gram]),
        {"x": x, "x*": conj_transpose(x)},
        {"e": identity(2)},
        None,
    )
    assert [name for name in check_relations(rep).failures() if name.startswith("gram")] == failed


def test_compress_moment_reproduction(fix_a2):
    rng = random.Random(22)
    order = fix_a2.default_order()
    for dp1 in (2, 3):
        f = state_functional(fix_a2, dp1, True, [3, 3], rng)
        assert f.is_psd()
        rep = compress_representation(f)
        assert rep.dim <= len(enumerate_basis(fix_a2, order, dp1, True))
        window = enumerate_basis(fix_a2, order, dp1 - 1, True)
        xi = list(rep.cyclic)
        for p in window:
            for q in window:
                pq = compose(p, q.star())
                want = sc(0) if not pq else f.value(pq)
                tp = apply_right_element(rep, Element.from_path(p), xi)
                tq = apply_right_element(rep, Element.from_path(q), xi)
                assert inner(rep, tp, tq) == want
        assert check_relations(rep).passed


# Quivers for the compression oracle test, each with the orders it is run at.
COMPRESS_QUIVERS = {
    "one_loop": (Quiver(["e"], [("x", "e", "e")]), (1, 2, 3)),
    "two_loops": (Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]), (1, 2)),
    "a2": (Quiver(["e1", "e2"], [("x", "e1", "e2")]), (1, 2, 3)),
    "chain": (Quiver(["e1", "e2", "e3"], [("x", "e1", "e2"), ("y", "e2", "e3")]), (1, 2, 3)),
    "xyz": (Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")]), (1, 2)),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMPRESS_QUIVERS)), st.booleans(), st.data())
def test_compress_matches_basis_completion_oracle(name, complex_, data):
    """The closed form equals the per-arrow basis completion, entry for entry.

    Vertex dimensions of 0 put every path ending there in the kernel, so some
    arrows have no kept cosets at their source (K empty) and some kept cosets
    map to null paths; small dimensions give rank-deficient states.
    """
    quiver, orders = COMPRESS_QUIVERS[name]
    double = build_double(quiver)
    k = data.draw(st.sampled_from(orders), label="k")
    n_v = double.n_vertices()
    dims = data.draw(st.lists(st.integers(0, 3), min_size=n_v, max_size=n_v), label="dims")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    f = state_functional(double, k, True, dims, random.Random(seed), complex_)
    new, old = compress_representation(f), oracles.compress_representation(f)
    assert new.basis == old.basis
    assert new.gram == old.gram
    assert new.arrows == old.arrows
    assert new.cyclic == old.cyclic


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(COMPRESS_QUIVERS)), st.booleans(), st.data())
def test_build_gram_is_the_moment_pairing_at_the_pivot_paths(name, complex_, data):
    """The gram of `build_representation`, read off the integer image at the
    LDL^H pivots, is L(p q*) over the coset basis built through `compose`,
    and the coset basis is the pivot paths, on real and Gaussian flat PSD
    states (with or without trivial paths, some vertex dimensions 0)."""
    quiver, orders = COMPRESS_QUIVERS[name]
    double = build_double(quiver)
    k = data.draw(st.sampled_from(orders), label="k")
    n_v = double.n_vertices()
    dims = data.draw(st.lists(st.integers(0, 2), min_size=n_v, max_size=n_v), label="dims")
    include_trivial = data.draw(st.booleans(), label="include_trivial")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    f = state_functional(double, k, include_trivial, dims, random.Random(seed), complex_)
    assume(f.is_flat().flat)
    rep = build_representation(f)
    window = f.basis(k)
    assert rep.basis == tuple(window[p] for p in f._pivots)
    assert rep.gram == oracles.compose_moment_block(f.value, rep.basis, rep.basis)


@pytest.mark.parametrize("complex_", [False, True])
def test_compress_matches_basis_completion_oracle_on_pd_state(complex_):
    """The two-loop, k = 2 shape of the benchmark: a full-rank 21x21 gram."""
    double = build_double(COMPRESS_QUIVERS["two_loops"][0])
    f = pd_functional(double, 2, True, random.Random(5), complex_=complex_)
    new, old = compress_representation(f), oracles.compress_representation(f)
    assert new.dim == 21
    assert (new.basis, new.gram, new.arrows, new.cyclic) == (old.basis, old.gram, old.arrows, old.cyclic)


# Named states for the compression: the quiver, k and the vertex dimensions
# of a singular state; the full-rank state of each is `pd_functional`'s.
# No path ends at e1 in the singular chain state, so the arrow x keeps no
# coset (K empty) and acts as zero.
COMPRESS_STATES = {
    "one_loop": ("one_loop", 2, [2]),
    "two_loops": ("two_loops", 2, [5]),
    "two_vertex": ("xyz", 2, [2, 2]),
    "chain": ("chain", 2, [0, 2, 2]),
}


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "gauss"])
@pytest.mark.parametrize("full_rank", [True, False], ids=["full_rank", "singular"])
@pytest.mark.parametrize("name", sorted(COMPRESS_STATES))
def test_compress_of_named_states_matches_the_oracle(name, full_rank, complex_, monkeypatch):
    """The compression, solved through the LDL^H pivots with no elimination,
    equals the basis completion of `oracles`, entry for entry."""
    from quivermoment import linalg

    quiver_name, k, dims = COMPRESS_STATES[name]
    double = build_double(COMPRESS_QUIVERS[quiver_name][0])
    rng = random.Random(24)
    if full_rank:
        f = pd_functional(double, k, True, rng, complex_=complex_)
    else:
        f = state_functional(double, k, True, dims, rng, complex_)
    eliminations = []
    engine = linalg._gauss_jordan
    monkeypatch.setattr(linalg, "_gauss_jordan", lambda rows, ncols: eliminations.append(ncols) or engine(rows, ncols))
    new = compress_representation(f)
    monkeypatch.undo()
    old = oracles.compress_representation(f)
    assert eliminations == []
    assert (new.dim == len(f.basis(k))) == full_rank
    assert (new.basis, new.gram, new.arrows, new.cyclic) == (old.basis, old.gram, old.arrows, old.cyclic)
    if name == "chain" and not full_rank:
        assert not any(r.terminal() == 0 for r in new.basis)
        assert new.arrows["x"] == new.arrows["x*"] == Matrix.zeros(new.dim, new.dim)
    if complex_:
        assert any(e.im for m in new.arrows.values() for e in m.entries)


def _with_entry(m: Matrix, i: int, j: int, value: Scalar) -> Matrix:
    entries = list(m.entries)
    entries[i * m.cols + j] = value
    return Matrix(m.rows, m.cols, entries)


def _tampered(rep: Representation, kind: str, data) -> Representation:
    """rep with one entry changed so that a check of the given kind fails.

    "entry" changes a drawn entry of a drawn matrix by a drawn amount, with
    no failure in mind.
    """
    double, third = rep.double, Scalar(Fraction(1, 3))
    blocks = {v: [i for i, p in enumerate(rep.basis) if p.terminal() == vi] for vi, v in enumerate(double.vertices)}
    vertices, arrows, gram = dict(rep.vertex_projections), dict(rep.arrows), rep.gram
    v = data.draw(st.sampled_from([v for v in double.vertices if blocks[v]]), label="vertex")
    i = blocks[v][0]
    if kind == "zero product":  # P_w P_v = 0 for w != v: give P_w an index of v
        w = data.draw(st.sampled_from([w for w in double.vertices if w != v]), label="other vertex")
        vertices[w] = _with_entry(vertices[w], i, i, ONE)
    elif kind == "absorption":  # M_x P_s(x) = M_x: give M_x a column that P_s(x) drops
        letter = data.draw(st.sampled_from(double.letters()), label="letter")
        name, src = double.letter_name(letter), double.source[letter]
        outside = [j for j, p in enumerate(rep.basis) if p.terminal() != src]
        assume(outside)
        arrows[name] = _with_entry(arrows[name], 0, outside[0], third)
    elif kind == "idempotent":
        vertices[v] = _with_entry(vertices[v], i, i, Scalar(Fraction(1, 2)))
    elif kind == "projection sum":
        vertices[v] = _with_entry(vertices[v], i, i, ZERO)
    elif kind == "gram hermitian":
        last = rep.dim - 1
        gram = _with_entry(gram, 0, last, gram.entry(0, last) + (third if last else Scalar(0, 1)))
    elif kind == "gram PSD":
        gram = _with_entry(gram, 0, 0, sc(-1))
    elif kind == "adjointness":
        arrow = data.draw(st.sampled_from(double.base.arrows), label="arrow")
        arrows[arrow.name + "*"] = _with_entry(arrows[arrow.name + "*"], 0, 0, arrows[arrow.name + "*"].entry(0, 0) + third)
    else:
        name = data.draw(st.sampled_from(sorted(arrows) + sorted(vertices) + ["gram"]), label="matrix")
        m = gram if name == "gram" else arrows.get(name, vertices.get(name))
        r, c = (data.draw(st.integers(0, size - 1), label=label) for size, label in ((m.rows, "row"), (m.cols, "col")))
        delta = Scalar(Fraction(data.draw(st.integers(-3, 3)), 5), Fraction(data.draw(st.integers(-1, 1)), 7))
        m = _with_entry(m, r, c, m.entry(r, c) + delta)
        if name == "gram":
            gram = m
        elif name in arrows:
            arrows[name] = m
        else:
            vertices[name] = m
    return Representation(double, rep.basis, gram, arrows, vertices, rep.cyclic)


TAMPERS = ["zero product", "absorption", "idempotent", "projection sum", "gram hermitian", "gram PSD", "adjointness"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(["none", "entry"] + TAMPERS), st.booleans(), st.data())
def test_check_relations_matches_the_scalar_route(kind, complex_, data):
    """The integer checks give the `Scalar` route's (name, ok) list, check for check.

    Compressions of random states, real or Gaussian, with their grams
    scaled by 1/q (every check is homogeneous in the gram), so that grams
    and arrows have non-unit denominators; then one entry changed so that
    a check of the drawn kind fails.  Zero products and absorption failures
    need two vertices.
    """
    names = ["a2", "chain", "xyz"] if kind in ("zero product", "absorption") else sorted(COMPRESS_QUIVERS)
    quiver, orders = COMPRESS_QUIVERS[data.draw(st.sampled_from(names), label="quiver")]
    double = build_double(quiver)
    k = data.draw(st.sampled_from(orders[:2]), label="k")
    dims = data.draw(st.lists(st.integers(1, 3), min_size=double.n_vertices(), max_size=double.n_vertices()), label="dims")
    rep = compress_representation(state_functional(double, k, True, dims, random.Random(data.draw(st.integers(0, 2**32))), complex_))
    q = data.draw(st.integers(1, 7), label="q")
    rep = Representation(double, rep.basis, scale(rep.gram, Scalar(Fraction(1, q))), rep.arrows, rep.vertex_projections, rep.cyclic)
    if kind != "none":
        assume(rep.dim > 0)
        rep = _tampered(rep, kind, data)
    report = check_relations(rep)
    assert report.checks == oracles.scalar_check_relations(rep).checks
    word = data.draw(st.sampled_from(enumerate_basis(double, double.default_order(), 3, True)), label="word")
    assert rep.path_matrix_word_order(word) == _word_matrix(rep, word)
    assert [oracles.adjoint_pair_ok(rep, a.name) for a in double.base.arrows] == [
        oracles.scalar_adjoint_pair_ok(rep, a.name) for a in double.base.arrows
    ]
    if kind == "none":
        assert report.passed
    elif kind != "entry":
        prefix = "vertex projections sum" if kind == "projection sum" else kind
        assert any(name.startswith(prefix) for name in report.failures())


def _word_matrix(rep: Representation, word) -> Matrix:
    """M_{w1} ... M_{wn} as `Scalar` products entry by entry."""
    double = rep.double
    mats = [rep.letter_matrix(double.letter_name(x)) for x in word.letters]
    return reduce(linalg_oracle.matmul, mats or [rep.vertex_projections[double.vertices[word.vertex]]])


@pytest.mark.parametrize("complex_", [False, True])
def test_rep_kernel_matches_the_scalar_nullspace(complex_):
    """The kernel of the word images equals the `Scalar` nullspace of the word matrices."""
    # a rank-2 state on two loops: 21 words act on a 2-dimensional space
    double = build_double(COMPRESS_QUIVERS["two_loops"][0])
    rep = compress_representation(state_functional(double, 2, True, [2], random.Random(31), complex_))
    words = enumerate_basis(double, double.default_order(), 2, True)
    cols, n2 = [_word_matrix(rep, w).entries for w in words], rep.dim * rep.dim
    system = Matrix(n2, len(words), [cols[j][i] for i in range(n2) for j in range(len(words))])
    want = [Element.from_terms(double, zip(words, v)) for v in linalg_oracle.nullspace(system)]
    assert want and rep_kernel(rep, 2, include_trivial=True) == want


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("definite", [False, True])
def test_compress_reps_are_the_window_paths_off_the_kernel_tips(definite, complex_):
    """The coset reps read off the PSD pivoting are the paths that are not
    tips of the echelon kernel, on positive-definite and singular states."""
    seen = set()
    for name, (quiver, orders) in sorted(COMPRESS_QUIVERS.items()):
        double = build_double(quiver)
        for k in orders[:2]:
            rng = random.Random(k)
            if definite:
                f = pd_functional(double, k, True, rng, complex_=complex_)
            else:
                # rank at most the number of vertices, below the size of V_k
                f = state_functional(double, k, True, [1] * double.n_vertices(), rng, complex_)
            tips = {g.tip(f.order)[0] for g in f.kernel_basis()}
            seen.add(bool(tips))
            assert compress_representation(f).basis == tuple(p for p in f.basis(k) if p not in tips)
    assert seen == {not definite}


def test_compress_requires_trivial_window_and_psd(fix_l2, fix_a2):
    with pytest.raises(InputError):
        compress_representation(fix_l2)  # non-unital window
    neg = TruncatedFunctional(
        fix_a2, 1, {path(fix_a2, "x x*"): sc(-1)}, include_trivial=True
    )
    with pytest.raises(InputError):
        compress_representation(neg)


def test_compress_one_dimensional_fixed_point(fix_a2):
    # Evaluation at the representation with all arrows zero and one vertex 1.
    vals = {fix_a2.trivial("e1"): sc(1)}
    f = TruncatedFunctional(fix_a2, 2, vals, include_trivial=True)
    rep = compress_representation(f)
    assert rep.dim == 1
    order = fix_a2.default_order()
    xi = list(rep.cyclic)
    for p in enumerate_basis(fix_a2, order, 1, True):
        for q in enumerate_basis(fix_a2, order, 1, True):
            pq = compose(p, q.star())
            want = sc(0) if not pq else f.value(pq)
            tp = apply_right_element(rep, Element.from_path(p), xi)
            tq = apply_right_element(rep, Element.from_path(q), xi)
            assert inner(rep, tp, tq) == want


def test_compress_on_three_vertex_chain(fix_chain):
    rng = random.Random(25)
    order = fix_chain.default_order()
    f = state_functional(fix_chain, 2, True, [2, 2, 2], rng)
    assert f.is_psd()
    rep = compress_representation(f)
    xi = list(rep.cyclic)
    window = enumerate_basis(fix_chain, order, 1, True)
    for p in window:
        for q in window:
            pq = compose(p, q.star())
            want = sc(0) if not pq else f.value(pq)
            tp = apply_right_element(rep, Element.from_path(p), xi)
            tq = apply_right_element(rep, Element.from_path(q), xi)
            assert inner(rep, tp, tq) == want
    assert check_relations(rep).passed


def test_build_representation_on_three_vertex_chain(fix_chain):
    from quivermoment import flat_extend_tip_maximal

    rng = random.Random(26)
    from conftest import pd_functional

    base = pd_functional(fix_chain, 1, True, rng)
    flat = flat_extend_tip_maximal(base, allow_general_quiver=True)
    rep = build_representation(flat)
    assert rep.dim == flat.is_flat().rank_k
    assert check_relations(rep).passed


def test_vertex_decomposition_reassembles(fix_l2_ext):
    # Cutting every arrow matrix by vertex projections changes nothing.
    rep = build_representation(fix_l2_ext)
    for letter in rep.double.letters():
        name = rep.double.letter_name(letter)
        m = rep.letter_matrix(name)
        src = rep.double.vertices[rep.double.source[letter]]
        dst = rep.double.vertices[rep.double.target[letter]]
        assert product(product(rep.vertex_projections[dst], m), rep.vertex_projections[src]) == m


def test_gram_moment_reproduction(fix_l2_ext, example2_l4):
    for f in (fix_l2_ext, example2_l4):
        rep = build_representation(f)
        for i, p in enumerate(rep.basis):
            for j, q in enumerate(rep.basis):
                pq = compose(p, q.star())
                want = sc(0) if not pq else f.value(pq)
                assert rep.gram.entry(i, j) == want
