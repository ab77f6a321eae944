"""Acceptance criteria, one test per criterion, all equality checks exact.

Each test prints one line; run with `pytest -s tests/test_acceptance.py` to
see them.  The two places where the source text's printed values are
internally inconsistent (the second closed form of the first worked example,
and the identity gram claimed for the 13-dimensional representation) are
asserted in their corrected form, and the discrepancy itself is asserted as
a documented fact.
"""

import random
import time
from fractions import Fraction

from quivermoment import (
    Element,
    FlatExtension,
    Matrix,
    ZERO_PATH,
    build_from_groebner,
    build_representation,
    compose,
    enumerate_basis,
    flat_extend_tip_maximal,
    rep_kernel,
    right_groebner,
    verify_gram,
    verify_squares,
)
from quivermoment.sos import expand_gram, gram_to_squares

from conftest import elem, l3_functional, path, pd_functional, sc, state_functional
from linalg_oracle import col, identity, is_hermitian, is_zero, product
from matrix_api import psd_check, rank, schur_complete
from oracles import (
    adjoint_pair_ok,
    apply_right_element,
    block_decompose,
    element_matrix_word_order,
    embed_matrix_free,
    free_dagger,
    free_matmul,
    inner,
    pairing,
    riesz_eval,
    right_action_matrix,
)
from test_extension import (
    closed_form_a9,
    closed_form_a10,
    printed_eq1,
    printed_eq2,
    random_pd_labels,
)


def report(n, detail, t0):
    print(f"ACCEPTANCE {n}: PASS ({time.time() - t0:.2f}s) - {detail}")


def test_acceptance_1_groebner_reproduction(fix_h4, fix_g4, fix_loop):
    t0 = time.time()
    gb = right_groebner(fix_h4, fix_loop.default_order())
    assert list(gb.elements) == fix_g4
    assert [(str(e.target), str(e.by), str(e.cofactor)) for e in gb.trace] == [
        ("x* x* x* x", "x* x* x*", "x"),
        ("x* x* x* x*", "x* x* x*", "x*"),
    ]
    report(1, "19 printed generators -> the 15 printed basis elements, "
              "trace shows exactly the two named reductions", t0)


def test_acceptance_2_representation(example2_l4, fix_g4, fix_loop):
    t0 = time.time()
    printed_basis = [
        "x", "x*", "x x", "x x*", "x* x", "x* x*",
        "x x x", "x x x*", "x x* x", "x x* x*", "x* x x", "x* x x*", "x* x* x",
    ]
    gb = right_groebner(fix_g4, fix_loop.default_order())
    rep_printed = build_from_groebner(fix_loop, gb, identity(13))
    assert rep_printed.dim == 13
    assert [str(p) for p in rep_printed.basis] == printed_basis

    # Kernel span contains the three printed elements; x^3 and x*^3 act as 0.
    kern = rep_kernel(rep_printed, 4)
    printed_kernel = [
        elem(fix_loop, ("x x x", 1)),
        elem(fix_loop, ("x* x*", -5), ("x* x x* x*", 2), ("x* x* x x*", 1)),
        elem(fix_loop, ("x* x x x*", 1), ("x x* x* x", -1)),
    ]
    order = fix_loop.default_order()
    window = enumerate_basis(fix_loop, order, 4, include_trivial=False)
    idx = {p: i for i, p in enumerate(window)}

    def rows(elements):
        out = []
        for g in elements:
            r = [sc(0)] * len(window)
            for p, c in g.terms.items():
                r[idx[p]] = c
            out.append(r)
        return out

    base_rank = rank(Matrix.from_rows(rows(kern)))
    for q in printed_kernel:
        assert is_zero(element_matrix_word_order(rep_printed, q))
        assert rank(Matrix.from_rows(rows(kern + [q]))) == base_rank
    mx = rep_printed.letter_matrix("x")
    mxs = rep_printed.letter_matrix("x*")
    assert is_zero(product(product(mx, mx), mx)) and is_zero(product(product(mxs, mxs), mxs))

    # Adjointness M_x^H = M_{x*} holds for the moment gram of the
    # reconstructed functional; the printed identity gram contradicts the
    # printed kernel ((xx*)^2 - 3xx* forces <[xx*x],[xx*x]> = 3<[xx*],[xx*]>),
    # and the artifact documents that discrepancy.
    rep_true = build_representation(example2_l4)
    assert rep_true.arrows == rep_printed.arrows
    assert adjoint_pair_ok(rep_true, "x")
    assert rep_true.gram != identity(13)
    assert not adjoint_pair_ok(rep_printed, "x")
    report(2, "13-dim representation; kernel spans the printed elements; "
              "x^3 and x*^3 act as zero; adjointness exact for the moment "
              "gram (printed identity gram documented as inconsistent)", t0)


def test_acceptance_3_flat_completion_law(fix_a2, fix_l2):
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(50):
        a = random_pd_labels(rng)
        assert a[2] > 0 and a[6] > 0 and a[2] * a[5] > a[4] ** 2
        assert a[1] > 0 and a[1] * a[6] > a[3] ** 2
        f = l3_functional(fix_a2, {i: a[i] for i in range(1, 9)})
        blocks = block_decompose(f)
        b = schur_complete(blocks.a, blocks.c)
        a9, a10 = closed_form_a9(a), closed_form_a10(a)
        assert b == Matrix.from_rows([[sc(a9), sc(0)], [sc(0), sc(a10)]])
        labels = dict(a)
        labels[9], labels[10] = a9, a10
        completed = l3_functional(fix_a2, labels)
        rep = completed.is_flat()
        assert rep.flat and rep.rank_k == rep.rank_km1 == 4

    # The FIX-L2 instance documents the printed second closed form's error:
    # it yields 0 where the rank-preserving completion yields 1.
    fl = {i: Fraction(v) for i, v in [(1, 1), (2, 1), (3, 0), (4, 0), (5, 1), (6, 1), (7, 0), (8, 0)]}
    assert printed_eq2(fl) == 0
    assert closed_form_a10(fl) == 1
    ext = flat_extend_tip_maximal(fix_l2, allow_general_quiver=True)
    assert ext.value(path(fix_a2, "x* x x* x x* x")) == sc(1)
    assert printed_eq1(fl) == closed_form_a9(fl)
    report(3, "50 random PD instances match the derived closed forms exactly "
              "and are flat; printed second form documented to give 0 vs 1 "
              "on the FIX-L2 instance", t0)


def test_acceptance_4_extension_uniqueness_and_rank_stability(fix_a2, fix_loop):
    t0 = time.time()
    rng = random.Random(202)
    cases = (
        [(fix_a2, 2, {"allow_general_quiver": True})] * 5
        + [(fix_a2, 3, {"allow_general_quiver": True})] * 5
        + [(fix_loop, 2, {})] * 9
        + [(fix_loop, 3, {})] * 1
    )
    assert len(cases) == 20
    for double, k, kw in cases:
        base = pd_functional(double, k - 1, True, rng)
        flat = flat_extend_tip_maximal(base, **kw)
        assert flat.is_psd() and flat.is_flat().flat
        gens = flat.kernel_basis()
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if shuffled == gens:
            shuffled = list(reversed(gens))
        e1 = FlatExtension(flat)
        gb = right_groebner(shuffled, flat.order)
        assert gb.elements == e1.gb.elements
        for p in enumerate_basis(double, double.default_order(), 2 * k + 4, True):
            assert e1.evaluate(p) == riesz_eval(flat, gb.nf(p))
        rank_k = flat.is_flat().rank_k
        for m in (k, k + 1, k + 2):
            tv = e1.truncated_view(m)
            assert rank(tv.moment_matrix().m) == rank_k
    report(4, "20 random flat PSD functionals: generator-order-independent "
              "values up to degree 2k+4; rank stable at k, k+1, k+2", t0)


def test_acceptance_5_trunk_property_suite(fix_l2_ext, example2_l4, fix_a2, fix_loop):
    t0 = time.time()
    rng = random.Random(303)
    fixtures = [fix_l2_ext, example2_l4]
    for double, k, kw in [(fix_a2, 2, {"allow_general_quiver": True}), (fix_loop, 2, {})]:
        base = pd_functional(double, k - 1, True, rng)
        fixtures.append(flat_extend_tip_maximal(base, **kw))
    checked = 0
    for f in fixtures:
        assert f.is_flat().flat
        window = f.basis(f.k)
        for g in f.kernel_basis():
            tip, _ = g.tip(f.order)
            for w in window:
                if tip.length() + w.length() > f.k:
                    continue
                if compose(tip, w) is ZERO_PATH:
                    continue
                gw = g * Element.from_path(w)
                for v in window:
                    assert pairing(f, gw, Element.from_path(v)).is_zero()
                checked += 1
    assert checked > 0
    report(5, f"kernel elements stay in the kernel under right multiplication "
              f"({checked} element/path pairs across every flat fixture)", t0)


def test_acceptance_6_order_and_algebra_axioms(fix_a2, fix_loop):
    t0 = time.time()

    rng = random.Random(404)
    for double in (fix_a2, fix_loop):
        o = double.default_order()
        pool = enumerate_basis(double, o, 4, include_trivial=True)
        by_origin = {}
        by_terminal = {}
        for p in pool:
            by_origin.setdefault(p.origin(), []).append(p)
            by_terminal.setdefault(p.terminal(), []).append(p)
        vertices = list(by_origin)

        # A1/A2 triples are drawn conditioned on composability so that every
        # sample is a genuine check; A3 draws composable triples directly.
        for _ in range(10_000):
            v = rng.choice(vertices)
            p1, p2 = rng.choice(by_terminal[v]), rng.choice(by_terminal[v])
            p3 = rng.choice(by_origin[v])
            if o.compare(p1, p2) > 0:
                assert o.compare(compose(p1, p3), compose(p2, p3)) > 0  # A1
        for _ in range(10_000):
            v = rng.choice(vertices)
            p1, p2 = rng.choice(by_origin[v]), rng.choice(by_origin[v])
            p3 = rng.choice(by_terminal[v])
            if o.compare(p1, p2) > 0:
                assert o.compare(compose(p3, p1), compose(p3, p2)) > 0  # A2
        for _ in range(10_000):
            p1 = rng.choice(pool)
            p2 = rng.choice(by_origin[p1.terminal()])
            p3 = rng.choice(by_origin[p2.terminal()])
            whole = compose(compose(p1, p2), p3)
            assert whole is not ZERO_PATH
            assert o.compare(whole, p2) >= 0  # A3

        def rand_elem():
            return Element.from_terms(
                double, [(rng.choice(pool), sc(rng.randint(-3, 3))) for _ in range(3)]
            )

        tip_checked = 0
        attempts = 0
        while tip_checked < 1000 and attempts < 50_000:
            attempts += 1
            f, g = rand_elem(), rand_elem()
            assert (f * g).star() == g.star() * f.star()
            if f.is_zero() or g.is_zero():
                continue
            tp = compose(f.tip(o)[0], g.tip(o)[0])
            if tp is not ZERO_PATH:
                fg = f * g
                assert not fg.is_zero() and fg.tip(o)[0] == tp
                tip_checked += 1
        assert tip_checked >= 1000

        for _ in range(1000):
            p = rng.choice(pool)
            q = rng.choice(by_origin[p.terminal()])
            assert embed_matrix_free(p.star()) == free_dagger(embed_matrix_free(p))
            pq = compose(p, q)
            assert pq is not ZERO_PATH
            assert embed_matrix_free(pq) == free_matmul(
                embed_matrix_free(p), embed_matrix_free(q)
            )
    report(6, "A1-A3 on 10^4 composable triples each per fixture quiver; tip "
              "multiplicativity, the *-anti-homomorphism, and the matrix "
              "embedding on 10^3 pairs each", t0)


def test_acceptance_7_compression(fix_a2):
    t0 = time.time()
    rng = random.Random(505)
    from quivermoment import compress_representation

    order = fix_a2.default_order()
    for i in range(10):
        dp1 = 2 if i % 2 == 0 else 3
        f = state_functional(fix_a2, dp1, True, [3, 3], rng)
        assert f.is_psd()
        rep = compress_representation(f)
        assert rep.dim <= len(enumerate_basis(fix_a2, order, dp1, True))
        xi = list(rep.cyclic)
        window = enumerate_basis(fix_a2, order, dp1 - 1, True)
        for p in window:
            for q in window:
                pq = compose(p, q.star())
                want = sc(0) if pq is ZERO_PATH else f.value(pq)
                tp = apply_right_element(rep, Element.from_path(p), xi)
                tq = apply_right_element(rep, Element.from_path(q), xi)
                assert inner(rep, tp, tq) == want
    report(7, "10 random PSD order-(d+1) functionals reproduce all V_d moments "
              "through the compressed representation; dim <= dim V_{d+1}", t0)


def test_acceptance_8_sos_verification(fix_a2, fix_loop, fix_l2_ext, example2_l4):
    t0 = time.time()
    # verify_squares examples
    q = elem(fix_loop, ("x x*", 1), ("x* x", 1))
    gs = [elem(fix_loop, ("x", 1)), elem(fix_loop, ("x*", 1))]
    assert verify_squares(q, gs, 1) is True
    assert verify_squares(elem(fix_loop, ("x x*", 1), ("x* x", -1)), gs, 1) is False
    g = elem(fix_a2, ("x x* x", 1), ("x", -1))
    q3 = g * g.star()
    assert verify_squares(q3, [g], 3) is True

    # verify_gram examples
    basis = [path(fix_loop, "x"), path(fix_loop, "x*")]
    assert verify_gram(q, basis, identity(2)) is True
    assert verify_gram(q, basis, Matrix.from_rows([[sc(1), sc(0)], [sc(0), sc(-1)]])) is False
    basis2 = [path(fix_a2, "x"), path(fix_a2, "x x* x")]
    g2 = Matrix.from_rows([[sc(2), sc(1)], [sc(1), sc(1)]])
    qgram = expand_gram(basis2, g2)
    assert verify_gram(qgram, basis2, g2) is True

    # Every passing certificate maps to an exactly PSD form on built reps.
    passing = [(fix_a2, q3), (fix_a2, qgram), (fix_loop, q)]
    reps = {fix_a2: build_representation(fix_l2_ext), fix_loop: build_representation(example2_l4)}
    for double, target in passing:
        rep = reps[double]
        action = right_action_matrix(rep, target)
        unit = lambda i: [sc(1) if r == i else sc(0) for r in range(rep.dim)]
        form = Matrix(
            rep.dim,
            rep.dim,
            [inner(rep, list(col(action, j)), unit(i)) for i in range(rep.dim) for j in range(rep.dim)],
        )
        assert is_hermitian(form) and psd_check(form)

    # Gram-to-squares round trip.
    weighted = gram_to_squares(basis2, g2)
    assert verify_squares(qgram, [s for _, s in weighted], weights=[w for w, _ in weighted])
    report(8, "six certificate examples verified; passing certificates act "
              "as exactly PSD forms on every built representation", t0)
