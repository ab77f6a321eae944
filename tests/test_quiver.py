import itertools
import random
import signal

import pytest

from quivermoment import (
    InputError,
    PathOrder,
    Quiver,
    Scalar,
    TruncatedFunctional,
    ZERO_PATH,
    build_double,
    compose,
    enumerate_basis,
)
from quivermoment import quiver
from oracles import embed_matrix_free, free_dagger, free_matmul

from conftest import path


def test_build_double_fix_a2(fix_a2):
    letters = fix_a2.letters()
    assert [fix_a2.letter_name(l) for l in letters] == ["x", "x*"]
    x, xs = letters
    assert fix_a2.vertices[fix_a2.source[x]] == "e1"
    assert fix_a2.vertices[fix_a2.target[x]] == "e2"
    assert fix_a2.vertices[fix_a2.source[xs]] == "e2"
    assert fix_a2.vertices[fix_a2.target[xs]] == "e1"


def test_build_double_loop_and_empty(fix_loop):
    assert [fix_loop.letter_name(l) for l in fix_loop.letters()] == ["x", "x*"]
    empty = build_double(Quiver(["v"], []))
    assert empty.letters() == []
    assert len(empty.trivial_paths()) == 1


def test_duplicate_names_rejected():
    with pytest.raises(InputError):
        Quiver(["e1", "e1"], [])
    with pytest.raises(InputError):
        Quiver(["e1"], [("e1", "e1", "e1")])
    with pytest.raises(InputError):
        Quiver(["e1"], [("x", "e1", "nowhere")])


def test_records_behave_as_frozen_dataclasses():
    """`Arrow`, `MomentMatrix` and `FlatReport`: fields, equality, hash, repr, immutability."""
    from quivermoment.moment import FlatReport, MomentMatrix

    a = quiver.Arrow("x", "e1", "e2")
    assert (a.name, a.source, a.target) == ("x", "e1", "e2")
    assert repr(a) == "Arrow(name='x', source='e1', target='e2')"
    assert a == quiver.Arrow("x", "e1", "e2") and a != quiver.Arrow("x", "e2", "e1")
    assert hash(a) == hash(("x", "e1", "e2")) and a != ("x", "e1", "e2")
    report = FlatReport(False, 2, 1, True)
    assert repr(report) == "FlatReport(flat=False, rank_k=2, rank_km1=1, range_contained=True)"
    assert not report and FlatReport(True, 1, 1, True)
    assert MomentMatrix((), None) == MomentMatrix((), None) != FlatReport((), None, 0, 0)
    with pytest.raises(AttributeError):
        report.flat = True
    with pytest.raises(TypeError):
        quiver.Arrow("x", "e1")


def test_compose_examples(fix_a2):
    x = path(fix_a2, "x")
    xs = path(fix_a2, "x*")
    assert compose(x, xs) == path(fix_a2, "x x*")
    assert compose(x, x) is ZERO_PATH
    e1 = fix_a2.trivial("e1")
    assert compose(e1, x) == x
    assert compose(x, fix_a2.trivial("e2")) == x
    assert compose(e1, fix_a2.trivial("e2")) is ZERO_PATH


def test_star_examples(fix_a2):
    assert path(fix_a2, "x x* x").star() == path(fix_a2, "x* x x*")
    e1 = fix_a2.trivial("e1")
    assert e1.star() == e1
    p = path(fix_a2, "x x* x x*")
    assert p.star().star() == p


def test_compare_examples(fix_a2):
    o = fix_a2.default_order()
    assert o.compare(path(fix_a2, "x"), path(fix_a2, "x*")) < 0
    assert o.compare(path(fix_a2, "x*"), path(fix_a2, "x x*")) < 0
    p = path(fix_a2, "x x*")
    assert o.compare(p, p) == 0
    assert o.compare(fix_a2.trivial("e1"), path(fix_a2, "x")) < 0


def test_enumerate_basis_examples(fix_a2, fix_loop):
    o = fix_a2.default_order()
    got = [str(p) for p in enumerate_basis(fix_a2, o, 3, include_trivial=False)]
    assert got == ["x", "x*", "x x*", "x* x", "x x* x", "x* x x*"]
    ol = fix_loop.default_order()
    got1 = [str(p) for p in enumerate_basis(fix_loop, ol, 1, include_trivial=True)]
    assert got1 == ["e:e", "x", "x*"]
    got3 = enumerate_basis(fix_loop, ol, 3, include_trivial=False)
    assert len(got3) == 14


def test_enumerate_basis_sorted_and_star_closed(fix_a2, fix_loop):
    for d in (fix_a2, fix_loop):
        o = d.default_order()
        basis = enumerate_basis(d, o, 4, include_trivial=True)
        keys = [o.key(p) for p in basis]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        s = set(basis)
        assert {p.star() for p in basis} == s


@pytest.mark.parametrize("fixture_name", ["fix_a2", "fix_loop", "fix_chain"])
def test_enumeration_follows_any_order(fixture_name, request):
    # Words built letter by letter in a custom order come out sorted by that
    # order's key, without a sort: checked against every composable word.
    double = request.getfixturevalue(fixture_name)
    rng = random.Random(11)
    names = [double.letter_name(l) for l in double.letters()]
    for _ in range(6):
        vertices = rng.sample(list(double.vertices), len(double.vertices))
        o = PathOrder(double, vertices, rng.sample(names, len(names)))
        words = [w for n in range(1, 5) for w in itertools.product(double.letters(), repeat=n)]
        paths = [double.path(w) for w in words if all(
            double.target[a] == double.source[b] for a, b in zip(w, w[1:]))]
        trivial = sorted(double.trivial_paths(), key=o.key)
        assert enumerate_basis(double, o, 4, include_trivial=True) == trivial + sorted(paths, key=o.key)


@pytest.mark.parametrize("fixture_name", ["fix_a2", "fix_loop", "fix_chain", "fix_two_loops"])
def test_integer_order_key_matches_deg_lex(fixture_name, request):
    # `PathOrder.key_of` is one int per path.  Comparing two of them, and
    # `compare`, must agree with deg-lex written here from the names the
    # order was given: trivial paths first, by the vertex sequence, then
    # words by length, then letter by letter.
    double = request.getfixturevalue(fixture_name)
    rng = random.Random(31)
    names = [double.letter_name(l) for l in double.letters()]

    def walk(length):
        if length == 0:
            return double.trivial(rng.choice(double.vertices))
        word = [rng.choice(double.letters())]
        while len(word) < length:
            word.append(rng.choice([l for l in double.letters() if double.source[l] == double.target[word[-1]]]))
        return double.path(word)

    for _ in range(5):
        vertices = rng.sample(list(double.vertices), len(double.vertices))
        letters = rng.sample(names, len(names))
        o = PathOrder(double, vertices, letters)

        def deg_lex(p):
            if p.is_trivial():
                return (0, (vertices.index(double.vertices[p.vertex]),))
            return (p.length(), tuple(letters.index(double.letter_name(l)) for l in p.letters))

        for _ in range(300):
            p, q = (walk(rng.choice([0, 0, 1, 2, 3, 5, 8, 13])) for _ in range(2))
            kp, kq = o.key_of((p.vertex, p.letters)), o.key_of((q.vertex, q.letters))
            assert type(kp) is int and type(kq) is int
            want = (deg_lex(p) > deg_lex(q)) - (deg_lex(p) < deg_lex(q))
            assert (kp > kq) - (kp < kq) == want
            assert o.compare(p, q) == want
            assert (kp == kq) == (p == q)


def random_paths(double, max_len, rng, count):
    pool = enumerate_basis(double, double.default_order(), max_len, include_trivial=True)
    return [rng.choice(pool) for _ in range(count)]


@pytest.mark.parametrize("fixture_name", ["fix_a2", "fix_loop", "fix_chain"])
def test_order_axioms_sampled(fixture_name, request):
    double = request.getfixturevalue(fixture_name)
    o = double.default_order()
    rng = random.Random(7)
    checked = 0
    for _ in range(4000):
        p1, p2, p3 = random_paths(double, 3, rng, 3)
        if o.compare(p1, p2) > 0:
            a, b = compose(p1, p3), compose(p2, p3)
            if a is not ZERO_PATH and b is not ZERO_PATH:
                checked += 1
                assert o.compare(a, b) > 0  # A1
            a, b = compose(p3, p1), compose(p3, p2)
            if a is not ZERO_PATH and b is not ZERO_PATH:
                checked += 1
                assert o.compare(a, b) > 0  # A2
        whole = compose(compose(p1, p2), p3)
        if whole is not ZERO_PATH:
            checked += 1
            assert o.compare(whole, p2) >= 0  # A3
    assert checked > 500


def test_compose_associative_with_zero_absorbing(fix_a2, fix_chain):
    rng = random.Random(8)
    for double in (fix_a2, fix_chain):
        for _ in range(400):
            p, q, r = random_paths(double, 3, rng, 3)
            left = compose(compose(p, q), r)
            right = compose(p, compose(q, r))
            assert left == right or (left is ZERO_PATH and right is ZERO_PATH)


def test_star_antihomomorphism(fix_a2, fix_loop):
    rng = random.Random(9)
    for double in (fix_a2, fix_loop):
        for _ in range(400):
            p, q = random_paths(double, 3, rng, 2)
            pq = compose(p, q)
            if pq is ZERO_PATH:
                assert compose(q.star(), p.star()) is ZERO_PATH
            else:
                assert pq.star() == compose(q.star(), p.star())


def test_embed_examples(fix_a2):
    x = path(fix_a2, "x")
    mx = embed_matrix_free(x)
    assert list(mx[0][1]) == [x.letters] and not mx[0][0] and not mx[1][0] and not mx[1][1]
    e1 = embed_matrix_free(fix_a2.trivial("e1"))
    assert list(e1[0][0]) == [()] and not e1[0][1]
    xs = path(fix_a2, "x*")
    assert embed_matrix_free(compose(x, xs)) == free_matmul(embed_matrix_free(x), embed_matrix_free(xs))


def test_embed_is_star_homomorphism(fix_a2, fix_chain):
    rng = random.Random(10)
    for double in (fix_a2, fix_chain):
        for _ in range(300):
            p, q = random_paths(double, 3, rng, 2)
            if p.is_trivial() or q.is_trivial():
                continue
            pq = compose(p, q)
            if pq is not ZERO_PATH:
                assert embed_matrix_free(pq) == free_matmul(embed_matrix_free(p), embed_matrix_free(q))
            assert embed_matrix_free(p.star()) == free_dagger(embed_matrix_free(p))


def test_window_past_the_limit_is_refused_before_it_is_built(fix_two_loops):
    # 4^80 words: building any of them would not finish.
    order = fix_two_loops.default_order()
    refused = [
        lambda: enumerate_basis(fix_two_loops, order, 80),
        lambda: TruncatedFunctional(fix_two_loops, 40, {}),
    ]
    for build in refused:
        with pytest.raises(InputError, match=f"more than {quiver.MAX_WINDOW_PATHS} paths"):
            build()


@pytest.mark.parametrize("shape", ["two_loops", "a2", "chain"])
def test_window_limit_counts_the_words_exactly(shape, fix_two_loops, fix_a2, fix_chain, monkeypatch):
    double = {"two_loops": fix_two_loops, "a2": fix_a2, "chain": fix_chain}[shape]
    order = double.default_order()
    counts = {n: len(enumerate_basis(double, order, n, include_trivial=False)) for n in (1, 3, 5)}
    for max_len, words in counts.items():
        monkeypatch.setattr(quiver, "MAX_WINDOW_PATHS", words)
        assert len(enumerate_basis(double, order, max_len)) == words + double.n_vertices()
        monkeypatch.setattr(quiver, "MAX_WINDOW_PATHS", words - 1)
        with pytest.raises(InputError):
            enumerate_basis(double, order, max_len)


def test_window_of_linear_growth_is_refused_without_counting_every_length(fix_a2, monkeypatch):
    # A2 has two words of every length, so counting them length by length
    # passes 10^9 only after 5 * 10^8 steps; no length has fewer words than
    # the one before, which passes the limit at the first length.
    monkeypatch.setattr(quiver, "MAX_WINDOW_PATHS", 10**9)

    def too_slow(signum, frame):
        raise TimeoutError("the window was counted length by length")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        with pytest.raises(InputError, match=f"more than {10**9} paths"):
            TruncatedFunctional(fix_a2, 10**12, {})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_arrowless_quiver_has_no_words():
    double = build_double(Quiver(["v", "w"], []))
    order = double.default_order()
    assert next(quiver._words(double, order, 10**9), None) is None
    assert enumerate_basis(double, order, 10**9) == double.trivial_paths()


def test_arrowless_window_of_any_order_is_its_trivial_paths():
    double = build_double(Quiver(["v", "w"], []))
    v = double.trivial("v")
    f = TruncatedFunctional(double, 10**9, {v: Scalar(2)})
    trivial = tuple(double.trivial_paths())
    assert f.basis(0) == f.basis(10**9) == f.basis(2 * 10**9) == trivial
    with pytest.raises(InputError):
        f.basis(2 * 10**9 + 1)
    assert f.is_flat().flat and f.is_psd()
    empty = TruncatedFunctional(double, 10**9, {}, include_trivial=False)
    assert empty.basis(2 * 10**9) == () and empty.is_flat().flat
