"""The word-keyed functional loader against the `Path`-keyed construction it replaced.

`fileio.functional_from_dict` maps each entry to a (vertex, letters) key and
a window position, closes the values under the star once per star pair, and
fills B_{L_k} by position.  `oracles.load_path_keyed` reads the same file
entry by entry into paths, closes the values through `p.star()` for every
given path, and builds B_{L_k} through `compose`.  On every file both must
give the same window, values and moment matrix, or raise the same error
class with the same message.  Files are drawn in any order with any
separators, and in window order with single spaces, the shape
`functional_to_dict` writes, where every text is read off the window's text
table.
"""

from __future__ import annotations

import json
import random
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import state_functional
from quivermoment import (
    FlatExtension,
    InputError,
    Path,
    Quiver,
    Scalar,
    TruncatedFunctional,
    build_double,
    enumerate_basis,
    fileio,
    kernel_groebner,
    moment,
)
from quivermoment.fileio import functional_from_dict, quiver_to_dict
from quivermoment.quiver import DoubleQuiver, window_keys, window_layers
from quivermoment.scalar import parse_literal

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)
SOURCE = "f.json"

QUIVERS = {
    "one_loop": Quiver(["e"], [("x", "e", "e")]),
    "two_loops": Quiver(["e"], [("x", "e", "e"), ("y", "e", "e")]),
    "a2": Quiver(["e1", "e2"], [("x", "e1", "e2")]),
    "xyz": Quiver(["e1", "e2"], [("x", "e1", "e2"), ("y", "e2", "e1"), ("z", "e1", "e1")]),
    "arrowless": Quiver(["v", "w"], []),
    # no letter leaves "u": an empty row of the following-letter table
    "isolated": Quiver(["u", "v"], [("x", "v", "v")]),
}
MAX_K = {"one_loop": 3, "two_loops": 2, "a2": 3, "xyz": 2, "arrowless": 3, "isolated": 3}
# Window-ordered files also on a quiver with unusual names that still read
# back: a vertex named like a trivial-path token, `*` inside a name, and an
# arrow named `e`.
WINDOW_QUIVERS = {
    **QUIVERS,
    "odd_names": Quiver(["e:v", "w*"], [("a*b", "e:v", "w*"), ("e", "w*", "w*"), ("b", "w*", "e:v")]),
}
WINDOW_MAX_K = {**MAX_K, "odd_names": 1}
SEPARATORS = [" ", "  ", "\t", "\n "]


def outcome(data):
    """The loader's window, values and B_{L_k}, or its error class and message."""
    try:
        f = functional_from_dict(data, ".", SOURCE)
        return f._window, list(f.values.items()), f.moment_matrix().m
    except Exception as e:  # the class and the message are compared
        return type(e), str(e)


def oracle_outcome(data):
    try:
        f = oracles.load_path_keyed(data, SOURCE)
        return f.window, list(f.values.items()), f.matrix
    except Exception as e:
        return type(e), str(e)


def text(draw, p) -> str:
    """The text of a path, its tokens between drawn runs of whitespace."""
    tokens = str(p).split()
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return seps[0] + "".join(t + s for t, s in zip(tokens, seps[1:]))


@st.composite
def functional_files(draw):
    name = draw(st.sampled_from(sorted(QUIVERS)))
    double = build_double(QUIVERS[name])
    k = draw(st.integers(1, MAX_K[name]))
    include_trivial = draw(st.booleans())
    complex_ = draw(st.booleans())
    # The window and, for out-of-window faults, the layer above it.
    paths = enumerate_basis(double, double.default_order(), 2 * k + 1, include_trivial)
    window = [p for p in paths if p.length() <= 2 * k]
    longer = [p for p in paths if p.length() > 2 * k]

    def scalar():
        im = draw(st.integers(-2, 2)) if complex_ else 0
        return Scalar(draw(st.integers(-3, 3)), im)

    entries, seen = [], set()
    for p in draw(st.lists(st.sampled_from(window), unique=True, max_size=12)) if window else []:
        if p in seen:
            continue
        seen.update((p, p.star()))
        v = scalar()
        fault = draw(st.integers(0, 9)) == 1  # a hermitian conflict
        if p == p.star():
            # A path that is its own star must carry a real value.
            entries.append((p, Scalar(v.re, 1 if fault else 0)))
            continue
        entries.append((p, v))
        # The star partner: given in conflict, given consistently, or omitted.
        if fault:
            entries.append((p.star(), v.conjugate() + Scalar(1)))
        elif draw(st.booleans()):
            entries.append((p.star(), v.conjugate()))
    # Rarer faults: a path outside the window, a repeated entry with an equal
    # or a differing value.
    if longer and draw(st.integers(0, 4)) == 1:
        entries.append((draw(st.sampled_from(longer)), scalar()))
    if entries and draw(st.integers(0, 2)) == 1:
        p, v = draw(st.sampled_from(entries))
        entries.append((p, v if draw(st.booleans()) else v + Scalar(2)))
    entries = draw(st.permutations(entries))
    return {
        "quiver": quiver_to_dict(double.base),
        "k": k,
        "include_trivial": include_trivial,
        "entries": [{"path": text(draw, p), "value": str(v)} for p, v in entries],
    }


@SETTINGS
@given(functional_files())
def test_loader_matches_the_path_keyed_construction(data):
    assert outcome(data) == oracle_outcome(data)


@st.composite
def window_ordered_files(draw, integer_conflict=False):
    """Every window path in window order, as single-space texts, with the
    values of a hermitian assignment (zeros left out or not), and rarely a
    hermitian conflict (a value raised by i or, so that an all-integer file
    holds one too, by 1), a repeated entry or a path outside the window.
    With `integer_conflict` every value is an integer and one is always
    raised by 1."""
    name = draw(st.sampled_from(sorted(WINDOW_QUIVERS)))
    double = build_double(WINDOW_QUIVERS[name])
    k = draw(st.integers(1, WINDOW_MAX_K[name]))
    include_trivial = draw(st.booleans())
    paths = enumerate_basis(double, double.default_order(), 2 * k + 1, include_trivial)
    window = [p for p in paths if p.length() <= 2 * k]
    longer = [p for p in paths if p.length() > 2 * k]
    complex_ = not integer_conflict and draw(st.booleans())
    values = {}
    for p in window:
        if p not in values:
            v = Scalar(draw(st.integers(-3, 3)), draw(st.integers(-2, 2)) if complex_ and p != p.star() else 0)
            values[p], values[p.star()] = v, v.conjugate()
    skip_zeros = draw(st.booleans())
    entries = [(p, values[p]) for p in window if not (skip_zeros and values[p].is_zero())]
    if entries and (integer_conflict or draw(st.integers(0, 5)) == 1):
        i = draw(st.integers(0, len(entries) - 1))
        raised = Scalar(1) if integer_conflict else draw(st.sampled_from([Scalar(0, 1), Scalar(1)]))
        entries[i] = (entries[i][0], entries[i][1] + raised)
    if entries and draw(st.integers(0, 5)) == 1:
        p, v = draw(st.sampled_from(entries))
        entries.append((p, v if draw(st.booleans()) else v + Scalar(2)))
    if longer and draw(st.integers(0, 5)) == 1:
        entries.append((draw(st.sampled_from(longer)), Scalar(1)))
    return {
        "quiver": quiver_to_dict(double.base),
        "k": k,
        "include_trivial": include_trivial,
        "entries": [{"path": str(p), "value": str(v)} for p, v in entries],
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(window_ordered_files())
def test_window_ordered_files_match_the_path_keyed_construction(data):
    assert outcome(data) == oracle_outcome(data)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(window_ordered_files(integer_conflict=True))
def test_all_integer_window_files_with_a_raised_value_match_the_path_keyed_construction(data):
    # The integer column's closure comparison fails on a hermitian conflict,
    # and the ordered loop names it, or a fault before it, as the oracle does.
    assert outcome(data) == oracle_outcome(data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(window_ordered_files())
def test_every_moment_matrix_is_the_compose_built_block(data):
    # B_{L_t} for -1 <= t <= k, read off the integer image, against the
    # matrix of L(p q*) built through `compose` from the values.
    try:
        f = functional_from_dict(data, ".", SOURCE)
    except InputError:
        return
    for t in range(-1, f.k + 1):
        basis = f.basis(t)
        mm = f.moment_matrix(t)
        assert mm.basis == basis and mm.m == oracles.compose_moment_block(f.value, basis, basis)


LOOP2 = quiver_to_dict(QUIVERS["two_loops"])


def entries(*pairs):
    return [{"path": p, "value": v} for p, v in pairs]


def fixture_pairs(name):
    """The (path, value) texts of a committed functional file, in file order."""
    data = json.loads((FsPath(__file__).parent / "fixtures" / f"{name}.json").read_text(encoding="utf-8"))
    return [(e["path"], e["value"]) for e in data["entries"]]


@pytest.mark.parametrize(
    "pairs, message",
    [
        pytest.param(
            [("x x x", "1"), ("x", "1"), ("x*", "2"), ("y", "1"), ("y", "3")],
            "f.json: conflicting values for path 'y'",
            id="duplicate_before_window_and_hermitian",
        ),
        pytest.param(
            [("x", "1"), ("x*", "2"), ("y y y", "1"), ("x x x", "1")],
            "f.json: path y y y outside the length <= 2 window",
            id="first_outside_before_hermitian",
        ),
        pytest.param(
            [("y*", "1"), ("x*", "1"), ("x", "2"), ("y", "2")],
            "f.json: hermitian conflict between y* and y",
            id="hermitian_first_member_in_file_order",
        ),
        pytest.param(
            [("x y", "1"), ("x x*", "1+2i"), ("y* x*", "2")],
            "f.json: hermitian conflict between x y and y* x*",
            id="hermitian_pair_before_later_self_star",
        ),
        pytest.param(
            [("e:e", "1i"), ("x y", "1"), ("y* x*", "2")],
            "f.json: hermitian conflict between e:e and e:e",
            id="hermitian_self_star_first",
        ),
        # All-integer files whose first fault is a repeated window text,
        # with a later value the integer column cannot read.
        pytest.param(
            [("x", "1"), ("x*", "2"), ("y", "3"), ("y", "4"), ("x y", "1_0")],
            "f.json: conflicting values for path 'y'",
            id="integer_repeat_before_malformed_literal",
        ),
        pytest.param(
            [("x", "1"), ("x*", "2"), ("y", "3"), ("y", "4"), ("x y", " 5")],
            "f.json: conflicting values for path 'y'",
            id="integer_repeat_before_spaced_literal",
        ),
        pytest.param(
            [("x", "1"), ("x*", "2"), ("y", "3"), ("y", "4"), ("x y", "1" * 4301)],
            "f.json: conflicting values for path 'y'",
            id="integer_repeat_before_digit_limit",
        ),
        pytest.param(
            [("x", "1"), ("y", "3"), ("y", "3"), ("x y", "1"), ("x*", "2")],
            "f.json: hermitian conflict between x and x*",
            id="integer_equal_repeat_then_hermitian",
        ),
        # The whole window in window order, which the bulk pass reads
        # without the text table, with one malformed value after two
        # hermitian conflicts: the ordered loop builds the table and names it.
        pytest.param(
            fixture_pairs("fix_refuse_literal_window_order"),
            "f.json: malformed scalar literal '1.5'",
            id="window_order_malformed_after_hermitian",
        ),
    ],
)
def test_multi_fault_files_raise_the_first_error_in_precedence(pairs, message):
    data = {"quiver": LOOP2, "k": 1, "include_trivial": True, "entries": entries(*pairs)}
    kind, text = outcome(data)
    assert text == message
    assert (kind, text) == oracle_outcome(data)


A2 = quiver_to_dict(QUIVERS["a2"])


@pytest.mark.parametrize(
    "quiver, pairs, message",
    [
        pytest.param(
            LOOP2, [("e:e", "1"), ("e:e x", "1")],
            "f.json: trivial path token 'e:e' must stand alone", id="trivial_then_extended",
        ),
        pytest.param(LOOP2, [("x", "1"), ("x y ", "2"), ("y* x*", "2")], None, id="trailing_space"),
        pytest.param(LOOP2, [("x", "1"), ("x\ty", "2"), ("y* x*", "3")],
                     "f.json: hermitian conflict between x y and y* x*", id="tab_separator"),
        pytest.param(
            LOOP2, [("x", "1"), ("x q", "1")], "f.json: unknown arrow 'q' in path 'x q'", id="unknown_last_token",
        ),
        pytest.param(
            A2, [("x", "1"), ("x x", "1")], "f.json: non-composable path 'x x' at token 'x'",
            id="non_composable_last_token",
        ),
        pytest.param(
            LOOP2, [("x x x", "1"), ("x", "1"), ("x x x", "2")],
            "f.json: conflicting values for path 'x x x'", id="repeated_outside_path_differing_values",
        ),
    ],
)
def test_texts_the_window_does_not_write_take_the_parser(quiver, pairs, message):
    data = {"quiver": quiver, "k": 1, "include_trivial": True, "entries": entries(*pairs)}
    got = outcome(data)
    assert got == oracle_outcome(data)
    if message is None:
        assert not isinstance(got[0], type)
    else:
        assert got[1] == message


@pytest.mark.parametrize(
    "k, pairs, message",
    [
        pytest.param(0, [("x", "1"), ("q", "1")], "f.json: unknown arrow 'q' in path 'q'", id="k0_bad_path"),
        pytest.param(0, [("x", "1"), ("x", "2")], "f.json: conflicting values for path 'x'", id="k0_conflict"),
        pytest.param(0, [("x", "1/0")], "f.json: zero denominator in scalar literal '1/0'", id="k0_bad_value"),
        pytest.param(0, [("x x x", "1"), ("x", "1"), ("x*", "2")], "f.json: functional order k must be >= 1",
                     id="k0_before_outside_and_hermitian"),
        pytest.param(40, [("x", "1"), ("e:nowhere", "1")], "f.json: unknown vertex 'nowhere'", id="k40_bad_path"),
        pytest.param(40, [("x y", "1"), ("x  y", "2")], "f.json: conflicting values for path 'x  y'",
                     id="k40_conflict"),
        pytest.param(40, [("x", "two")], "f.json: malformed scalar literal 'two'", id="k40_bad_value"),
        pytest.param(40, [("x", "1"), ("x*", "2")],
                     "f.json: the window of paths of length <= 80 has more than 1000000 paths",
                     id="k40_before_hermitian"),
    ],
)
def test_entry_faults_come_before_the_order_and_window_errors(k, pairs, message):
    data = {"quiver": LOOP2, "k": k, "include_trivial": True, "entries": entries(*pairs)}
    kind, text = outcome(data)
    assert text == message
    assert (kind, text) == oracle_outcome(data)


def _window_ordered(name, k, integers=False):
    double = build_double(QUIVERS[name])
    window = enumerate_basis(double, double.default_order(), 2 * k, True)
    value = {}
    for i, p in enumerate(window):
        value.setdefault(p, Scalar(i % 7 - 3, i % 3 - 1 if p != p.star() and not integers else 0))
        value.setdefault(p.star(), value[p].conjugate())
    data = {
        "quiver": quiver_to_dict(double.base),
        "k": k,
        "entries": [{"path": str(p), "value": str(value[p])} for p in window],
    }
    return data, {e["value"] for e in data["entries"]}


@pytest.mark.parametrize(
    "name, k, integers",
    [
        pytest.param("two_loops", 3, False, id="two_loops-3"),
        pytest.param("xyz", 2, False, id="xyz-2"),
        pytest.param("one_loop", 3, False, id="one_loop-3"),
        pytest.param("two_loops", 3, True, id="two_loops-3-integers"),
    ],
)
def test_window_ordered_file_needs_no_parser_and_parses_each_value_text_once(name, k, integers, monkeypatch):
    data, texts = _window_ordered(name, k, integers)
    # No entry takes the ordered loop.  In a file that holds a non-integer
    # text, each distinct value text is read once by the literal table,
    # straight to numerators: a decimal integer by `int`, any other literal
    # by the literal parser.  An all-integer file is one `int` column: the
    # literal table reads nothing.  No `Scalar` is parsed.  The path column
    # is the window's texts, so the positions are `range(n)`: no text table
    # and no scatter.
    calls = {"path_key": 0, "_entry": 0, "literal table": 0, "parse_literal": 0, "Scalar.parse": 0}
    placed, place = [], TruncatedFunctional._place

    def spy(self, slots, *columns):
        placed.append(slots)
        return place(self, slots, *columns)

    monkeypatch.setattr(TruncatedFunctional, "_place", spy)
    path_key, entry, parse_literal, parse = fileio.path_key, fileio._entry, fileio.parse_literal, Scalar.parse
    missing = fileio._Literals.__missing__

    def counting(fn, name):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(fileio, "path_key", counting(path_key, "path_key"))
    monkeypatch.setattr(fileio, "_entry", counting(entry, "_entry"))
    monkeypatch.setattr(fileio._Literals, "__missing__", counting(missing, "literal table"))
    monkeypatch.setattr(fileio, "parse_literal", counting(parse_literal, "parse_literal"))
    monkeypatch.setattr(Scalar, "parse", staticmethod(counting(parse, "Scalar.parse")))
    f = functional_from_dict(data, ".", SOURCE)
    decimal = {t for t in texts if t.lstrip("-").isdecimal()}
    assert decimal and (decimal == texts) == integers
    table = 0 if integers else len(texts)
    assert calls == {
        "path_key": 0,
        "_entry": 0,
        "literal table": table,
        "parse_literal": len(texts - decimal),
        "Scalar.parse": 0,
    }
    assert placed == [range(len(data["entries"]))]
    assert [str(p) for p in f.values] == [e["path"] for e in data["entries"]]
    assert [str(v) for v in f.values.values()] == [e["value"] for e in data["entries"]]


@pytest.mark.parametrize("include_trivial", [True, False], ids=["trivial", "nontrivial"])
@pytest.mark.parametrize(
    "name, k", [(name, k) for name in sorted(WINDOW_QUIVERS) for k in range(1, WINDOW_MAX_K[name] + 1)]
)
def test_window_layers_match_the_window_keys(name, k, include_trivial):
    """The layered builder's texts, codes, star codes and length ends, and the
    tables a functional makes of them, against the window keys, the code of
    each key's word and of its star's word, and `str(Path)`: on every quiver
    above, up to its order, both windows (every case, so no draw)."""
    double = build_double(WINDOW_QUIVERS[name])
    order = double.default_order()
    keys = window_keys(double, order, 2 * k, include_trivial)
    f = TruncatedFunctional.__new__(TruncatedFunctional)
    star, texts = f._open(double, k, include_trivial, None, named=True)
    code, star_word = f._code, double.star_word
    assert texts == [str(Path(double, *key)) for key in keys]
    assert f._at == {code(w): i for i, (_, w) in enumerate(keys) if w}
    assert f._trivial == {v: i for i, (v, w) in enumerate(keys) if not w}
    assert star == [f._at[code(star_word(w))] if w else i for i, (_, w) in enumerate(keys)]
    longest = max((len(w) for _, w in keys), default=0)
    assert f._ends == [sum(len(w) <= t for _, w in keys) for t in range(longest + 1)]
    assert f._keys == [key for key in keys if len(key[1]) <= k]
    ends, codes, stars, unnamed = window_layers(double, order, 2 * k, include_trivial)
    assert (ends, unnamed) == (f._ends, None)
    assert codes == [code(w) for _, w in keys if w]
    assert stars == [code(star_word(w)) for _, w in keys if w]


LONG = "1" * 4301  # past Python's default int-to-string digit limit


def _long_outcome():
    try:
        return int(LONG), 0, 1
    except ValueError:
        return InputError, f"f.json: scalar literal of {len(LONG)} characters exceeds the integer digit limit"


@pytest.mark.parametrize(
    "text, want",
    [
        ("+7", (7, 0, 1)),
        ("-0", (0, 0, 1)),
        ("007", (7, 0, 1)),
        ("\u0663", (3, 0, 1)),  # ARABIC-INDIC DIGIT THREE, a decimal digit
        ("-" + "1" * 4300, (-int("1" * 4300), 0, 1)),
        ("1_0", (InputError, "f.json: malformed scalar literal '1_0'")),
        ("\u00b2", (InputError, "f.json: malformed scalar literal '\u00b2'")),  # a digit, not a decimal
        (" 5 ", (5, 0, 1)),
        ("5/1", (5, 0, 1)),
        ("3+0i", (3, 0, 1)),
        ("-3/6", (-1, 0, 2)),
        ("", (InputError, "f.json: empty scalar literal ''")),
        ("+", (InputError, "f.json: malformed scalar literal '+'")),
        (LONG, _long_outcome()),
        (5, (InputError, "f.json: functional entry {'path': 'x', 'value': 5}: 5 is not a string")),
        (None, (InputError, "f.json: functional entry {'path': 'x', 'value': None}: None is not a string")),
    ],
    ids=lambda x: repr(x)[:12],
)
def test_value_literals_read_as_the_literal_parser_reads_them(text, want):
    """A value text in a functional file: its numerators, or the error class
    and text, whether the literal table reads it by `int` or by the grammar."""
    data = {"quiver": quiver_to_dict(QUIVERS["one_loop"]), "k": 1, "entries": [{"path": "x", "value": text}]}
    try:
        f = functional_from_dict(data, ".", SOURCE)
        got = f.value(f.double.path([(0, False)])).numerators()
    except InputError as e:
        got = type(e), str(e)
    assert got == want
    if isinstance(text, str):
        try:
            assert parse_literal(text) == want
        except InputError as e:
            assert (type(e), f"{SOURCE}: {e}") == want


def test_verdicts_and_evaluate_build_no_full_window_keys(tmp_path, monkeypatch):
    """A flat rank-3 state on two loops at k = 3: a 5461-path window whose
    verdicts read its 85-path V_k.  Loading it, its flatness, PSD and kernel
    Gröbner verdicts and one evaluation of its extension build the window's
    texts once, and keys, star words and `Path`s for V_k only: no key of the
    full window, no star text and no path text."""
    fpath = tmp_path / "f.json"
    state = state_functional(build_double(QUIVERS["two_loops"]), 3, True, [3], random.Random(11))
    fpath.write_text(json.dumps(fileio.functional_to_dict(state)), encoding="utf-8")
    # per builder call, the number of texts it built (None: unnamed)
    calls = {"layers": [], "keys": [], "star_word": 0, "str": 0}
    layers, keys, star_word, text = window_layers, window_keys, DoubleQuiver.star_word, Path.__str__

    def counted_layers(*args):
        out = layers(*args)
        calls["layers"].append(None if out[3] is None else len(out[3]))
        return out

    def counted_keys(double, order, max_len, *args):
        calls["keys"].append(max_len)
        return keys(double, order, max_len, *args)

    def counted(fn, name):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(moment, "window_layers", counted_layers)
    monkeypatch.setattr(moment, "window_keys", counted_keys)
    monkeypatch.setattr(DoubleQuiver, "star_word", counted(star_word, "star_word"))
    monkeypatch.setattr(Path, "__str__", counted(text, "str"))
    f = fileio.load_functional(fpath)
    assert calls == {"layers": [5461], "keys": [3], "star_word": 0, "str": 0}
    assert f.is_flat().flat and f.is_psd()
    assert kernel_groebner(f).elements
    p = f.double.path([(0, False), (1, True)] * 4)
    assert FlatExtension(f).evaluate(p) == FlatExtension(state).evaluate(p)
    assert calls["layers"] == [5461] and calls["keys"] == [3] and calls["str"] == 0
    assert "_window_keys" not in vars(f)
    assert len(f._paths) <= len(f._keys) == 85
