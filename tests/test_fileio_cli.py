import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path as FsPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoment import InputError, Quiver, Scalar, build_double, kernel_groebner
from quivermoment.cli import main
from quivermoment import cli, fileio, gns

from conftest import FIX_H4_TERMS, elem, path, pd_functional, sc, state_functional
import oracles
from oracles import digits

A2 = {
    "vertices": ["e1", "e2"],
    "arrows": [{"name": "x", "from": "e1", "to": "e2"}],
}
LOOP = {"vertices": ["e"], "arrows": [{"name": "x", "from": "e", "to": "e"}]}

FIX_L2_EXT_ENTRIES = [
    {"path": "x x*", "value": "1"},
    {"path": "x* x", "value": "1"},
    {"path": "x x* x x*", "value": "1"},
    {"path": "x* x x* x", "value": "1"},
    {"path": "x x* x x* x x*", "value": "1"},
    {"path": "x* x x* x x* x", "value": "1"},
]


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(l) for l in out.splitlines()] if out else []
    return code, lines


def functional_file(tmp_path, name="f.json", entries=FIX_L2_EXT_ENTRIES, k=3):
    return write(
        tmp_path,
        name,
        {"quiver": A2, "k": k, "include_trivial": False, "entries": entries},
    )


def test_path_grammar(fix_a2):
    assert str(fileio.parse_path(fix_a2, "x x* x")) == "x x* x"
    assert fileio.parse_path(fix_a2, "e:e1") == fix_a2.trivial("e1")
    with pytest.raises(InputError):
        fileio.parse_path(fix_a2, "x y")
    with pytest.raises(InputError):
        fileio.parse_path(fix_a2, "x x")  # not composable


@pytest.mark.parametrize(
    "text, message",
    [
        ("e:v", "error: --path: unknown vertex 'v'\n"),
        ("x x", "error: --path: non-composable path 'x x' at token 'x'\n"),
        ("x q", "error: --path: unknown arrow 'q' in path 'x q'\n"),
        ("  ", "error: --path: empty path text\n"),
    ],
)
def test_cli_evaluate_names_the_path_option_in_its_errors(tmp_path, capsys, text, message):
    # The path of `evaluate` comes from the command line, not from the file.
    assert main(["evaluate", "--functional", functional_file(tmp_path), "--path", text]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message)


def test_element_unit_token(fix_a2):
    e = fileio.element_from_dict(fix_a2, {"terms": [{"path": "1", "coeff": "2"}]})
    assert e == elem(fix_a2, ("e:e1", 2), ("e:e2", 2))


def test_functional_round_trip(tmp_path, fix_l2_ext):
    data = fileio.functional_to_dict(fix_l2_ext)
    f2 = fileio.functional_from_dict(data, tmp_path)
    assert f2.values == fix_l2_ext.values
    assert fileio.functional_to_dict(f2) == data


def test_functional_quiver_by_reference(tmp_path):
    qpath = write(tmp_path, "q.json", A2)
    fpath = write(
        tmp_path,
        "f.json",
        {"quiver": "q.json", "k": 2, "include_trivial": False,
         "entries": [{"path": "x x*", "value": "1"}]},
    )
    f = fileio.load_functional(fpath)
    assert f.value(fileio.parse_path(f.double, "x x*")) == sc(1)


def test_parse_error_names_file_and_position(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{\n  \"quiver\": ,\n}", encoding="utf-8")
    code = main(["moment", "flat", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert "broken.json:2" in err


def test_unknown_token_error(tmp_path, capsys):
    fpath = write(
        tmp_path,
        "f.json",
        {"quiver": A2, "k": 1, "include_trivial": False,
         "entries": [{"path": "x z", "value": "1"}]},
    )
    code = main(["moment", "psd", fpath])
    err = capsys.readouterr().err
    assert code == 2
    assert "'z'" in err and "f.json" in err


def _input_error(tmp_path, capsys, data) -> str:
    fpath = write(tmp_path, "bad.json", data)
    code = main(["moment", "flat", fpath])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert "bad.json" in captured.err
    return captured.err


def test_cli_order_not_an_integer_exit_2(tmp_path, capsys):
    err = _input_error(tmp_path, capsys, {"quiver": A2, "k": "two", "entries": []})
    assert "'two'" in err


def test_cli_value_not_a_string_exit_2(tmp_path, capsys):
    entries = [{"path": "x x*", "value": 1}]
    err = _input_error(tmp_path, capsys, {"quiver": A2, "k": 1, "entries": entries})
    assert "1 is not a string" in err


def test_cli_entries_not_a_list_exit_2(tmp_path, capsys):
    err = _input_error(tmp_path, capsys, {"quiver": A2, "k": 1, "entries": 5})
    assert "'entries'" in err and "5" in err


TERM_X = {"path": "x", "coeff": "1"}
SQUARES = {"quiver": LOOP, "target": {"terms": [TERM_X]}, "squares": [{"terms": [TERM_X]}]}
GRAM_CERT = {"quiver": LOOP, "target": {"terms": [TERM_X]}, "basis": ["x"], "gram": [["1"]]}
REP = {"quiver": LOOP, "basis": ["x"], "gram": [["1"]], "arrows": {}, "vertices": {}}


GENS = ["groebner", "--generators"]
FLAT = ["moment", "flat"]
SOS = ["sos", "verify"]
CHECK = ["gns", "check"]
QUIVER_FILE = "<quiver file>"  # replaced by a written copy of LOOP
ORDER = ["order-check", QUIVER_FILE, "--order-file"]


def gens(elements, quiver=LOOP):
    return {"quiver": quiver, "elements": elements}


@pytest.mark.parametrize(
    "command, data, token",
    [
        pytest.param(GENS, gens([{"terms": [{"path": 1, "coeff": "1"}]}]), "1", id="term_path_int"),
        pytest.param(GENS, gens([{"terms": [{"path": "x", "coeff": 2}]}]), "2", id="term_coeff_int"),
        pytest.param(
            SOS, {**SQUARES, "target": {"terms": [{"path": "x", "coeff": 3}]}}, "3", id="target_coeff_int"
        ),
        pytest.param(
            SOS, {**SQUARES, "squares": [{"terms": [{"path": ["x"], "coeff": "1"}]}]}, "['x']",
            id="square_path_list",
        ),
        pytest.param(SOS, {**GRAM_CERT, "basis": [7]}, "7", id="basis_entry_int"),
        pytest.param(SOS, {**GRAM_CERT, "gram": [[1]]}, "1", id="certificate_gram_int"),
        pytest.param(CHECK, {**REP, "gram": [[1]]}, "1", id="representation_gram_int"),
        pytest.param(GENS, gens(5), "'elements'", id="elements_not_list"),
        pytest.param(SOS, {**GRAM_CERT, "gram": "1"}, "'gram'", id="gram_not_list"),
        pytest.param(CHECK, {**REP, "basis": "x"}, "'basis'", id="basis_not_list"),
        pytest.param(SOS, {**SQUARES, "target": {"terms": {"x": "1"}}}, "'terms'", id="terms_not_list"),
        pytest.param(SOS, {**SQUARES, "squares": {"terms": []}}, "'squares'", id="squares_not_list"),
        pytest.param(GENS, gens([], {"vertices": "e", "arrows": []}), "'vertices'", id="vertices_not_list"),
        pytest.param(GENS, gens([], {"vertices": [1], "arrows": []}), "1", id="vertex_int"),
        pytest.param(GENS, [], "[]", id="file_not_object"),
        pytest.param(ORDER, {"vertices": 5}, "'vertices'", id="order_vertices_not_list"),
        pytest.param(ORDER, {"vertices": ["e", 5]}, "5", id="order_vertex_int"),
        pytest.param(ORDER, ["e"], "['e']", id="order_file_not_object"),
        pytest.param(ORDER, {"arrows": ["q"]}, "'q'", id="order_unknown_arrow"),
        pytest.param(
            FLAT,
            {"quiver": LOOP, "k": 1, "entries": [{"path": "x", "value": "1"}, {"path": "x*", "value": "2"}]},
            "hermitian conflict between x and x*",
            id="functional_hermitian_conflict",
        ),
        pytest.param(
            FLAT,
            {"quiver": LOOP, "k": 1, "entries": [{"path": "x x* x", "value": "1"}]},
            "path x x* x outside the length <= 2 window",
            id="functional_path_outside_window",
        ),
        pytest.param(
            FLAT, {"quiver": LOOP, "k": 1, "entries": [{"path": "e:nowhere", "value": "1"}]},
            "bad.json: unknown vertex 'nowhere'", id="functional_unknown_vertex",
        ),
        pytest.param(
            FLAT, {"quiver": LOOP, "k": 1, "include_trivial": "false", "entries": []},
            "'include_trivial' must be true or false, not 'false'", id="include_trivial_string",
        ),
        pytest.param(
            FLAT, {"quiver": LOOP, "k": 1, "include_trivial": 0, "entries": []},
            "'include_trivial' must be true or false, not 0", id="include_trivial_int",
        ),
        pytest.param(
            FLAT, {"quiver": LOOP, "k": 1, "include_trivial": None, "entries": []},
            "'include_trivial' must be true or false, not None", id="include_trivial_null",
        ),
        pytest.param(
            ["gns", "build"], {"quiver": LOOP, "groebner": [{"terms": [TERM_X]}], "include_trivial": "true"},
            "'include_trivial' must be true or false, not 'true'", id="groebner_input_include_trivial_string",
        ),
        pytest.param(
            FLAT, {"quiver": LOOP, "k": 1, "entries": [{"path": "x", "value": "1+i"}]},
            "malformed scalar literal '1+i'", id="functional_value_malformed",
        ),
        pytest.param(
            GENS, gens([{"terms": [{"path": "x", "coeff": "1+i"}]}]),
            "malformed scalar literal '1+i'", id="term_coeff_malformed",
        ),
        pytest.param(
            SOS, {**GRAM_CERT, "gram": [["1/0"]]}, "zero denominator in scalar literal '1/0'",
            id="certificate_gram_malformed",
        ),
        pytest.param(
            CHECK, {**REP, "gram": [["two"]]}, "malformed scalar literal 'two'", id="representation_gram_malformed",
        ),
        pytest.param(
            CHECK, {**REP, "cyclic": [" "]}, "empty scalar literal ' '", id="cyclic_malformed",
        ),
        pytest.param(
            SOS, {**SQUARES, "weights": ["1.5"]}, "malformed scalar literal '1.5'", id="weights_malformed",
        ),
    ],
)
def test_cli_malformed_loader_input_exit_2(tmp_path, capsys, command, data, token):
    fpath = write(tmp_path, "bad.json", data)
    quiver = write(tmp_path, "q.json", LOOP)
    code = main([quiver if arg == QUIVER_FILE else arg for arg in command] + [fpath])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "bad.json" in captured.err and token in captured.err


@pytest.mark.parametrize(
    "vertices, arrows, name",
    [
        (["v", "w"], [("a", "v", "w"), ("a*", "w", "w")], "'a*'"),
        (["v"], [("e:x", "v", "v")], "'e:x'"),
        (["v"], [("a b", "v", "v")], "'a b'"),
        (["v"], [("", "v", "v")], "''"),
        (["v"], [("a\tb", "v", "v")], "'a\\tb'"),
        (["v"], [("1", "v", "v")], "'1'"),
        (["v w"], [], "'v w'"),
        ([""], [], "''"),
        (["v", " "], [("a", "v", "v")], "' '"),
    ],
    ids=["star_suffix", "trivial_prefix", "space", "empty_arrow", "tab", "unit", "spaced_vertex",
         "empty_vertex", "blank_vertex"],
)
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "by_reference"])
def test_cli_quiver_names_that_do_not_read_back_exit_2(tmp_path, capsys, vertices, arrows, name, inline):
    """A name the path texts could not read back is refused, naming the file and the name."""
    quiver = {"vertices": vertices, "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows]}
    source = "f.json" if inline else write(tmp_path, "q.json", quiver)
    data = {"quiver": quiver if inline else "q.json", "k": 1, "include_trivial": False, "entries": []}
    code = main(["moment", "flat", write(tmp_path, "f.json", data)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {tmp_path / 'f.json' if inline else source}: ")
    assert f"name {name} must be one token" in captured.err


@pytest.mark.parametrize(
    "vertices, arrows, message",
    [
        (["v", "a"], [("a", "v", "v")], "vertex and arrow names must be unique and disjoint: 'a' repeats"),
        (["v"], [("a", "v", "w")], "arrow 'a' references undeclared vertex 'w'"),
    ],
    ids=["duplicate", "undeclared"],
)
def test_cli_quiver_graph_errors_keep_their_text(tmp_path, capsys, vertices, arrows, message):
    """The graph errors keep their text, now after the file that holds the
    quiver, and end with the name at fault."""
    quiver = {"vertices": vertices, "arrows": [{"name": n, "from": s, "to": t} for n, s, t in arrows]}
    for inline in (True, False):
        source = tmp_path / "f.json" if inline else write(tmp_path, "q.json", quiver)
        data = {"quiver": quiver if inline else "q.json", "k": 1, "include_trivial": False, "entries": []}
        code = main(["moment", "flat", write(tmp_path, "f.json", data)])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {source}: {message}\n")


def test_cli_scalar_literal_past_int_digit_limit_exit_2(tmp_path, capsys):
    digits = "1" * 5000  # Python refuses int() of more than 4300 digits by default
    f = functional_file(tmp_path, entries=[{"path": "x x*", "value": digits}], k=1)
    code = main(["moment", "psd", f])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "5000 characters" in captured.err
    assert digits[:100] not in captured.err


def test_cli_output_into_missing_directory_exit_2(tmp_path, capsys):
    out = str(tmp_path / "missing" / "rep.json")
    code = main(["gns", "build", functional_file(tmp_path), "-o", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and out in captured.err


def test_cli_unexpected_error_exit_3_one_line(tmp_path, capsys, monkeypatch):
    def boom(path):
        raise RuntimeError("unexpected\nfailure")

    monkeypatch.setattr(fileio, "load_functional", boom)
    code = main(["moment", "flat", functional_file(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "internal error: RuntimeError: unexpected failure\n"


def test_cli_moment_flat(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    code, out = run(capsys, "moment", "flat", fpath)
    assert code == 0
    assert out[-1] == {
        "flat": True,
        "rank_k": 4,
        "rank_km1": 4,
        "range_contained": True,
        "window": "nontrivial",
    }


def test_committed_gaussian_fixture_is_flat_and_psd(tmp_path, capsys):
    # CI runs `moment flat`, `moment psd` and `gns build` on this file
    # without site-packages; its values are not all real.
    fpath = str(FsPath(__file__).parent / "fixtures" / "fix_gauss_loop.json")
    f = fileio.load_functional(fpath)
    assert any(v.im for v in f.values.values())
    assert f.is_flat() == oracles.flat_report(f) and f.is_flat().flat
    assert f.is_psd() and oracles.is_psd(f)
    for command in (["moment", "flat"], ["moment", "psd"], ["gns", "build", "-o", str(tmp_path / "rep.json")]):
        assert main([*command, fpath]) == 0
    assert capsys.readouterr().err == ""


def test_committed_fixture_is_the_flat_extension(fix_l2_ext):
    # CI runs `moment flat` on this file without site-packages.
    f = fileio.load_functional(FsPath(__file__).parent / "fixtures" / "fix_l2_ext.json")
    assert f.values == fix_l2_ext.values and f.k == fix_l2_ext.k
    assert f.include_trivial is False


def test_cli_moment_flat_false_exit_1(tmp_path, capsys):
    entries = [dict(e) for e in FIX_L2_EXT_ENTRIES]
    entries[-2]["value"] = "2"  # bump a9
    fpath = functional_file(tmp_path, entries=entries)
    code, out = run(capsys, "moment", "flat", fpath)
    assert code == 1
    assert out[-1]["flat"] is False


def test_cli_moment_rank_psd_tipmax(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    assert run(capsys, "moment", "rank", fpath) == (0, [{"rank": 4, "order": 3}])
    code, out = run(capsys, "moment", "psd", fpath)
    assert code == 0 and out[-1] == {"psd": True}
    code, out = run(capsys, "moment", "tipmax", fpath)
    assert code == 0 and out[-1] == {"tip_maximal": True}


def test_cli_kernel(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    code, out = run(capsys, "kernel", fpath)
    assert code == 0
    elems = out[-1]["elements"]
    assert elems == [
        {"terms": [{"path": "x", "coeff": "-1"}, {"path": "x x* x", "coeff": "1"}]},
        {"terms": [{"path": "x*", "coeff": "-1"}, {"path": "x* x x*", "coeff": "1"}]},
    ]


def test_cli_groebner_with_trace(tmp_path, capsys):
    gens = {
        "quiver": LOOP,
        "elements": [
            {"terms": [{"path": t, "coeff": str(c)} for t, c in terms]}
            for terms in FIX_H4_TERMS
        ],
    }
    gpath = write(tmp_path, "h4.json", gens)
    code, out = run(capsys, "groebner", "--generators", gpath, "--trace")
    assert code == 0
    trace_lines = out[:-1]
    assert trace_lines == [
        {"target": "x* x* x* x", "by": "x* x* x*", "cofactor": "x"},
        {"target": "x* x* x* x*", "by": "x* x* x*", "cofactor": "x*"},
    ]
    assert len(out[-1]["elements"]) == 15


def test_cli_extend_and_evaluate(tmp_path, capsys):
    entries = [
        {"path": "x x*", "value": "1"},
        {"path": "x* x", "value": "1"},
        {"path": "x x* x x*", "value": "1"},
        {"path": "x* x x* x", "value": "1"},
    ]
    fpath = functional_file(tmp_path, name="l2.json", entries=entries, k=2)
    outpath = str(tmp_path / "ext.json")
    code, out = run(
        capsys, "extend", fpath, "--tip-maximal", "--general-quiver", "-o", outpath
    )
    assert code == 0 and out[-1] == {"written": outpath}
    ext = fileio.load_functional(outpath)
    assert ext.k == 3
    assert ext.value(fileio.parse_path(ext.double, "x x* x x* x x*")) == sc(1)

    code, out = run(capsys, "evaluate", "--functional", outpath, "--path", "x x* x x* x x* x x*")
    assert code == 0
    assert out[-1] == {"path": "x x* x x* x x* x x*", "value": "1"}


@pytest.mark.parametrize("length", [1200, 5000, 10000])
def test_cli_evaluate_long_path(tmp_path, capsys, length):
    # Rank-1 state on one loop: x acts as the scalar 3/2, so L(w) = (3/2)^len(w).
    # At 10000 letters the numerator has 4772 digits, past Python's limit
    # for int-to-string conversion, so the expected text comes from an
    # oracle that does not call int.__str__.
    a = Fraction(3, 2)
    entries = [
        {"path": " ".join(w), "value": str(a ** n)}
        for n in range(1, 5)
        for w in itertools.product(["x", "x*"], repeat=n)
    ]
    data = {"quiver": LOOP, "k": 2, "include_trivial": False, "entries": entries}
    fpath = write(tmp_path, "rank1.json", data)
    text = " ".join(["x", "x*"] * (length // 2))
    code, out = run(capsys, "evaluate", "--functional", fpath, "--path", text)
    assert code == 0
    value = a ** length
    assert out[-1] == {"path": text, "value": f"{digits(value.numerator)}/{digits(value.denominator)}"}


def test_cli_window_past_the_limit_exits_2(tmp_path, capsys):
    # k = 40 on two loops: 4^80 paths of length 80, refused before any is built.
    two_loops = {
        "vertices": ["e"],
        "arrows": [{"name": "x", "from": "e", "to": "e"}, {"name": "y", "from": "e", "to": "e"}],
    }
    fpath = write(tmp_path, "f.json", {"quiver": two_loops, "k": 40, "entries": []})
    code = main(["moment", "flat", fpath])
    assert code == 2
    err = capsys.readouterr().err
    assert "more than 1000000 paths" in err and "f.json" in err


def test_cli_arrowless_window_of_any_order(tmp_path, capsys):
    # Without arrows the window is the trivial paths, whatever k is.
    quiver = {"vertices": ["v", "w"], "arrows": []}
    entries = [{"path": "e:v", "value": "2"}]
    fpath = write(tmp_path, "f.json", {"quiver": quiver, "k": 10**9, "entries": entries})
    code, out = run(capsys, "moment", "flat", fpath)
    assert code == 0
    assert out == [{"flat": True, "rank_k": 1, "rank_km1": 1, "range_contained": True, "window": "trivial"}]


def test_cli_extend_without_flag_is_input_error(tmp_path, capsys):
    entries = [{"path": "x x*", "value": "1"}, {"path": "x* x", "value": "1"},
               {"path": "x x* x x*", "value": "1"}, {"path": "x* x x* x", "value": "1"}]
    fpath = functional_file(tmp_path, name="l2.json", entries=entries, k=2)
    code = main(["extend", fpath, "--tip-maximal"])
    assert code == 2


def test_cli_gns_build_check_kernel(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    rpath = str(tmp_path / "rep.json")
    code, out = run(capsys, "gns", "build", fpath, "-o", rpath)
    assert code == 0
    rep = fileio.load_representation(rpath)
    assert rep.dim == 4

    code, out = run(capsys, "gns", "check", rpath)
    assert code == 0 and out[-1]["passed"] is True

    code, out = run(capsys, "gns", "kernel", rpath, "--degree", "3")
    assert code == 0
    kern = out[-1]["elements"]
    assert {"terms": [{"path": "x", "coeff": "-1"}, {"path": "x x* x", "coeff": "1"}]} in kern


def test_cli_gns_build_from_groebner(tmp_path, capsys):
    gb_elements = [
        {"terms": [{"path": t, "coeff": str(c)} for t, c in FIX_H4_TERMS[i]]}
        for i in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16]
    ]
    data = {
        "quiver": LOOP,
        "groebner": gb_elements,
        "gram": [["1" if i == j else "0" for j in range(13)] for i in range(13)],
    }
    ipath = write(tmp_path, "gb.json", data)
    rpath = str(tmp_path / "rep13.json")
    code, out = run(capsys, "gns", "build", ipath, "-o", rpath)
    assert code == 0
    rep = fileio.load_representation(rpath)
    assert rep.dim == 13

    # The identity gram is not adjoint-compatible with the printed kernel.
    code, out = run(capsys, "gns", "check", rpath)
    assert code == 1
    assert any("adjointness" in f for f in out[-1]["failures"])


def test_cli_gns_compress(tmp_path, capsys):
    fpath = write(
        tmp_path,
        "u.json",
        {"quiver": A2, "k": 2, "include_trivial": True,
         "entries": [{"path": "e:e1", "value": "1"}]},
    )
    rpath = str(tmp_path / "tau.json")
    code, out = run(capsys, "gns", "compress", fpath, "-o", rpath)
    assert code == 0
    rep = fileio.load_representation(rpath)
    assert rep.dim == 1 and rep.cyclic is not None


def test_cli_sos_verify(tmp_path, capsys):
    good = {
        "quiver": LOOP,
        "target": {"terms": [{"path": "x x*", "coeff": "1"}, {"path": "x* x", "coeff": "1"}]},
        "squares": [
            {"terms": [{"path": "x", "coeff": "1"}]},
            {"terms": [{"path": "x*", "coeff": "1"}]},
        ],
    }
    gpath = write(tmp_path, "cert.json", good)
    code, out = run(capsys, "sos", "verify", gpath)
    assert code == 0 and out[-1]["valid"] is True

    bad = dict(good)
    bad["target"] = {"terms": [{"path": "x x*", "coeff": "1"}, {"path": "x* x", "coeff": "-1"}]}
    bpath = write(tmp_path, "bad.json", bad)
    code, out = run(capsys, "sos", "verify", bpath)
    assert code == 1 and out[-1]["valid"] is False

    gram_cert = {
        "quiver": LOOP,
        "target": {"terms": [{"path": "x x*", "coeff": "1"}, {"path": "x* x", "coeff": "1"}]},
        "basis": ["x", "x*"],
        "gram": [["1", "0"], ["0", "1"]],
    }
    cpath = write(tmp_path, "gram.json", gram_cert)
    code, out = run(capsys, "sos", "verify", cpath)
    assert code == 0 and out[-1]["valid"] is True and out[-1]["squares"]


def test_cli_order_check(tmp_path, capsys):
    qpath = write(tmp_path, "q.json", A2)
    code, out = run(capsys, "order-check", qpath, "--samples", "500", "--max-len", "3")
    assert code == 0
    assert not any(out[-1]["violations"].values())


@pytest.mark.parametrize("samples", ["-5", "-1"])
def test_cli_order_check_refuses_negative_samples(tmp_path, capsys, samples):
    qpath = write(tmp_path, "q.json", A2)
    assert main(["order-check", qpath, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --samples must be a non-negative integer, not {samples}\n"


def test_cli_order_file_override(tmp_path, capsys):
    # Reversing the letter order flips which basis element carries which tip.
    opath = write(tmp_path, "order.json", {"vertices": ["e"], "arrows": ["x*", "x"]})
    gens = {
        "quiver": LOOP,
        "elements": [{"terms": [{"path": "x", "coeff": "1"}, {"path": "x*", "coeff": "2"}]}],
    }
    gpath = write(tmp_path, "gens.json", gens)
    code, out = run(capsys, "groebner", "--generators", gpath)
    assert code == 0
    assert out[-1]["elements"][0]["terms"][-1] == {"path": "x*", "coeff": "1"}
    code, out = run(capsys, "groebner", "--generators", gpath, "--order-file", opath)
    assert code == 0
    terms = out[-1]["elements"][0]["terms"]
    coeffs = {t["path"]: t["coeff"] for t in terms}
    assert coeffs == {"x": "1", "x*": "2"}  # monic at the new largest path x


def test_cli_representation_round_trip(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    rpath = str(tmp_path / "rep.json")
    assert main(["gns", "build", fpath, "-o", rpath]) == 0
    capsys.readouterr()
    rep = fileio.load_representation(rpath)
    dumped = fileio.representation_to_dict(rep)
    assert dumped == json.loads((tmp_path / "rep.json").read_text())


def _literal_texts(value) -> set[str]:
    """Every string in a JSON value that the scalar grammar reads."""
    if isinstance(value, dict):
        return set().union(*map(_literal_texts, value.values()))
    if isinstance(value, list):
        return set().union(*map(_literal_texts, value))
    try:
        Scalar.parse(value)
    except InputError:
        return set()
    return {value}


def test_representation_and_certificate_loads_parse_each_literal_text_once(tmp_path, capsys, monkeypatch):
    fpath = functional_file(tmp_path)
    rpath = str(tmp_path / "rep.json")
    assert main(["gns", "build", fpath, "-o", rpath]) == 0
    capsys.readouterr()
    rep = json.loads((tmp_path / "rep.json").read_text())
    cert = {"quiver": LOOP, "target": {"terms": [{"path": "x x*", "coeff": "2"}, {"path": "x* x", "coeff": "2"}]},
            "squares": [{"terms": [TERM_X]}, {"terms": [{"path": "x*", "coeff": "1"}]}], "weights": ["2", "1"]}
    gram_target = {"terms": [{"path": "x x*", "coeff": "2"}, {"path": "x* x", "coeff": "1/2"}]}
    gram_cert = {"quiver": LOOP, "target": gram_target, "basis": ["x", "x*"], "gram": [["2", "1/2"], ["1/2", "-1+2i"]]}
    # the quiver's names and the basis are no literals; every value text is one
    cases = [
        (load, data, _literal_texts({k: v for k, v in data.items() if k not in ("quiver", "basis")}))
        for load, data in [(fileio.representation_from_dict, rep), (fileio.certificate_from_dict, cert),
                           (fileio.certificate_from_dict, gram_cert)]
    ]
    # a literal is read by `_Literals` when first looked up: as a `Scalar`
    # (`Scalar.parse`) or as numerators (`parse_literal`, or `int` alone)
    calls = []
    missing = fileio._Literals.__missing__
    monkeypatch.setattr(fileio._Literals, "__missing__", lambda self, text: calls.append(text) or missing(self, text))
    for load, data, texts in cases:
        calls.clear()
        load(data, tmp_path, "f.json")
        assert sorted(calls) == sorted(texts)  # each distinct text parsed once


def test_cli_groebner_from_kernel_golden(tmp_path, capsys):
    # The flat order-4 extension of the second worked example: 17 kernel
    # elements, whose completion records the two printed reductions.  The
    # expected file was written by the completion route of the kernel basis.
    fixtures = FsPath(__file__).parent / "fixtures"
    opath = tmp_path / "gb.json"
    assert main(["groebner", "--from-kernel", str(fixtures / "example2_l4.json"), "-o", str(opath)]) == 0
    capsys.readouterr()
    expected = (fixtures / "example2_l4_groebner.json").read_text(encoding="utf-8")
    assert opath.read_text(encoding="utf-8") == expected
    assert len(json.loads(expected)["reductions"]) == 2


def test_psd_pipeline_reproduces_the_committed_outputs(tmp_path, capsys):
    # CI runs this pipeline without site-packages.  A real singular order-2
    # state on a three-vertex chain and a Gaussian positive-definite one on
    # a loop: compression, relation check, kernel and Gram certificate, then
    # a certificate with one target coefficient raised by one (exit 1).  The
    # expected files were written by the `Scalar` matrix route.
    fixtures = FsPath(__file__).parent / "fixtures"
    stdout = []
    for name in ("fix_psd_chain", "fix_gauss_pd_loop"):
        rpath = tmp_path / f"{name}_rep.json"
        assert main(["gns", "compress", str(fixtures / f"{name}.json"), "-o", str(rpath)]) == 0
        capsys.readouterr()
        assert rpath.read_bytes() == (fixtures / f"{name}_compressed.json").read_bytes()
        for argv in (["gns", "check", str(rpath)], ["gns", "kernel", str(rpath), "--degree", "2"]):
            assert main(argv) == 0
            stdout.append(capsys.readouterr().out)
        assert main(["sos", "verify", str(fixtures / f"{name}_certificate.json")]) == 0
        stdout.append(capsys.readouterr().out)
    assert main(["sos", "verify", str(fixtures / "fix_gauss_pd_loop_tampered.json")]) == 1
    stdout.append(capsys.readouterr().out)
    assert "".join(stdout) == (fixtures / "psd_pipeline_stdout.txt").read_text(encoding="utf-8")


def test_squares_certificates_reproduce_the_committed_outputs(capsys, monkeypatch):
    # CI replays these calls without site-packages, with the same relative
    # input paths, which the refusals name.  A weighted squares certificate
    # on two vertices (Gaussian coefficients, a repeated path and a "1"
    # term), a copy with one target coefficient raised by one (exit 1), and
    # refusals (exit 2) of an over-degree square with a negative weight,
    # misaligned weights with a negative one, a malformed weight literal with
    # an over-degree square, and a non-real weight with a false target.  The
    # expected files were written by the `Element` route.
    root = FsPath(__file__).parent.parent
    fixtures = root / "tests" / "fixtures"
    monkeypatch.chdir(root)
    stdout, stderr = [], []
    for name in ("fix_squares_certificate", "fix_squares_tampered"):
        code = main(["sos", "verify", f"tests/fixtures/{name}.json"])
        stdout.append(f"{capsys.readouterr().out}sos verify {name} exit code: {code}\n")
    for name in ("degree", "align", "literal", "weight"):
        assert main(["sos", "verify", f"tests/fixtures/fix_squares_refuse_{name}.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stderr.append(captured.err)
    assert "".join(stdout) == (fixtures / "squares_stdout.txt").read_text(encoding="utf-8")
    assert "".join(stderr) == (fixtures / "squares_refusals_stderr.txt").read_text(encoding="utf-8")


def test_groebner_build_and_rep_kernel_reproduce_the_committed_outputs(capsys, monkeypatch):
    # CI replays these without site-packages, with the same relative input
    # paths, which the refusals name: `gns build` from a Gröbner basis file
    # with the moment gram of its quotient, the same file with a gram that
    # is not hermitian (its upper triangle unchanged) and with one that is
    # hermitian but not PSD, and `gns kernel` of a compression at degree 12.
    # The expected files were written by the `Scalar` matrix route, the
    # refusals before they named the file.
    root = FsPath(__file__).parent.parent
    fixtures = root / "tests" / "fixtures"
    monkeypatch.chdir(root)
    assert main(["gns", "build", str(fixtures / "fix_groebner_gram.json")]) == 0
    assert capsys.readouterr().out == (fixtures / "groebner_build_stdout.txt").read_text(encoding="utf-8")
    stderr = []
    for name in ("nonhermitian", "nonpsd"):
        assert main(["gns", "build", f"tests/fixtures/fix_groebner_gram_{name}.json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        stderr.append(captured.err)
    assert "".join(stderr) == (fixtures / "groebner_refusals_stderr.txt").read_text(encoding="utf-8")
    argv = ["gns", "kernel", str(fixtures / "fix_psd_chain_compressed.json"), "--degree", "12"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (fixtures / "rep_kernel_stdout.txt").read_text(encoding="utf-8")


def test_gns_build_refuses_a_quotient_that_escapes_the_window(tmp_path, capsys):
    # One loop with the basis {x* + 2 e:e}: its tip x* has length 1, so the
    # window is the trivial path, but x is irreducible, so the arrow x takes
    # the coset of e:e out of the coset basis.
    data = {"quiver": LOOP, "groebner": [{"terms": [{"path": "x*", "coeff": "1"}, {"path": "e:e", "coeff": "2"}]}],
            "gram": [["1"]], "include_trivial": True}
    fpath = write(tmp_path, "gb.json", data)
    assert main(["gns", "build", fpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {fpath}: quotient is not finite-dimensional over the window"
        " (irreducible path x escapes the coset basis)\n"
    )


def test_cli_groebner_from_kernel_refuses_a_kernel_element_left_over(tmp_path, capsys, monkeypatch):
    # The one reduction pass must take every kernel element that is not kept
    # to zero; a remainder is an internal fault, exit 3, with no output.
    from quivermoment import groebner

    reduce = groebner._reduce

    def leftover(terms, den, *args):
        reduce(terms, den, *args)
        return dict(terms), den

    monkeypatch.setattr(groebner, "_reduce", leftover)
    fixture = FsPath(__file__).parent / "fixtures" / "example2_l4.json"  # 19 kernel elements, 15 kept
    assert main(["groebner", "--from-kernel", str(fixture)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant failure: kernel element ")
    assert captured.err.endswith(" is not in the right ideal of the minimal-tip elements\n")


def test_cli_groebner_output_round_trip(tmp_path, capsys):
    fpath = functional_file(tmp_path)
    opath = str(tmp_path / "gb.json")
    assert main(["groebner", "--from-kernel", fpath, "-o", opath]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "gb.json").read_text())
    double, elems = fileio.generators_from_dict(data, tmp_path)
    assert len(elems) == 2


def test_gaussian_extended_state_reproduces_the_committed_stdout(capsys):
    # CI runs these calls without site-packages.  The one-step extension of
    # a Gaussian PD state holds Gaussian rationals over mixed denominators:
    # the loader brings them to one denominator.  The expected file was
    # written when values were read as `Scalar`s.
    fixtures = FsPath(__file__).parent / "fixtures"
    fpath = str(fixtures / "fix_gauss_pd_loop_extended.json")
    stdout = []
    for argv in (["moment", "flat", fpath], ["moment", "psd", fpath], ["moment", "rank", fpath],
                 ["gns", "build", fpath], ["evaluate", "--functional", fpath, "--path", "x* x x"],
                 ["evaluate", "--functional", fpath, "--path", "x x* x x x* x* x x"]):
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
    assert "".join(stdout) == (fixtures / "gauss_extended_stdout.txt").read_text(encoding="utf-8")


def test_long_evaluate_reproduces_the_committed_stdout(capsys):
    # CI runs these calls without site-packages: seeded words of 600 and
    # 1500 letters (`long_words.py`) on a real extension (A2) and a Gaussian
    # one (one loop).  The expected file was written when every fold step
    # re-keyed nested tuples and divided out one gcd.
    from long_words import long_word

    fixtures = FsPath(__file__).parent / "fixtures"
    stdout = []
    for name in ("fix_l2_ext_extended", "fix_gauss_pd_loop_extended"):
        fpath = fixtures / f"{name}.json"
        quiver = json.loads(fpath.read_text(encoding="utf-8"))["quiver"]
        for length, seed in ((600, 1), (1500, 2)):
            word = long_word(quiver, length, seed)
            assert main(["evaluate", "--functional", str(fpath), "--path", word]) == 0
            stdout.append(capsys.readouterr().out)
    assert "".join(stdout) == (fixtures / "long_evaluate_stdout.txt").read_text(encoding="utf-8")


def test_kernel_routes_reproduce_the_committed_stdout(capsys):
    # CI runs these calls without site-packages.  The kernel, tip-maximality,
    # rank and Gröbner reductions read one echelon form of B_{L_k}; the
    # expected file was written when the kernel and the block test were two
    # eliminations and `groebner` ran the completion.  fix_gauss_pd_loop is
    # not flat: its `groebner` exits 2 and prints nothing.
    fixtures = FsPath(__file__).parent / "fixtures"
    stdout = []
    for name, tipmax, groebner in [("example2_l4", 1, 0), ("fix_l2_ext", 0, 0), ("fix_gauss_loop", 1, 0),
                                   ("fix_gauss_pd_loop_extended", 0, 0), ("fix_psd_chain", 1, 0),
                                   ("fix_gauss_pd_loop", 0, 2)]:
        fpath = str(fixtures / f"{name}.json")
        for argv, code in ((["kernel", fpath], 0), (["moment", "tipmax", fpath], tipmax),
                           (["moment", "rank", fpath], 0), (["groebner", "--trace", "--from-kernel", fpath], groebner)):
            assert main(argv) == code
            stdout.append(capsys.readouterr().out)
    assert "".join(stdout) == (fixtures / "kernel_routes_stdout.txt").read_text(encoding="utf-8")


def test_completion_reproduces_the_committed_trace(capsys):
    # CI replays this call without site-packages.  The kernel of the
    # two-vertex fixture, read as generators (`kernel -o` wrote the file),
    # completes in 322 reductions; the expected file, trace lines and basis,
    # was written when the completion re-sorted the support at every step.
    fixtures = FsPath(__file__).parent / "fixtures"
    argv = ["groebner", "--generators", str(fixtures / "fix_two_vertex_generators.json"), "--trace"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 323
    assert out == (fixtures / "completion_trace_stdout.txt").read_text(encoding="utf-8")


def test_nonpsd_routes_reproduce_the_committed_stdout(capsys):
    # CI runs these calls without site-packages.  The functionals are not
    # PSD, so their verdicts and kernels come from the echelon form: an
    # indefinite one with a two-element kernel whose C block leaves Ran A,
    # and the two refuted at a pivot.  The expected file, exit codes
    # included, was written when every functional took the echelon route.
    fixtures = FsPath(__file__).parent / "fixtures"
    stdout = []
    for name in ("fix_indefinite_loop", "fix_nonpsd_loop", "fix_gauss_nonpsd_loop"):
        for cmd in ("kernel", "moment flat", "moment rank", "moment tipmax", "groebner --from-kernel"):
            code = main([*cmd.split(), str(fixtures / f"{name}.json")])
            stdout.append(f"{capsys.readouterr().out}{cmd} {name} exit code: {code}\n")
    assert "".join(stdout) == (fixtures / "nonpsd_routes_stdout.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("degree", ["2", [2], 2.5, True, -1, {"d": 2}], ids=repr)
def test_certificate_degree_must_be_a_non_negative_integer(degree, tmp_path, capsys):
    fixtures = FsPath(__file__).parent / "fixtures"
    cert = json.loads((fixtures / "fix_psd_chain_certificate.json").read_text(encoding="utf-8"))
    cpath = write(tmp_path, "cert.json", {**cert, "degree": degree})
    assert main(["sos", "verify", cpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cpath}: 'degree' must be a non-negative integer or null, not {degree!r}\n"


@pytest.mark.parametrize("degree", [None, 2, "absent"])
def test_certificate_degree_may_be_absent_or_null(degree, tmp_path, capsys):
    fixtures = FsPath(__file__).parent / "fixtures"
    cert = json.loads((fixtures / "fix_psd_chain_certificate.json").read_text(encoding="utf-8"))
    cert.pop("degree")
    if degree != "absent":
        cert["degree"] = degree
    assert main(["sos", "verify", write(tmp_path, "cert.json", cert)]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True


def _chain_certificate(**changes):
    fixtures = FsPath(__file__).parent / "fixtures"
    cert = json.loads((fixtures / "fix_psd_chain_certificate.json").read_text(encoding="utf-8"))
    return {**cert, **changes}


@pytest.mark.parametrize(
    "cert, message",
    [
        pytest.param(_chain_certificate(degree=1), "basis path x x* exceeds the degree bound 1", id="degree_bound"),
        pytest.param(
            _chain_certificate(gram=_chain_certificate()["gram"][:12]), "'gram' is not 13x13", id="gram_12x13"
        ),
        pytest.param(_chain_certificate(basis=[], gram=[]), "empty certificate basis", id="empty_basis"),
        pytest.param({**SQUARES, "degree": 0}, "square of degree 1 exceeds the bound 0", id="square_degree"),
    ],
)
def test_sos_verify_refusals_name_the_file(cert, message, tmp_path, capsys):
    cpath = write(tmp_path, "cert.json", cert)
    assert main(["sos", "verify", cpath]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cpath}: {message}\n"


@pytest.mark.parametrize("gram", [[], [["1"]], [["1", "0", "0", "0"]] * 3], ids=["0x0", "1x1", "3x4"])
def test_representation_gram_must_be_n_by_n(gram, tmp_path, capsys):
    fixtures = FsPath(__file__).parent / "fixtures"
    rep = json.loads((fixtures / "fix_psd_chain_compressed.json").read_text(encoding="utf-8"))
    rpath = write(tmp_path, "rep.json", {**rep, "gram": gram})
    assert main(["gns", "check", rpath]) == 2
    assert capsys.readouterr().err == f"error: {rpath}: 'gram' is not 4x4\n"


@pytest.mark.parametrize("entries", [3, 5])
def test_representation_cyclic_must_have_one_entry_per_basis_path(entries, tmp_path, capsys):
    fixtures = FsPath(__file__).parent / "fixtures"
    rep = json.loads((fixtures / "fix_psd_chain_compressed.json").read_text(encoding="utf-8"))
    cyclic = (rep["cyclic"] + ["1"])[:entries]
    rpath = write(tmp_path, "rep.json", {**rep, "cyclic": cyclic})
    assert main(["gns", "check", rpath]) == 2
    assert capsys.readouterr() == ("", f"error: {rpath}: 'cyclic' has {entries} entries, not 4\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gns", "compress", "fix_nonpsd_loop.json"], "compress_representation requires a PSD functional"),
        (["gns", "build", "fix_pd_two_loops.json"], "build_representation requires a flat functional"),
        (["groebner", "--from-kernel", "fix_pd_two_loops.json"], "kernel_groebner requires a flat functional"),
        (
            ["extend", "fix_indefinite_loop.json", "--tip-maximal"],
            "flat_extend_tip_maximal requires a tip-maximal functional",
        ),
        (
            ["evaluate", "--functional", "fix_pd_two_loops.json", "--path", "x"],
            "FlatExtension requires a flat base functional",
        ),
    ],
    ids=["gns_compress", "gns_build", "groebner", "extend", "evaluate"],
)
def test_library_refusals_name_the_functional_file(argv, message, capsys):
    # The library's message is unchanged; the command prefixes its input file.
    fixtures = FsPath(__file__).parent / "fixtures"
    argv = [str(fixtures / a) if a.endswith(".json") else a for a in argv]
    source = next(a for a in argv if a.endswith(".json"))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {source}: {message}\n")


@pytest.mark.parametrize("degree", [0, -3])
def test_gns_kernel_names_a_degree_below_one(degree, capsys):
    fixtures = FsPath(__file__).parent / "fixtures"
    argv = ["gns", "kernel", str(fixtures / "fix_psd_chain_compressed.json"), "--degree", str(degree)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --degree must be >= 1, not {degree}\n")


def test_pd_two_loops_compression_reproduces_the_committed_output(tmp_path, capsys):
    # CI replays this without site-packages: a full-rank state on two loops,
    # k = 2, two arrows and a 21x21 gram.  The expected file was written by
    # the Gauss-Jordan solves the pivot substitution replaced.
    fixtures = FsPath(__file__).parent / "fixtures"
    rpath = tmp_path / "rep.json"
    assert main(["gns", "compress", str(fixtures / "fix_pd_two_loops.json"), "-o", str(rpath)]) == 0
    capsys.readouterr()
    assert rpath.read_bytes() == (fixtures / "fix_pd_two_loops_compressed.json").read_bytes()
    assert len(json.loads(rpath.read_text(encoding="utf-8"))["basis"]) == 21
    assert main(["gns", "check", str(rpath)]) == 0
    assert json.loads(capsys.readouterr().out) == {"passed": True, "failures": [], "checks": 15}


@pytest.mark.parametrize(
    "fixture, command, at, row, message",
    [
        ("fix_pd_two_loops_compressed.json", ["gns", "check"], ("arrows", "x"), 3, "'x' row 3 has 20 entries, not 21"),
        ("fix_pd_two_loops_compressed.json", ["gns", "kernel", "--degree", "1"], ("vertices", "e"), 20,
         "'e' row 20 has 20 entries, not 21"),
        ("fix_pd_two_loops_compressed.json", ["gns", "check"], ("gram",), 1, "'gram' row 1 has 20 entries, not 21"),
        ("fix_pd_two_loops_certificate.json", ["sos", "verify"], ("gram",), 7, "'gram' row 7 has 20 entries, not 21"),
        ("fix_groebner_gram.json", ["gns", "build"], ("gram",), 1, None),
    ],
)
def test_ragged_matrix_rows_name_the_matrix_and_the_row(tmp_path, capsys, fixture, command, at, row, message):
    # One short row, the first row's width expected (rows counted from 0).
    data = json.loads((FsPath(__file__).parent / "fixtures" / fixture).read_text(encoding="utf-8"))
    rows = data
    for key in at:
        rows = rows[key]
    width = len(rows[0])
    if message is None:
        message = f"'gram' row {row} has {width - 1} entries, not {width}"
    rows[row].pop()
    fpath = tmp_path / "in.json"
    fpath.write_text(json.dumps(data), encoding="utf-8")
    assert main(command + [str(fpath)]) == 2
    assert capsys.readouterr().err == f"error: {fpath}: {message}\n"


def test_matrix_rows_without_entries_read_as_matrices_without_columns():
    from quivermoment.linalg import Matrix

    assert fileio.matrix_from_rows([]) == Matrix(0, 0, [])
    for n in (1, 3):
        m = fileio.matrix_from_rows([[] for _ in range(n)])
        assert (m.rows, m.cols, m.entries) == (n, 0, ())
        assert m == Matrix(n, 0, []) and fileio.matrix_to_rows(m) == [[] for _ in range(n)]


@pytest.mark.parametrize("name", ["fix_nonpsd_loop", "fix_gauss_nonpsd_loop", "fix_pd_two_loops"])
def test_extensions_reproduce_the_committed_outputs(name, tmp_path, capsys):
    # CI replays these without site-packages.  Two tip-maximal bases that are
    # not PSD, real and Gaussian, and a full-rank state on two loops (k = 2,
    # an 85-path extension), whose output is pinned by its sha256.  The
    # expected outputs were written when a second elimination of [A | C] and
    # a pivoting of the whole extension followed the odd-degree solve.
    fixtures = FsPath(__file__).parent / "fixtures"
    opath = tmp_path / "ext.json"
    assert main(["extend", str(fixtures / f"{name}.json"), "--tip-maximal", "-o", str(opath)]) == 0
    assert json.loads(capsys.readouterr().out) == {"written": str(opath)}
    pinned = fixtures / f"{name}_extended.json"
    if pinned.exists():
        assert opath.read_bytes() == pinned.read_bytes()
    else:
        digest = (fixtures / f"{name}_extended.sha256").read_text(encoding="utf-8").split()[0]
        assert hashlib.sha256(opath.read_bytes()).hexdigest() == digest


JSON_LEAVES = (
    st.text(st.characters(codec="utf-8"), max_size=6)
    | st.integers(-(10**30), 10**30)
    | st.none()
    | st.booleans()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_output_files_are_written_as_json_dumps_with_indent_2(value):
    # Nested lists and dicts, empty ones too, and every leaf a file can hold:
    # strings with control and non-ASCII characters, integers, null, booleans.
    assert fileio.dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("gaussian", [False, True])
def test_each_writer_writes_the_bytes_of_json_dumps_with_indent_2(gaussian, tmp_path, capsys):
    # The writers' own shapes on a quiver with a non-ASCII vertex name: a
    # functional, its kernel, its Gröbner basis with reductions, its
    # compression with `"cyclic": null` beside it, the kernel of a
    # representation at degree 2 and one with no elements, and the
    # representation of a quiver without arrows (empty lists and dicts).
    double = build_double(Quiver(["é", "頂"], [("x", "é", "頂"), ("z", "é", "é")]))
    f = state_functional(double, 2, True, [2, 1], random.Random(5), complex_=gaussian)
    rep = gns.compress_representation(f)
    bare = gns.compress_representation(pd_functional(build_double(Quiver(["v"], [])), 1, True, random.Random(1)))
    dicts = [
        fileio.functional_to_dict(f),
        {"quiver": fileio.quiver_to_dict(double.base), "elements": [fileio.element_to_dict(e) for e in f.kernel_basis()]},
        fileio.groebner_to_dict(kernel_groebner(f, True), double),
        fileio.representation_to_dict(rep),
        {**fileio.representation_to_dict(rep), "cyclic": None},
        {"quiver": fileio.quiver_to_dict(double.base), "degree": 2,
         "elements": [fileio.element_to_dict(e) for e in gns.rep_kernel(rep, 2)]},
        {"quiver": fileio.quiver_to_dict(double.base), "degree": 1, "elements": []},
        fileio.representation_to_dict(bare),
    ]
    assert any("\\u" in json.dumps(d) for d in dicts)
    assert any(not Scalar.parse(e["value"]).is_real() for e in dicts[0]["entries"]) == gaussian
    assert dicts[2]["reductions"] and dicts[7]["arrows"] == {} and dicts[7]["quiver"]["arrows"] == []
    for d in dicts:
        assert fileio.dumps_indented(d) == json.dumps(d, indent=2)
    # and through a command: the file `extend -o` writes
    opath = tmp_path / "ext.json"
    fpath = write(tmp_path, "f.json", fileio.functional_to_dict(pd_functional(double, 1, True, random.Random(2))))
    assert main(["extend", fpath, "--tip-maximal", "--general-quiver", "-o", str(opath)]) == 0
    capsys.readouterr()
    data = json.loads(opath.read_text(encoding="utf-8"))
    assert opath.read_bytes() == (json.dumps(data, indent=2) + "\n").encode("utf-8")


VERTEX_BLOCK_FIXTURES = ("fix_two_vertex", "fix_isolated_vertex", "fix_isolated_vertex_notrivial",
                         "fix_two_vertex_nonpsd", "fix_two_vertex_tipmax")
VERTEX_BLOCK_COMMANDS = ("moment flat", "moment psd", "moment rank", "moment tipmax", "kernel",
                         "groebner --trace --from-kernel", "gns build", "extend --tip-maximal --general-quiver",
                         "evaluate")


def test_vertex_blocks_reproduce_the_committed_outputs(tmp_path, capsys, monkeypatch):
    # CI replays these calls without site-packages, with the same relative
    # input paths, which the refusals name.  Multi-vertex functionals: the
    # flat_gns two-vertex shape (k = 3, blocks of 57 and 35 paths), a
    # three-vertex quiver whose isolated vertex has state dimension 0 (e:e3
    # is a kernel tip) and its copy without trivial paths (the e3 block is
    # empty), a Gaussian two-vertex functional that is not PSD (flat, a
    # negative e:e2) and a tip-maximal Gaussian two-vertex base.  The
    # expected stdout, stderr, exit codes and -o files were written when
    # B_{L_k} was gathered and pivoted whole; an -o command's "written" line
    # names a temporary path and is not logged.
    root = FsPath(__file__).parent.parent
    fixtures = root / "tests" / "fixtures"
    monkeypatch.chdir(root)
    stdout, stderr = [], []
    for name in VERTEX_BLOCK_FIXTURES:
        fpath = f"tests/fixtures/{name}.json"
        word = "x y y y x*" if name.startswith("fix_isolated_vertex") else "x y z x y z x y"
        for cmd in VERTEX_BLOCK_COMMANDS:
            argv = [*cmd.split(), fpath]
            if cmd == "evaluate":
                argv = ["evaluate", "--functional", fpath, "--path", word]
            elif cmd.split()[0] in ("kernel", "groebner", "gns", "extend"):
                argv += ["-o", str(tmp_path / f"{name}_{argv[0]}.json")]
            code = main(argv)
            captured = capsys.readouterr()
            out = "".join(line for line in captured.out.splitlines(True) if not line.startswith('{"written": '))
            stdout.append(f"{out}{cmd} {name} exit code: {code}\n")
            stderr.append(captured.err)
    assert "".join(stdout) == (fixtures / "vertex_blocks_stdout.txt").read_text(encoding="utf-8")
    assert "".join(stderr) == (fixtures / "vertex_blocks_stderr.txt").read_text(encoding="utf-8")
    pinned = sorted(p.name for p in (fixtures / "vertex_blocks").iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == pinned
    for name in pinned:
        assert (tmp_path / name).read_bytes() == (fixtures / "vertex_blocks" / name).read_bytes(), name


@pytest.mark.parametrize(
    "argv",
    [["moment", "flat", "tests/fixtures/fix_l2_ext.json"],
     # an output larger than a pipe's buffer fails while it is printed
     ["groebner", "--trace", "--from-kernel", "tests/fixtures/fix_two_vertex.json"]],
    ids=["short", "long"],
)
def test_a_closed_stdout_is_an_input_error(argv):
    # stdout is a pipe whose read end is closed before the command starts:
    # exit 2 and one line on stderr that names stdout, as for an -o file
    # that cannot be written; nothing is printed at interpreter shutdown.
    import os
    import subprocess
    import sys

    root = FsPath(__file__).parent.parent
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quivermoment.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            cwd=root,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: stdout: [Errno 32] Broken pipe\n"
