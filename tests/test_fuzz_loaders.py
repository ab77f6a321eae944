"""Mutated input files against the exit-code contract, through `cli.main`.

Each loader reads a committed fixture with one or two mutations: a value
replaced by a value of another type or by an odd literal, a key deleted, a
list element dropped or repeated, a value wrapped in a list.  Whatever the mutation, the command exits
0, 1 (a false verdict) or 2 (malformed input); exit 3, an internal fault,
never answers bad input, and no internal-error line reaches stderr.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivermoment import cli

FIXTURES = Path(__file__).parent / "fixtures"

# Replacement values: every JSON type, integers of every sign and size,
# scalar literals (malformed, zero denominator, Gaussian), path texts (a
# trivial path, an unknown vertex or arrow, a non-composable word).
ODD_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 2.5, 10**30, -(10**30),
    "", " ", "0", "1", "-1/2", "1/0", "2i", "1+i", "1 + i", "3/4 - 2/3 i", "0x10", "1e3", "nan",
    "x", "x*", "x x*", "x* x", "x x", "e:e", "e:e1", "e:zz", "q", "x q",
    [], [[]], [["1"]], [["1", "0"], ["0"]], [1, 2], {}, {"terms": []}, {"path": "x", "coeff": "1"},
]

# Per loader: a fixture and the commands that read it, its path last.
LOADERS = {
    "functional": [
        ("fix_l2_ext.json", ["moment", "flat"]),
        ("fix_l2_ext.json", ["gns", "build"]),
        ("fix_l2_ext.json", ["extend", "--tip-maximal", "--general-quiver"]),
        ("fix_gauss_loop.json", ["moment", "psd"]),
        ("fix_gauss_loop.json", ["evaluate", "--path", "x x* x", "--functional"]),
        ("fix_psd_chain.json", ["groebner", "--from-kernel"]),
        ("fix_psd_chain.json", ["gns", "compress"]),
    ],
    "representation": [
        ("fix_psd_chain_compressed.json", ["gns", "check"]),
        ("fix_gauss_pd_loop_compressed.json", ["gns", "kernel", "--degree", "2"]),
    ],
    "certificate": [
        ("fix_psd_chain_certificate.json", ["sos", "verify"]),
        ("fix_gauss_pd_loop_certificate.json", ["sos", "verify"]),
        ("fix_nonpsd_certificate.json", ["sos", "verify"]),
        ("fix_squares_certificate.json", ["sos", "verify"]),
    ],
    "generators": [("example2_l4_groebner.json", ["groebner", "--trace", "--generators"])],
    "groebner_gram": [("fix_groebner_gram.json", ["gns", "build"])],
}


def _locations(value, at=()):
    """The path (keys and indices) of every value inside a JSON value, the root excluded."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _locations(child, at + (key,))


@st.composite
def mutated(draw, data):
    data = copy.deepcopy(data)
    for _ in range(draw(st.integers(1, 2), label="mutations")):
        places = list(_locations(data))
        if not places:
            break
        *parent_at, key = draw(st.sampled_from(places), label="place")
        parent = data
        for k in parent_at:
            parent = parent[k]
        kind = draw(st.sampled_from(["replace", "delete", "repeat"]), label="kind")
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES), label="value"))
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [copy.deepcopy(parent[key])]  # a value wrapped in a list
    return data


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_mutated_files_exit_0_1_or_2(loader, tmp_path_factory, capsys):
    cases = [(json.loads((FIXTURES / name).read_text(encoding="utf-8")), argv) for name, argv in LOADERS[loader]]
    fpath = tmp_path_factory.mktemp(loader) / "input.json"

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def check(data):
        original, argv = data.draw(st.sampled_from(cases), label="case")
        fpath.write_text(json.dumps(data.draw(mutated(original), label="file")), encoding="utf-8")
        code = cli.main(argv + [str(fpath)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        assert "internal" not in err

    check()


# -- drawn on purpose: certificates whose parts disagree, matrices of a wrong shape --

CERTIFICATES = [
    "fix_psd_chain_certificate.json",
    "fix_gauss_pd_loop_certificate.json",
    "fix_nonpsd_certificate.json",
    "fix_pd_two_loops_certificate.json",
]
REPRESENTATIONS = [
    ("fix_psd_chain_compressed.json", ["gns", "check"]),
    ("fix_gauss_pd_loop_compressed.json", ["gns", "kernel", "--degree", "2"]),
    ("fix_pd_two_loops_compressed.json", ["gns", "check"]),
]
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _fixture(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _path_texts(cert: dict) -> list[str]:
    """Path texts of the certificate's quiver: its basis, trivial paths, letters and longer words."""
    quiver = cert["quiver"]
    letters = [a["name"] + star for a in quiver["arrows"] for star in ("", "*")]
    return cert["basis"] + [f"e:{v}" for v in quiver["vertices"]] + letters + [" ".join(letters * 2)]


@st.composite
def disagreeing_certificates(draw):
    """A Gram certificate with its degree, its basis and its gram drawn apart:
    a degree bound of any size or none, paths dropped, repeated or added, and
    a gram cut or padded to a size of its own, square or not."""
    cert = _fixture(draw(st.sampled_from(CERTIFICATES), label="fixture"))
    texts, n = _path_texts(cert), len(cert["basis"])
    cert["degree"] = draw(st.sampled_from([None, 0, 1, 2, 3, 12]), label="degree")
    basis = draw(st.lists(st.sampled_from(texts), min_size=0, max_size=n + 3), label="basis")
    cert["basis"] = basis if draw(st.booleans(), label="redraw basis") else cert["basis"]
    rows = draw(st.integers(0, n + 2), label="gram rows")
    cols = rows if draw(st.booleans(), label="square") else draw(st.integers(0, n + 2), label="gram cols")
    entries = [x for row in cert["gram"] for x in row]
    cert["gram"] = [
        [row[j] if j < len(row) else draw(st.sampled_from(entries)) for j in range(cols)]
        for row in (cert["gram"] + [[]] * rows)[:rows]
    ]
    return cert


def test_disagreeing_certificates_exit_0_1_or_2(tmp_path_factory, capsys):
    fpath = tmp_path_factory.mktemp("certificate") / "input.json"

    @FUZZ
    @given(disagreeing_certificates())
    def check(cert):
        fpath.write_text(json.dumps(cert), encoding="utf-8")
        code = cli.main(["sos", "verify", str(fpath)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        assert "internal" not in err

    check()


@st.composite
def misshapen_matrices(draw):
    """A representation or a certificate with one matrix made ragged (a row
    cut short or made longer) or not square (a row or a column dropped or
    added), and the command that reads it."""
    if draw(st.booleans(), label="certificate"):
        data, argv, at = _fixture(draw(st.sampled_from(CERTIFICATES), label="fixture")), ["sos", "verify"], ("gram",)
    else:
        name, argv = draw(st.sampled_from(REPRESENTATIONS), label="fixture")
        data = _fixture(name)
        key = draw(st.sampled_from(["gram", "arrows", "vertices"]), label="matrix")
        at = (key,) if key == "gram" else (key, draw(st.sampled_from(sorted(data[key])), label="name"))
    rows = data
    for key in at:
        rows = rows[key]
    r = draw(st.integers(0, len(rows) - 1), label="row")
    kind = draw(st.sampled_from(["short row", "long row", "drop row", "add row", "drop column", "add column"]))
    if kind == "short row":
        rows[r].pop()
    elif kind == "long row":
        rows[r].append(rows[r][0])
    elif kind == "drop row":
        del rows[r]
    elif kind == "add row":
        rows.insert(r, list(rows[r]))
    else:
        for row in rows:
            row.append(row[0]) if kind == "add column" else row.pop()
    return data, argv


def test_misshapen_matrices_exit_2(tmp_path_factory, capsys):
    fpath = tmp_path_factory.mktemp("matrix") / "input.json"

    @FUZZ
    @given(misshapen_matrices())
    def check(case):
        data, argv = case
        fpath.write_text(json.dumps(data), encoding="utf-8")
        code = cli.main(argv + [str(fpath)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: {fpath}: ") and "internal" not in err

    check()
