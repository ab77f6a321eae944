"""Every record of `tests/replays.json`, and the gate's own failures.

`replay.py` runs the same records without site-packages; here each record
is one test, and the cases below show that a changed byte, exit code,
digest or input fails, naming the record and the field.
"""

import copy
import json

import pytest

import replay
from long_words import long_word
from quivermoment import build_double
from quivermoment.fileio import parse_path, quiver_from_dict

RECORDS = replay.load()
BY_NAME = {r["name"]: r for r in RECORDS}
FIXTURES = replay.ROOT / "tests" / "fixtures"


@pytest.mark.parametrize("record", RECORDS, ids=[r["name"] for r in RECORDS])
def test_record_reproduces_its_pinned_outputs(record):
    assert replay.run_record(record) == []


def test_record_names_are_unique():
    assert len(BY_NAME) == len(RECORDS)


def test_every_expected_output_fixture_is_pinned_by_a_record():
    pinned = set()
    for r in RECORDS:
        specs = [r.get("stdout"), r.get("stderr")] + [e for c in r["calls"] for e in c.get("files", {}).values()]
        pinned |= {s["file"] for s in specs if isinstance(s, dict) and "file" in s}
    outputs = {
        str(p.relative_to(replay.ROOT))
        for p in FIXTURES.rglob("*")
        if p.parent.name == "vertex_blocks"
        or p.name.endswith(("_stdout.txt", "_stderr.txt", "_extended.json", "_compressed.json", "_groebner.json"))
    }
    assert outputs and outputs <= pinned


def test_the_benchmark_workloads_are_pinned():
    # instances 0-3 of seeds 4101 and 4102 of each workload: 152 calls
    workloads = [r for r in RECORDS if "workload" in r]
    assert sorted(tuple(r["workload"]) for r in workloads) == sorted(
        (w, seed, i) for w in ("flat_gns", "extend_eval", "psd_compress") for seed in (4101, 4102) for i in range(4)
    )
    assert sum(len(r["calls"]) for r in workloads) == 152


def _failures(name, change):
    record = copy.deepcopy(BY_NAME[name])
    change(record)
    return replay.run_record(record)


def test_a_flipped_byte_of_a_committed_stdout_fails(tmp_path):
    data = bytearray((FIXTURES / "gns_build_stdout.txt").read_bytes())
    data[100] ^= 1
    (tmp_path / "flipped.txt").write_bytes(data)
    failures = _failures("gns_build", lambda r: r.update(stdout={"file": str(tmp_path / "flipped.txt")}))
    assert len(failures) == 1
    assert failures[0].startswith(f"gns_build: stdout: differs from {tmp_path / 'flipped.txt'} at byte 100 ")


def test_a_wrong_exit_code_fails():
    failures = _failures("psd_refusals", lambda r: r["calls"][1].update(exit=0))
    assert failures == ["psd_refusals: calls[1].exit: 1, not 0"]


def test_a_wrong_output_file_digest_fails():
    def change(record):
        record["calls"][2]["files"]["groebner.json"]["sha256"] = "0" * 64

    failures = _failures("flat_gns/4101/1", change)
    assert len(failures) == 1
    assert failures[0].startswith("flat_gns/4101/1: calls[2].files[groebner.json]: sha256 is ")
    assert failures[0].endswith(", not " + "0" * 64)


def test_a_changed_input_digest_fails():
    def change(record):
        record["inputs"]["certificate.json"]["sha256"] = "f" * 64

    failures = _failures("psd_compress/4102/3", change)
    assert len(failures) == 1
    assert failures[0].startswith("psd_compress/4102/3: inputs[certificate.json]: sha256 is ")


def test_an_output_file_that_no_call_pins_fails():
    failures = _failures("extensions", lambda r: r["calls"][0].pop("files"))
    assert failures == ["extensions: files: written but not pinned: fix_gauss_pd_loop_ext.json"]


def test_the_runner_exits_1_and_names_the_failing_record(capsys):
    record = copy.deepcopy(BY_NAME["squares"])
    record["stdout"] = '{"valid": true, "kind": "squares"}\n{"valid": true, "kind": "squares"}\n'
    assert replay.main([BY_NAME["rep_kernel"], record]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("squares: stdout: differs from the pinned text at byte 45 ")
    assert out[1] == "1 of 2 records (3 calls) reproduce their pinned outputs"


def test_long_words_reproduce_the_pinned_words():
    # The words of the long-evaluate records are the draws of `long_words.py`.
    for name, sizes in (("long_evaluate", [(600, 1), (1500, 2)]), ("two_vertex_long_evaluate", [(599, 3), (600, 4)])):
        calls = iter(BY_NAME[name]["calls"])
        for call in calls:
            fixture = call["argv"][2]
            quiver = json.loads((replay.ROOT / fixture).read_text(encoding="utf-8"))["quiver"]
            words = [call["argv"][4], next(calls)["argv"][4]]
            assert words == [long_word(quiver, length, seed) for length, seed in sizes]


@pytest.mark.parametrize("seed", range(10))
def test_long_words_start_at_a_vertex_with_letters(seed):
    # fix_isolated_vertex's vertex e3 has no arrow: a word never starts there.
    quiver = json.loads((FIXTURES / "fix_isolated_vertex.json").read_text(encoding="utf-8"))["quiver"]
    assert any(not any(v in (a["from"], a["to"]) for a in quiver["arrows"]) for v in quiver["vertices"])
    word = long_word(quiver, 10, seed)
    assert len(word.split()) == 10
    parse_path(build_double(quiver_from_dict(quiver)), word)  # composable throughout

