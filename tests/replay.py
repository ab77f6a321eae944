"""Replay the committed CLI outputs of `tests/replays.json`.

    PYTHONPATH=src python -S tests/replay.py

runs every record through `quivermoment.cli.main` in-process, from the
repository root, prints one line per failure and a summary, and exits 0
when every record passes, 1 otherwise.  Standard library only, so it runs
without site-packages.  `tests/test_replays.py` runs the same records as
tier-1 tests.

A record is an ordered group of calls:

    {"name": "psd_pipeline",
     "workload": ["flat_gns", 4101, 0],              (optional)
     "inputs": {"cert.json": INPUT, ...},            (optional)
     "calls": [{"argv": [...], "exit": 0, "files": {"rep.json": EXPECTED}}, ...],
     "stdout": EXPECTED, "stderr": EXPECTED}

Each record runs in a fresh temporary directory, written `{out}` in argv
and in the expected streams.  Before the calls, each input is written
there: `{"from": FIXTURE, "set": {...}}` is the JSON of a committed file
with those top-level keys replaced, and `{"sha256": HEX}` is a file of
instance `index` of the qmbench `workload` run of `seed`, whose digest
must match.  Each call must exit with `exit` and write the `files` it
lists (`-o` outputs, by name under `{out}`), and the record no other
file; `stdout` and `stderr` are the calls' streams concatenated in
order, empty when omitted.  EXPECTED is literal text, `{"file": PATH}` (a
committed file, PATH from the repository root) or `{"sha256": HEX}`; one
rule compares every stream and file by its bytes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path, PurePath

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "replays.json"


def load() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@functools.lru_cache(maxsize=None)
def _workload(name: str, seed: int, index: int):
    """(input bytes by file name, rng state after) of one qmbench instance.

    Instances of one seed draw from one stream, as in `qmbench/run.py`, so
    instance `index` starts from the state instance `index - 1` left.
    """
    if str(ROOT / "qmbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "qmbench"))
    from workloads import WORKLOADS

    rng = random.Random(seed)
    if index:
        rng.setstate(_workload(name, seed, index - 1)[1])
    inst = WORKLOADS[name][0](rng, index, PurePath("{out}"))
    return {p.name: text.encode("utf-8") for p, text in inst.inputs.items()}, rng.getstate()


def _inputs(record: dict) -> tuple[dict[str, bytes], list[str]]:
    """The record's input files by name, and why any of them is not as pinned."""
    made = _workload(*record["workload"])[0] if "workload" in record else {}
    specs = record.get("inputs", {})
    files = dict(made)
    failures = [f"inputs[{file}]: not pinned" for file in sorted(made.keys() - specs.keys())]
    for file, spec in specs.items():
        if "from" in spec:
            data = json.loads((ROOT / spec["from"]).read_text(encoding="utf-8"))
            files[file] = json.dumps({**data, **spec["set"]}).encode("utf-8")
            continue
        why = _mismatch(spec, made[file]) if file in made else "not written by the workload"
        if why:
            failures.append(f"inputs[{file}]: {why}")
    return files, [f"{record['name']}: {line}" for line in failures]


def _mismatch(expected, got: bytes) -> str | None:
    """Why `got` is not the expected bytes, or None."""
    if isinstance(expected, dict) and "sha256" in expected:
        digest = hashlib.sha256(got).hexdigest()
        return None if digest == expected["sha256"] else f"sha256 is {digest}, not {expected['sha256']}"
    if isinstance(expected, dict):
        want, source = (ROOT / expected["file"]).read_bytes(), expected["file"]
    else:
        want, source = expected.encode("utf-8"), "the pinned text"
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"differs from {source} at byte {at} ({len(got)} bytes, expected {len(want)}): {got[at:at + 60]!r}"


def _call(argv: list[str]) -> tuple[int, str, str]:
    from quivermoment import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse
            code = e.code
    return code, out.getvalue(), err.getvalue()


def run_record(record: dict) -> list[str]:
    """The record's failures, each naming the record and the field."""
    name = record["name"]
    tmp = tempfile.mkdtemp(prefix="replay-")
    cwd = os.getcwd()
    try:
        os.chdir(ROOT)
        inputs, failures = _inputs(record)
        if failures:
            return failures
        for file, data in inputs.items():
            Path(tmp, file).write_bytes(data)
        stdout, stderr, pinned = [], [], set(inputs)
        for i, call in enumerate(record["calls"]):
            code, out, err = _call([a.replace("{out}", tmp) for a in call["argv"]])
            stdout.append(out.replace(tmp, "{out}"))
            stderr.append(err.replace(tmp, "{out}"))
            if code != call["exit"]:
                failures.append(f"{name}: calls[{i}].exit: {code}, not {call['exit']}")
            for file, expected in call.get("files", {}).items():
                pinned.add(file)
                path = Path(tmp, file)
                why = _mismatch(expected, path.read_bytes()) if path.exists() else "not written"
                if why:
                    failures.append(f"{name}: calls[{i}].files[{file}]: {why}")
        for field, got in (("stdout", stdout), ("stderr", stderr)):
            why = _mismatch(record.get(field, ""), "".join(got).encode("utf-8"))
            if why:
                failures.append(f"{name}: {field}: {why}")
        unpinned = sorted(set(os.listdir(tmp)) - pinned)
        if unpinned:
            failures.append(f"{name}: files: written but not pinned: {', '.join(unpinned)}")
        return failures
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp)


def main(records: list[dict] | None = None) -> int:
    records = load() if records is None else records
    failed = 0
    for record in records:
        failures = run_record(record)
        failed += bool(failures)
        for line in failures:
            print(line)
    calls = sum(len(r["calls"]) for r in records)
    print(f"{len(records) - failed} of {len(records)} records ({calls} calls) reproduce their pinned outputs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
