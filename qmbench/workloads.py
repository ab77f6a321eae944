"""The three workloads: seeded streams of independent CLI pipelines.

An instance writes its input files, then lists the CLI calls a user would
chain on them.  Each call carries the exit code the oracle expects and a
check of its output against the instance's vector state.  Checks run after
the whole pipeline, outside the timed calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from instances import (
    ONE_LOOP,
    TWO_LOOPS,
    TWO_VERTEX,
    VectorState,
    annihilates,
    draw_state,
    dumps,
    functional_matches,
    gram_certificate,
    real_scalar,
    representation_reproduces,
    tampered,
)

# evaluate paths in extend_eval stay at or below this length: longer paths
# hit the known RecursionError in the path normal forms (reported by the
# probe, see run.py), and the timed loop must not fail on a known defect.
EXTEND_EVAL_MAX_PATH = 600


@dataclass
class Step:
    command: str  # metric label, e.g. "moment_flat"
    argv: list[str]
    expect: int  # exit code the oracle expects
    check: Callable[[str], bool]  # stdout -> output correct


@dataclass
class Instance:
    shape: str
    rank: int
    inputs: dict[Path, str]  # input files the runner writes before the calls
    steps: list[Step]


def _stdout(key, want) -> Callable[[str], bool]:
    return lambda out: json.loads(out.splitlines()[-1]).get(key) == want


def _flat_check(flat: bool, rank: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        data = json.loads(out.splitlines()[-1])
        return data.get("flat") is flat and data.get("rank_k") == rank

    return check


def _read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _evaluate_step(state: VectorState, fpath: Path, path) -> Step:
    text = state.quiver.text(path)
    want = state.value(path)

    def check(out: str) -> bool:
        return real_scalar(json.loads(out)["value"]) == want

    return Step("evaluate", ["evaluate", "--functional", str(fpath), "--path", text], 0, check)


def flat_gns(rng: random.Random, index: int, work: Path) -> Instance:
    """Flat PSD states of total rank 3 and 5 on two shapes, k = 3.

    Even instances are rank-3 states on two loops (85-path window), odd ones
    rank-5 states (dimensions 3 + 2) on the two-vertex quiver (92-path
    window).  Every run meets the same sequence of sizes; the seed draws the
    maps, the vectors and the evaluated path.
    """
    k = 3
    if index % 2 == 0:
        shape, quiver, dims = "two_loops", TWO_LOOPS, [3]
    else:
        shape, quiver, dims = "two_vertex", TWO_VERTEX, [3, 2]
    rank = sum(dims)
    state = draw_state(quiver, dims, k, True, rng)
    f, gb, rep = work / "functional.json", work / "groebner.json", work / "rep.json"
    eval_path = quiver.random_path(rng, rng.randint(2 * k + 1, 4 * k))

    def gb_ok(out: str) -> bool:
        elems = _read(gb)["elements"]
        return bool(elems) and all(annihilates(state, e) for e in elems)

    def rep_ok(out: str) -> bool:
        data = _read(rep)
        return len(data["basis"]) == rank and representation_reproduces(state, data, 1)

    steps = [
        Step("moment_flat", ["moment", "flat", str(f)], 0, _flat_check(True, rank)),
        Step("moment_psd", ["moment", "psd", str(f)], 0, _stdout("psd", True)),
        Step("groebner", ["groebner", "--from-kernel", str(f), "-o", str(gb)], 0, gb_ok),
        Step("gns_build", ["gns", "build", str(f), "-o", str(rep)], 0, rep_ok),
        Step("gns_check", ["gns", "check", str(rep)], 0, _stdout("passed", True)),
        _evaluate_step(state, f, eval_path),
    ]
    return Instance(shape, rank, {f: dumps(state.functional_dict(k, True))}, steps)


def extend_eval(rng: random.Random, index: int, work: Path) -> Instance:
    """Tip-maximal flat states of dimension 6 = |V_2| on one loop, k = 3.

    The order-3 functional is extended to order 4, and the extension is
    evaluated on four long seeded words.
    """
    k, dim = 3, 6
    state = draw_state(ONE_LOOP, [dim], k, False, rng)
    f3, f4 = work / "functional.json", work / "extended.json"
    # Lengths 100, 266, 433 and 600 with seeded letters: every instance
    # carries the same amount of normal-form work.
    paths = [
        ONE_LOOP.random_path(rng, 100 + j * (EXTEND_EVAL_MAX_PATH - 100) // 3) for j in range(4)
    ]
    steps = [
        Step("moment_tipmax", ["moment", "tipmax", str(f3)], 0, _stdout("tip_maximal", True)),
        Step(
            "extend",
            ["extend", str(f3), "--tip-maximal", "-o", str(f4)],
            0,
            lambda out: functional_matches(state, _read(f4), k + 1, False),
        ),
        Step("moment_flat", ["moment", "flat", str(f4)], 0, _flat_check(True, dim)),
    ]
    steps += [_evaluate_step(state, f4, p) for p in paths]
    return Instance("one_loop", dim, {f3: dumps(state.functional_dict(k, False))}, steps)


def psd_compress(rng: random.Random, index: int, work: Path) -> Instance:
    """Positive-definite, non-flat states on two loops, k = 2 (21-path window).

    The state has dimension 21, so the order-2 moment matrix is dense and of
    full rank.  The SOS step checks its Gram certificate and a copy with one
    target coefficient raised by one.
    """
    k, dim = 2, 21
    state = draw_state(TWO_LOOPS, [dim], k + 1, True, rng)
    f, rep = work / "functional.json", work / "rep.json"
    good, bad = work / "certificate.json", work / "tampered.json"
    cert = gram_certificate(state, k)
    inputs = {
        f: dumps(state.functional_dict(k, True)),
        good: dumps(cert),
        bad: dumps(tampered(cert, rng.randrange(len(cert["target"]["terms"])))),
    }

    def rep_ok(out: str) -> bool:
        return representation_reproduces(state, _read(rep), k - 1)

    steps = [
        Step("moment_flat", ["moment", "flat", str(f)], 1, _flat_check(False, dim)),
        Step("moment_psd", ["moment", "psd", str(f)], 0, _stdout("psd", True)),
        Step("gns_compress", ["gns", "compress", str(f), "-o", str(rep)], 0, rep_ok),
        Step("gns_check", ["gns", "check", str(rep)], 0, _stdout("passed", True)),
        Step("sos_verify", ["sos", "verify", str(good)], 0, _stdout("valid", True)),
        Step("sos_verify", ["sos", "verify", str(bad)], 1, _stdout("valid", False)),
    ]
    return Instance("two_loops", dim, inputs, steps)


# name -> (instance generator, instances per round).  A run ends only after
# a whole round, so every run holds the same mix of shapes.
WORKLOADS = {
    "flat_gns": (flat_gns, 2),
    "extend_eval": (extend_eval, 1),
    "psd_compress": (psd_compress, 1),
}
