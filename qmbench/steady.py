"""Steadiness check: two interleaved sets of runs of the same code.

    python3 qmbench/steady.py --workload flat_gns --runs 5

Runs ``run.py --trace 0`` 2 x RUNS times, alternating between set A and set
B, each run with its own seed.  For every end-to-end metric it prints the
spread of all runs (distance between the first and third quartile as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them),
the spread of each set, and how much worse set B's median is than set A's.
A metric passes when the spread of all runs is within its bound (setup_s
exempt) and the shift is within the bound; the aim is a spread below a
third of the bound.  Exits 1 when a metric fails or a run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def one_run(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    sets: list[list[dict]] = [[], []]
    ok = True
    for i in range(args.runs):
        for s in (0, 1):
            seed = args.first_seed + s * args.runs + i
            result = one_run(args.workload, seed, args.seconds)
            sets[s].append(result)
            ok &= result["correct"] and result["failed"] == 0
            vals = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
            print(f"set {'AB'[s]} seed {seed}: {json.dumps(vals)}", flush=True)

    summary = {}
    print(f"{'metric':<24} {'spread':>7} {'A':>7} {'B':>7} {'B worse':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        name = m["name"]
        a = [r["metrics"][name]["value"] for r in sets[0]]
        b = [r["metrics"][name]["value"] for r in sets[1]]
        all_spread = spread(a + b)
        shift = worse_by(m, statistics.median(a), statistics.median(b))
        passed = shift <= m["bound"] and (name == "setup_s" or all_spread <= m["bound"])
        steady = all_spread < m["bound"] / 3
        ok &= passed
        verdict = ("pass" if passed else "FAIL") + ("" if steady else " (spread above bound/3)")
        print(
            f"{name:<24} {all_spread:7.3f} {spread(a):7.3f} {spread(b):7.3f} "
            f"{shift:8.3f} {m['bound']:6.2f}  {verdict}"
        )
        summary[name] = {
            "median": statistics.median(a + b),
            "spread": all_spread,
            "spread_a": spread(a),
            "spread_b": spread(b),
            "b_worse_by": shift,
            "bound": m["bound"],
            "passed": passed,
        }
    print(json.dumps({"workload": args.workload, "runs": 2 * args.runs, "ok": ok, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
