"""quivermoment benchmark: seeded CLI pipelines checked against an oracle.

Run from the root of a checkout:

    python3 qmbench/run.py --workload flat_gns --seed 1 --seconds 30 --trace 0
    python3 qmbench/run.py --list        # every metric, with its unit

One closed-loop client: one process, one thread, each in-process
``quivermoment.cli.main([...])`` call starts after the previous one returns.
A run works in whole rounds of shapes and starts another round only while
it is expected to end within ``--seconds``, after at least two instances;
then it prints one line per metric and, as the last line, the result
object.  Times are calibrated against a fixed reference workload run
between the calls (see calibrate.py), which cancels the host's speed
drift.  With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from
a run that executes every instance untraced and then traced, so the
difference is the tracing overhead.

Inputs come only from ``--seed``; the same seed writes byte-identical input
files, whose hash is part of the record printed by every run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".qmbench_out"
MIN_INSTANCES = 2
SETUP_SAMPLES = 8
PROBE_LENGTH = 1200

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_IMPORT, REFERENCE_IMPORT_S, Reference  # noqa: E402
from instances import ONE_LOOP, VectorState, parse_scalar, scalar_bits  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Per-command medians; a workload reports those of the commands it runs.
COMMANDS = [
    "moment_flat",
    "moment_psd",
    "groebner",
    "gns_build",
    "gns_check",
    "extend",
    "evaluate",
    "gns_compress",
    "sos_verify",
]


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- environment record ---------------------------------------------------------


def _commit() -> str:
    """HEAD of the checkout read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "quivermoment").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


# -- measurements ---------------------------------------------------------------


def _import_seconds(modules: str) -> float:
    """Seconds of a cold import of `modules` in a fresh interpreter."""
    code = (
        f"import time; t = time.perf_counter(); import {modules}; "
        "print(repr(time.perf_counter() - t))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout)


def measure_setup(samples: int) -> list[float]:
    """Calibrated cold imports of quivermoment.cli, each in a fresh interpreter.

    Each import sits between two cold imports of the reference modules,
    whose mean gives the machine's speed at that moment.
    """
    out = []
    ref = _import_seconds(REFERENCE_IMPORT)
    for _ in range(samples):
        seconds = _import_seconds("quivermoment.cli")
        ref_after = _import_seconds(REFERENCE_IMPORT)
        out.append(seconds * REFERENCE_IMPORT_S * 2 / (ref + ref_after))
        ref = ref_after
    return out


class Client:
    """Calls cli.main in-process and records each call.

    ``main`` is looked up on every call, so a traced instance goes through
    the tracer's wrapper.
    """

    def __init__(self, cli):
        self.cli = cli

    def call(self, argv):
        """(exit code or exception name, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as e:  # a failed op, counted below
                code = f"{type(e).__name__}: {str(e)[:100]}"
            seconds = time.perf_counter() - start
        return code, out.getvalue(), seconds


def _step_ok(step, code, out) -> bool:
    if code != step.expect:
        return False
    try:
        return bool(step.check(out))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, OSError):
        return False


def _output_bits(step, out: str) -> int:
    """Largest numerator/denominator bit length among an output's scalars."""
    stack = [json.loads(line) for line in out.splitlines()]
    if "-o" in step.argv:
        stack.append(json.loads(Path(step.argv[step.argv.index("-o") + 1]).read_text()))
    best = 0
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        elif isinstance(v, str):
            with contextlib.suppress(ValueError):
                best = max(best, scalar_bits(v))
    return best


def run_probe(client: Client, work: Path, rng: random.Random) -> int:
    """Known-defect probe, outside the timed loop: 1 when it fails.

    evaluate on a flat rank-1 functional with ``x x*`` repeated to length
    PROBE_LENGTH raised RecursionError when this benchmark was written
    (paths up to 600 letters pass); extend_eval keeps its paths at or below
    600 for that reason, and this probe keeps the defect visible.
    """
    state = VectorState(ONE_LOOP, [1], rng, lo=1, hi=2)
    f = work / "probe.json"
    f.write_text(json.dumps(state.functional_dict(2, False)), encoding="utf-8")
    path = (0, ((0, False), (0, True)) * (PROBE_LENGTH // 2))
    code, out, _ = client.call(
        ["evaluate", "--functional", str(f), "--path", ONE_LOOP.text(path)]
    )
    try:
        ok = code == 0 and parse_scalar(json.loads(out)["value"]) == (state.value(path), 0)
    except (ValueError, KeyError, TypeError):
        ok = False
    return 0 if ok else 1


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One run of one workload: the timed loop and its records."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        from quivermoment import cli

        self.make, self.round = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.client = Client(cli)
        self.tracer = Tracer() if trace else None
        self.inputs: list[str] = []  # sha256 of each instance's input files
        self.instance_s: list[float] = []  # wall seconds
        self.cal_s: list[float] = []  # calibrated seconds, see calibrate.py
        self.ref_unit_s: list[float] = []  # seconds per reference unit
        self.traced_s: list[float] = []
        self.cmd_s: dict[str, list[float]] = {}  # calibrated seconds
        self.attempted = 0
        self.failures: list[str] = []
        self.out_bits = 0

    def _pipeline(self, index, inst, traced: bool) -> float:
        """Run every step of one instance, check them all; pipeline seconds.

        Untraced, each call is followed by reference work, and the
        instance's calibrated seconds are recorded as well.
        """
        results = []
        ref = Reference()
        for step in inst.steps:
            # A CLI call starts in a fresh process: no garbage of earlier calls.
            gc.collect()
            if traced:
                with self.tracer.span("cmd." + step.command):
                    results.append(self.client.call(step.argv))
            else:
                results.append(self.client.call(step.argv))
                ref.follow(results[-1][2])
        total = sum(r[2] for r in results)
        if not traced:
            self.cal_s.append(total * ref.scale())
            self.ref_unit_s.append(ref.unit_s())
        for step, (code, out, seconds) in zip(inst.steps, results):
            self.attempted += 1
            if not _step_ok(step, code, out):
                self.failures.append(
                    f"instance {index} {step.command}: exit {code} (expected {step.expect})"
                    + (", output differs from the oracle" if code == step.expect else "")
                )
            # The first instances only, so the figure does not depend on how
            # many instances a run completes.
            if traced and index < MIN_INSTANCES and code == step.expect:
                self.out_bits = max(self.out_bits, _output_bits(step, out))
            elif not traced:
                self.cmd_s.setdefault(step.command, []).append(seconds * ref.scale())
        return total

    def loop(self) -> None:
        rng = random.Random(self.seed)
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            # Another round only if it ends in time at the mean pace so far.
            if index >= MIN_INSTANCES and index % self.round == 0:
                per_round = elapsed * self.round / index
                if elapsed + per_round > self.seconds:
                    break
            inst = self.make(rng, index, self.work)
            digest = hashlib.sha256()
            for path, text in inst.inputs.items():
                data = text.encode("utf-8")
                digest.update(path.name.encode() + b"\0" + data)
                path.write_bytes(data)
            self.inputs.append(digest.hexdigest()[:16])
            # A traced run executes each instance twice, untraced and traced,
            # alternating which goes first so that neither order is favoured.
            passes = [False, True] if self.trace else [False]
            for traced in passes[:: 1 if index % 2 == 0 else -1]:
                if traced:
                    self.tracer.instance = index
                    with self.tracer.installed():
                        self.traced_s.append(self._pipeline(index, inst, traced=True))
                else:
                    self.instance_s.append(self._pipeline(index, inst, traced=False))
            index += 1

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        return {
            "setup_s": setup_s,
            "instances_per_cal_s": len(self.cal_s) / sum(self.cal_s),
            "instance_cal_s.p50": _p50(self.cal_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self, probe_fail: int) -> dict[str, float]:
        """Per-instance self seconds and counts of the traced instances.

        A layer that never ran, or that the package no longer has, is
        missing here and reads 0.
        """
        n = len(self.traced_s)
        out: dict[str, float] = defaultdict(float)
        for (name, _), secs in self.tracer.self_times().items():
            if name.startswith("cmd."):
                name = "harness.self"  # the client around cli.main
            elif name == "cli":
                name = "cli.self"  # argparse and JSON emit
            out[name + "_s"] += secs / n
        for (name, _), count in self.tracer.counts.items():
            out[name] += count / n
        out["moment.is_flat.repeat_ratio"] = statistics.mean(
            self.tracer.repeat_ratio(i) for i in range(n)
        )
        out["scalar.out_max_bits"] = self.out_bits
        for cmd in COMMANDS:
            out[f"cmd.{cmd}_s.p50"] = _p50(self.cmd_s.get(cmd, []))
        wall = sum(self.traced_s) / n
        out["trace.wall_s"] = wall
        out["trace.overhead_s"] = wall - sum(self.instance_s) / n
        out["instance.samples"] = n
        out["instance_wall_s.p50"] = _p50(self.instance_s)
        out["ref.unit_s.p50"] = _p50(self.ref_unit_s)
        out["fail_ratio"] = len(self.failures) / self.attempted
        out["probe.fail_count"] = probe_fail
        return out


def _record(spec: dict, run: Run, probe_fail: int) -> dict:
    return {
        "workload": run.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == run.workload),
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "inputs_sha256": run.inputs,
        "instances": len(run.instance_s),
        "instance_s": run.instance_s,
        "instance_cal_s": run.cal_s,
        "ref_unit_s": run.ref_unit_s,
        "cmd_s.p50": {c: _p50(v) for c, v in sorted(run.cmd_s.items())},
        "cmd.samples": {c: len(v) for c, v in sorted(run.cmd_s.items())},
        "fail_ratio": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "probe_fail_count": probe_fail,
        "absent_boundaries": sorted(run.tracer.absent) if run.tracer else [],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def list_metrics(spec: dict) -> None:
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<32} {m['unit']:<8} {m['better']} is better, bound {m['bound']}")
    print("per-layer metrics (--trace 1):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<32} {m['unit']:<8} {m['better']} is better")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<14} {w['why']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--list", action="store_true", help="print every metric with its unit")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.list:
        list_metrics(spec)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "quivermoment" / "cli.py").is_file():
        print(f"error: no quivermoment sources under {SRC}", file=sys.stderr)
        return 2

    # The first imports write the bytecode cache; half of the samples are
    # taken before the timed loop and half after it, at another moment of
    # the machine's load.
    _import_seconds("quivermoment.cli")
    setup = measure_setup(SETUP_SAMPLES // 2)
    sys.path.insert(0, str(SRC))
    work = ROOT / ".qmbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        probe_fail = run_probe(run.client, work, random.Random(args.seed))
        run.loop()
        setup += measure_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    record = _record(spec, run, probe_fail)
    if args.trace:
        values = run.per_layer(probe_fail)
        wanted = spec["per_layer"]
        OUT.mkdir(exist_ok=True)
        run.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = run.end_to_end(statistics.median(setup))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:<32} {m['value']:>16.6g} {m['unit']}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
