"""Per-layer spans recorded from outside the package.

The tracer wraps public functions of ``quivermoment`` modules for the
duration of one traced instance and restores them afterwards; no file of
the package changes.  A function is wrapped under every module binding
that refers to it (``cli`` imports most boundaries by name), so a call
opens a span whichever module it comes through.  A boundary that the
package no longer has is reported as absent and the run goes on.

A span records name, start, end, parent span and instance id.  Spans stay
in memory and are written out once, when the run ends.  While a boundary
is open, nested or recursive calls of the same boundary open no new span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, module, attribute): attributes with a dot are class members.
# Several attributes may share one layer; nested calls of a layer collapse.
BOUNDARIES = [
    ("cli", "cli", "main"),
    ("fileio.load", "fileio", "load_json"),
    ("fileio.load", "fileio", "load_functional"),
    ("fileio.load", "fileio", "load_representation"),
    ("fileio.load", "fileio", "functional_from_dict"),
    ("fileio.load", "fileio", "representation_from_dict"),
    ("fileio.load", "fileio", "certificate_from_dict"),
    ("fileio.dump", "fileio", "functional_to_dict"),
    ("fileio.dump", "fileio", "representation_to_dict"),
    ("fileio.dump", "fileio", "groebner_to_dict"),
    ("quiver.enumerate", "quiver", "enumerate_basis"),
    ("quiver.enumerate", "quiver", "paths_of_length"),
    ("moment.init", "moment", "TruncatedFunctional.__init__"),
    ("moment.matrix", "moment", "TruncatedFunctional.moment_matrix"),
    ("moment.is_flat", "moment", "TruncatedFunctional.is_flat"),
    ("moment.kernel_basis", "moment", "TruncatedFunctional.kernel_basis"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.rank", "linalg", "rank"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.solve", "linalg", "solve_in_range"),
    ("linalg.solve", "linalg", "solve_full_rank"),
    ("linalg.psd", "linalg", "psd_check"),
    ("linalg.psd", "linalg", "ldlh_psd"),
    ("linalg.matmul", "linalg", "Matrix.__mul__"),
    ("groebner.kernel_check", "groebner", "kernel_groebner"),
    ("groebner.complete", "groebner", "right_groebner"),
    ("groebner.reduce", "groebner", "total_reduce"),
    ("extension.init", "extension", "FlatExtension.__init__"),
    ("extension.evaluate", "extension", "FlatExtension.evaluate"),
    ("extension.extend", "extension", "flat_extend_tip_maximal"),
    ("extension.schur", "extension", "schur_complete"),
    ("gns.build", "gns", "build_representation"),
    ("gns.compress", "gns", "compress_representation"),
    ("gns.check", "gns", "check_relations"),
    ("sos.verify", "sos", "verify_gram"),
    ("sos.verify", "sos", "verify_squares"),
    ("sos.squares", "sos", "gram_to_squares"),
]

# Boundaries counted without a span: too many calls to time one by one.
COUNTED = [("scalar.parse", "scalar", "Scalar.parse")]

PACKAGE = "quivermoment"


def _functional_key(f) -> int:
    return hash((f.k, f.include_trivial, frozenset(f.values.items())))


class Tracer:
    """Spans and counters of traced instances, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance]
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self.absent: set[str] = set()
        self.instance = -1
        self._stack: list[int] = []
        self._open: set[str] = set()
        self._functionals: dict[int, set[int]] = defaultdict(set)

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open.add(name)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open.discard(self.spans[idx][0])

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(name, self.instance)] += n

    # -- wrappers ----------------------------------------------------------

    def _observe(self, layer: str, args, result) -> None:
        """Counters read off a boundary's arguments or result."""
        if layer == "linalg.rref":
            self.count("linalg.rref.cells", args[0].rows * args[0].cols)
        elif layer == "moment.is_flat":
            self._functionals[self.instance].add(_functional_key(args[0]))
        elif layer == "groebner.complete":
            self.count("groebner.trace_events", len(result.trace))
        elif layer in ("gns.build", "gns.compress"):
            self.count("gns.rep_dim", result.dim)

    def _timed(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer in tracer._open:
                return fn(*args, **kwargs)
            tracer.count(layer + ".calls")
            idx = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer._observe(layer, args, result)
            return result

        return wrapper

    def _counted(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(layer + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        undo = []
        try:
            for layer, module, attr in BOUNDARIES:
                self._install(layer, module, attr, self._timed, undo)
            for layer, module, attr in COUNTED:
                self._install(layer, module, attr, self._counted, undo)
            yield
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _install(self, layer, module, attr, make, undo) -> None:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        cls_name, _, member = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name, None)
            raw = None if cls is None else cls.__dict__.get(member)
            if raw is None:
                self.absent.add(layer)
                return
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(make(layer, raw.__func__))
            else:
                wrapped = make(layer, raw)
            undo.append((cls, member, raw))
            setattr(cls, member, wrapped)
            return
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.add(layer)
            return
        wrapped = make(layer, fn)
        for name, m in list(sys.modules.items()):
            if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for binding, value in list(vars(m).items()):
                if value is fn:
                    undo.append((m, binding, fn))
                    setattr(m, binding, wrapped)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[tuple[str, int], float]:
        """Seconds per (span name, instance): duration minus child spans."""
        out: dict[tuple[str, int], float] = defaultdict(float)
        for name, start, end, parent, inst in self.spans:
            dur = end - start
            out[(name, inst)] += dur
            if parent >= 0:
                out[(self.spans[parent][0], inst)] -= dur
        return out

    def repeat_ratio(self, instance: int) -> float:
        distinct = len(self._functionals.get(instance, ()))
        calls = self.counts.get(("moment.is_flat.calls", instance), 0)
        return calls / distinct if distinct else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "instance": inst}
                    )
                    + "\n"
                )
