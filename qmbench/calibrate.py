"""Machine-speed reference for calibrated times.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 60% in phases that last a minute or so: identical work slows down
in wall and CPU time alike.  A run of 30 seconds sits in one or two such
phases, so raw wall times of runs with the same code spread by more than any
useful bound.

Every timed CLI call is therefore followed by a fixed reference workload,
and times are reported in calibrated seconds:

    calibrated = wall * REFERENCE_UNIT_S / measured seconds per reference unit

that is, the wall time on a machine where one reference unit takes
``REFERENCE_UNIT_S``.  A unit is plain Python that uses nothing from
``quivermoment``: exact ``Fraction`` elimination of a fixed 14 x 14 integer
matrix, and products and remainders of fixed 3000-bit integers.  Alone, the
first half slows down more than the benchmark's calls in a slow phase and
the second half less; together they track them.  The reference is the same
on every commit, so a change to the package moves calibrated times exactly
as it moves wall times, while a slow phase of the host slows the calls and
the reference together and cancels out.

Set-up time, a cold import in a fresh interpreter, is mostly reading and
executing bytecode, which that reference does not track.  Each cold import
of the package is calibrated instead against cold imports of the fixed
standard-library modules ``REFERENCE_IMPORT`` in fresh interpreters just
before and after it, in the same way.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median seconds of one reference unit on a 2-vCPU Intel Xeon VM at
# 2.0 GHz with CPython 3.11; a fixed conversion factor, not re-measured.
REFERENCE_UNIT_S = 0.016
# Reference time after a call, as a share of the call's own time.
REFERENCE_SHARE = 0.15
# Standard-library modules of the set-up reference, and the median seconds
# of their cold import on the machine above.
REFERENCE_IMPORT = "asyncio, http.client, email.message, xml.dom.minidom, unittest"
REFERENCE_IMPORT_S = 0.09

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(14)] for _ in range(14)]
_BIG = [_rng.getrandbits(3000) | 1 for _ in range(40)]


def reference_unit() -> None:
    """One unit of reference work: the fixed elimination and products."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        p = rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / p[c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], p)]
    for i, a in enumerate(_BIG):
        for j in range(0, len(_BIG), 8):
            a * _BIG[j] % _BIG[(i + j) % len(_BIG)]


class Reference:
    """Reference work interleaved with the calls of one stretch of work."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def follow(self, call_seconds: float) -> None:
        """Run reference units in proportion to a call that just ended."""
        units = max(1, round(REFERENCE_SHARE * call_seconds / REFERENCE_UNIT_S))
        start = time.perf_counter()
        for _ in range(units):
            reference_unit()
        self.seconds += time.perf_counter() - start
        self.units += units

    def unit_s(self) -> float:
        """Measured seconds per reference unit."""
        return self.seconds / self.units

    def scale(self) -> float:
        """Factor that turns wall seconds of the stretch into calibrated seconds."""
        return REFERENCE_UNIT_S / self.unit_s()
