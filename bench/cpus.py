"""Host speed: where a benchmark process runs, and how fast that CPU is now.

On a shared host one CPU can run a third slower than another for tens of
seconds while a neighbour keeps it busy, the two trade places over time,
and the whole host drifts by up to twice over tens of minutes. Every few
seconds the process times a short fixed loop on each CPU it may use, pins
itself to the fastest, and keeps that loop's time as the current reference.

Timings scaled with ``scale`` are expressed at a nominal host speed, one
where the reference loop takes NOMINAL_REFERENCE_NS. The program's own
changes show in them in full; the host's drift largely cancels.
"""

from __future__ import annotations

import os
import time
from time import perf_counter_ns

RECHECK_S = 2.0
SPIN_ROUNDS = 5
SPIN_ITERATIONS = 20_000  # about 1 ms of interpreter work
NOMINAL_REFERENCE_NS = 1_000_000


def _spin_ns() -> int:
    t0 = perf_counter_ns()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i % 7
    return perf_counter_ns() - t0


def _fastest_spin_ns() -> int:
    return min(_spin_ns() for _ in range(SPIN_ROUNDS))


class CpuPicker:
    """Pins the calling process to its fastest allowed CPU and tracks the
    reference loop's time there."""

    def __init__(self):
        self.allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.reference_ns = None
        self._checked = None

    def pin(self) -> None:
        """Re-measure and re-pick if RECHECK_S seconds have passed since the last time."""
        now = time.monotonic()
        if self._checked is not None and now - self._checked < RECHECK_S:
            return
        self._checked = now
        if len(self.allowed) < 2:
            self.reference_ns = _fastest_spin_ns()
            return
        speeds = {}
        for cpu in sorted(self.allowed):
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = _fastest_spin_ns()
        best = min(speeds, key=speeds.get)
        os.sched_setaffinity(0, {best})
        self.reference_ns = speeds[best]

    def scale(self, ns: float) -> float:
        """A duration measured since the last pin(), at nominal host speed."""
        return ns * NOMINAL_REFERENCE_NS / self.reference_ns

    def release(self) -> None:
        """Allow every CPU again, for children started from here on."""
        if len(self.allowed) >= 2:
            os.sched_setaffinity(0, self.allowed)
        self._checked = None
