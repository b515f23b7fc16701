"""An interleaved speed reference: how disturbed was this run?

The ledger was built on a shared VM where identical children differ by
10-80% in phases that last from milliseconds to minutes (README,
"Noise").  It is slowdown, not preemption (CPU time tracks wall time),
so no statistic over a run's own repeats sees through it.  What does:
a fixed kernel, run for a few percent of the time right after every
segment of the program's run, shows how fast the machine was during
that segment.  A segment's host time divided by the mean kernel time
measured beside it is the segment's length in *reference units* —
kernel executions — and that number barely moves when the machine
slows down, because program and kernel slow down together.  The
orchestrator turns units back into seconds with one constant, what the
kernel takes on the baseline box when nothing disturbs it
(``workloads.REFERENCE_KERNEL_S``).  No statistic of the kernel's own
timings can stand in for that constant: in a bad phase even the fastest
of a thousand executions is 10-20% off.

The kernel mixes what the simulator mixes — interpreter-bound dict and
integer work, and a numpy gather over an array larger than L2 — because
a tight loop that stays in L1 is hit far less by a noisy neighbour than
the simulator is.
"""

from __future__ import annotations

import time

import numpy as np

#: Share of host time spent in the reference kernel.
DUTY = 0.03


class SpeedReference:
    """Cuts a run into segments and measures the machine beside each."""

    def __init__(self, started: float):
        self._array = np.arange(1_000_000, dtype=np.int64)  # 8 MB
        self._index = (self._array[::97] * 31) % self._array.size
        self._table = {i: i for i in range(50_000)}
        self._cut = started
        #: Closed segments: (host seconds, the same in reference units).
        self.segments: list[tuple[float, float]] = []

    def _kernel(self) -> int:
        table = self._table
        total = 0
        for i in range(0, 50_000, 25):
            total += table[i] * i % 7
        return total + int(self._array[self._index].sum())

    def close_segment(self) -> float:
        """End the segment open since the last call (or the start): run
        the kernel for DUTY of its length, record it, and return the
        host seconds the kernel took (they belong to no segment)."""
        begin = time.perf_counter()
        seconds = begin - self._cut
        runs, now = 0, begin
        while now - begin < DUTY * seconds or not runs:
            self._kernel()
            runs += 1
            now = time.perf_counter()
        self.segments.append((seconds, seconds * runs / (now - begin)))
        self._cut = now
        return now - begin
