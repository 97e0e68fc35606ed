"""The calibration task: a fixed computation timed alongside the queries.

The host a run lands on may change speed from one second to the next and by
half or more between runs, and a query's wall time moves with it. The task
is the benchmark's own reference solver on a seven-layer diamond chain: the
same kind of work as the program's (exact fractions, recursion over paths,
small dicts and sets), and code that no change to the program can touch.
Run at a steady share of the measured time, its mean time is the host's
mean speed over the run, and the end-to-end query times are reported in
units of it (`cal`). Set-up times are scaled by the task's time measured
around each set-up.
"""

from __future__ import annotations

import time
from fractions import Fraction

import reference as ref

EMERGY = Fraction(7, 3)
INSTANCE, ARC = ref.diamond_chain(7, EMERGY)
# The task runs once per this much query time, so on queries of any length
# it samples the host at the same share of the run, about an eighth.
EVERY_MS = 25.0
# The task's time on the host the README's figures come from: set-up times
# are reported in seconds of a host on which the task takes this long.
REFERENCE_MS = 3.5


def task_ms() -> float:
    """Run the task once and return its time in milliseconds."""
    started = time.perf_counter()
    value = ref.max_empower(INSTANCE, ARC)
    took = (time.perf_counter() - started) * 1000
    if value != EMERGY:
        raise AssertionError(f"calibration task gave {value}, not {EMERGY}")
    return took


class Calibration:
    def __init__(self):
        self.times_ms: list[float] = []
        self._owed = EVERY_MS

    def after(self, query_ms: float):
        """Count a query's time; run the task once EVERY_MS has gathered."""
        self._owed += query_ms
        if self._owed < EVERY_MS:
            return
        self._owed = 0.0
        self.times_ms.append(task_ms())
