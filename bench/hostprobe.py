"""Host-speed probe: a fixed reference loop timed every 100 ms of a pass.

The 2-vCPU host this benchmark was written on changes speed under the
program.  A fixed loop ran up to 2x slower for stretches of 0.1 s to
minutes, and CPU time moved with wall time.  Raw seconds of the same pass
then spread by about 0.2 (IQR / median) between runs.

So each worker times a fixed reference loop from a SIGALRM handler every
`INTERVAL_S` seconds while it sets up and runs jobs.  The time spent in the
handler is subtracted from every timing.  run.py divides each measured time
by the mean reference time seen during it (for a job, also in the
INTERVAL_S before and after it), then multiplies by `REFERENCE_S`.  The
result is "seconds on a host where the reference loop takes REFERENCE_S":
the measured time with the host's speed taken out.

The loop does what the program does most: exact Fraction elimination on a
small dense matrix, then tuple keys into a dict.  In a test on that host,
alternating the loop with `rank_kernel` and `proj_points` calls gave a
correlation of 0.99 between the two series.  Normalizing cut the spread of
0.7 s windows from 0.23 to 0.02.  Over ten fresh-process passes of
n2-survey, during which the host's speed changed by a third, the spread of
the pass's job-time sum fell from 0.40 to 0.05.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
REFERENCE_S = 0.005  # about the loop's median time on the host it was written on


def reference_seconds() -> float:
    """Time of one run of the fixed reference loop.

    The collector is off while it runs, so the size of the program's heap
    does not change the time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(9)] for i in range(9)]
    for c in range(9):
        p = next((r for r in range(c, 9) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(9):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    counts: dict = {}
    for i in range(3000):
        key = (i % 17, i % 13, i % 11)
        counts[key] = counts.get(key, 0) + 1
    seconds = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return seconds


class HostProbe:
    """Samples `reference_seconds()` from a SIGALRM handler every INTERVAL_S.

    `samples` holds (perf_counter at the sample, reference seconds).
    `spent` is the total time spent in the handler, which callers subtract
    from their own timings.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        start = time.perf_counter()
        self.samples.append((start, reference_seconds()))
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def slowdown(samples, start: float = float("-inf"), end: float = float("inf"),
             fallback: float = 1.0) -> float:
    """Mean reference time of the samples taken in [start, end] over
    REFERENCE_S, or `fallback` when none was taken there."""
    inside = [r for t, r in samples if start <= t <= end]
    return statistics.fmean(inside) / REFERENCE_S if inside else fallback
