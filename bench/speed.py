"""Machine speed, for scaling measured times to a reference speed.

The machines this benchmark runs on are shared.  On the 2-core 2.1 GHz Xeon
of the baseline, other tenants slowed the same code by 1.3x to 1.7x for
stretches of 15 to 30 seconds, back and forth over minutes: over four
minutes, the fastest time of a fixed set of powers_lib jobs in each 15 s
window had an interquartile range of 0.45 of its median, and 0.14 once
scaled as below.  A fixed pure-Python kernel is timed between jobs: exact
rational arithmetic on dicts keyed by exponent tuples, as in the program's
own kernels, but sharing no code with the program.  A measured time is
multiplied by REFERENCE_S over the kernel's time around it, so that it reads
as it would at the reference speed.  A change to the program cannot change
the kernel, so a faster program still reads faster.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0016  # the probe on the baseline machine in its fast periods
EVERY_S = 0.5  # the closed loop probes before a job once this much has passed
WINDOW_S = 1.0  # probes this close to a measured interval set its speed


def _kernel() -> dict:
    """(a - b/3 + c/2 + 1)^6 by repeated sparse multiplication."""
    base = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1, 3), (0, 0, 1): Fraction(1, 2),
            (0, 0, 0): Fraction(1)}
    power = {(0, 0, 0): Fraction(1)}
    for _ in range(6):
        out: dict = {}
        for m1, c1 in power.items():
            for m2, c2 in base.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[mono] = out.get(mono, 0) + c1 * c2
        power = out
    return power


def probe() -> float:
    """Seconds of the fastest of three runs of the kernel."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedLog:
    """Probes taken while a run goes on, and the scale factor they give for
    any interval of the run."""

    def __init__(self):
        self.at: list = []  # perf_counter() at the end of each probe
        self.probes: list = []

    def probe(self) -> None:
        value = probe()
        self.at.append(time.perf_counter())
        self.probes.append(value)

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the probes within WINDOW_S of the
        interval, or of the nearest probe when none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.probes[lo:hi]
        if not near:
            near = [self.probes[min(lo, len(self.probes) - 1)]]
        return REFERENCE_S / statistics.median(near)

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, start + seconds)
