"""Speed gauges: fixed tasks of the benchmark's own that time is scaled by.

The speed of a shared machine drifts, here by up to 1.8x within a
minute, and it moves every timing with it.  A gauge is a fixed task,
timed right before and right after each measured interval; the
interval is reported scaled to the speed at which the gauge takes
ref_s.  A gauge shares no code with rootfact, so a change to the
program moves the scaled times in full.  Pure-Python exact arithmetic
slows down in step with a Fraction matrix product (ARITHMETIC here), a
process spawn in step with starting a bare interpreter (STARTUP, in
workloads.py).

This module does not import rootfact, so a set-up child can read the
ARITHMETIC gauge around its own ``import rootfact``.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

import inputs
import oracles


@dataclass(frozen=True)
class Gauge:
    ref_s: float
    task: object  # () -> None
    # the measured work slows down by the gauge's slowdown to this power
    tracks: float = 1.0

    def reading(self) -> float:
        t0 = time.perf_counter()
        self.task()
        return time.perf_counter() - t0

    def scale(self, seconds: float, readings: list) -> float:
        return seconds * (self.ref_s / statistics.median(readings)) ** self.tracks

    def scaled(self, seconds: list, readings: list) -> list:
        """Scale seconds[i], measured between readings[i] and
        readings[i + 1], by the median of the six readings around it:
        one reading jitters, the drift holds for seconds."""
        return [self.scale(t, readings[max(0, i - 2):i + 4]) for i, t in enumerate(seconds)]


_CAL_RNG = random.Random("calibration")
_CAL = [[inputs.gaussian(_CAL_RNG) for _ in range(6)] for _ in range(6)]
# Over 4 minutes with the gauge between 2.7 and 5.7 ms, a fixed maps
# operation's time went as the gauge's to the power 0.8 (least squares,
# which reads low when the gauge jitters); the medians of its scaled times
# over 30-second stretches spread least, by 0.6-1.1% against 3.3-3.4% at
# power 1, at 0.85-0.9.  Fixed jacobian operations spread by 2-3% at any
# power from 0.85 to 1.
ARITHMETIC = Gauge(0.0025, lambda: oracles.mat_mul(_CAL, _CAL), tracks=0.9)
