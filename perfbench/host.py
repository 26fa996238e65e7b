"""How fast the shared host runs pure Python right now.

The machines this benchmark runs on are shared: a fixed pure-Python loop
swings between about 50 and 100 ms from one tenth of a second to the next,
and the share of slow moments drifts over minutes, so a whole pass can take
20% longer for reasons outside the program.  HostSampler times a short fixed
`Fraction` loop from a SIGALRM handler every SAMPLE_PERIOD_S seconds inside
the measured child, on the same CPU and at the same moments as the work, so
the parent can express operation times at a fixed reference host speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERATIONS = 400


def calibrate(iterations: int = 20000) -> float:
    """Seconds for `iterations` rounds of a fixed pure-Python Fraction loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, iterations + 1):
        acc += (Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i)).numerator % 7
    return time.perf_counter() - t0


class HostSampler:
    """Times calibrate(SAMPLE_ITERATIONS) every SAMPLE_PERIOD_S of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0          # seconds spent in samples, to subtract from timings

    def _sample(self, signum, frame):
        seconds = calibrate(SAMPLE_ITERATIONS)
        self.samples.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
