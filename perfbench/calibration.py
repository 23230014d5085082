"""The machine's speed during a measurement, from a fixed loop that does not
use matchcover.

The shared 2-core machine switches between two speeds about 1.6x apart, in
phases of a fraction of a second to a few seconds, and drifts between
faster and slower regimes over minutes: raw times of the same work moved
by 40% between sets of runs a few minutes apart. So while work is measured,
a timer signal runs a short fixed loop every INTERVAL_S in the measuring
thread and records the CPU time each run of the loop took. The samples are
spread evenly over the measured time, as the work is. Then

    scaled = measured * REFERENCE_S / mean(samples)

is the time the work would take at the reference speed, where the loop
takes REFERENCE_S. A change to matchcover does not change the loop, so its
gains and losses show in full. The loop and the constants must never
change, or figures before and after the change stop being comparable.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.005
INTERVAL_S = 0.2
ROUNDS = 700


def loop() -> int:
    """Big-integer bit scans, dict updates, calls and Fraction arithmetic."""
    table: dict[int, int] = {}
    acc = 0
    f = Fraction(0)
    for i in range(ROUNDS):
        m = (i * 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        while m:
            low = m & -m
            m ^= low
            acc += low.bit_length()
        key = acc & 255
        table[key] = table.get(key, 0) + 1
        if i % 8 == 0:
            f += Fraction(i + 1, 7)
    return acc


def sample() -> float:
    """CPU seconds one run of the loop takes now, in this thread."""
    t0 = time.thread_time()
    loop()
    return time.thread_time() - t0


class Sampler:
    """Samples the loop every INTERVAL_S while the `with` block runs.

    The samples run in a SIGALRM handler, so in the measuring thread itself
    and on its core, between two bytecodes of whatever it is doing. Their
    own wall time is recorded so that `measured` can take it out again; a
    time measured in the block, times `factor`, is the time at the
    reference speed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stamps: list[float] = []
        self.spent: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(sample())
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.spent.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._tick(None, None)

    def _inside(self, start: float, end: float) -> list[int]:
        return [k for k, t in enumerate(self.stamps) if start <= t <= end]

    def measured(self, start: float, end: float) -> float:
        """Wall time between two perf_counter stamps, less the samples'."""
        return end - start - sum(self.spent[k] for k in self._inside(start, end))

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference speed over the speed seen between two perf_counter
        stamps (by the samples taken then, or all samples if none were)."""
        inside = [self.samples[k] for k in self._inside(start, end)]
        return REFERENCE_S / statistics.mean(inside or self.samples)
