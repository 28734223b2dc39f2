"""Host-speed calibration for the timed metrics.

Small shared hosts change speed by 20% and more over seconds to
minutes, for reasons outside the benchmark (other tenants, frequency
scaling).  A fixed pure-Python loop, timed on the same CPU around and
during each measurement, tracks that speed; every timed
end-to-end metric is reported as ``raw * REFERENCE_S / calibration``,
i.e. in seconds of a host on which the loop takes REFERENCE_S.  The loop
touches no kleingroup code, so a change to the library moves the scaled
and the raw times by the same factor.  The raw times are reported too.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3   # nominal loop time the scaled metrics refer to
EVERY_S = 0.1          # calibration interval, in wall time between tasks
                       # and in CPU time (SIGPROF) during a task


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _step(p: _Pair, q: _Pair) -> _Pair:
    return _Pair(p.a + q.b, p.b * 3 - q.a)


def _loop() -> float:
    """Time one pass of a fixed mix of what the library's Python does:
    tuples, dicts and lists, sorting, small objects and calls, big ints
    and Fractions (about 1 ms on a 2-vCPU cloud host).  On a drifting
    host this mix tracks the library's speed better than a pure
    arithmetic loop does."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(750):
        t = (i, i * 7919 % 1000)
        d[t] = [i] * 3
        d.get((i - 1, 0))
    sorted(d, key=lambda k: k[1])
    acc, big, counts = _Pair(1, 2), 10**30, {}
    for i in range(400):
        acc = _step(acc, _Pair(i, i + 1))
        counts[i % 97] = counts.get(i % 97, 0) + (big + i) * 3
        [j for j in range(6) if j != i % 6]
    sum((Fraction(i, 7) for i in range(20)), Fraction(0))
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median of three timings of the calibration loop, in seconds."""
    return sorted(_loop() for _ in range(3))[1]


def scaled(raw_s: float, before: float, after: float) -> float:
    """A duration measured between two calibrations, in reference seconds."""
    return raw_s * REFERENCE_S * 2 / (before + after)


class Gauge:
    """Calibration around and during tasks.

    ``start()`` before a task reuses a calibration younger than EVERY_S
    or takes a new one, and arms a SIGPROF timer that times the loop
    once every EVERY_S of CPU time while the task runs; ``stop()`` after
    it disarms the timer and, if the task was long, calibrates again.
    ``measure(raw)`` then removes the sampling time from the task's raw
    duration and scales it by the mean of the task's calibrations.
    """

    def __init__(self) -> None:
        self._value = calibrate()
        self._at = time.perf_counter()
        self._samples: list[float] = []
        self._sampling_s = 0.0
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(_loop())
        self._sampling_s += time.perf_counter() - t0

    def _fresh(self) -> float:
        if time.perf_counter() - self._at > EVERY_S:
            self._value = calibrate()
            self._at = time.perf_counter()
        return self._value

    def start(self) -> None:
        self._samples = [self._fresh()]
        self._sampling_s = 0.0
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._samples.append(self._fresh())

    def measure(self, raw_s: float) -> tuple[float, float]:
        """(raw seconds without the sampling, reference seconds)."""
        raw_s -= self._sampling_s
        return raw_s, raw_s * REFERENCE_S / statistics.fmean(self._samples)
