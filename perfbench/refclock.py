"""Timing normalised against a fixed reference loop.

The host's speed changes by up to 2x within seconds, and neither steal
time nor process CPU time shows it.  So every timed call is scaled to the
speed at which the reference loop runs in REF_NOMINAL_S:

    normalised = seconds * REF_NOMINAL_S / mean(reference readings)

The readings are one full loop before and one after the call, plus short
loops (1/SAMPLE_DIV of the full one, scaled up) that a timer signal runs
every SAMPLE_EVERY_S seconds during the call, because the speed also
changes within a call of a few seconds.  The short loops are timed in
thread CPU time, so that a worker thread holding the interpreter lock does
not lengthen them, and that CPU time is taken out of the call's seconds:
in a threaded section the handler's wall time also holds time in which the
pool's workers ran the program.

The loop uses no containers, so the program's heap cannot slow it.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Tuple

# Floor of ref_reading() on the 2-core reference machine (see README).
REF_NOMINAL_S = 0.0175

REF_ITERATIONS = 100_000
SAMPLE_DIV = 10
SAMPLE_EVERY_S = 0.05

# A reading older than this is taken again before the next timed call.
STALE_S = 0.25


def ref_loop(iterations: int = REF_ITERATIONS) -> int:
    x = 0x9E3779B9
    acc = 0
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        acc ^= x >> 7
    return acc


def ref_reading() -> float:
    t0 = time.perf_counter()
    ref_loop()
    return time.perf_counter() - t0


class Clock:
    """Times calls; keeps every full reference reading it takes."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self._last = 0.0
        self._last_at = float("-inf")
        self._samples: List[float] = []
        self._sampling_s = 0.0

    def _read(self) -> float:
        self._last = ref_reading()
        self._last_at = time.perf_counter()
        self.readings.append(self._last)
        return self._last

    def _sample(self, _signum, _frame) -> None:
        t0 = time.thread_time()
        ref_loop(REF_ITERATIONS // SAMPLE_DIV)
        cpu = time.thread_time() - t0
        self._samples.append(cpu * SAMPLE_DIV)
        self._sampling_s += cpu

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """(result, raw seconds, normalised seconds) of fn(*args).  If fn
        raises, the exception propagates after the closing reading."""
        if time.perf_counter() - self._last_at > STALE_S:
            self._read()
        before = self._last
        self._samples = []
        self._sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            after = self._read()
        raw = wall - self._sampling_s
        readings = self._samples + [before, after]
        return result, raw, raw * REF_NOMINAL_S * len(readings) / sum(readings)


# How long main() takes back-to-back readings.
FLOOR_RUN_S = 90.0


def main() -> int:
    """python3 perfbench/refclock.py: back-to-back readings for FLOOR_RUN_S;
    prints their minimum, 1st percentile and median.  REF_NOMINAL_S is the
    minimum, rounded."""
    readings = []
    end = time.perf_counter() + FLOOR_RUN_S
    while time.perf_counter() < end:
        readings.append(ref_reading())
    readings.sort()
    print(f"{len(readings)} readings: min {readings[0]:.5f} s, "
          f"p1 {readings[len(readings) // 100]:.5f} s, "
          f"median {readings[len(readings) // 2]:.5f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
