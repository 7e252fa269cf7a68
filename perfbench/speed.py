"""Host-speed reference: timings scaled to a fixed machine speed.

On a shared host the same CPU work does not take the same time from one
second to the next. On the 2-vCPU KVM guest this benchmark was built on,
a fixed kernel took either about 4 ms or about 6 ms, switching between
the two every few seconds on both vCPUs alike, so a run's timings moved
by as much as a real regression would, depending on how its seconds
fell. The benchmark therefore also times :func:`reference_kernel`, a
fixed piece of work that depends only on Python and numpy (never on the
program, so a change to the program cannot move it), right beside every
timed sample: before and after each batch, backlog drain, recovery,
explanation and set-up, and in the open loop while the scorer waits for
the next event.

A sample taken over ``[start, end]`` is scaled by its *speed factor*:
the mean time of the kernels run inside that interval and of the
``side`` nearest on either side, over :attr:`SpeedMeter.reference_ms`
(above 1: the host ran slower than the reference). A time is divided by
the factor, a rate multiplied, so each reads as it would on a host where
the kernel takes ``reference_ms``. The raw values are printed beside the
scaled ones. A change to the kernel, ``reference_ms`` or ``side``
changes every timing, so it is a change of the benchmark.

Measured on that guest: over 100 s of serving batches, each preceded by
a kernel, the 4-s medians of the batch time had a coefficient of
variation of 0.19; divided by the kernel's, 0.04.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy as np

_RNG = np.random.default_rng(20211)
_MATRIX = _RNG.standard_normal((64, 64))
_SMALL = _RNG.standard_normal(64)
_LARGE = _RNG.standard_normal(200_000)
_GATHER = _RNG.integers(0, 200_000, 5_000)
_KEYS = _RNG.integers(0, 5_000, 5_000)


def reference_kernel() -> float:
    """About a millisecond of fixed work in the program's mix:
    interpreter loops and dicts, small-array numpy calls, a gather and
    sorts over a larger array, and small matrix products."""
    total = 0
    for i in range(4_000):
        total += i * i
    table = {}
    for i in range(1_000):
        table[i] = i
    x = _SMALL
    for _ in range(80):
        x = np.add(x, 1.0) * 0.5
    for _ in range(3):
        total += float(_LARGE[_GATHER].sum())
    np.argsort(_LARGE[:5_000])
    np.unique(_KEYS)
    for _ in range(8):
        _MATRIX @ _MATRIX
    return total + float(x[0]) + len(table)


class SpeedMeter:
    """Kernel timings in time order, and the speed factor they give
    for any interval of the run."""

    def __init__(self, reference_ms: float, side: int) -> None:
        self.reference_ms = reference_ms
        self.side = side
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def tick(self, count: int = 1) -> None:
        """Run and time the kernel ``count`` times."""
        for _ in range(count):
            started = time.perf_counter()
            reference_kernel()
            self.starts.append(started)
            self.seconds.append(time.perf_counter() - started)

    def factor(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` (plus the ``side``
        nearest kernels on each side) over the reference time."""
        first = max(bisect.bisect_left(self.starts, start) - self.side, 0)
        last = min(bisect.bisect_right(self.starts, end) + self.side, len(self.starts))
        if first >= last:
            raise ValueError("no reference kernel was timed near the interval")
        times = self.seconds[first:last]
        return 1e3 * sum(times) / len(times) / self.reference_ms

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """A duration measured over ``[start, end]``, at reference speed."""
        return seconds / self.factor(start, end)

    def mean_factor(self) -> float:
        """The run's mean factor, for the report."""
        return 1e3 * sum(self.seconds) / len(self.seconds) / self.reference_ms
