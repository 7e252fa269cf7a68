"""Percentile selection for the benchmark's reported timings.

Every quantile goes through :func:`repro.util.nearest_rank_index`, the
one percentile rule the repository uses, so a benchmark p99 and a
service-reported p99 select the same observed sample.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro.util import nearest_rank_index

#: A tail percentile is only reported where at least this many samples
#: lie beyond it; with fewer, one outlier would decide the value.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return float(ordered[nearest_rank_index(pct, len(ordered))])


def tail_percentile(nominal: float, count: int) -> float:
    """The highest percentile, at most ``nominal``, that leaves at least
    :data:`MIN_BEYOND` of ``count`` samples strictly beyond it.

    Under the nearest-rank rule percentile ``p`` selects sorted index
    ``ceil(p/100*n) - 1``, leaving ``n - ceil(p/100*n)`` samples above
    it, so the answer is ``100 * (n - MIN_BEYOND) / n`` rounded down to
    a hundredth. When that falls below the median (``count < 2 *
    MIN_BEYOND``) the sample supports no tail and the median is used.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    pct = math.floor(min(float(nominal), 100.0 * (count - MIN_BEYOND) / count) * 100) / 100
    if pct <= 50.0:
        return 50.0
    # Float rounding inside the nearest-rank rule can land one rank
    # high; step down until the rule itself leaves enough samples.
    while count - 1 - nearest_rank_index(pct, count) < MIN_BEYOND:
        pct = round(pct - 0.01, 2)
    return pct


def tail(values: Sequence[float], nominal: float) -> Tuple[float, float]:
    """``(value, percentile_used)`` for a tail of ``values``."""
    used = tail_percentile(nominal, len(values))
    return percentile(values, used), used
