"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
