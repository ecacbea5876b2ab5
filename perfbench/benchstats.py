"""Small order statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

#: Percentiles the tail helper may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: A percentile is reported only when at least this many samples lie
#: beyond it; a p99 over 200 samples rests on two values and says little.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(pct: float, n: int) -> int:
    """Nearest rank of *pct* among *n* samples (rounded first, so that
    99.9 % of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of *values* (``0 < pct <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(pct, len(ordered)) - 1])


def supported_percentile(n: int) -> "float | None":
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of *n* samples beyond it; None if even the median
    lacks that support."""
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct
    return None


def tail_percentile(values) -> "tuple[float | None, float | None, int]":
    """``(pct, value, n)``: :func:`supported_percentile` of the *n*
    samples and its value, or ``(None, None, n)``."""
    pct = supported_percentile(len(values))
    if pct is None:
        return None, None, len(values)
    return pct, percentile(values, pct), len(values)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
