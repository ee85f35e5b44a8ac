"""Order statistics the benchmark reports: percentiles, tails and spreads."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Tail percentiles considered, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0)

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with ``MIN_BEYOND`` samples past it.

    ``None`` when ``count`` samples are too few for any candidate (ten
    samples support no tail at all).
    """
    for q in TAIL_CANDIDATES:
        if count * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def spread(values: Sequence[float]) -> float | None:
    """Interquartile range over the median, or None below two values."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)
