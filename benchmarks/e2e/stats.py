"""The harness's one percentile rule.

A timing is reported as its median plus a tail percentile (p90, p95 or
p99) that still has :data:`MIN_BEYOND` samples beyond it; a percentile
the sample cannot support is refused, never extrapolated.  Percentiles are
nearest-rank (an observed sample, no interpolation), so "samples beyond"
is exact: ``len(values) - rank``.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it may be printed.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """The sample is too small for the requested percentile."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise UnsupportedPercentile("median of an empty sample")
    return float(statistics.median(values))


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples rank above the ``fraction`` percentile."""
    return count - math.ceil(fraction * count)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; raises when fewer than MIN_BEYOND lie beyond."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    count = len(values)
    beyond = samples_beyond(count, fraction)
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{fraction * 100:g} of {count} samples has {beyond} beyond it "
            f"(needs {MIN_BEYOND})"
        )
    return float(sorted(values)[math.ceil(fraction * count) - 1])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the noise rule)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / q2 if q2 else math.inf
