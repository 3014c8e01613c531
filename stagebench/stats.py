"""Summary statistics of the stage benchmark (stdlib only).

Kept free of any ``repro`` import so the orchestrator and the tests
can use it without the package on the path.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles considered for the tail figure, highest last.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values``."""
    if not values:
        raise ValueError("nearest_rank of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100.0))
    return ordered[rank - 1]


def samples_beyond(n: int, percentile: float) -> int:
    """Samples ranked above the nearest-rank ``percentile`` of ``n``."""
    return n - max(1, math.ceil(n * percentile / 100.0))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or ``None`` when the sample
    is too small for any of :data:`TAIL_PERCENTILES`."""
    n = len(values)
    for percentile in reversed(TAIL_PERCENTILES):
        if samples_beyond(n, percentile) >= MIN_BEYOND:
            return percentile, nearest_rank(values, percentile)
    return None


def timing_summary(values: Sequence[float]) -> dict:
    """Median, sample count and (when the sample allows) the tail."""
    summary = {"median": statistics.median(values), "n": len(values)}
    found = tail(values)
    if found is not None:
        summary["tail_percentile"], summary["tail"] = found
    return summary


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
