"""Summary statistics for the benchmark's timings."""

from __future__ import annotations

# Candidate tail percentiles, in per mille so that the rule stays exact.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_BEYOND = 10


def percentile(values, per_mille: int) -> float:
    """Nearest-rank percentile: the smallest value with at least
    per_mille/1000 of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-per_mille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the tail latency.

    The tail is the highest percentile in TAIL_LADDER with at least
    TAIL_BEYOND samples beyond it.  Below 2 * TAIL_BEYOND samples not even
    the median qualifies; the maximum is reported then, as percentile 100.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for pm in TAIL_LADDER:
        if n * (1000 - pm) >= TAIL_BEYOND * 1000:
            best = pm
    if best is None:
        return max(values), 100.0, n
    return percentile(values, best), best / 10, n
