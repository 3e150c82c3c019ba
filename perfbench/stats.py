"""Percentile, spread and verdict arithmetic shared by runs and comparisons.

Quartiles are Python's ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method), so a comparison made here agrees with one made by
any other tool that uses the same call.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

#: A percentile is reported only with at least this many samples, so
#: that p90 has ten samples beyond it.
MIN_TAIL_SAMPLES = 100


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    if len(values) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p90 needs at least {MIN_TAIL_SAMPLES} samples, got {len(values)}"
        )
    return float(statistics.quantiles(values, n=10)[8])


def quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` of *values* (at least two of them)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*.

    Positive means worse in the metric's own direction; negative means
    better.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if base == 0:
        raise ValueError("cannot compare against a zero median")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(
    base: Sequence[float],
    new: Sequence[float],
    better: str,
    bound: float,
) -> Dict[str, object]:
    """Compare two sets of per-run values of one metric.

    ``worse`` when the new median is worse than the base median by more
    than *bound*.  When either side's own spread exceeds *bound* the
    metric is ``unresolved`` unless every new run reads better than every
    base run (``better``).  Otherwise ``ok``.
    """
    bq = quartiles(base)
    nq = quartiles(new)
    worse_by = worsening(bq[1], nq[1], better)
    base_spread = spread(base)
    new_spread = spread(new)
    if worse_by > bound:
        label = "worse"
    elif base_spread > bound or new_spread > bound:
        if better == "lower":
            all_better = max(new) < min(base)
        else:
            all_better = min(new) > max(base)
        label = "better" if all_better else "unresolved"
    else:
        label = "ok"
    return {
        "base_quartiles": bq,
        "new_quartiles": nq,
        "base_spread": base_spread,
        "new_spread": new_spread,
        "worse_by": worse_by,
        "verdict": label,
    }
