"""Order statistics of timing samples, as the benchmark reports them."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0)


def quantile(ordered: Sequence[float], share: float) -> float:
    """The nearest-rank quantile of already sorted samples."""
    index = min(len(ordered) - 1, max(0, int(share * len(ordered))))
    return ordered[index]


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ten samples beyond it.

    With fewer than forty samples there is no tail worth the name.
    """
    if count < 40:
        return None
    for percent in TAILS:
        if count * (1 - percent / 100) >= 10:
            return percent
    return None


def describe(samples: List[float]) -> Dict[str, float]:
    """Gated low statistic plus the ungated median, tail and count."""
    ordered = sorted(samples)
    found: Dict[str, float] = {
        "min": ordered[0],
        "p10": quantile(ordered, 0.10),
        "median": statistics.median(ordered),
        "count": len(ordered),
    }
    percent = tail_percentile(len(ordered))
    if percent is not None:
        found[f"p{percent:g}"] = quantile(ordered, percent / 100)
    return found


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and (q3 - q1) / median of run values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / median if median else float("inf"),
    }
