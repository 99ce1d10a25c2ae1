"""Small, dependency-free summary statistics for experiment outputs.

Pure-Python implementations (exact percentiles by nearest-rank) so the
runtime keeps its zero-dependency promise; the tests cross-check against
statistics/numpy where available.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` for ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not (0.0 <= q <= 100.0):
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank - 1, 0)]


def summarize(values: Iterable[float]) -> Dict[str, float]:
    """min / p50 / p90 / p99 / max / mean / n of a sample.

    Returns an empty-sample marker (``{"n": 0}``) for no data, so sweep
    rows stay printable.
    """
    data: List[float] = list(values)
    if not data:
        return {"n": 0}
    return {
        "n": len(data),
        "min": min(data),
        "p50": percentile(data, 50),
        "p90": percentile(data, 90),
        "p99": percentile(data, 99),
        "max": max(data),
        "mean": sum(data) / len(data),
    }


def jain_index(values: Sequence[float]) -> Optional[float]:
    """Jain's fairness index: (Σx)² / (n · Σx²), in (0, 1]; 1 means all
    equal.  Used to quantify how evenly the ``choice`` fairness spreads
    latency across sources.  None for empty or all-zero samples."""
    if not values:
        return None
    total = sum(values)
    squares = sum(x * x for x in values)
    if squares == 0:
        return None
    return (total * total) / (len(values) * squares)
