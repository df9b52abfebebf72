"""Summary statistics shared by every workload.

Timings are reported as a median plus a tail: the highest percentile
that still has at least ten samples beyond it, capped at p99.  With
fewer than 20 samples no percentile qualifies, and the tail falls back
to the median rather than to the noisy maximum of a few samples; the
label says which it is.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in ``(0, 100]``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Sequence[float]) -> Tuple[str, float, int]:
    """``(label, value, count)`` of the highest percentile the rule allows.

    The rule: report the highest percentile with at least
    :data:`MIN_BEYOND` samples strictly beyond it.  ``label`` is e.g.
    ``"p99"``; ``"median"`` when no candidate qualifies.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return f"p{pct:g}", percentile(samples, pct), n
    return "median", median(samples), n


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))

