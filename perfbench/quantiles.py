"""Order statistics over the raw samples a benchmark run collected.

Every percentile the benchmark reports is computed here from the exact
samples, never from histogram buckets: a bucketed estimate reports a
bucket edge (for example 5e-7 s) when every sample costs 2e-7 s.
"""

from __future__ import annotations

import math
from typing import Sequence


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a ``q``
    share of the samples at or below it.  Always returns a sample."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered))
    return ordered[max(rank, 1) - 1]
