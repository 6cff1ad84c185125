"""Order statistics over raw timing samples."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of *samples*, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it (too thin to repeat)."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def min_samples(fraction: float) -> int:
    """The smallest sample count for which :func:`percentile` reports *fraction*."""
    count = 1
    while percentile(range(count), fraction) is None:
        count += 1
    return count
