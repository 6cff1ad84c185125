"""Seeded request mixes.

The mix is drawn here, from the benchmark's own candidate lists, so the
program under test only ever sees the generated request bodies.  Rank
follows candidate order, so the popular head of the Zipf distribution is
the same for every seed; the seed changes the draw sequence.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import Dict, Iterator, List, Sequence, Tuple

ZIPF_EXPONENT = 1.1


def zipf_weights(count: int, exponent: float = ZIPF_EXPONENT) -> List[float]:
    """Unnormalized Zipf weights for ranks ``1..count``."""
    return [1.0 / rank ** exponent for rank in range(1, count + 1)]


def request_stream(candidates: Sequence[Tuple[str, str]], backends: Sequence[str],
                   seed: int) -> Iterator[Dict[str, str]]:
    """Endless deterministic stream of ``{"scenario", "query", "backend"}``
    bodies: a Zipf draw over *candidates*, with the backend drawn uniformly
    from *backends* for each request."""
    if not candidates or not backends:
        raise ValueError("a mix needs at least one candidate and one backend")
    rng = random.Random(seed)
    cumulative = list(itertools.accumulate(zipf_weights(len(candidates))))
    total = cumulative[-1]
    while True:
        index = min(bisect.bisect_right(cumulative, rng.random() * total),
                    len(candidates) - 1)
        scenario, query = candidates[index]
        backend = backends[0] if len(backends) == 1 else rng.choice(backends)
        yield {"scenario": scenario, "query": query, "backend": backend}


def distinct_requests(candidates: Sequence[Tuple[str, str]],
                      backends: Sequence[str]) -> List[Dict[str, str]]:
    """Every request a mix can draw, in candidate order (the warm pass)."""
    return [{"scenario": scenario, "query": query, "backend": backend}
            for scenario, query in candidates for backend in backends]
