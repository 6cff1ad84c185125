"""The golden-answer selector (paper Figure 3, left box).

For each benchmark query the selector produces the verified golden outcome on
the evaluation graph: a value, an updated graph, or both.  Golden outcomes
are computed once per (query, graph) pair and cached, because the benchmark
runner evaluates the same query against four models and four backends.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.benchmark.queries import BenchmarkQuery, TemporalQuery
from repro.graph import PropertyGraph
from repro.synthesis.reference import (
    ReferenceOutcome,
    evaluate_reference,
    evaluate_temporal_reference,
)


@dataclass
class GoldenAnswer:
    """The verified outcome of one query on one evaluation graph."""

    query_id: str
    kind: str                                  # "value", "graph", or "both"
    value: Any = None
    graph: Optional[PropertyGraph] = None

    @property
    def expects_value(self) -> bool:
        return self.kind in ("value", "both")

    @property
    def expects_graph(self) -> bool:
        return self.kind in ("graph", "both")


class GoldenAnswerSelector:
    """Compute (and cache) golden answers for benchmark queries."""

    def __init__(self) -> None:
        # the cache key uses id(graph), but a garbage-collected graph's
        # address can be reused by a *different* graph (seen in
        # multi-scenario sweeps), which would silently serve a stale golden.
        # The weakref identity check rejects such recycled-address hits
        # without keeping every queried graph alive for the cache's lifetime.
        self._cache: Dict[Tuple[str, int],
                          Tuple["weakref.ref[PropertyGraph]", GoldenAnswer]] = {}
        # one selector serves every cell of a process, and serve's answer
        # threads run cells concurrently: a store landing while another
        # thread's prune iterates the cache would break that iteration
        self._lock = threading.Lock()

    def _prune_dead(self) -> int:
        """Drop entries whose graph has been garbage-collected.

        Without this sweep, multi-scenario runs grow the cache by one entry
        per (query, graph) pair forever: the weakref identity check rejects
        recycled-id hits but never *removes* the dead entry it rejected.
        Returns how many entries were evicted.
        """
        with self._lock:
            dead = [key for key, (ref, _) in self._cache.items() if ref() is None]
            for key in dead:
                del self._cache[key]
        return len(dead)

    def __len__(self) -> int:
        return len(self._cache)

    def golden_for(self, query: BenchmarkQuery, graph: PropertyGraph) -> GoldenAnswer:
        """The golden outcome of *query* evaluated on *graph*."""
        cache_key = (query.query_id, id(graph))
        cached = self._cache.get(cache_key)
        if cached is not None and cached[0]() is graph:
            return cached[1]
        # a miss either means a brand-new graph or a dead/recycled entry —
        # either way this is the moment to sweep out dead weakrefs so the
        # cache stays bounded by the number of *live* evaluation graphs
        self._prune_dead()
        outcome: ReferenceOutcome = evaluate_reference(graph, query.intent)
        golden = GoldenAnswer(
            query_id=query.query_id,
            kind=outcome.kind,
            value=outcome.value,
            graph=outcome.graph,
        )
        with self._lock:
            self._cache[cache_key] = (weakref.ref(graph), golden)
        return golden

    def expected_graph(self, golden: GoldenAnswer,
                       original: PropertyGraph) -> PropertyGraph:
        """The graph state the generated code should leave behind.

        For pure analysis queries the network state must be untouched, so the
        expected graph is the original; for manipulation queries it is the
        golden's updated graph.
        """
        if golden.expects_graph and golden.graph is not None:
            return golden.graph
        return original


class TemporalGoldenSelector:
    """Compute (and cache) golden answers for temporal queries.

    A temporal golden is a pure function of (query, timeline *content*), so
    the cache key is the timeline's determinism fingerprint — the tuple of
    its per-snapshot content digests — rather than an object identity.  Two
    replays of the same spec share cache entries, and a timeline with any
    differing snapshot can never serve a stale golden.
    """

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, Tuple[str, ...]], GoldenAnswer] = {}

    @staticmethod
    def fingerprint(timeline) -> Tuple[str, ...]:
        """The timeline's content identity (cached snapshot digests)."""
        return tuple(timeline.digests())

    def __len__(self) -> int:
        return len(self._cache)

    def golden_for(self, query: TemporalQuery, timeline) -> GoldenAnswer:
        """The golden outcome of *query* evaluated on *timeline*."""
        cache_key = (query.query_id, self.fingerprint(timeline))
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        outcome: ReferenceOutcome = evaluate_temporal_reference(timeline, query.intent)
        golden = GoldenAnswer(
            query_id=query.query_id,
            kind=outcome.kind,
            value=outcome.value,
            graph=outcome.graph,
        )
        self._cache[cache_key] = golden
        return golden
