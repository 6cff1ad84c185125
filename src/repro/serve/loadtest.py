"""``repro loadtest`` — a Zipf-mix load generator for the serve daemon.

Real query traffic is heavy-tailed: a few questions are asked constantly,
a long tail rarely.  The generator models that with a **Zipf-weighted mix**
over the temporal query corpus — query popularity ``∝ 1/rank^s`` — drawn by
a seeded RNG, so the same (seed, duration, qps) always replays the same
request schedule against any server.

Replay is **open-loop**: request *i* fires at ``start + i/qps`` whether or
not earlier requests have completed, which is what makes the measured
latency honest under saturation (closed-loop generators slow down with the
server and hide queueing delay).

The report combines both measurement sides:

* client-side: exact nearest-rank p50/p95/p99 over per-request round-trip
  times, plus achieved throughput;
* server-side: the ``span.serve.request.seconds`` histogram scraped from
  ``GET /metrics``, with its log-bucket percentile estimates.

``--json`` writes the report as a metrics snapshot (:meth:`LoadTestReport.
to_document`), and ``repro obs gate`` compares it with the committed
``benchmarks/results/loadtest_baseline.json`` under the load-test rows of
:data:`repro.obs.analyze.GATE_BANDS`.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.benchmark.queries import temporal_queries_for, temporal_scenario_names
from repro.obs.analyze import (
    LOADTEST_COMPLETED,
    LOADTEST_FAILED,
    LOADTEST_LATENCY,
    LOADTEST_SECONDS_PER_REQUEST,
)
from repro.serve.http import request_json
from repro.serve.service import ServerThread, ServiceConfig
from repro.utils.validation import require

#: the serve-side histogram the report scrapes
SERVER_SPAN_METRIC = "span.serve.request.seconds"

#: the name it is stored under in the report: not a ``span.`` name, so the
#: gate judges the client-side numbers only
SERVER_HISTOGRAM = "loadtest.server.seconds"


@dataclass
class LoadTestConfig:
    """Knobs of one load-test run."""

    #: target server; ``None`` host means spawn an in-process server
    host: Optional[str] = None
    port: int = 8642
    duration_s: float = 10.0
    qps: float = 5.0
    #: Zipf exponent ``s``: popularity of the rank-``r`` query ``∝ 1/r^s``
    zipf_exponent: float = 1.1
    seed: int = 7
    #: restrict the mix to these scenarios (default: the temporal corpus)
    scenarios: Optional[List[str]] = None
    model: str = "gpt-4"
    backend: str = "direct"
    timeout_s: float = 30.0
    #: config for the spawned server (spawn mode only)
    service: ServiceConfig = field(default_factory=lambda: ServiceConfig(port=0))

    def validate(self) -> None:
        require(self.duration_s > 0, "duration_s must be positive")
        require(self.qps > 0, "qps must be positive")
        require(self.zipf_exponent > 0, "zipf_exponent must be positive")

    def request_count(self) -> int:
        return max(1, math.ceil(self.duration_s * self.qps))


# ---------------------------------------------------------------------------
# the query mix
# ---------------------------------------------------------------------------
def zipf_weights(count: int, exponent: float) -> List[float]:
    """Unnormalized Zipf weights for ranks ``1..count``."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def build_query_mix(config: LoadTestConfig) -> List[Dict[str, Any]]:
    """The deterministic request schedule: one JSON body per request.

    Candidates are the temporal queries of the selected scenarios in corpus
    order; rank follows that order, so the head of the Zipf distribution is
    stable across runs and machines.  The draw uses a dedicated seeded RNG
    — same config, same schedule, byte for byte.
    """
    config.validate()
    scenarios = list(config.scenarios or temporal_scenario_names())
    candidates: List[Tuple[str, str]] = []
    for scenario in scenarios:
        for query in temporal_queries_for(scenario):
            candidates.append((scenario, query.query_id))
    require(bool(candidates),
            f"no temporal queries found for scenarios {scenarios!r}")
    rng = random.Random(config.seed)
    weights = zipf_weights(len(candidates), config.zipf_exponent)
    drawn = rng.choices(range(len(candidates)), weights=weights,
                        k=config.request_count())
    return [{"scenario": candidates[index][0],
             "query": candidates[index][1],
             "model": config.model,
             "backend": config.backend} for index in drawn]


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------
def percentile(sorted_samples: List[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile over an ascending sample list."""
    if not sorted_samples:
        return None
    rank = max(1, math.ceil(fraction * len(sorted_samples)))
    return sorted_samples[rank - 1]


@dataclass
class LoadTestReport:
    """The outcome of one load-test run (see :meth:`to_document`)."""

    target_qps: float
    duration_s: float
    sent: int
    completed: int
    failed: int
    wall_s: float
    latencies_s: List[float] = field(default_factory=list, repr=False)
    status_counts: Dict[str, int] = field(default_factory=dict)
    #: the server's span histogram snapshot, scraped after the run
    server_histogram: Optional[Dict[str, Any]] = None

    @property
    def throughput_qps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def latency_summary(self) -> Dict[str, Optional[float]]:
        ordered = sorted(self.latencies_s)
        return {
            "p50": percentile(ordered, 0.50),
            "p95": percentile(ordered, 0.95),
            "p99": percentile(ordered, 0.99),
            "min": ordered[0] if ordered else None,
            "max": ordered[-1] if ordered else None,
            "mean": sum(ordered) / len(ordered) if ordered else None,
        }

    def to_document(self) -> Dict[str, Any]:
        """The report as a metrics snapshot (``counters``/``gauges``/
        ``histograms``), the shape ``repro obs gate`` reads."""
        def _round(value: Optional[float]) -> Optional[float]:
            return None if value is None else round(value, 6)

        counters = {LOADTEST_COMPLETED: self.completed,
                    LOADTEST_FAILED: self.failed,
                    "loadtest.sent": self.sent}
        for status, count in self.status_counts.items():
            counters[f"loadtest.status.{status}"] = count
        latency = {name: _round(value)
                   for name, value in self.latency_summary().items()}
        latency["count"] = self.completed
        histograms = {LOADTEST_LATENCY: latency}
        if self.server_histogram is not None:
            histograms[SERVER_HISTOGRAM] = self.server_histogram
        return {
            "counters": counters,
            "gauges": {
                "loadtest.duration_s": self.duration_s,
                "loadtest.target_qps": self.target_qps,
                "loadtest.wall_s": _round(self.wall_s),
                LOADTEST_SECONDS_PER_REQUEST: _round(
                    self.wall_s / max(self.completed, 1)),
            },
            "histograms": histograms,
        }

    def render(self) -> str:
        summary = self.latency_summary()

        def _ms(value: Optional[float]) -> str:
            return "-" if value is None else f"{value * 1000:.1f}ms"

        lines = [
            f"load test: {self.completed}/{self.sent} ok, {self.failed} failed, "
            f"wall {self.wall_s:.2f}s",
            f"throughput: {self.throughput_qps:.2f} qps "
            f"(target {self.target_qps:g} qps)",
            f"latency:    p50 {_ms(summary['p50'])}   p95 {_ms(summary['p95'])}   "
            f"p99 {_ms(summary['p99'])}   max {_ms(summary['max'])}",
        ]
        if self.server_histogram:
            lines.append(
                f"server:     {SERVER_SPAN_METRIC} count "
                f"{self.server_histogram.get('count')} "
                f"p95 {_ms(self.server_histogram.get('p95'))} "
                f"p99 {_ms(self.server_histogram.get('p99'))}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the open-loop driver
# ---------------------------------------------------------------------------
async def _fire(host: str, port: int, body: Dict[str, Any], delay_s: float,
                timeout_s: float) -> Tuple[str, float]:
    """One scheduled request; returns ``(status label, round-trip seconds)``."""
    if delay_s > 0:
        await asyncio.sleep(delay_s)
    started = time.perf_counter()
    try:
        status, _document = await request_json(
            host, port, "POST", "/query", body, timeout=timeout_s)
        label = str(status)
    except (asyncio.TimeoutError, ConnectionError, OSError) as error:
        label = f"error:{type(error).__name__}"
    return label, time.perf_counter() - started


async def drive_loadtest(config: LoadTestConfig, host: str,
                         port: int) -> LoadTestReport:
    """Replay the mix open-loop against a live server and build the report."""
    mix = build_query_mix(config)
    interval = 1.0 / config.qps
    started = time.perf_counter()
    outcomes = await asyncio.gather(*[
        _fire(host, port, body, index * interval, config.timeout_s)
        for index, body in enumerate(mix)])
    wall_s = time.perf_counter() - started

    status_counts: Dict[str, int] = {}
    latencies: List[float] = []
    completed = 0
    for label, latency in outcomes:
        status_counts[label] = status_counts.get(label, 0) + 1
        if label == "200":
            completed += 1
            latencies.append(latency)
    report = LoadTestReport(
        target_qps=config.qps, duration_s=config.duration_s, sent=len(mix),
        completed=completed, failed=len(mix) - completed, wall_s=wall_s,
        latencies_s=latencies, status_counts=status_counts)

    try:
        status, metrics = await request_json(host, port, "GET", "/metrics",
                                             timeout=config.timeout_s)
        if status == 200:
            report.server_histogram = metrics.get("histograms", {}).get(
                SERVER_SPAN_METRIC)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        # the report is still useful without the server-side view
        report.server_histogram = None
    return report


def run_loadtest(config: LoadTestConfig) -> LoadTestReport:
    """Run one load test; spawns an in-process server when no host is given."""
    config.validate()
    if config.host is not None:
        return asyncio.run(drive_loadtest(config, config.host, config.port))
    with ServerThread(config.service) as server:
        return asyncio.run(drive_loadtest(config, server.host, server.port))
