"""``repro.obs`` — pipeline-wide tracing, metrics, and latency histograms.

The observability layer every perf-facing PR reads its numbers from:

* :func:`span` — the one instrumentation primitive.  Always feeds a
  streaming latency histogram (``span.<name>.seconds``); buffers a nested,
  thread-safe :class:`~repro.obs.trace.Span` only while tracing is enabled.
* :class:`MetricsRegistry` — named counters, gauges, and log-bucketed
  histograms reporting p50/p95/p99 without storing samples; one process-wide
  default plus injectable instances for tests.
* exporters — Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and
  a metrics snapshot JSON, surfaced as ``--trace`` / ``--metrics-out`` on
  the sweep CLI commands.

On top of the telemetry sits the analysis layer (``repro obs`` on the CLI):

* :class:`RunLedger` — an append-only per-run record store
  (``.repro-ledger/``) of metrics snapshots plus run metadata;
* :mod:`repro.obs.analyze` — self-time attribution, critical-path
  extraction, and metrics-snapshot diffing under an explicit noise band;
* :func:`sample_now` — RSS and CPU readings as max-merge gauges, taken
  once per task in pool workers and once in the parent when a sweep
  command finishes.

The hard contract is **inertness**: observability state is excluded from
task content digests and cache keys, serial and parallel sweeps stay
byte-identical with tracing on, and the disabled-path overhead is two clock
reads per span.  :func:`collect_observations` is the worker-process side of
the fabric round trip: it isolates a task's spans and metric deltas so the
parent can merge every worker's telemetry into one trace.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.analyze import (
    DiffEntry,
    MetricsDiff,
    TraceSpan,
    critical_path,
    diff_metrics,
    self_time_table,
    spans_from_trace,
)
from repro.obs.export import (
    metrics_document,
    spans_to_trace_events,
    trace_document,
    write_metrics,
    write_trace,
)
from repro.obs.ledger import DEFAULT_LEDGER_DIR, RunLedger
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from repro.obs.sample import sample_now
from repro.obs.trace import (
    Span,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    set_tracer,
    span,
    tracing_enabled,
)


class ObservationCapture:
    """What :func:`collect_observations` hands back after the body ran."""

    def __init__(self) -> None:
        self.spans: Optional[dict] = None      # drained span batch (or None)
        self.metrics: Optional[dict] = None    # registry snapshot delta

    def to_wire(self) -> dict:
        """The plain-data form shipped back through the fabric."""
        return {"spans": self.spans, "metrics": self.metrics}


@contextlib.contextmanager
def collect_observations(trace: bool = False) -> Iterator[ObservationCapture]:
    """Capture the body's spans and metric deltas in isolation.

    A fresh tracer and registry are swapped in for the duration, so the
    capture contains exactly the body's telemetry — nothing recorded before,
    nothing leaking after.  Used by pool workers to round-trip per-task
    observations to the parent; also handy in tests.
    """
    capture = ObservationCapture()
    registry = MetricsRegistry()
    tracer = Tracer()
    tracer.enabled = trace
    previous_registry = set_default_registry(registry)
    previous_tracer = set_tracer(tracer)
    try:
        yield capture
    finally:
        set_tracer(previous_tracer)
        set_default_registry(previous_registry)
        capture.metrics = registry.snapshot()
        capture.spans = tracer.drain() if trace else None


def ingest_observations(wire: Optional[dict]) -> None:
    """Merge one worker task's captured telemetry into the parent's state."""
    if not wire:
        return
    spans = wire.get("spans")
    if spans and spans.get("spans"):
        get_tracer().ingest(spans)
    metrics = wire.get("metrics")
    if metrics:
        default_registry().merge_snapshot(metrics)


__all__ = [
    "BUCKETS_PER_DECADE",
    "Counter",
    "DEFAULT_LEDGER_DIR",
    "DiffEntry",
    "Gauge",
    "Histogram",
    "MetricsDiff",
    "MetricsRegistry",
    "ObservationCapture",
    "RunLedger",
    "Span",
    "TraceSpan",
    "Tracer",
    "collect_observations",
    "critical_path",
    "default_registry",
    "diff_metrics",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "ingest_observations",
    "metrics_document",
    "sample_now",
    "self_time_table",
    "set_default_registry",
    "set_tracer",
    "span",
    "spans_from_trace",
    "spans_to_trace_events",
    "trace_document",
    "tracing_enabled",
    "write_metrics",
    "write_trace",
]
