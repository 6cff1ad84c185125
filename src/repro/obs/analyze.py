"""Trace and metrics analysis: from raw telemetry to a verdict.

:mod:`repro.obs` records what happened (spans, counters, histograms); this
module answers the operator's questions about it:

* **Where does the time go?**  :func:`self_time_table` attributes each
  span's *self* time (its duration minus its direct children's), so a
  parent that merely waits on its children stops dominating the table.
* **What is the slowest chain?**  :func:`critical_path` walks from the
  slowest root span down its slowest child at every level — the chain a
  latency optimisation has to shorten.
* **Did this run regress?**  :func:`diff_metrics` compares two metrics
  snapshots under an explicit noise model, one :class:`NoiseBand` row per
  metric-name prefix: a value only counts as a regression when it exceeds
  the baseline by *both* a ratio and an absolute floor, and a histogram
  only when both sides saw enough observations.  A metric present on one
  side only is reported as ``new``/``removed`` — never as a crash, never
  as a silent 0-vs-N regression.  ``repro obs diff`` compares two runs on
  one host under :data:`DIFF_BANDS`; ``repro obs gate`` (:func:`
  gate_metrics`) compares a run with a committed baseline under
  :data:`GATE_BANDS`, the only place CI's gate thresholds live.

The noise band follows the O&M-metrics hotspot-localization idea: with a
per-stage latency distribution recorded on every run, operational metrics
alone — compared across time against an explicit noise model — suffice to
localize a degradation to the stage that caused it.

Everything here consumes the *exported* JSON forms (``write_trace`` /
``write_metrics`` documents), so analysis works offline on artifacts — no
live tracer required.  The span-parsing helpers (:data:`X_EVENT_FIELDS`,
:func:`metadata_process_name`, :func:`spans_from_trace`) are also what
``benchmarks/check_trace_schema.py`` validates against, so exporter and
checker cannot drift apart.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.utils.tables import format_table
from repro.utils.validation import ValidationError

logger = logging.getLogger(__name__)

#: every complete ("X") trace event must carry these fields
X_EVENT_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid")


# ---------------------------------------------------------------------------
# span parsing — shared by the report commands and the CI schema checker
# ---------------------------------------------------------------------------
@dataclass
class TraceSpan:
    """One complete ("X") event of an exported trace, normalized."""

    name: str
    pid: int
    tid: int
    #: microseconds since the trace's (re-based) origin
    start_us: float
    dur_us: float
    span_id: Optional[int] = None
    parent_id: Optional[int] = None
    process: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.dur_us / 1e6


def trace_events(document: Any) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list of a trace document (raises on bad shape)."""
    if not isinstance(document, dict):
        raise ValueError(
            f"trace document is {type(document).__name__}, expected object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document has no traceEvents list")
    return events


def metadata_process_name(event: Any) -> Optional[str]:
    """The lane name if *event* is a ``process_name`` metadata event."""
    if (isinstance(event, dict) and event.get("ph") == "M"
            and event.get("name") == "process_name"):
        name = event.get("args", {}).get("name")
        if isinstance(name, str) and name:
            return name
    return None


def process_names(events: Sequence[Any]) -> Dict[int, str]:
    """pid -> lane name, from the trace's ``process_name`` metadata events."""
    names: Dict[int, str] = {}
    for event in events:
        name = metadata_process_name(event)
        if name is not None and isinstance(event.get("pid"), int):
            names[event["pid"]] = name
    return names


def span_from_event(event: Dict[str, Any],
                    processes: Optional[Dict[int, str]] = None) -> TraceSpan:
    """Parse one complete ("X") event into a :class:`TraceSpan` (strict)."""
    missing = [key for key in X_EVENT_FIELDS if key not in event]
    if missing:
        raise ValueError(f"X event missing {', '.join(missing)}: {event!r}")
    args = dict(event.get("args", {}))
    span_id = args.pop("span_id", None)
    parent_id = args.pop("parent_id", None)
    pid = int(event["pid"])
    return TraceSpan(
        name=str(event["name"]),
        pid=pid,
        tid=int(event["tid"]),
        start_us=float(event["ts"]),
        dur_us=float(event["dur"]),
        span_id=int(span_id) if span_id is not None else None,
        parent_id=int(parent_id) if parent_id is not None else None,
        process=(processes or {}).get(pid, ""),
        args=args,
    )


def spans_from_trace(document: Any) -> List[TraceSpan]:
    """Every complete span of an exported trace document, lane names resolved."""
    events = trace_events(document)
    processes = process_names(events)
    return [span_from_event(event, processes)
            for event in events
            if isinstance(event, dict) and event.get("ph") == "X"]


# ---------------------------------------------------------------------------
# self-time attribution and critical-path extraction
# ---------------------------------------------------------------------------
def _span_key(span: TraceSpan) -> Optional[Tuple[int, int]]:
    return (span.pid, span.span_id) if span.span_id is not None else None


def _children_index(spans: Sequence[TraceSpan]) -> Dict[Tuple[int, int], List[TraceSpan]]:
    children: Dict[Tuple[int, int], List[TraceSpan]] = {}
    keys = {_span_key(span) for span in spans}
    for span in spans:
        if span.parent_id is None:
            continue
        parent_key = (span.pid, span.parent_id)
        if parent_key in keys:
            children.setdefault(parent_key, []).append(span)
    return children


def self_time_table(spans: Sequence[TraceSpan]) -> List[Dict[str, Any]]:
    """Per-span-name aggregation with child time subtracted.

    Returns rows sorted by descending self time: ``{"name", "count",
    "total_s", "self_s", "max_s"}``.  A span's self time is its duration
    minus the sum of its *direct* children's durations, clamped at zero
    (threaded children can overlap their parent, so the clamp keeps a
    multi-threaded parent from going negative).
    """
    children = _children_index(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        key = _span_key(span)
        child_s = sum(child.duration_s for child in children.get(key, ())) if key else 0.0
        row = rows.setdefault(span.name, {"name": span.name, "count": 0,
                                          "total_s": 0.0, "self_s": 0.0,
                                          "max_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration_s
        row["self_s"] += max(0.0, span.duration_s - child_s)
        row["max_s"] = max(row["max_s"], span.duration_s)
    return sorted(rows.values(), key=lambda row: (-row["self_s"], row["name"]))


def critical_path(spans: Sequence[TraceSpan]) -> List[TraceSpan]:
    """The slowest span chain: slowest root, then its slowest child, and so on.

    Spans whose parent is absent from the trace count as roots (a worker
    batch whose parent stayed open never shipped it).  Ties break on start
    time, then name, so the path is deterministic for equal durations.
    """
    if not spans:
        return []
    children = _children_index(spans)
    keys = {_span_key(span) for span in spans}
    roots = [span for span in spans
             if span.parent_id is None or (span.pid, span.parent_id) not in keys]
    if not roots:                       # degenerate: a parent cycle; bail out
        return []
    order = (lambda span: (-span.dur_us, span.start_us, span.name))
    node = min(roots, key=order)
    path = [node]
    while True:
        key = _span_key(node)
        branches = children.get(key) if key else None
        if not branches:
            return path
        node = min(branches, key=order)
        path.append(node)


def render_report(spans: Sequence[TraceSpan],
                  metrics: Optional[Dict[str, Any]] = None,
                  top: int = 10) -> str:
    """The ``repro obs report`` text: bottlenecks, critical path, resources."""
    blocks: List[str] = []
    rows = [[row["name"], row["count"], row["self_s"], row["total_s"], row["max_s"]]
            for row in self_time_table(spans)[:top]]
    blocks.append(format_table(
        ["span", "count", "self (s)", "total (s)", "max (s)"], rows,
        title=f"Top {min(top, len(rows))} bottlenecks by self time "
              f"({len(spans)} spans)", float_format="{:.6f}"))

    path = critical_path(spans)
    rows = []
    children = _children_index(spans)
    for span in path:
        key = _span_key(span)
        child_s = sum(child.duration_s for child in children.get(key, ())) if key else 0.0
        rows.append([span.name, span.process or "main", span.duration_s,
                     max(0.0, span.duration_s - child_s)])
    blocks.append(format_table(
        ["span", "process", "duration (s)", "self (s)"], rows,
        title="Critical path (slowest chain, root first)", float_format="{:.6f}"))

    if metrics is not None:
        resource_rows = [[name, value]
                         for name, value in sorted(metrics.get("gauges", {}).items())
                         if name.startswith("resource.")]
        samples = metrics.get("counters", {}).get("resource.samples")
        if samples is not None:
            resource_rows.append(["resource.samples", samples])
        if resource_rows:
            blocks.append(format_table(
                ["gauge", "max across processes"], resource_rows,
                title="Resource usage (max-merged per process)",
                float_format="{:.2f}"))
    return "\n\n".join(blocks)


def render_latency_table(metrics: Dict[str, Any], top: int = 10) -> str:
    """Span latency percentiles straight from a metrics snapshot.

    The metrics-only fallback of ``repro obs report``: every
    ``span.<name>.seconds`` histogram ranked by p95, no trace required.
    """
    rows = []
    for name, histogram in (metrics or {}).get("histograms", {}).items():
        if not (name.startswith("span.") and isinstance(histogram, dict)):
            continue
        rows.append([name, histogram.get("count"), histogram.get("p50"),
                     histogram.get("p95"), histogram.get("p99"),
                     histogram.get("max")])
    rows.sort(key=lambda row: -(row[3] or 0.0))
    return format_table(
        ["histogram", "count", "p50 (s)", "p95 (s)", "p99 (s)", "max (s)"],
        rows[:top], title=f"Span latency percentiles (top {top} by p95)",
        float_format="{:.6f}")


# ---------------------------------------------------------------------------
# metrics-snapshot diffing under a noise band
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseBand:
    """When a metric counts as a regression.

    The current value must exceed ``limit`` times the baseline *and* the
    baseline plus ``abs_floor``.  A band with ``quantiles`` compares those
    quantiles of a histogram, and only when both sides saw at least
    ``min_count`` observations; a band without them compares a gauge.
    Lower is better for every banded metric.
    """

    limit: float
    abs_floor: float = 0.0
    min_count: int = 0
    quantiles: Tuple[str, ...] = ()

    def fits(self, kind: str) -> bool:
        return (kind == "histogram") == bool(self.quantiles)


#: ``repro obs diff``: two runs on one host, so every histogram quantile
#: gates at 2x; deltas under 10 ms are scheduler noise whatever the ratio
DIFF_BANDS: Dict[str, NoiseBand] = {
    "": NoiseBand(2.0, abs_floor=0.01, min_count=5,
                  quantiles=("p50", "p95", "p99")),
}

#: the load-test snapshot's metrics (``repro loadtest --json``) that the
#: gate reads; the serve layer writes them under these names
LOADTEST_COMPLETED = "loadtest.completed"
LOADTEST_FAILED = "loadtest.failed"
LOADTEST_LATENCY = "loadtest.latency.seconds"
LOADTEST_SECONDS_PER_REQUEST = "loadtest.seconds_per_request"

#: ``repro obs gate``: a committed baseline against a run on another host
#: (a shared CI runner), keyed by metric-name prefix
GATE_BANDS: Dict[str, NoiseBand] = {
    # per-stage p95; sub-5ms spans are scheduler noise whatever their ratio,
    # and a once-per-run span cannot gate on scheduler luck
    "span.": NoiseBand(5.0, abs_floor=0.005, min_count=5, quantiles=("p95",)),
    # client p95 of the served path, which is ~10 ms end to end; the minimum
    # count (completed requests) also decides the whole load test's verdict
    LOADTEST_LATENCY: NoiseBand(5.0, abs_floor=0.010, min_count=5,
                                quantiles=("p95",)),
    # the inverse of throughput
    LOADTEST_SECONDS_PER_REQUEST: NoiseBand(5.0),
    # topology generation, best of three attempts per family
    "scenarios.build.": NoiseBand(3.0),
}


def _band_for(bands: Dict[str, NoiseBand], name: str,
             kind: str) -> Optional[NoiseBand]:
    """The first band whose prefix starts *name* and which fits *kind*."""
    for prefix, band in bands.items():
        if name.startswith(prefix) and band.fits(kind):
            return band
    return None


@dataclass
class DiffEntry:
    """One metric's verdict in a snapshot diff."""

    name: str
    kind: str                     # "counter" | "gauge" | "histogram"
    status: str                   # "ok" | "regression" | "improved" | "new" | "removed"
    detail: str = ""
    base: Optional[float] = None
    current: Optional[float] = None
    ratio: Optional[float] = None
    #: the band the metric was judged under; None means informational
    band: Optional[NoiseBand] = None


@dataclass
class MetricsDiff:
    """Every metric's verdict between a baseline and a current snapshot."""

    entries: List[DiffEntry] = field(default_factory=list)
    #: set when the diff gives no verdict at all (the reason)
    no_verdict: str = ""

    def regressions(self) -> List[DiffEntry]:
        return [entry for entry in self.entries if entry.status == "regression"]

    def by_status(self, status: str) -> List[DiffEntry]:
        return [entry for entry in self.entries if entry.status == status]

    @property
    def ok(self) -> bool:
        return not self.regressions()

    def render(self) -> str:
        """Every banded or one-sided metric as a table, then the verdict."""
        if self.no_verdict:
            return self.no_verdict
        shown = [entry for entry in self.entries
                 if entry.band is not None or entry.status != "ok"]
        rows = []
        for entry in sorted(shown,
                            key=lambda e: (e.status != "regression", e.name)):
            rows.append([
                entry.name, entry.kind, entry.status.upper(),
                "-" if entry.base is None else f"{entry.base:.6g}",
                "-" if entry.current is None else f"{entry.current:.6g}",
                "-" if entry.ratio is None else f"{entry.ratio:.2f}x",
                "-" if entry.band is None
                else f"{entry.band.limit:g}x +{entry.band.abs_floor:g}",
                entry.detail])
        table = format_table(
            ["metric", "kind", "verdict", "base", "current", "ratio",
             "regresses above", "detail"],
            rows, title="Snapshot diff")
        counts = {"within band": len([e for e in self.entries if e.band
                                      and e.status in ("ok", "improved")]),
                  "regression": len(self.regressions()),
                  "improved": len(self.by_status("improved")),
                  "new": len(self.by_status("new")),
                  "removed": len(self.by_status("removed"))}
        summary = (f"{len(self.entries)} metrics compared: "
                   + ", ".join(f"{count} {status}" for status, count in counts.items()))
        verdict = ("WITHIN NOISE BAND" if self.ok
                   else f"REGRESSION in {counts['regression']} metric(s)")
        return f"{table}\n\n{summary}\n{verdict}"


def _section(document: Dict[str, Any], name: str) -> Dict[str, Any]:
    section = document.get(name, {})
    return section if isinstance(section, dict) else {}


def _compare(name: str, kind: str, base_value: float, current_value: float,
             band: NoiseBand, label: str) -> DiffEntry:
    ratio = (current_value / base_value) if base_value > 0 else float("inf")
    delta = current_value - base_value
    if delta > band.abs_floor and current_value > base_value * band.limit:
        status = "regression"
    elif -delta > band.abs_floor and base_value > current_value * band.limit:
        status = "improved"
    else:
        status = "ok"
    return DiffEntry(name=name, kind=kind, status=status,
                     base=float(base_value), current=float(current_value),
                     ratio=ratio, band=band,
                     detail=f"{label}{base_value:.6g} -> {current_value:.6g}")


def _diff_histogram(name: str, base: Dict[str, Any], current: Dict[str, Any],
                    band: NoiseBand) -> DiffEntry:
    base_count = int(base.get("count") or 0)
    current_count = int(current.get("count") or 0)
    if min(base_count, current_count) < band.min_count:
        return DiffEntry(name=name, kind="histogram", status="ok", band=band,
                         detail=f"too few observations "
                                f"({base_count} vs {current_count})")
    worst: Optional[DiffEntry] = None
    for quantile in band.quantiles:
        base_q, current_q = base.get(quantile), current.get(quantile)
        if not isinstance(base_q, (int, float)) or not isinstance(current_q, (int, float)):
            continue
        entry = _compare(name, "histogram", base_q, current_q, band,
                         f"{quantile} ")
        # a regression on any quantile wins; otherwise keep the largest move
        if worst is None or (entry.status == "regression"
                             and worst.status != "regression"):
            worst = entry
        elif entry.status == worst.status and entry.ratio > worst.ratio:
            worst = entry
    return worst or DiffEntry(name=name, kind="histogram", status="ok",
                              band=band, detail="no comparable quantiles")


def diff_metrics(base_document: Dict[str, Any],
                 current_document: Dict[str, Any],
                 bands: Optional[Dict[str, NoiseBand]] = None) -> MetricsDiff:
    """Compare two metrics snapshots under explicit noise bands.

    *bands* maps metric-name prefixes to :class:`NoiseBand` rows (default
    :data:`DIFF_BANDS`).  A histogram or gauge regresses when its band says
    so, and the symmetric improvement is reported as ``improved``.  Metrics
    without a band, and every counter, are informational: their deltas
    never fail a diff, since cache hit counts legitimately differ between a
    cold and a warm run.  A metric present in only one snapshot is ``new``
    or ``removed``, never an error.
    """
    bands = DIFF_BANDS if bands is None else bands
    diff = MetricsDiff()
    for kind in ("counters", "gauges", "histograms"):
        base_section = _section(base_document, kind)
        current_section = _section(current_document, kind)
        singular = kind[:-1]
        for name in sorted(set(base_section) | set(current_section)):
            band = None if kind == "counters" else _band_for(bands, name, singular)
            in_base, in_current = name in base_section, name in current_section
            if in_base and not in_current:
                diff.entries.append(DiffEntry(
                    name=name, kind=singular, status="removed", band=band,
                    detail="only in the baseline snapshot"))
                continue
            if in_current and not in_base:
                diff.entries.append(DiffEntry(
                    name=name, kind=singular, status="new", band=band,
                    detail="no baseline entry"))
                continue
            base_value, current_value = base_section[name], current_section[name]
            if band is None:
                if kind == "histograms":
                    continue
                delta = float(current_value) - float(base_value)
                diff.entries.append(DiffEntry(
                    name=name, kind=singular, status="ok",
                    base=float(base_value), current=float(current_value),
                    detail=f"delta {delta:+g}"))
            elif kind == "histograms":
                diff.entries.append(_diff_histogram(
                    name, base_value or {}, current_value or {}, band))
            else:
                diff.entries.append(_compare(
                    name, singular, float(base_value), float(current_value),
                    band, ""))
    return diff


def gate_metrics(base_document: Dict[str, Any],
                 current_document: Dict[str, Any]) -> MetricsDiff:
    """``repro obs gate``: the metrics :data:`GATE_BANDS` covers, judged
    under their rows, plus three rules of their own.

    * A load test with fewer completed requests than its latency row's
      minimum count, on either side, gives no verdict at all.
    * Any failed load-test request in the current snapshot is a regression.
    * Two snapshots with no gated metric are an error: a run that exported
      nothing must not pass.
    """
    min_completed = GATE_BANDS[LOADTEST_LATENCY].min_count
    for label, document in (("baseline", base_document),
                            ("current", current_document)):
        completed = _section(document, "counters").get(LOADTEST_COMPLETED)
        if completed is not None and completed < min_completed:
            return MetricsDiff(
                no_verdict=f"{label} load test has only {completed} completed "
                           f"requests (< {min_completed}); no verdict")
    diff = diff_metrics(base_document, current_document, GATE_BANDS)
    diff.entries = [entry for entry in diff.entries if entry.band is not None]
    if not diff.entries:
        raise ValidationError(
            "no span histograms, load-test metrics or scenarios.build gauges "
            "to gate — did the run export metrics?")
    failed = _section(current_document, "counters").get(LOADTEST_FAILED, 0)
    if failed:
        diff.entries.append(DiffEntry(
            name=LOADTEST_FAILED, kind="counter", status="regression",
            current=float(failed), detail=f"{failed} failed requests"))
    return diff
