"""Tests for ``repro.obs``: the span tracer, the metrics registry, the
streaming histograms, the exporters, and — the load-bearing contract — that
observability is provably inert: tracing on or off, serial or parallel,
results and cache keys never change."""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from repro.benchmark import BenchmarkConfig, BenchmarkRunner
from repro.exec import ExecutorPolicy, ParallelExecutor, Task
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Tracer,
    collect_observations,
    default_registry,
    disable_tracing,
    enable_tracing,
    get_tracer,
    ingest_observations,
    metrics_document,
    set_default_registry,
    set_tracer,
    span,
    spans_to_trace_events,
    trace_document,
    tracing_enabled,
)
from repro.obs.metrics import (
    BUCKETS_PER_DECADE,
    HISTOGRAM_FLOOR,
    bucket_index,
    bucket_upper_bound,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from check_trace_schema import validate_metrics, validate_trace  # noqa: E402

#: one log-spaced bucket spans a factor of 10**(1/BUCKETS_PER_DECADE), so a
#: quantile estimate is off by at most that factor from the true sample
BUCKET_FACTOR = 10 ** (1 / BUCKETS_PER_DECADE)


@pytest.fixture(autouse=True)
def fresh_observability():
    """Isolate every test behind fresh tracer/registry globals."""
    previous_tracer = set_tracer(Tracer())
    previous_registry = set_default_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_tracer(previous_tracer)
        set_default_registry(previous_registry)


class TestHistogram:
    def test_bucket_bounds_contain_their_values(self):
        for value in (1e-6, 3.7e-4, 0.01, 0.5, 1.0, 9.99, 1234.5):
            index = bucket_index(value)
            assert value <= bucket_upper_bound(index) * (1 + 1e-12)
            assert value > bucket_upper_bound(index - 1) / BUCKET_FACTOR

    def test_quantiles_track_sorted_samples(self):
        rng = random.Random(7)
        samples = [rng.lognormvariate(-5.0, 1.5) for _ in range(5000)]
        histogram = Histogram("latency")
        for sample in samples:
            histogram.observe(sample)
        ordered = sorted(samples)
        for fraction in (0.5, 0.95, 0.99):
            estimate = histogram.quantile(fraction)
            exact = ordered[math.ceil(fraction * len(ordered)) - 1]
            # the estimate is the crossing bucket's upper bound: never more
            # than one bucket factor above the true sample, never below it
            assert exact <= estimate <= exact * BUCKET_FACTOR * (1 + 1e-9)

    def test_quantile_capped_at_observed_max(self):
        histogram = Histogram("one")
        histogram.observe(0.25)
        assert histogram.quantile(0.99) == 0.25

    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram("empty")
        assert histogram.quantile(0.5) is None
        assert histogram.mean is None

    def test_underflow_observations_are_counted(self):
        histogram = Histogram("tiny")
        histogram.observe(0.0)
        histogram.observe(HISTOGRAM_FLOOR / 10)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 2
        assert histogram.quantile(0.5) == HISTOGRAM_FLOOR

    def test_merge_equals_observing_everything_in_one(self):
        rng = random.Random(11)
        left, right, combined = Histogram("l"), Histogram("r"), Histogram("c")
        for _ in range(500):
            value = rng.expovariate(100.0)
            (left if rng.random() < 0.5 else right).observe(value)
            combined.observe(value)
        left.merge(right.snapshot())
        merged = left.snapshot()
        expected = combined.snapshot()
        assert merged["count"] == expected["count"]
        assert merged["buckets"] == expected["buckets"]
        assert merged["min"] == expected["min"]
        assert merged["max"] == expected["max"]
        assert merged["sum"] == pytest.approx(expected["sum"])
        for key in ("p50", "p95", "p99"):
            assert merged[key] == expected[key]


class TestHistogramMergeAlgebra:
    """Property tests: snapshot/merge is a commutative, associative fold.

    Worker deltas arrive in a nondeterministic order (pool scheduling), so
    the merged parent histogram is only deterministic if merge order cannot
    matter.  Each property is checked over several seeded random sample
    sets rather than one hand-picked example."""

    @staticmethod
    def _filled(name, seed, count=400):
        rng = random.Random(seed)
        histogram = Histogram(name)
        for _ in range(count):
            # mix scales and include exact-boundary and underflow values
            roll = rng.random()
            if roll < 0.05:
                histogram.observe(0.0)
            elif roll < 0.15:
                histogram.observe(bucket_upper_bound(rng.randrange(-20, 60)))
            else:
                histogram.observe(rng.lognormvariate(-4.0, 2.0))
        return histogram

    @staticmethod
    def _comparable(histogram):
        snapshot = histogram.snapshot()
        return {key: snapshot[key] for key in
                ("count", "sum", "min", "max", "buckets", "p50", "p95", "p99")}

    def _assert_equivalent(self, left, right):
        ours, theirs = self._comparable(left), self._comparable(right)
        assert ours["count"] == theirs["count"]
        assert ours["buckets"] == theirs["buckets"]
        assert ours["min"] == theirs["min"]
        assert ours["max"] == theirs["max"]
        assert ours["sum"] == pytest.approx(theirs["sum"])
        for key in ("p50", "p95", "p99"):
            assert ours[key] == theirs[key]

    def test_merge_is_commutative(self):
        for seed in range(5):
            ab = self._filled("a", seed)
            ab.merge(self._filled("b", seed + 100).snapshot())
            ba = self._filled("b", seed + 100)
            ba.merge(self._filled("a", seed).snapshot())
            self._assert_equivalent(ab, ba)

    def test_merge_is_associative(self):
        for seed in range(5):
            parts = [self._filled(name, seed * 10 + offset)
                     for offset, name in enumerate("abc")]
            # (a + b) + c
            left = self._filled("a", seed * 10)
            left.merge(parts[1].snapshot())
            left.merge(parts[2].snapshot())
            # a + (b + c)
            inner = self._filled("b", seed * 10 + 1)
            inner.merge(parts[2].snapshot())
            right = self._filled("a", seed * 10)
            right.merge(inner.snapshot())
            self._assert_equivalent(left, right)

    def test_merged_quantiles_stay_within_the_documented_bound(self):
        # the ~12% bound (one bucket factor) must survive sharding: shard
        # samples across several histograms, merge, and compare against the
        # exact sorted-sample quantiles
        for seed in range(3):
            rng = random.Random(seed)
            samples = [rng.lognormvariate(-5.0, 1.5) for _ in range(3000)]
            shards = [Histogram(f"s{i}") for i in range(4)]
            for position, sample in enumerate(samples):
                shards[position % 4].observe(sample)
            merged = shards[0]
            for shard in shards[1:]:
                merged.merge(shard.snapshot())
            ordered = sorted(samples)
            for fraction in (0.5, 0.95, 0.99):
                estimate = merged.quantile(fraction)
                exact = ordered[math.ceil(fraction * len(ordered)) - 1]
                assert exact <= estimate <= exact * BUCKET_FACTOR * (1 + 1e-9)

    def test_merging_an_empty_snapshot_is_identity(self):
        histogram = self._filled("h", 42)
        before = self._comparable(histogram)
        histogram.merge(Histogram("empty").snapshot())
        assert self._comparable(histogram) == before


class TestMetricsRegistry:
    def test_counter_rejects_negative_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_name_collisions_across_types_fail_loudly(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_roundtrips_through_merge(self):
        source = MetricsRegistry()
        source.counter("cache.hits").inc(5)
        source.gauge("pool.size").set(4)
        source.histogram("latency").observe(0.01)
        target = MetricsRegistry()
        target.counter("cache.hits").inc(2)
        target.merge_snapshot(source.snapshot())
        assert target.counter("cache.hits").value == 7
        assert target.gauge("pool.size").value == 4
        assert target.histogram("latency").snapshot()["count"] == 1


class TestSpans:
    def test_nesting_records_parent_ids(self):
        enable_tracing()
        with span("outer"):
            with span("inner"):
                pass
        spans = {item.name: item for item in get_tracer().spans}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        # the inner span finished first, so it was recorded first
        assert [item.name for item in get_tracer().spans] == ["inner", "outer"]

    def test_exceptions_are_stamped_and_reraised(self):
        enable_tracing()
        with pytest.raises(KeyError):
            with span("doomed"):
                raise KeyError("boom")
        (recorded,) = get_tracer().spans
        assert recorded.attrs["error"] == "KeyError"

    def test_attrs_mutated_inside_the_body_are_captured(self):
        enable_tracing()
        attrs = {"cells": 0}
        with span("sweep", attrs=attrs):
            attrs["cells"] = 12
        (recorded,) = get_tracer().spans
        assert recorded.attrs["cells"] == 12

    def test_disabled_tracing_buffers_nothing_but_still_measures(self):
        assert not tracing_enabled()
        with span("quiet"):
            pass
        assert get_tracer().spans == []
        snapshot = default_registry().histogram("span.quiet.seconds").snapshot()
        assert snapshot["count"] == 1


class TestCaptureAndIngest:
    def test_collect_observations_isolates_and_roundtrips(self):
        enable_tracing()
        default_registry().counter("outer.counter").inc()
        with collect_observations(trace=True) as capture:
            with span("worker.step"):
                default_registry().counter("inner.counter").inc()
        # the capture saw only the body's telemetry...
        wire = capture.to_wire()
        assert [item["name"] for item in wire["spans"]["spans"]] == ["worker.step"]
        assert wire["spans"]["process"].startswith("pid-")
        assert wire["metrics"]["counters"] == {"inner.counter": 1}
        # ...and the surrounding globals were untouched by the body
        assert get_tracer().spans == []
        assert default_registry().counter("outer.counter").value == 1
        ingest_observations(wire)
        assert default_registry().counter("inner.counter").value == 1
        (merged,) = get_tracer().spans
        assert merged.name == "worker.step"
        assert merged.attrs["process"].startswith("pid-")

    def test_drain_empties_the_buffer(self):
        enable_tracing()
        with span("once"):
            pass
        batch = get_tracer().drain()
        assert len(batch["spans"]) == 1
        assert get_tracer().spans == []

    def test_ingest_remaps_ids_preserving_links(self):
        tracer = Tracer()
        tracer.ingest({"process": "pid-999", "spans": [
            {"name": "child", "span_id": 1, "parent_id": 2,
             "start_s": 0.0, "duration_s": 0.1, "start_wall": 100.0},
            {"name": "root", "span_id": 2, "parent_id": None,
             "start_s": 0.0, "duration_s": 0.2, "start_wall": 100.0},
        ]})
        spans = {item.name: item for item in tracer.spans}
        assert spans["child"].parent_id == spans["root"].span_id
        assert spans["root"].attrs["process"] == "pid-999"


class TestExporters:
    def test_trace_document_passes_the_ci_schema(self):
        enable_tracing()
        with span("alpha"):
            with span("beta"):
                pass
        ingest_observations({"spans": {"process": "pid-42", "spans": [
            {"name": "gamma", "span_id": 1, "parent_id": None,
             "start_s": 0.0, "duration_s": 0.1, "start_wall": 50.0},
        ]}, "metrics": {}})
        document = trace_document()
        assert validate_trace(document, expect=["alpha", "gamma"]) == []
        # a prefix matches a whole name or a dotted continuation of it
        assert validate_trace(document, expect=["alph"]) != []
        # worker spans land in their own named process lane
        events = document["traceEvents"]
        lanes = {event["args"]["name"]: event["pid"] for event in events
                 if event.get("ph") == "M"}
        assert set(lanes) == {"main", "pid-42"}

    def test_trace_is_rebased_to_the_earliest_event(self):
        events = spans_to_trace_events(get_tracer().spans)
        assert events == []
        enable_tracing()
        with span("first"):
            pass
        events = [event for event in spans_to_trace_events(get_tracer().spans)
                  if event["ph"] == "X"]
        assert min(event["ts"] for event in events) == 0

    def test_metrics_document_passes_the_ci_schema(self):
        default_registry().counter("cache.hits").inc(3)
        default_registry().histogram("span.x.seconds").observe(0.02)
        document = metrics_document()
        assert validate_metrics(document) == []
        assert document["format"] == "repro.obs.metrics/1"


class TestInertness:
    """Observability must never perturb results, digests, or cache keys."""

    def _task(self):
        return Task(key="t/1", fn="repro.exec.demo:square", payload={"x": 2})

    def test_task_digest_ignores_tracing_state(self):
        digest_off = self._task().digest()
        enable_tracing()
        with span("around-digest"):
            digest_on = self._task().digest()
        disable_tracing()
        assert digest_on == digest_off

    def test_wire_obs_marker_rides_outside_the_payload(self):
        task = self._task()
        wire = ParallelExecutor._to_wire(task)
        assert wire["obs"] == {"trace": False}
        enable_tracing()
        assert ParallelExecutor._to_wire(task)["obs"] == {"trace": True}
        # the marker never leaks into the digested fields
        assert wire["payload"] == task.payload
        assert task.digest() == self._task().digest()

    def test_traced_parallel_suite_is_byte_identical_to_serial(self):
        enable_tracing()
        serial = BenchmarkRunner(BenchmarkConfig())
        parallel = BenchmarkRunner(BenchmarkConfig(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        report_serial = serial.run_temporal_suite(
            scenarios=["fat-tree-failover"], models=["gpt-4"])
        report_parallel = parallel.run_temporal_suite(
            scenarios=["fat-tree-failover"], models=["gpt-4"])
        assert json.dumps(report_serial.logger.to_records(), sort_keys=True) \
            == json.dumps(report_parallel.logger.to_records(), sort_keys=True)
        assert report_serial.render_summary() == report_parallel.render_summary()
        # the parallel run's worker spans were merged into the parent tracer
        names = {item.name for item in get_tracer().spans}
        assert "exec.task" in names
        processes = {item.attrs.get("process") for item in get_tracer().spans
                     if item.name == "exec.task"}
        assert any(label and label.startswith("pid-") for label in processes)
