"""Tests for the observability analysis layer: ``repro.obs.analyze``
(self-time, critical path, noise-banded diffing), ``repro.obs.ledger``
(the per-run record store), ``repro.obs.sample`` (resource gauges), the
``repro obs`` CLI group, and the CI gate (``repro obs gate``) on span
histograms.

The acceptance criteria of the layer live here too: an injected 5x p95
slowdown must flag (nonzero exit) while two identical snapshots stay
inside the noise band (exit 0), and serial vs ``--jobs 2`` results stay
byte-identical with the ledger on and resource readings taken."""

import json
import threading
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.obs import (
    MetricsRegistry,
    RunLedger,
    Tracer,
    default_registry,
    diff_metrics,
    sample_now,
    self_time_table,
    set_default_registry,
    set_tracer,
    spans_from_trace,
    critical_path,
    write_metrics,
    write_trace,
)
from repro.obs.analyze import render_latency_table, render_report
from repro.obs.sample import COUNTER_SAMPLES, GAUGE_CPU_SECONDS, GAUGE_MAX_RSS
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def fresh_observability():
    """Isolate every test behind a fresh tracer and registry."""
    previous_tracer = set_tracer(Tracer())
    previous_registry = set_default_registry(MetricsRegistry())
    try:
        yield
    finally:
        set_tracer(previous_tracer)
        set_default_registry(previous_registry)


# ---------------------------------------------------------------------------
# fixtures: synthetic traces and metrics snapshots
# ---------------------------------------------------------------------------
def _event(name, ts, dur, pid=1, tid=1, span_id=None, parent_id=None):
    args = {}
    if span_id is not None:
        args["span_id"] = span_id
    if parent_id is not None:
        args["parent_id"] = parent_id
    return {"name": name, "ph": "X", "ts": ts, "dur": dur,
            "pid": pid, "tid": tid, "args": args}


def _trace_document():
    """root(100ms) -> work(70ms) -> inner(30ms); plus a 40ms sibling root."""
    return {"traceEvents": [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "main"}},
        _event("root", 0, 100_000, span_id=1),
        _event("work", 5_000, 70_000, span_id=2, parent_id=1),
        _event("inner", 10_000, 30_000, span_id=3, parent_id=2),
        _event("sibling", 0, 40_000, span_id=4),
    ]}


def _histogram_snapshot(p50, p95, p99, count=50):
    return {"count": count, "sum": p50 * count, "min": p50 / 2, "max": p99,
            "mean": p50, "p50": p50, "p95": p95, "p99": p99, "buckets": {}}


def _metrics_snapshot(p95=0.1, extra_histograms=None):
    histograms = {"span.stage.seconds":
                  _histogram_snapshot(p95 / 2, p95, p95 * 1.2)}
    histograms.update(extra_histograms or {})
    return {"counters": {"cache.hits": 3}, "gauges": {"resource.max_rss_bytes": 1e8},
            "histograms": histograms}


# ---------------------------------------------------------------------------
# analyze: span parsing, self time, critical path
# ---------------------------------------------------------------------------
class TestTraceAnalysis:
    def test_spans_from_trace_resolves_lanes_and_links(self):
        spans = spans_from_trace(_trace_document())
        assert [span.name for span in spans] == ["root", "work", "inner", "sibling"]
        assert all(span.process == "main" for span in spans)
        by_name = {span.name: span for span in spans}
        assert by_name["work"].parent_id == 1
        assert by_name["root"].parent_id is None
        assert by_name["inner"].duration_s == pytest.approx(0.030)

    def test_bad_trace_shapes_raise(self):
        with pytest.raises(ValueError):
            spans_from_trace([1, 2, 3])
        with pytest.raises(ValueError):
            spans_from_trace({"no": "traceEvents"})

    def test_self_time_subtracts_direct_children_only(self):
        rows = {row["name"]: row for row in
                self_time_table(spans_from_trace(_trace_document()))}
        # root: 100ms - work's 70ms (inner nests under work, not root)
        assert rows["root"]["self_s"] == pytest.approx(0.030)
        # work: 70ms - inner's 30ms
        assert rows["work"]["self_s"] == pytest.approx(0.040)
        assert rows["inner"]["self_s"] == pytest.approx(0.030)
        assert rows["sibling"]["self_s"] == pytest.approx(0.040)
        assert rows["root"]["total_s"] == pytest.approx(0.100)

    def test_self_time_clamps_overlapping_children_at_zero(self):
        document = {"traceEvents": [
            _event("parent", 0, 10_000, span_id=1),
            _event("threaded-child", 0, 9_000, span_id=2, parent_id=1),
            _event("threaded-child", 0, 9_000, span_id=3, parent_id=1),
        ]}
        rows = {row["name"]: row for row in
                self_time_table(spans_from_trace(document))}
        assert rows["parent"]["self_s"] == 0.0

    def test_critical_path_walks_the_slowest_chain(self):
        path = [span.name for span in
                critical_path(spans_from_trace(_trace_document()))]
        assert path == ["root", "work", "inner"]

    def test_critical_path_of_empty_trace(self):
        assert critical_path([]) == []

    def test_orphaned_span_counts_as_a_root(self):
        document = {"traceEvents": [
            _event("orphan", 0, 50_000, span_id=7, parent_id=999),
        ]}
        assert [span.name for span in
                critical_path(spans_from_trace(document))] == ["orphan"]

    def test_render_report_mentions_bottlenecks_path_and_resources(self):
        text = render_report(spans_from_trace(_trace_document()),
                             _metrics_snapshot())
        assert "bottlenecks by self time" in text
        assert "Critical path" in text
        assert "resource.max_rss_bytes" in text

    def test_render_latency_table_ranks_span_histograms(self):
        text = render_latency_table(_metrics_snapshot())
        assert "span.stage.seconds" in text


# ---------------------------------------------------------------------------
# analyze: noise-banded metrics diffing
# ---------------------------------------------------------------------------
class TestMetricsDiff:
    def test_identical_snapshots_are_within_the_noise_band(self):
        snapshot = _metrics_snapshot()
        diff = diff_metrics(snapshot, snapshot)
        assert diff.ok
        assert not diff.regressions()
        assert "WITHIN NOISE BAND" in diff.render()

    def test_injected_5x_p95_slowdown_regresses(self):
        diff = diff_metrics(_metrics_snapshot(p95=0.1), _metrics_snapshot(p95=0.5))
        assert not diff.ok
        names = [entry.name for entry in diff.regressions()]
        assert names == ["span.stage.seconds"]
        assert "REGRESSION" in diff.render()

    def test_small_wobble_inside_the_band_is_ok(self):
        # +30% is well under the default 2x band
        assert diff_metrics(_metrics_snapshot(p95=0.1),
                            _metrics_snapshot(p95=0.13)).ok

    def test_big_ratio_below_the_absolute_floor_is_ok(self):
        # 5x, but the delta is microseconds — scheduler noise, not a verdict
        assert diff_metrics(_metrics_snapshot(p95=2e-6),
                            _metrics_snapshot(p95=1e-5)).ok

    def test_too_few_observations_never_regress(self):
        base = _metrics_snapshot(p95=0.1)
        current = _metrics_snapshot(p95=5.0)
        current["histograms"]["span.stage.seconds"]["count"] = 2
        diff = diff_metrics(base, current)
        assert diff.ok
        (entry,) = [e for e in diff.entries if e.kind == "histogram"]
        assert "too few observations" in entry.detail

    def test_improvement_is_reported_not_failed(self):
        diff = diff_metrics(_metrics_snapshot(p95=0.5), _metrics_snapshot(p95=0.1))
        assert diff.ok
        assert [e.name for e in diff.by_status("improved")] == ["span.stage.seconds"]

    def test_one_sided_metrics_are_new_or_removed_not_a_crash(self):
        base = _metrics_snapshot(extra_histograms={
            "span.gone.seconds": _histogram_snapshot(0.1, 0.2, 0.3)})
        current = _metrics_snapshot(extra_histograms={
            "span.fresh.seconds": _histogram_snapshot(0.1, 0.2, 0.3)})
        current["counters"]["brand.new.counter"] = 7
        diff = diff_metrics(base, current)
        assert diff.ok                    # new/removed never fail a diff
        assert {e.name for e in diff.by_status("removed")} == {"span.gone.seconds"}
        assert {e.name for e in diff.by_status("new")} == {
            "span.fresh.seconds", "brand.new.counter"}

    def test_counters_and_gauges_are_informational_only(self):
        base, current = _metrics_snapshot(), _metrics_snapshot()
        current["counters"]["cache.hits"] = 9000
        current["gauges"]["resource.max_rss_bytes"] = 1e12
        diff = diff_metrics(base, current)
        assert diff.ok
        counter = next(e for e in diff.entries if e.name == "cache.hits")
        assert counter.status == "ok" and "delta" in counter.detail


# ---------------------------------------------------------------------------
# ledger
# ---------------------------------------------------------------------------
class TestRunLedger:
    def test_record_and_load_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path / "nested" / "ledger")
        entry = ledger.record("benchmark", _metrics_snapshot(),
                              meta={"jobs": 2}, argv=["benchmark", "--jobs", "2"])
        loaded = ledger.load(entry["id"])
        assert loaded == entry
        assert loaded["meta"]["jobs"] == 2
        assert loaded["metrics"]["counters"]["cache.hits"] == 3
        assert len(ledger) == 1

    def test_record_snapshots_a_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("tasks").inc(5)
        entry = RunLedger(tmp_path).record("cost", registry)
        assert entry["metrics"]["counters"]["tasks"] == 5

    def test_aliases_and_prefix_lookup(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.record("benchmark", _metrics_snapshot())
        second = ledger.record("cost", _metrics_snapshot())
        assert ledger.find("latest")["id"] == second["id"]
        assert ledger.find("prev")["id"] == first["id"]
        assert ledger.find(first["id"][:12])["id"] == first["id"]
        assert [entry["id"] for entry in ledger.latest(2)] \
            == [first["id"], second["id"]]

    def test_lookup_failures_are_validation_errors(self, tmp_path):
        ledger = RunLedger(tmp_path)
        with pytest.raises(ValidationError, match="empty"):
            ledger.find("latest")
        ledger.record("benchmark", _metrics_snapshot())
        with pytest.raises(ValidationError, match="cannot resolve"):
            ledger.find("prev")
        with pytest.raises(ValidationError, match="no ledger entry"):
            ledger.find("zzzz")

    def test_non_ledger_json_is_rejected(self, tmp_path):
        (tmp_path / "bogus.json").write_text("{}", encoding="utf-8")
        with pytest.raises(ValidationError, match="format"):
            RunLedger(tmp_path).load("bogus")


# ---------------------------------------------------------------------------
# resource sampling
# ---------------------------------------------------------------------------
class TestResourceSampling:
    def test_sample_now_populates_the_gauges(self):
        sample_now()
        snapshot = default_registry().snapshot()
        assert snapshot["gauges"][GAUGE_MAX_RSS] > 0
        assert snapshot["gauges"][GAUGE_CPU_SECONDS] > 0
        assert snapshot["counters"][COUNTER_SAMPLES] == 1

    def test_gauges_ratchet_upward_under_merge(self):
        registry = MetricsRegistry()
        sample_now(registry)
        peak = registry.gauge(GAUGE_MAX_RSS).value
        # a later, smaller reading cannot erase the recorded peak
        registry.gauge(GAUGE_MAX_RSS).merge(peak / 2)
        assert registry.gauge(GAUGE_MAX_RSS).value == peak

    def test_one_reading_per_pool_task_and_one_in_the_parent(
            self, tmp_path, capsys, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        sweep = ["benchmark", "--application", "traffic", "--models", "gpt-4",
                 "--no-cache", "--no-ledger"]
        metrics_path = tmp_path / "metrics.json"
        assert main(sweep + ["--jobs", "2",
                             "--metrics-out", str(metrics_path)]) == 0
        parallel = capsys.readouterr().out
        document = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert document["gauges"][GAUGE_MAX_RSS] > 0
        assert document["gauges"][GAUGE_CPU_SECONDS] > 0
        # every task ran in the pool; the parent adds its closing reading
        pool_tasks = document["histograms"]["span.exec.task.seconds"]["count"]
        assert pool_tasks > 0
        assert document["counters"][COUNTER_SAMPLES] >= pool_tasks + 1
        assert "repro-obs-sampler" not in started
        assert main(sweep) == 0
        assert capsys.readouterr().out == parallel


# ---------------------------------------------------------------------------
# exporters create parent directories (satellite of this layer)
# ---------------------------------------------------------------------------
class TestExportParentDirectories:
    def test_write_trace_creates_nested_directories(self, tmp_path):
        destination = tmp_path / "deeply" / "nested" / "trace.json"
        write_trace(destination)
        document = json.loads(destination.read_text(encoding="utf-8"))
        assert "traceEvents" in document

    def test_write_metrics_creates_nested_directories(self, tmp_path):
        destination = tmp_path / "a" / "b" / "metrics.json"
        sample_now()
        write_metrics(destination)
        document = json.loads(destination.read_text(encoding="utf-8"))
        assert document["gauges"][GAUGE_MAX_RSS] > 0


# ---------------------------------------------------------------------------
# the repro obs CLI group
# ---------------------------------------------------------------------------
class TestObsCli:
    def _write(self, path, document):
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_obs_diff_identical_files_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _metrics_snapshot())
        current = self._write(tmp_path / "current.json", _metrics_snapshot())
        assert main(["obs", "diff", base, current]) == 0
        assert "WITHIN NOISE BAND" in capsys.readouterr().out

    def test_obs_diff_flags_injected_5x_slowdown(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _metrics_snapshot(p95=0.1))
        current = self._write(tmp_path / "current.json", _metrics_snapshot(p95=0.5))
        assert main(["obs", "diff", base, current]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_obs_diff_resolves_ledger_aliases(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path)
        ledger.record("benchmark", _metrics_snapshot())
        ledger.record("benchmark", _metrics_snapshot())
        assert main(["obs", "diff", "--ledger-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "base:" in out and "current:" in out

    def test_obs_diff_accepts_a_ledger_entry_file(self, tmp_path, capsys):
        entry = RunLedger(tmp_path).record("benchmark", _metrics_snapshot())
        entry_path = tmp_path / f"{entry['id']}.json"
        metrics_path = self._write(tmp_path / "m.json", _metrics_snapshot())
        assert main(["obs", "diff", str(entry_path), metrics_path]) == 0
        capsys.readouterr()

    def test_obs_diff_empty_ledger_is_a_clean_error(self, tmp_path, capsys):
        assert main(["obs", "diff", "--ledger-dir", str(tmp_path / "none")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_obs_report_from_trace_and_metrics(self, tmp_path, capsys):
        trace = self._write(tmp_path / "trace.json", _trace_document())
        metrics = self._write(tmp_path / "metrics.json", _metrics_snapshot())
        assert main(["obs", "report", "--trace", trace,
                     "--metrics", metrics]) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out and "resource.max_rss_bytes" in out

    def test_obs_report_metrics_only_fallback(self, tmp_path, capsys):
        metrics = self._write(tmp_path / "metrics.json", _metrics_snapshot())
        assert main(["obs", "report", "--metrics", metrics]) == 0
        assert "span.stage.seconds" in capsys.readouterr().out

    def test_obs_report_requires_an_input(self, capsys):
        assert main(["obs", "report"]) == 1
        assert "nothing to report" in capsys.readouterr().err

    def test_obs_ledger_list_and_show(self, tmp_path, capsys):
        entry = RunLedger(tmp_path).record("benchmark", _metrics_snapshot(),
                                           meta={"jobs": 2, "wall_time_s": 1.5})
        assert main(["obs", "ledger", "list", "--dir", str(tmp_path)]) == 0
        assert entry["id"] in capsys.readouterr().out
        assert main(["obs", "ledger", "show", "latest",
                     "--dir", str(tmp_path)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["id"] == entry["id"]

    def test_sweep_records_a_ledger_entry_automatically(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        assert main(["cost", "--sizes", "40", "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        ledger = RunLedger(ledger_dir)
        assert len(ledger) == 1
        (entry,) = ledger.entries()
        assert entry["command"] == "cost"
        assert entry["meta"]["exit_code"] == 0
        assert entry["meta"]["wall_time_s"] > 0
        assert entry["argv"][0] == "cost"
        assert "span.exec.run_tasks.seconds" in entry["metrics"]["histograms"]

    def test_no_ledger_opts_out(self, tmp_path, capsys):
        ledger_dir = tmp_path / "ledger"
        assert main(["cost", "--sizes", "40", "--no-ledger",
                     "--ledger-dir", str(ledger_dir)]) == 0
        capsys.readouterr()
        assert not ledger_dir.exists()

    def test_serial_vs_jobs2_output_identical_with_ledger_and_sampler(
            self, tmp_path, capsys):
        """Acceptance: ledger on and resources read, serial and --jobs 2
        byte-identical."""
        outputs = []
        for jobs, label in (("1", "serial"), ("2", "parallel")):
            assert main(["cost", "--sizes", "40", "--jobs", jobs,
                         "--no-cache", "--ledger-dir",
                         str(tmp_path / label)]) == 0
            outputs.append(capsys.readouterr().out)
            assert len(RunLedger(tmp_path / label)) == 1
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the CI gate (repro obs gate)
# ---------------------------------------------------------------------------
class TestSpanRegressionGate:
    def _write(self, path, document):
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_gate_passes_when_spans_match_the_baseline(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _metrics_snapshot())
        current = self._write(tmp_path / "now.json", _metrics_snapshot())
        assert main(["obs", "gate", baseline, current]) == 0
        assert "within" in capsys.readouterr().out

    def test_gate_fails_on_an_injected_slowdown(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", _metrics_snapshot(p95=0.1))
        current = self._write(tmp_path / "now.json",
                              _metrics_snapshot(p95=0.1 * 10))
        assert main(["obs", "gate", baseline, current]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_new_and_removed_spans_never_fail_the_gate(self, tmp_path, capsys):
        baseline = self._write(
            tmp_path / "base.json", _metrics_snapshot(extra_histograms={
                "span.gone.seconds": _histogram_snapshot(0.1, 0.2, 0.3)}))
        current = self._write(
            tmp_path / "now.json", _metrics_snapshot(extra_histograms={
                "span.fresh.seconds": _histogram_snapshot(0.1, 0.2, 0.3)}))
        assert main(["obs", "gate", baseline, current]) == 0
        out = capsys.readouterr().out
        assert "NEW" in out and "REMOVED" in out

    def test_gate_errors_without_span_histograms(self, tmp_path, capsys):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        baseline = self._write(tmp_path / "base.json", empty)
        current = self._write(tmp_path / "now.json", empty)
        assert main(["obs", "gate", baseline, current]) == 1
        assert "no span histograms" in capsys.readouterr().err

    def test_topology_generation_gates_at_3x(self, tmp_path, capsys):
        def snapshot(seconds):
            return {"counters": {}, "histograms": {},
                    "gauges": {"scenarios.build.ring.seconds": seconds,
                               "scenarios.size.ring.nodes": 200}}
        baseline = self._write(tmp_path / "base.json", snapshot(0.001))
        slower = self._write(tmp_path / "slower.json", snapshot(0.0029))
        assert main(["obs", "gate", baseline, slower]) == 0
        collapsed = self._write(tmp_path / "collapsed.json", snapshot(0.004))
        assert main(["obs", "gate", baseline, collapsed]) == 1
        assert "scenarios.build.ring.seconds" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["loadtest_baseline.json",
                                      "scenarios_throughput.json"])
    def test_committed_gate_baselines_pass_against_themselves(self, name,
                                                              capsys):
        path = str(Path(__file__).resolve().parent.parent
                   / "benchmarks" / "results" / name)
        assert main(["obs", "gate", path, path]) == 0
        assert "WITHIN NOISE BAND" in capsys.readouterr().out

    def test_committed_baseline_has_the_expected_shape(self):
        baseline_path = (Path(__file__).resolve().parent.parent
                         / "benchmarks" / "results" / "obs_baseline.json")
        document = json.loads(baseline_path.read_text(encoding="utf-8"))
        span_histograms = [name for name in document.get("histograms", {})
                           if name.startswith("span.") and name.endswith(".seconds")]
        assert len(span_histograms) >= 5
