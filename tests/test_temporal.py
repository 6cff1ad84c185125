"""Tests for temporal golden answers over scenario timelines.

Covers the temporal query corpus, the timeline-aware reference semantics,
the content-keyed :class:`TemporalGoldenSelector`, the fabric worker's
payload round-trip, and the end-to-end determinism contract: replaying a
corpus spec twice yields identical goldens and digests, and serial vs
``--jobs 2`` temporal sweeps produce byte-identical tables.
"""

import pytest

from repro.benchmark import (
    BenchmarkConfig,
    BenchmarkRunner,
    TemporalGoldenSelector,
    temporal_queries,
    temporal_queries_for,
    temporal_query_by_id,
    temporal_scenario_names,
)
from repro.benchmark.queries import temporal_bucket_size
from repro.benchmark.tasks import run_temporal_cell, temporal_cell_task
from repro.cli import main
from repro.exec import ExecutorPolicy, ResultCache
from repro.exec.workers import clear_worker_contexts
from repro.scenarios import get_scenario, replay_scenario
from repro.scenarios.registry import ScenarioRecord, scenario_record
from repro.synthesis.reference import (
    evaluate_temporal_reference,
    supported_temporal_intents,
)
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _isolate_worker_contexts():
    # temporal workers memoize replayed timelines per process; tests must not
    # observe each other's memos
    clear_worker_contexts()
    yield
    clear_worker_contexts()


# ---------------------------------------------------------------------------
# corpus shape
# ---------------------------------------------------------------------------
class TestTemporalCorpus:
    def test_corpus_size_and_scenario_coverage(self):
        assert len(temporal_queries()) >= 10
        assert len(temporal_scenario_names()) >= 4
        assert temporal_scenario_names() == sorted(
            {q.scenario for q in temporal_queries()})

    def test_query_ids_unique(self):
        ids = [query.query_id for query in temporal_queries()]
        assert len(ids) == len(set(ids))

    def test_every_query_targets_a_registered_scenario(self):
        for query in temporal_queries():
            assert get_scenario(query.scenario).name == query.scenario

    def test_every_intent_has_a_temporal_reference(self):
        supported = set(supported_temporal_intents())
        for query in temporal_queries():
            assert query.intent.name in supported

    def test_difficulty_ranks_are_a_permutation_per_bucket(self):
        for complexity in ("easy", "medium", "hard"):
            ranks = sorted(q.difficulty_rank for q in temporal_queries()
                           if q.complexity == complexity)
            assert ranks == list(range(temporal_bucket_size(complexity)))

    def test_anchor_time_is_latest_referenced_time(self):
        assert temporal_query_by_id("tq-m1").anchor_time == 2.0
        assert temporal_query_by_id("tq-e3").anchor_time is None  # whole timeline

    def test_metadata_carries_calibration_inputs(self):
        metadata = temporal_query_by_id("tq-m1").metadata(bucket_size=4)
        for key in ("application", "complexity", "difficulty_rank",
                    "bucket_size", "scenario", "intent"):
            assert key in metadata

    def test_query_by_id_unknown(self):
        with pytest.raises(KeyError):
            temporal_query_by_id("tq-nope")


# ---------------------------------------------------------------------------
# timeline-aware reference semantics
# ---------------------------------------------------------------------------
class TestTemporalReference:
    def test_failed_links_since_window(self):
        timeline = replay_scenario(get_scenario("fat-tree-failover"))
        query = temporal_query_by_id("tq-m1")
        outcome = evaluate_temporal_reference(timeline, query.intent)
        # the fat-tree fabric is undirected; the pair surfaces in the graph's
        # canonical storage orientation
        assert outcome.value == [["core-0", "pod0-agg0"]]

    def test_failed_links_with_repair_outside_window_is_empty(self):
        # the fat-tree uplink is repaired at t=5, so a window reaching the
        # final snapshot sees no net failure
        from repro.synthesis.intents import Intent

        timeline = replay_scenario(get_scenario("fat-tree-failover"))
        outcome = evaluate_temporal_reference(
            timeline, Intent.create("failed_links_since", since=0.0))
        assert outcome.value == []

    def test_churned_nodes_between(self):
        timeline = replay_scenario(get_scenario("manet-churn"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-m3").intent)
        assert outcome.value == {"departed": ["mn-0", "mn-5"], "joined": []}

    def test_capacity_drop_is_positive_after_degradation(self):
        timeline = replay_scenario(get_scenario("manet-churn"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h3").intent)
        assert outcome.value > 0

    def test_degraded_links_at(self):
        timeline = replay_scenario(get_scenario("fat-tree-failover"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h1").intent)
        assert outcome.value  # the t=2 degradation halved pod0-agg0's links
        for source, target in outcome.value:
            assert "pod0-agg0" in (source, target)

    def test_traffic_change_matches_surge_factor(self):
        timeline = replay_scenario(get_scenario("traffic-flashcrowd"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h4").intent)
        initial = sum(attrs.get("bytes", 0) for _, _, attrs
                      in timeline.initial_graph.edges(data=True))
        surged = sum(attrs.get("bytes", 0) for _, _, attrs
                     in timeline.graph_at(1.0).edges(data=True))
        assert outcome.value == surged - initial
        assert outcome.value > 0

    def test_peak_traffic_time_is_the_surge(self):
        timeline = replay_scenario(get_scenario("traffic-flashcrowd"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-e4").intent)
        assert outcome.value == 1.0

    def test_counts_at_snapshot(self):
        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-e2").intent)
        assert outcome.value == 9  # pop-3 is dark at t=4

    def test_unknown_temporal_intent_raises(self):
        from repro.synthesis.intents import Intent

        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        with pytest.raises(ValidationError):
            evaluate_temporal_reference(timeline, Intent.create("no_such_intent"))


# ---------------------------------------------------------------------------
# the temporal golden selector
# ---------------------------------------------------------------------------
class TestTemporalGoldenSelector:
    def test_goldens_cached_by_timeline_content(self):
        selector = TemporalGoldenSelector()
        query = temporal_query_by_id("tq-m1")
        spec = get_scenario("fat-tree-failover")
        first = selector.golden_for(query, replay_scenario(spec))
        # a *different replay* of the same spec shares the cache entry —
        # the key is the snapshot-digest fingerprint, not object identity
        second = selector.golden_for(query, replay_scenario(spec))
        assert first is second
        assert len(selector) == 1

    def test_different_timelines_get_distinct_entries(self):
        selector = TemporalGoldenSelector()
        query = temporal_query_by_id("tq-m1")
        base = get_scenario("fat-tree-failover")
        selector.golden_for(query, replay_scenario(base))
        reseeded = get_scenario("fat-tree-failover")
        reseeded.seed = 99
        selector.golden_for(query, replay_scenario(reseeded))
        assert len(selector) == 2

    def test_replaying_twice_yields_identical_goldens_and_digests(self):
        # e2e determinism: corpus spec -> timeline -> golden, twice
        for scenario in temporal_scenario_names():
            spec = get_scenario(scenario)
            first, second = replay_scenario(spec), replay_scenario(spec)
            assert first.digests() == second.digests()
            for query in temporal_queries_for(scenario):
                left = TemporalGoldenSelector().golden_for(query, first)
                right = TemporalGoldenSelector().golden_for(query, second)
                assert left.value == right.value
                assert left.kind == "value"


# ---------------------------------------------------------------------------
# fabric integration
# ---------------------------------------------------------------------------
class TestTemporalCells:
    def test_payload_round_trips_and_worker_runs(self):
        config = BenchmarkConfig()
        record = ScenarioRecord.of(get_scenario("fat-tree-failover"))
        task = temporal_cell_task(config.to_payload(), record, "tq-m1", "gpt-4")
        task.validate()          # payload must be canonical-JSON serializable
        assert task.digest() == temporal_cell_task(
            config.to_payload(), scenario_record("fat-tree-failover"),
            "tq-m1", "gpt-4").digest()
        record = run_temporal_cell(task.payload)
        assert record.query_id == "tq-m1"
        assert record.backend == "direct"
        assert record.details["scenario"] == "fat-tree-failover"
        assert record.details["anchor_time"] == 2.0
        assert record.details["snapshot_digest"]

    def test_correct_and_faulty_answers_are_calibrated(self):
        config = BenchmarkConfig()
        # the direct path calibrates against the strawman column: gpt-4's
        # easy strawman reliability passes rank 0, but its hard strawman
        # reliability is zero, so every hard direct cell fails
        passing = run_temporal_cell(temporal_cell_task(
            config.to_payload(), scenario_record("fat-tree-failover"),
            "tq-e1", "gpt-4").payload)
        failing = run_temporal_cell(temporal_cell_task(
            config.to_payload(), scenario_record("manet-churn"),
            "tq-h3", "gpt-4").payload)
        assert passing.passed and passing.details["intended_correct"]
        assert not failing.details["intended_correct"]
        assert not failing.passed
        assert failing.failure_stage == "compare"
        assert failing.details["expected_value"] != failing.details["actual_value"]

    def test_accuracy_exactly_reflects_calibration(self):
        # a mis-anchored answer that coincides with the golden is not a
        # failure, so the fault model widens its shift until the answer
        # differs — making pass/fail agree with the calibrated decision on
        # every single cell
        runner = BenchmarkRunner(BenchmarkConfig())
        report = runner.run_temporal_suite()
        assert len(report.logger) == 4 * len(temporal_queries())
        for record in report.logger.records:
            assert record.passed == record.details["intended_correct"]

    def test_run_temporal_suite_counts(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        report = runner.run_temporal_suite(models=["gpt-4"])
        assert len(report.logger) == len(temporal_queries())
        assert set(report.scenarios) == set(temporal_scenario_names())
        # every scenario's snapshot table accounts for every one of its cells
        for scenario in report.scenarios:
            rows = report.snapshot_breakdown(scenario)
            assert sum(row["cells"] for row in rows) == len(
                temporal_queries_for(scenario))

    def test_serial_and_parallel_suites_are_byte_identical(self):
        serial = BenchmarkRunner(BenchmarkConfig())
        parallel = BenchmarkRunner(BenchmarkConfig(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        report_serial = serial.run_temporal_suite(models=["gpt-4", "bard"])
        report_parallel = parallel.run_temporal_suite(models=["gpt-4", "bard"])
        assert report_serial.render_summary() == report_parallel.render_summary()
        assert (report_serial.render_snapshot_tables()
                == report_parallel.render_snapshot_tables())
        assert (report_serial.logger.to_records()
                == report_parallel.logger.to_records())
        assert parallel.last_run_report.jobs == 2

    def test_cached_rerun_reproduces_the_tables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = BenchmarkRunner(BenchmarkConfig(),
                                policy=ExecutorPolicy.serial(cache=cache))
        report_first = first.run_temporal_suite(models=["gpt-4"])
        assert first.last_run_report.cache_hits == 0
        second = BenchmarkRunner(BenchmarkConfig(),
                                 policy=ExecutorPolicy.serial(cache=cache))
        report_second = second.run_temporal_suite(models=["gpt-4"])
        assert second.last_run_report.cache_hits == len(temporal_queries())
        assert report_first.render_summary() == report_second.render_summary()
        assert (report_first.render_snapshot_tables()
                == report_second.render_snapshot_tables())

    def test_unknown_scenario_is_rejected(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        with pytest.raises(ValidationError, match="unknown scenario"):
            runner.run_temporal_suite(scenarios=["no-such-scenario"])
        with pytest.raises(ValidationError, match="no temporal queries"):
            runner.run_temporal_suite(scenarios=["ring-maintenance"])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestTemporalCli:
    def test_benchmark_temporal_smoke(self, capsys):
        exit_code = main(["benchmark", "--temporal", "--no-cache",
                          "--models", "gpt-4",
                          "--scenarios", "fat-tree-failover"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Temporal accuracy by scenario" in captured
        assert "Per-snapshot accuracy — fat-tree-failover" in captured

    def test_queries_listing_includes_temporal(self, capsys):
        assert main(["queries"]) == 0
        captured = capsys.readouterr().out
        assert "tq-m1" in captured
        assert "scenario:fat-tree-failover" in captured
