"""Tests for the timeline-aware synthesis backends (codegen-backed temporal
answering).

Covers the timeline serialization contract, the temporal emitters of both
code backends (every corpus intent must reproduce its golden through the
sandbox), the codegen fault taxonomy (mis-anchoring, off-by-one windows,
runtime crashes recorded as faults), the calibration column mapping, the
MALT temporal queries, and the end-to-end determinism contract: serial vs
``--jobs 2`` codegen-temporal sweeps are byte-identical and cached reruns
reproduce the tables.
"""

import pytest

from repro.benchmark import (
    BenchmarkConfig,
    BenchmarkRunner,
    temporal_queries,
    temporal_query_by_id,
)
from repro.benchmark.evaluator import compare_values
from repro.benchmark.tasks import run_temporal_cell, temporal_cell_task
from repro.cli import main
from repro.exec import ExecutorPolicy, ResultCache
from repro.exec.workers import clear_worker_contexts
from repro.llm.calibration import (
    DEFAULT_CALIBRATION,
    TEMPORAL_BACKEND_COLUMNS,
    TEMPORAL_BACKENDS,
)
from repro.llm.faults import TemporalFaultInjector, TemporalFaultType
from repro.scenarios import get_scenario, replay_scenario
from repro.scenarios.registry import scenario_record
from repro.scenarios.engine import timeline_from_dict, timeline_to_dict
from repro.synthesis import (
    TEMPORAL_CODE_BACKENDS,
    TEMPORAL_INTENT_SIGNATURES,
    CodeSynthesisEngine,
    run_temporal_program,
)
from repro.synthesis.reference import (
    evaluate_temporal_reference,
    supported_temporal_intents,
)
from repro.utils.validation import ValidationError


@pytest.fixture(autouse=True)
def _isolate_worker_contexts():
    clear_worker_contexts()
    yield
    clear_worker_contexts()


def _timeline_and_payload(scenario: str):
    timeline = replay_scenario(get_scenario(scenario))
    return timeline, timeline_to_dict(timeline)


# ---------------------------------------------------------------------------
# timeline serialization contract
# ---------------------------------------------------------------------------
class TestTimelineSerialization:
    def test_round_trip_preserves_digests_and_times(self):
        timeline, payload = _timeline_and_payload("fat-tree-failover")
        rebuilt = timeline_from_dict(payload)
        assert rebuilt.scenario_name == timeline.scenario_name
        assert rebuilt.times() == timeline.times()
        assert rebuilt.digests() == timeline.digests()

    def test_payload_is_pure_json(self):
        import json

        _, payload = _timeline_and_payload("wan-conduit-cut")
        assert json.loads(json.dumps(payload)) == json.loads(json.dumps(payload))

    def test_wrong_format_version_is_rejected(self):
        _, payload = _timeline_and_payload("fat-tree-failover")
        payload["format_version"] = 99
        with pytest.raises(ValidationError, match="format_version"):
            timeline_from_dict(payload)
        from repro.synthesis.temporal import parse_timeline_payload

        with pytest.raises(ValidationError, match="format_version"):
            parse_timeline_payload(payload)

    def test_deltas_align_with_snapshots(self):
        _, payload = _timeline_and_payload("manet-churn")
        entries = payload["snapshots"]
        assert entries[0]["delta"] is None
        for entry in entries[1:]:
            assert set(entry["delta"]) >= {"missing_nodes", "extra_nodes",
                                           "missing_edges", "extra_edges"}
        # the t=1 departure of mn-0 must surface in the first delta
        assert "mn-0" in entries[1]["delta"]["missing_nodes"]


# ---------------------------------------------------------------------------
# emitters: every corpus query must reproduce its golden through the sandbox
# ---------------------------------------------------------------------------
class TestTemporalEmitters:
    @pytest.fixture(scope="class")
    def payloads(self):
        cache = {}
        for query in temporal_queries():
            if query.scenario not in cache:
                cache[query.scenario] = _timeline_and_payload(query.scenario)
        return cache

    @pytest.mark.parametrize("backend", TEMPORAL_CODE_BACKENDS)
    @pytest.mark.parametrize(
        "query_id", [query.query_id for query in temporal_queries()])
    def test_generated_program_matches_golden(self, payloads, backend, query_id):
        query = temporal_query_by_id(query_id)
        timeline, payload = payloads[query.scenario]
        golden = evaluate_temporal_reference(timeline, query.intent).value
        program = CodeSynthesisEngine().generate_temporal(query.intent, backend)
        outcome = run_temporal_program(program.code, payload, backend)
        assert outcome.success, outcome.describe_error()
        assert compare_values(golden, outcome.result)

    def test_every_corpus_intent_has_signature_and_templates(self):
        supported = set(supported_temporal_intents())
        for query in temporal_queries():
            assert query.intent.name in supported
            assert query.intent.name in TEMPORAL_INTENT_SIGNATURES
            for key, value in query.intent.params:
                if value is None:
                    continue
                assert key in TEMPORAL_INTENT_SIGNATURES[query.intent.name]
        engine = CodeSynthesisEngine()
        for backend in TEMPORAL_CODE_BACKENDS:
            for query in temporal_queries():
                engine.generate_temporal(query.intent, backend)

    def test_unsupported_temporal_intent_raises(self):
        from repro.synthesis import Intent, UnsupportedQueryError

        with pytest.raises(UnsupportedQueryError):
            CodeSynthesisEngine().generate_temporal(
                Intent.create("no_such_intent"), "networkx")


# ---------------------------------------------------------------------------
# MALT temporal coverage (ROADMAP follow-up: malt-chassis-drain)
# ---------------------------------------------------------------------------
class TestMaltTemporalQueries:
    def test_malt_scenario_has_temporal_queries(self):
        from repro.benchmark import temporal_queries_for, temporal_scenario_names

        assert "malt-chassis-drain" in temporal_scenario_names()
        assert len(temporal_queries_for("malt-chassis-drain")) >= 3

    def test_switch_count_drops_during_drain(self):
        from repro.synthesis import Intent

        timeline, _ = _timeline_and_payload("malt-chassis-drain")
        query = temporal_query_by_id("tq-malt-e1")
        outcome = evaluate_temporal_reference(timeline, query.intent)
        baseline = evaluate_temporal_reference(timeline, Intent.create(
            "entity_count_at", entity_type="EK_PACKET_SWITCH", at=0.0))
        assert outcome.value == baseline.value - 1

    def test_capacity_excludes_the_drained_switch(self):
        timeline, _ = _timeline_and_payload("malt-chassis-drain")
        query = temporal_query_by_id("tq-malt-m1")
        during = evaluate_temporal_reference(timeline, query.intent).value
        initial = sum(attrs.get("capacity", 0)
                      for _, attrs in timeline.initial_graph.nodes(data=True)
                      if attrs.get("type") == "EK_PACKET_SWITCH")
        assert during < initial

    def test_orphaned_ports_are_the_drained_switch_ports(self):
        timeline, _ = _timeline_and_payload("malt-chassis-drain")
        query = temporal_query_by_id("tq-malt-h1")
        orphaned = evaluate_temporal_reference(timeline, query.intent).value
        assert orphaned
        assert all(port.startswith("ju1.a1.m1.s1c1.") for port in orphaned)
        # the re-rack at t=4 restores containment
        from repro.synthesis import Intent

        final = evaluate_temporal_reference(
            timeline, Intent.create("orphaned_ports_at", at=4.0))
        assert final.value == []


# ---------------------------------------------------------------------------
# calibration and fault taxonomy
# ---------------------------------------------------------------------------
class TestCodegenCalibration:
    def test_backend_column_mapping(self):
        assert set(TEMPORAL_BACKENDS) == {"direct", "frames", "networkx"}
        assert TEMPORAL_BACKEND_COLUMNS["direct"] == "strawman"
        assert TEMPORAL_BACKEND_COLUMNS["frames"] == "pandas"
        assert TEMPORAL_BACKEND_COLUMNS["networkx"] == "networkx"
        # gpt-4: hard strawman reliability is zero, hard networkx is not
        assert not DEFAULT_CALIBRATION.temporal_passes("gpt-4", "direct",
                                                       "hard", 0, 8)
        assert DEFAULT_CALIBRATION.temporal_passes("gpt-4", "networkx",
                                                   "hard", 0, 8)

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValidationError):
            DEFAULT_CALIBRATION.temporal_passes("gpt-4", "sql", "easy", 0, 8)

    def test_fault_type_draw_is_deterministic(self):
        draws = {DEFAULT_CALIBRATION.temporal_fault_type_for("tq-m1", "gpt-3",
                                                             "frames")
                 for _ in range(5)}
        assert len(draws) == 1
        assert draws.pop() in {fault.value for fault in TemporalFaultType}

    def test_misanchored_intent_shifts_times_earlier(self):
        timeline, _ = _timeline_and_payload("fat-tree-failover")
        query = temporal_query_by_id("tq-m1")  # since=0.5, until=2.0
        shifted = TemporalFaultInjector().misanchored_intent(
            query.intent, timeline.times(), shift=1)
        assert shifted.param("since") < query.intent.param("since")
        assert shifted.param("until") < query.intent.param("until")

    def test_sandbox_failure_is_a_recorded_fault_not_a_crash(self):
        # the runtime-crash fault indexes off the snapshot list; the sandbox
        # captures the IndexError and the evaluator records an execute-stage
        # failure instead of letting the sweep die
        _, payload = _timeline_and_payload("fat-tree-failover")
        code = TemporalFaultInjector().crash_code()
        outcome = run_temporal_program(code, payload, "networkx")
        assert outcome.failed
        assert outcome.error_type == "IndexError"

        from repro.benchmark.evaluator import ResultsEvaluator
        from repro.benchmark.goldens import TemporalGoldenSelector

        timeline = timeline_from_dict(payload)
        query = temporal_query_by_id("tq-m1")
        golden = TemporalGoldenSelector().golden_for(query, timeline)
        record = ResultsEvaluator().evaluate_temporal(
            query, "gpt-3", None, golden, backend="networkx",
            generated_code=code,
            execution_error=(outcome.error_type, outcome.error_message))
        assert not record.passed
        assert record.failure_stage == "execute"
        assert record.details["error_type"] == "IndexError"

    def test_codegen_cells_match_calibration_exactly(self):
        # every backend's pass/fail must agree with the calibrated decision:
        # faults escalate until the emitted program's answer differs
        config = BenchmarkConfig()
        scenario = scenario_record("wan-conduit-cut")
        for query_id in ("tq-e5", "tq-m5", "tq-h5"):
            for model in ("gpt-4", "bard"):
                for backend in ("frames", "networkx"):
                    record = run_temporal_cell(temporal_cell_task(
                        config.to_payload(), scenario, query_id, model,
                        backend).payload)
                    assert record.passed == record.details["intended_correct"]
                    assert record.backend == backend
                    if not record.passed:
                        assert record.details["fault"]
                        assert record.generated_code


# ---------------------------------------------------------------------------
# end-to-end determinism of the codegen-temporal suite
# ---------------------------------------------------------------------------
class TestCodegenSuite:
    BACKENDS = ("direct", "frames", "networkx")

    def test_accuracy_reflects_calibration_on_every_backend(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        report = runner.run_temporal_suite(models=["gpt-4", "gpt-3"],
                                           backends=list(self.BACKENDS))
        assert len(report.logger) == (2 * len(self.BACKENDS)
                                      * len(temporal_queries()))
        for record in report.logger.records:
            assert record.passed == record.details["intended_correct"]

    def test_codegen_backends_beat_direct(self):
        # the paper's thesis, reproduced over timelines: the richest codegen
        # representation beats answering directly from serialized data
        runner = BenchmarkRunner(BenchmarkConfig())
        report = runner.run_temporal_suite(models=["gpt-4"],
                                           backends=list(self.BACKENDS))
        summary = report.backend_summary()["gpt-4"]
        assert summary["networkx"] > summary["direct"]

    def test_serial_and_parallel_codegen_suites_are_byte_identical(self):
        serial = BenchmarkRunner(BenchmarkConfig())
        parallel = BenchmarkRunner(BenchmarkConfig(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        kwargs = {"models": ["gpt-4", "bard"],
                  "backends": ["frames", "networkx"]}
        report_serial = serial.run_temporal_suite(**kwargs)
        report_parallel = parallel.run_temporal_suite(**kwargs)
        assert report_serial.render_summary() == report_parallel.render_summary()
        assert (report_serial.render_backend_summary()
                == report_parallel.render_backend_summary())
        assert (report_serial.logger.to_records()
                == report_parallel.logger.to_records())
        assert parallel.last_run_report.jobs == 2

    def test_cached_codegen_rerun_reproduces_the_tables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = {"models": ["gpt-4"], "backends": ["networkx"],
                  "scenarios": ["fat-tree-failover", "malt-chassis-drain"]}
        first = BenchmarkRunner(BenchmarkConfig(),
                                policy=ExecutorPolicy.serial(cache=cache))
        report_first = first.run_temporal_suite(**kwargs)
        assert first.last_run_report.cache_hits == 0
        clear_worker_contexts()
        second = BenchmarkRunner(BenchmarkConfig(),
                                 policy=ExecutorPolicy.serial(cache=cache))
        report_second = second.run_temporal_suite(**kwargs)
        assert second.last_run_report.cache_hits == len(report_second.logger)
        assert report_first.render_summary() == report_second.render_summary()
        # only the `cached` provenance flag may differ between the runs
        first_rows = report_first.logger.to_records()
        second_rows = report_second.logger.to_records()
        assert all(not row.pop("cached") for row in first_rows)
        assert all(row.pop("cached") for row in second_rows)
        assert first_rows == second_rows

    def test_unknown_backend_is_rejected(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        with pytest.raises(ValidationError, match="temporal backend"):
            runner.run_temporal_suite(backends=["sql"])

    def test_repeated_backend_dedupes_instead_of_duplicate_task_keys(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        report = runner.run_temporal_suite(
            models=["gpt-4"], scenarios=["fat-tree-failover"],
            backends=["networkx", "networkx", "direct"])
        assert list(report.backends) == ["networkx", "direct"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCodegenCli:
    def test_benchmark_temporal_backend_smoke(self, capsys):
        exit_code = main(["benchmark", "--temporal", "--no-cache",
                          "--models", "gpt-4",
                          "--backend", "frames", "--backend", "networkx",
                          "--scenarios", "malt-chassis-drain"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Temporal accuracy by scenario" in captured
        assert "Temporal accuracy by backend" in captured
        assert "direct" in captured and "frames" in captured

    def test_backend_requires_temporal(self, capsys):
        exit_code = main(["benchmark", "--backend", "frames",
                          "--application", "traffic", "--no-cache"])
        assert exit_code == 1
        assert "--temporal" in capsys.readouterr().err
