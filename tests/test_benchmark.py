"""Tests for the NeMoEval benchmark: corpus, evaluator, error classifier,
logger, and runner (including agreement with the paper's accuracy tables)."""

import math
import threading

import pytest

from repro.benchmark import (
    BenchmarkConfig,
    BenchmarkRunner,
    EvaluationRecord,
    GoldenAnswerSelector,
    ResultsLogger,
    classify_error,
    compare_values,
    malt_queries,
    query_by_id,
    traffic_queries,
)
from repro.benchmark.queries import bucket_size, queries_for
from repro.benchmark.runner import MALT_BACKENDS, TRAFFIC_BACKENDS
from repro.frames import DataFrame
from repro.llm.calibration import DEFAULT_CALIBRATION
from repro.sqlengine import ResultSet
from repro.traffic import TrafficAnalysisApplication


class TestQueryCorpus:
    def test_corpus_sizes_match_paper(self):
        assert len(traffic_queries()) == 24
        assert len(malt_queries()) == 9

    def test_complexity_buckets_match_paper(self):
        assert bucket_size("traffic_analysis", "easy") == 8
        assert bucket_size("traffic_analysis", "medium") == 8
        assert bucket_size("traffic_analysis", "hard") == 8
        for complexity in ("easy", "medium", "hard"):
            assert bucket_size("malt", complexity) == 3

    def test_query_ids_unique(self):
        ids = [query.query_id for query in traffic_queries() + malt_queries()]
        assert len(ids) == len(set(ids))

    def test_difficulty_ranks_are_a_permutation(self):
        for application in ("traffic_analysis", "malt"):
            for complexity in ("easy", "medium", "hard"):
                ranks = sorted(query.difficulty_rank for query in queries_for(application)
                               if query.complexity == complexity)
                assert ranks == list(range(len(ranks)))

    def test_query_by_id(self):
        query = query_by_id("ta-m5")
        assert query.intent.name == "color_by_prefix16"
        with pytest.raises(KeyError):
            query_by_id("nope")

    def test_metadata_contents(self):
        metadata = query_by_id("ta-e1").metadata(bucket_size=8)
        assert metadata["bucket_size"] == 8
        assert metadata["intent"]["name"] == "count_nodes"


class TestCompareValues:
    def test_scalars_with_tolerance(self):
        assert compare_values(3, 3.0)
        assert compare_values(0.3333333, 1 / 3, float_tolerance=1e-3)
        assert not compare_values(3, 4)

    def test_lists_order_sensitive(self):
        assert compare_values(["a", "b"], ["a", "b"])
        assert not compare_values(["a", "b"], ["b", "a"])

    def test_dict_comparison(self):
        assert compare_values({"a": 1}, {"a": 1.0})
        assert not compare_values({"a": 1}, {"a": 1, "b": 2})

    def test_resultset_against_scalar(self):
        result = ResultSet(["n"], [{"n": 5}])
        assert compare_values(5, result)

    def test_resultset_against_list(self):
        result = ResultSet(["address"], [{"address": "a"}, {"address": "b"}])
        assert compare_values(["a", "b"], result)

    def test_resultset_against_dict(self):
        result = ResultSet(["k", "v"], [{"k": "x", "v": 1}, {"k": "y", "v": 2}])
        assert compare_values({"x": 1, "y": 2}, result)

    def test_single_row_against_flat_list(self):
        result = ResultSet(["src", "dst"], [{"src": "a", "dst": "b"}])
        assert compare_values(["a", "b"], result)

    def test_resultset_against_pair_list(self):
        result = ResultSet(["src", "dst"], [{"src": "a", "dst": "b"},
                                            {"src": "c", "dst": "d"}])
        assert compare_values([["a", "b"], ["c", "d"]], result)

    def test_dataframe_normalization(self):
        frame = DataFrame({"k": ["x"], "v": [3]})
        assert compare_values({"x": 3}, frame)

    def test_tuple_equals_list(self):
        assert compare_values(["a", "b"], ("a", "b"))

    def test_any_mapping_normalizes_like_a_dict(self):
        from types import MappingProxyType

        from repro.benchmark.evaluator import normalize_value

        plain = {"g1": [["a", "b"]], "g2": {"nested": [1, 2]}}
        shared = MappingProxyType({"g1": (("a", "b"),),
                                   "g2": MappingProxyType({"nested": (1, 2)})})
        normalized = normalize_value(shared)
        assert type(normalized) is dict and type(normalized["g2"]) is dict
        assert normalized == normalize_value(plain)
        assert compare_values(plain, shared)

    def test_shared_namespace_result_answers_like_a_plain_one(self):
        """A program leaving shared read-only state in ``result`` answers
        with the same document a plain copy of that state produces."""
        import json

        from repro.benchmark.evaluator import normalize_value
        from repro.scenarios import get_scenario
        from repro.scenarios.engine import replay_scenario, timeline_to_dict
        from repro.synthesis.temporal import freeze_timeline, run_temporal_program

        payload = timeline_to_dict(replay_scenario(get_scenario("fat-tree-failover")))
        outcome = run_temporal_program(
            "result = snapshots[0]['attributes']['srlgs']",
            freeze_timeline(payload, "networkx"), "networkx")
        assert outcome.success, outcome.describe_error()
        plain = payload["snapshots"][0]["graph"]["graph_attributes"]["srlgs"]
        assert (json.dumps(normalize_value(outcome.result), sort_keys=True)
                == json.dumps(normalize_value(plain), sort_keys=True))


class TestGoldenSelector:
    def test_golden_cached(self, traffic_app):
        selector = GoldenAnswerSelector()
        query = query_by_id("ta-e1")
        first = selector.golden_for(query, traffic_app.graph)
        second = selector.golden_for(query, traffic_app.graph)
        assert first is second
        assert first.kind == "value" and first.value == 40

    def test_expected_graph_for_analysis_query(self, traffic_app):
        selector = GoldenAnswerSelector()
        golden = selector.golden_for(query_by_id("ta-e1"), traffic_app.graph)
        assert selector.expected_graph(golden, traffic_app.graph) is traffic_app.graph

    def test_golden_cache_survives_graph_id_reuse(self):
        # regression: the cache keys on id(graph); once a graph is garbage
        # collected its address can be recycled by a different graph, which
        # used to serve a stale golden in multi-scenario sweeps
        import gc

        selector = GoldenAnswerSelector()
        query = query_by_id("ta-e1")
        for size in (10, 20, 30, 40):
            application = TrafficAnalysisApplication.with_size(size, size)
            golden = selector.golden_for(query, application.graph)
            assert golden.value == size
            del application
            gc.collect()

    def test_dead_cache_entries_are_pruned(self):
        # regression: entries whose weakref died were rejected on lookup but
        # never *removed*, so multi-scenario sweeps grew the cache by one
        # entry per (query, graph) pair forever
        import gc

        selector = GoldenAnswerSelector()
        query = query_by_id("ta-e1")
        for size in (10, 20, 30, 40, 50):
            application = TrafficAnalysisApplication.with_size(size, size)
            selector.golden_for(query, application.graph)
            del application
            gc.collect()
        # every prior graph is dead; the miss that inserted the newest entry
        # must have swept the corpses, leaving at most the final entry plus
        # the one inserted after the sweep
        assert len(selector) <= 2

    def test_a_concurrent_store_cannot_break_a_prune(self, traffic_app):
        # one selector serves every answer thread of a process: another
        # thread's golden_for may store while this one prunes the cache
        selector = GoldenAnswerSelector()
        selector.golden_for(query_by_id("ta-e1"), traffic_app.graph)
        other = threading.Thread(target=selector.golden_for,
                                 args=(query_by_id("ta-e2"), traffic_app.graph))

        class StoreDuringPrune(dict):
            def items(self):
                for pair in super().items():
                    yield pair
                    if other.ident is None:  # not started yet
                        other.start()
                        other.join(timeout=0.2)

        selector._cache = StoreDuringPrune(selector._cache)
        selector._prune_dead()
        other.join()
        assert len(selector) == 2

    def test_live_cache_entries_survive_pruning(self):
        selector = GoldenAnswerSelector()
        query = query_by_id("ta-e1")
        applications = [TrafficAnalysisApplication.with_size(size, size)
                        for size in (10, 20, 30)]
        goldens = [selector.golden_for(query, app.graph) for app in applications]
        assert len(selector) == 3
        for application, golden in zip(applications, goldens):
            assert selector.golden_for(query, application.graph) is golden


class TestErrorClassifier:
    def _record(self, stage, reason="", error_type="", message=""):
        record = EvaluationRecord(query_id="q", model="gpt-4", backend="networkx",
                                  complexity="easy", passed=False,
                                  failure_stage=stage, failure_reason=reason)
        if error_type:
            record.details["error_type"] = error_type
        if message:
            record.details["error_message"] = message
        return record

    def test_passed_record_is_unclassified(self):
        record = EvaluationRecord(query_id="q", model="m", backend="networkx",
                                  complexity="easy", passed=True)
        assert classify_error(record) is None

    def test_syntax_error(self):
        assert classify_error(self._record("execute", error_type="SyntaxError")) == "syntax_error"
        assert classify_error(self._record("extract")) == "syntax_error"

    def test_imaginary_attribute(self):
        record = self._record("execute", error_type="KeyError", message="'total_traffic'")
        assert classify_error(record) == "imaginary_graph_attribute"
        record = self._record("execute", error_type="SqlExecutionError",
                              message="unknown column 'total_traffic'")
        assert classify_error(record) == "imaginary_graph_attribute"

    def test_imaginary_function_argument(self):
        record = self._record("execute", error_type="TypeError",
                              message="got an unexpected keyword argument 'weights'")
        assert classify_error(record) == "imaginary_function_argument"

    def test_argument_error(self):
        record = self._record("execute", error_type="TypeError",
                              message="takes 3 positional arguments but 5 were given")
        assert classify_error(record) == "argument_error"

    def test_operation_error(self):
        record = self._record("execute", error_type="TypeError",
                              message="unsupported operand type(s) for +")
        assert classify_error(record) == "operation_error"

    def test_compare_failures(self):
        assert classify_error(self._record("compare", reason="result value does not match")) \
            == "wrong_calculation_logic"
        assert classify_error(self._record("compare", reason="graphs are not identical: x")) \
            == "graphs_not_identical"


class TestResultsLogger:
    def _record(self, passed, model="gpt-4", backend="networkx", cost=0.01,
                stage=None, reason=None):
        return EvaluationRecord(query_id="ta-e1", model=model, backend=backend,
                                complexity="easy", passed=passed, cost_usd=cost,
                                failure_stage=stage, failure_reason=reason)

    def test_accuracy_and_filters(self):
        logger = ResultsLogger()
        logger.log(self._record(True))
        logger.log(self._record(False, stage="compare", reason="result value does not match"))
        logger.log(self._record(True, backend="sql"))
        assert logger.accuracy(backend="networkx") == 0.5
        assert logger.accuracy(backend="sql") == 1.0
        assert len(logger.filtered(passed=True)) == 2

    def test_accuracy_empty_filter_is_nan_not_zero(self):
        """No matching records must read as "no data", never as 0% accuracy."""
        logger = ResultsLogger()
        logger.log(self._record(True))
        assert math.isnan(logger.accuracy(backend="pandas"))
        assert math.isnan(ResultsLogger().accuracy())

    def test_render_summary_prints_na_for_nan(self):
        from repro.benchmark.logger import accuracy_cell
        assert accuracy_cell(float("nan")) == "n/a"
        assert accuracy_cell(0.0) == 0.0
        assert accuracy_cell(0.75) == 0.75

    def test_error_classification_on_log(self):
        logger = ResultsLogger()
        record = logger.log(self._record(False, stage="compare",
                                         reason="result value does not match"))
        assert record.error_type == "wrong_calculation_logic"
        assert logger.error_type_counts() == {"wrong_calculation_logic": 1}

    def test_cost_and_save(self, tmp_path):
        logger = ResultsLogger()
        logger.extend([self._record(True, cost=0.02), self._record(False, cost=0.03,
                                                                   stage="compare",
                                                                   reason="x")])
        assert sum(record.cost_usd for record in logger.filtered()) == pytest.approx(0.05)
        path = logger.save(tmp_path / "log.json")
        assert path.exists()
        assert "Benchmark results" in logger.render_summary()


class TestBenchmarkRunner:
    @pytest.fixture(scope="class")
    def traffic_report(self, small_benchmark_config):
        runner = BenchmarkRunner(small_benchmark_config)
        return runner.run_application("traffic_analysis", models=["gpt-4"])

    @pytest.fixture(scope="class")
    def malt_report(self, small_benchmark_config):
        runner = BenchmarkRunner(small_benchmark_config)
        return runner.run_application("malt", models=["gpt-4"])

    def test_traffic_backends(self, traffic_report):
        assert tuple(traffic_report.backends) == TRAFFIC_BACKENDS

    def test_gpt4_networkx_matches_paper_breakdown(self, traffic_report):
        cell = traffic_report.breakdown()["gpt-4"]["networkx"]
        assert cell["easy"] == 1.0
        assert cell["medium"] == 1.0
        assert cell["hard"] == pytest.approx(5 / 8)

    def test_gpt4_strawman_matches_paper_breakdown(self, traffic_report):
        cell = traffic_report.breakdown()["gpt-4"]["strawman"]
        assert cell["easy"] == pytest.approx(4 / 8)
        assert cell["medium"] == pytest.approx(3 / 8)
        assert cell["hard"] == 0.0

    def test_gpt4_summary_close_to_paper(self, traffic_report):
        summary = traffic_report.summary()["gpt-4"]
        assert summary["networkx"] == pytest.approx(0.875, abs=0.01)   # paper: 0.88
        assert summary["strawman"] == pytest.approx(0.29, abs=0.03)    # paper: 0.29

    def test_networkx_beats_other_backends(self, traffic_report):
        summary = traffic_report.summary()["gpt-4"]
        assert summary["networkx"] > summary["pandas"]
        assert summary["networkx"] > summary["sql"]
        assert summary["networkx"] > summary["strawman"]

    def test_malt_backends_exclude_strawman(self, malt_report):
        assert tuple(malt_report.backends) == MALT_BACKENDS

    def test_gpt4_malt_matches_paper_breakdown(self, malt_report):
        breakdown = malt_report.breakdown()["gpt-4"]
        assert breakdown["networkx"] == {"easy": 1.0, "medium": 1.0,
                                         "hard": pytest.approx(1 / 3)}
        assert breakdown["pandas"] == {"easy": pytest.approx(2 / 3),
                                       "medium": pytest.approx(2 / 3),
                                       "hard": pytest.approx(1 / 3)}
        assert breakdown["sql"] == {"easy": pytest.approx(1 / 3), "medium": 0.0, "hard": 0.0}

    def test_failures_are_classified(self, traffic_report):
        failures = traffic_report.logger.filtered(passed=False, backend="networkx")
        assert failures
        assert all(record.error_type for record in failures)

    def test_accuracy_never_exceeds_calibration(self, traffic_report):
        # the simulated model can do no better than its calibrated reliability
        breakdown = traffic_report.breakdown()["gpt-4"]
        for backend in ("sql", "pandas", "networkx", "strawman"):
            for complexity in ("easy", "medium", "hard"):
                ceiling = DEFAULT_CALIBRATION.passing_count(
                    "gpt-4", "traffic_analysis", backend, complexity, 8) / 8
                assert breakdown[backend][complexity] <= ceiling + 1e-9

    def test_render_methods(self, traffic_report):
        assert "Accuracy summary" in traffic_report.render_summary()
        assert "Accuracy by complexity" in traffic_report.render_breakdown()
        assert BenchmarkConfig().traffic_application().graph.node_count == 40

    def test_cached_provenance_threaded_into_records(self, small_benchmark_config,
                                                     tmp_path):
        # regression: saved result logs could not tell cache hits from fresh
        # runs — the runner now stamps each record with the fabric's verdict
        from repro.exec import ExecutorPolicy, ResultCache

        options = ExecutorPolicy.serial(cache=ResultCache(tmp_path / "cache"))
        first = BenchmarkRunner(small_benchmark_config, policy=options) \
            .run_application("malt", models=["gpt-4"], backends=["networkx"])
        assert all(not r.cached for r in first.logger.records)

        second = BenchmarkRunner(small_benchmark_config, policy=options) \
            .run_application("malt", models=["gpt-4"], backends=["networkx"])
        assert all(r.cached for r in second.logger.records)
        # the flag is telemetry: verdicts and the saved log's shape agree
        dumped = second.logger.to_records()
        assert all(row["cached"] is True for row in dumped)
        assert [r.passed for r in first.logger.records] \
            == [r.passed for r in second.logger.records]


def test_a_sweep_checks_each_distinct_source_once(small_benchmark_config, monkeypatch):
    """Static cells cache their validated code objects for one ``run_tasks``."""
    from repro.sandbox import executor

    checked = []
    original = executor._checked_code

    def counted(source, policy, validate):
        checked.append(source)
        return original(source, policy, validate)

    monkeypatch.setattr(executor, "_checked_code", counted)
    runner = BenchmarkRunner(small_benchmark_config)
    for application in ("traffic_analysis", "malt", "traffic_analysis"):
        checked.clear()
        report = runner.run_application(application, backends=("networkx", "pandas"))
        assert len(report.logger.records) > len(set(checked)) > 10
        assert len(checked) == len(set(checked))


#: sha256 of the JSON list of (query, model, backend, passed, failure_stage)
#: rows of one gpt-4 sweep at the default (paper-scale) configuration; a view
#: or graph-diff shortcut that flips any verdict changes the digest
PINNED_VERDICT_DIGESTS = {
    "traffic_analysis": (96, "cb693ccfc8e84745f61260be6c981fb8"
                             "bac9b8cb34e17dad8667d1ea1e05fdf3"),
    "malt": (27, "9627e81b76bd7c6199ec920c2971c892"
                 "bd2d3a3dc3b685571b7072689e5a4e55"),
}


@pytest.mark.parametrize("application", sorted(PINNED_VERDICT_DIGESTS))
def test_gpt4_verdicts_are_pinned(application):
    import hashlib
    import json

    report = BenchmarkRunner().run_application(application, models=["gpt-4"])
    rows = [[record.query_id, record.model, record.backend, record.passed,
             record.failure_stage] for record in report.logger.records]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED_VERDICT_DIGESTS[application]


#: sha256 of everything ``repro benchmark --application all`` prints (Tables
#: 2-5 for all four models, both applications, and the NetworkX error-type
#: table), recorded before the bulk graph conversions: a change to any verdict,
#: cost or token count changes it
PINNED_TABLES_DIGEST = "0c3ab2a82dca2ab467170cc73d66a5f3e165588c71240cca108d0a9079ab5c1d"


def test_rendered_tables_are_pinned(capsys):
    import hashlib

    from repro.cli.main import main

    assert main(["benchmark", "--application", "all", "--no-cache", "--no-ledger"]) == 0
    rendered = capsys.readouterr().out
    assert hashlib.sha256(rendered.encode()).hexdigest() == PINNED_TABLES_DIGEST
