"""Tests for the :mod:`repro.api` facade and the load-test machinery.

The facade's contract: query resolution accepts corpus ids and free text,
answers come from the exact benchmark workers (so facade verdicts equal
batch-benchmark verdicts cell for cell), batches dedupe and keep request
order, and the Zipf load-test mix plus its CI regression gate (``repro
obs gate`` on load-test snapshots) are deterministic functions of their
inputs.
"""

import json

import pytest

from repro import api
from repro.api import QuerySpec, QueryAnswer
from repro.benchmark.queries import temporal_queries_for
from repro.cli.main import main
from repro.exec import ExecutorPolicy
from repro.serve.loadtest import (
    LoadTestConfig,
    LoadTestReport,
    build_query_mix,
    percentile,
    zipf_weights,
)
from repro.utils.validation import ValidationError


# ---------------------------------------------------------------------------
# scenario corpus + query resolution
# ---------------------------------------------------------------------------
class TestScenarioCorpus:
    def test_list_scenarios_documents_query_corpora(self):
        documents = api.list_scenarios()
        assert documents
        by_name = {doc["name"]: doc for doc in documents}
        failover = by_name["fat-tree-failover"]
        assert failover["queries"]["temporal"]  # tq-* ids
        assert failover["queries"]["static"]    # family corpus ids

    def test_load_scenario_rejects_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            api.load_scenario("no-such-scenario")


class TestQueryResolution:
    def test_resolves_corpus_id_exactly(self):
        resolved = api.resolve_query("fat-tree-failover", "tq-e1")
        assert resolved.query_id == "tq-e1"

    def test_resolves_natural_language_text(self):
        spec = api.load_scenario("fat-tree-failover")
        canonical = temporal_queries_for(spec.name)[0]
        mangled = canonical.text.upper().rstrip("?") + "?"
        assert api.resolve_query(spec, mangled).query_id == canonical.query_id

    def test_unknown_query_names_the_scenario(self):
        with pytest.raises(ValidationError, match="fat-tree-failover"):
            api.resolve_query("fat-tree-failover", "what is the meaning of life")


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------
class TestAnswers:
    def test_temporal_answer_matches_golden(self):
        answer = api.answer_temporal_query("fat-tree-failover", "tq-e1")
        assert isinstance(answer, QueryAnswer)
        assert answer.kind == "temporal"
        assert answer.backend == "direct"
        assert answer.passed
        assert answer.answer is not None
        assert answer.record is not None and answer.record.passed

    def test_static_answer_through_codegen(self):
        answer = api.answer_query("fat-tree-failover", "ta-e1")
        assert answer.kind == "static"
        assert answer.backend == "networkx"
        assert answer.answer is not None or answer.failure_stage

    def test_answer_matches_batch_benchmark_verdict(self):
        """The facade's verdict IS the benchmark's verdict for the cell."""
        from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner

        answer = api.answer_temporal_query("fat-tree-failover", "tq-e1",
                                           model="gpt-4")
        report = BenchmarkRunner(BenchmarkConfig()).run_temporal_suite(
            scenarios=["fat-tree-failover"], models=["gpt-4"])
        twin = [record for record in report.logger.records
                if record.query_id == "tq-e1" and record.backend == "direct"]
        assert twin and twin[0].passed == answer.passed

    def test_batch_dedupes_and_preserves_request_order(self):
        requests = [QuerySpec("fat-tree-failover", "tq-e1"),
                    QuerySpec("fat-tree-failover", "tq-h1"),
                    QuerySpec("fat-tree-failover", "tq-e1")]
        answers = api.answer_queries(requests)
        assert [a.query_id for a in answers] == ["tq-e1", "tq-h1", "tq-e1"]
        assert answers[0].answer == answers[2].answer

    def test_single_answers_honour_a_callers_spec(self):
        # a spec object answers as itself, not as the registered scenario of
        # the same name, and an unregistered spec answers too
        from repro.scenarios.registry import get_scenario

        spec = get_scenario("fat-tree-failover")
        spec.params["k"] = 6
        batch = api.answer_queries([QuerySpec(spec, "ta-e1"),
                                    QuerySpec(spec, "tq-e1")])
        assert [answer.answer for answer in batch] == [63, 125]
        assert api.answer_query(spec, "ta-e1").answer == 63
        assert api.answer_temporal_query(spec, "tq-e1").answer == 125

        spec.name = "fat-tree-k6"
        renamed = api.answer_query(spec, "ta-e1")
        assert (renamed.scenario, renamed.answer) == ("fat-tree-k6", 63)

    def test_batch_is_identical_across_executors(self):
        requests = [QuerySpec("fat-tree-failover", query.query_id)
                    for query in temporal_queries_for("fat-tree-failover")]
        serial = api.answer_queries(requests, policy=ExecutorPolicy.serial())
        pooled = api.answer_queries(requests,
                                    policy=ExecutorPolicy.processes(jobs=2))
        strip = ("duration_s", "cached")
        for left, right in zip(serial, pooled):
            left_doc, right_doc = left.to_document(), right.to_document()
            for key in strip:
                left_doc.pop(key), right_doc.pop(key)
            assert left_doc == right_doc

    def test_errored_cell_raises_its_cause(self, monkeypatch):
        """A worker that raises surfaces as TaskExecutionError naming the
        cell and the error, not as a TypeError on the missing value."""
        from repro.exec import TaskExecutionError

        def broken_cell(payload):
            raise RuntimeError("namespace exploded")

        monkeypatch.setattr(api, "run_api_cell", broken_cell)
        with pytest.raises(TaskExecutionError, match="namespace exploded") as excinfo:
            api.answer_queries([QuerySpec("fat-tree-failover", "tq-e1")])
        assert [result.key for result in excinfo.value.failures] == [
            "api/fat-tree-failover/temporal/direct/tq-e1/gpt-4"]

    def test_temporal_entry_point_rejects_static_queries(self):
        with pytest.raises(ValidationError, match="not a temporal query"):
            api.answer_temporal_query("fat-tree-failover", "ta-e1")

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValidationError):
            api.answer_query("fat-tree-failover", "tq-e1", backend="strawman")

    def test_ask_freeform(self):
        result = api.ask("how many nodes are in the network",
                         nodes=30, edges=30)
        assert result.succeeded
        assert result.result_value == 30

    def test_ask_does_not_cache_its_code(self, monkeypatch):
        # freeform text writes parsed values into the source: caching it
        # would keep every distinct query's code object
        from repro.sandbox import ExecutionSandbox

        seen = []
        original = ExecutionSandbox.execute

        def execute(sandbox, source, namespace=None, validate=True, cache_code=False):
            seen.append(cache_code)
            return original(sandbox, source, namespace, validate, cache_code)

        monkeypatch.setattr(ExecutionSandbox, "execute", execute)
        for backend in ("networkx", "pandas"):
            assert api.ask("how many nodes are in the network", backend=backend,
                           nodes=30, edges=30).succeeded
        assert seen == [False, False]


# ---------------------------------------------------------------------------
# the load-test mix
# ---------------------------------------------------------------------------
class TestLoadTestMix:
    def test_mix_is_deterministic(self):
        config = LoadTestConfig(duration_s=5, qps=10, seed=11)
        assert build_query_mix(config) == build_query_mix(config)

    def test_seed_changes_schedule(self):
        base = build_query_mix(LoadTestConfig(duration_s=5, qps=10, seed=1))
        other = build_query_mix(LoadTestConfig(duration_s=5, qps=10, seed=2))
        assert base != other

    def test_zipf_head_dominates(self):
        weights = zipf_weights(10, 1.1)
        assert weights[0] == 1.0
        assert weights == sorted(weights, reverse=True)
        mix = build_query_mix(LoadTestConfig(duration_s=20, qps=10, seed=7))
        counts = {}
        for body in mix:
            key = (body["scenario"], body["query"])
            counts[key] = counts.get(key, 0) + 1
        head = max(counts.values())
        assert head > len(mix) / len(counts)  # heavier than uniform

    def test_scenario_restriction(self):
        mix = build_query_mix(LoadTestConfig(
            duration_s=3, qps=5, scenarios=["fat-tree-failover"]))
        assert {body["scenario"] for body in mix} == {"fat-tree-failover"}

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(ValidationError):
            build_query_mix(LoadTestConfig(scenarios=["nope"]))

    def test_percentile_nearest_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4, 0.5]
        assert percentile(samples, 0.50) == 0.3
        assert percentile(samples, 0.95) == 0.5
        assert percentile([], 0.5) is None

    def test_report_document_schema(self):
        report = LoadTestReport(target_qps=5, duration_s=2, sent=10,
                                completed=9, failed=1, wall_s=2.0,
                                latencies_s=[0.01] * 9,
                                status_counts={"200": 9, "500": 1})
        document = report.to_document()
        # a metrics snapshot: throughput 4.5 qps is 2/9 s per request
        assert document["gauges"]["loadtest.seconds_per_request"] == 0.222222
        assert document["histograms"]["loadtest.latency.seconds"]["p95"] == 0.01
        assert document["counters"]["loadtest.failed"] == 1
        assert json.loads(json.dumps(document)) == document


# ---------------------------------------------------------------------------
# the CI gate
# ---------------------------------------------------------------------------
def _report(path, p95=0.010, throughput=8.0, completed=24, failed=0):
    document = {
        "counters": {"loadtest.completed": completed, "loadtest.failed": failed,
                     "loadtest.sent": completed + failed},
        "gauges": {"loadtest.seconds_per_request": 1.0 / throughput},
        "histograms": {"loadtest.latency.seconds": {
            "count": completed, "p50": p95 / 2, "p95": p95, "p99": p95 * 1.2}},
    }
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestLoadTestGate:
    def test_matching_reports_pass(self, tmp_path, capsys):
        base = _report(tmp_path / "base.json")
        current = _report(tmp_path / "cur.json")
        assert main(["obs", "gate", base, current]) == 0

    def test_p95_regression_fails(self, tmp_path):
        base = _report(tmp_path / "base.json", p95=0.010)
        current = _report(tmp_path / "cur.json", p95=0.080)  # 8x and >floor
        assert main(["obs", "gate", base, current]) == 1

    def test_abs_floor_shields_fast_paths(self, tmp_path):
        # 10x ratio but only +4.5ms absolute: runner noise, not a regression
        base = _report(tmp_path / "base.json", p95=0.0005)
        current = _report(tmp_path / "cur.json", p95=0.005)
        assert main(["obs", "gate", base, current]) == 0

    def test_throughput_collapse_fails(self, tmp_path):
        base = _report(tmp_path / "base.json", throughput=10.0)
        current = _report(tmp_path / "cur.json", throughput=1.0)
        assert main(["obs", "gate", base, current]) == 1

    def test_failed_requests_fail_the_gate(self, tmp_path):
        base = _report(tmp_path / "base.json")
        current = _report(tmp_path / "cur.json", failed=3)
        assert main(["obs", "gate", base, current]) == 1

    def test_too_few_samples_produce_no_verdict(self, tmp_path, capsys):
        base = _report(tmp_path / "base.json")
        current = _report(tmp_path / "cur.json", completed=3, p95=9.9)
        assert main(["obs", "gate", base, current]) == 0
        assert "no verdict" in capsys.readouterr().out
