"""Tests for :mod:`repro.serve` — the concurrent query-answering daemon.

One server instance (on an OS-assigned port) serves the whole module; the
tests drive it exactly like external clients: fresh connection per request,
JSON over HTTP.  The load-bearing assertions are the concurrency ones — a
storm of parallel POSTs must produce answers identical to the batch facade,
with no cross-request state bleed.
"""

import asyncio
import json

import pytest

from repro import api
from repro.exec import SerialExecutor, Task, TaskSet
from repro.serve import ReproService, ServerThread, ServiceConfig, request_json
from repro.serve.http import (
    HttpProtocolError,
    HttpRequest,
    error_document,
    render_response,
)
from repro.serve.loadtest import LoadTestConfig, run_loadtest


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServiceConfig(port=0, workers=4)) as running:
        yield running


def call(server, method, path, payload=None):
    return asyncio.run(request_json(server.host, server.port, method, path,
                                    payload))


# ---------------------------------------------------------------------------
# protocol plumbing
# ---------------------------------------------------------------------------
class TestHttpPlumbing:
    def test_render_response_is_canonical_json(self):
        raw = render_response(200, {"b": 1, "a": 2})
        head, body = raw.split(b"\r\n\r\n", 1)
        assert b"HTTP/1.1 200 OK" in head
        assert b"Connection: close" in head
        assert body == b'{"a": 2, "b": 1}\n'

    def test_request_json_rejects_bad_body(self):
        request = HttpRequest(method="POST", path="/query", headers={},
                              body=b"{nope")
        with pytest.raises(HttpProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_error_document_shape(self):
        assert error_document(404, "gone") == {
            "error": {"status": 404, "message": "gone"}}


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, server):
        status, document = call(server, "GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["workers"] == 4
        assert document["uptime_s"] >= 0

    def test_batches_answer_serially_on_their_answer_thread(self):
        # the service's concurrency is its answer threads: a multi-query
        # batch never hands its cells to a pool
        batch = TaskSet(name="batch", tasks=[
            Task(key=f"sq/{index}", fn="repro.exec.demo:square",
                 payload={"x": index}) for index in range(2)])
        policy = ReproService(ServiceConfig(port=0))._policy
        assert isinstance(policy.build_executor(batch), SerialExecutor)
        assert policy.keep_contexts

    def test_scenarios_lists_the_corpus(self, server):
        status, document = call(server, "GET", "/scenarios")
        assert status == 200
        names = [entry["name"] for entry in document["scenarios"]]
        assert "fat-tree-failover" in names

    def test_metrics_exposes_request_histogram(self, server):
        call(server, "GET", "/healthz")  # ensure at least one span
        status, document = call(server, "GET", "/metrics")
        assert status == 200
        assert "span.serve.request.seconds" in document["histograms"]

    def test_query_single(self, server):
        status, document = call(server, "POST", "/query",
                                {"scenario": "fat-tree-failover",
                                 "query": "tq-e1"})
        assert status == 200
        assert document["query_id"] == "tq-e1"
        assert document["passed"] is True

    def test_query_batch(self, server):
        status, document = call(server, "POST", "/query", {"requests": [
            {"scenario": "fat-tree-failover", "query": "tq-e1"},
            {"scenario": "fat-tree-failover", "query": "tq-h1"},
        ]})
        assert status == 200
        assert [a["query_id"] for a in document["answers"]] == ["tq-e1", "tq-h1"]

    def test_query_resolves_natural_language(self, server):
        canonical = api.resolve_query("fat-tree-failover", "tq-e1")
        status, document = call(server, "POST", "/query",
                                {"scenario": "fat-tree-failover",
                                 "query": canonical.text.upper()})
        assert status == 200
        assert document["query_id"] == "tq-e1"


class TestErrorPaths:
    def test_unknown_endpoint_404(self, server):
        status, document = call(server, "GET", "/nope")
        assert status == 404
        assert "endpoints" in document["error"]["message"]

    def test_wrong_method_405(self, server):
        status, document = call(server, "GET", "/query")
        assert status == 405

    def test_missing_fields_400(self, server):
        status, document = call(server, "POST", "/query", {"scenario": "x"})
        assert status == 400
        assert "query" in document["error"]["message"]

    def test_unknown_field_400(self, server):
        status, document = call(server, "POST", "/query",
                                {"scenario": "fat-tree-failover",
                                 "query": "tq-e1", "turbo": True})
        assert status == 400
        assert "turbo" in document["error"]["message"]

    def test_unknown_scenario_400(self, server):
        status, document = call(server, "POST", "/query",
                                {"scenario": "atlantis", "query": "tq-e1"})
        assert status == 400

    def test_empty_batch_400(self, server):
        status, _ = call(server, "POST", "/query", {"requests": []})
        assert status == 400

    def test_errors_never_kill_the_server(self, server):
        call(server, "POST", "/query", {"scenario": "atlantis", "query": "x"})
        status, document = call(server, "GET", "/healthz")
        assert status == 200 and document["errors"] >= 1


# ---------------------------------------------------------------------------
# concurrency: the tentpole guarantee
# ---------------------------------------------------------------------------
def _strip(document):
    """Drop per-run telemetry; everything left must be request-determined."""
    return {key: value for key, value in document.items()
            if key not in ("duration_s", "cached")}


class TestConcurrency:
    def test_concurrent_storm_matches_batch_facade(self, server):
        """Parallel clients asking different questions each get exactly the
        answer the batch facade computes for their question — no bleed."""
        from repro.benchmark.queries import temporal_queries_for

        queries = [q.query_id for q in temporal_queries_for("fat-tree-failover")]
        bodies = [{"scenario": "fat-tree-failover", "query": query_id}
                  for query_id in queries * 3]  # 3 copies of each, interleaved

        async def storm():
            return await asyncio.gather(*[
                request_json(server.host, server.port, "POST", "/query", body)
                for body in bodies])

        outcomes = asyncio.run(storm())
        assert all(status == 200 for status, _ in outcomes)

        expected = {answer.query_id: _strip(answer.to_document())
                    for answer in api.answer_queries(
                        [api.QuerySpec("fat-tree-failover", q) for q in queries])}
        for (status, document), body in zip(outcomes, bodies):
            assert _strip(document) == expected[body["query"]]

    def test_repeated_requests_are_stable(self, server):
        """The warm path (kept contexts) answers identically every time."""
        body = {"scenario": "fat-tree-failover", "query": "tq-e1"}
        first = _strip(call(server, "POST", "/query", body)[1])
        for _ in range(3):
            assert _strip(call(server, "POST", "/query", body)[1]) == first


# ---------------------------------------------------------------------------
# the load generator end to end
# ---------------------------------------------------------------------------
class TestLoadTest:
    def test_loadtest_against_live_server(self, server):
        config = LoadTestConfig(host=server.host, port=server.port,
                                duration_s=1.0, qps=6.0,
                                scenarios=["fat-tree-failover"])
        report = run_loadtest(config)
        assert report.sent == 6
        assert report.failed == 0
        assert report.completed == 6
        summary = report.latency_summary()
        assert summary["p50"] is not None and summary["p95"] >= summary["p50"]
        assert report.server_histogram is not None
        assert report.server_histogram["count"] >= 6
        document = report.to_document()
        assert json.loads(json.dumps(document, sort_keys=True)) == document

    def test_loadtest_spawn_mode(self):
        report = run_loadtest(LoadTestConfig(
            duration_s=0.5, qps=4.0, scenarios=["fat-tree-failover"]))
        assert report.completed == report.sent == 2
