"""Self-tests of the benchmark: mix determinism, wrapper removal,
percentile reporting and the correctness check."""

from __future__ import annotations

import copy
import importlib
import itertools
import json
from pathlib import Path

from perfbench import layers
from perfbench.expected import AnswerChecker, check_sweep, load_expected, request_key
from perfbench.mix import request_stream
from perfbench.run import END_TO_END_UNITS
from perfbench.stats import min_samples, percentile

ROOT = Path(__file__).resolve().parents[2]


def _draw(seed, count=500):
    expected = load_expected("serve-codegen")
    stream = request_stream(expected["candidates"], expected["backends"], seed)
    return list(itertools.islice(stream, count))


def test_mix_is_identical_for_the_same_seed():
    assert _draw(7) == _draw(7)
    assert _draw(7) != _draw(8)


def test_mix_follows_zipf_rank_and_draws_both_backends():
    draw = _draw(3, 4000)
    first = load_expected("serve-codegen")["candidates"][0]
    head = sum(1 for request in draw
               if [request["scenario"], request["query"]] == first)
    assert 0.2 < head / len(draw) < 0.4
    backends = [request["backend"] for request in draw]
    assert 0.45 < backends.count("frames") / len(backends) < 0.55


def _attribute_state():
    """Every attribute the wrappers touch: its own value, or "<absent>"."""
    state = {}
    for module_name, attribute, _ in layers.MODULE_TARGETS:
        module = importlib.import_module(module_name)
        state[(module_name, attribute)] = vars(module).get(attribute, "<absent>")
    for module_name, class_name, method, _ in layers.CLASS_TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for owner in [cls, *layers._subclasses(cls)]:
            state[(owner.__qualname__, method)] = vars(owner).get(method, "<absent>")
    for module_name in layers.WORKER_CONTEXT_CALLERS:
        state[(module_name, "worker_context")] = vars(
            importlib.import_module(module_name))["worker_context"]
    return state


def test_wrappers_are_fully_removed_after_a_traced_run():
    from repro import api
    from repro.sandbox import executor

    before = _attribute_state()
    recorder = layers.Recorder()
    installation = layers.install(recorder)
    try:
        assert _attribute_state() != before
        answer = api.answer_query("fat-tree-failover", "tq-e1", backend="networkx")
        assert answer.passed
    finally:
        installation.remove()
    assert _attribute_state() == before
    assert "compile" not in vars(executor)
    assert executor.ExecutionSandbox.execute.__name__ == "execute"

    table = layers.span_table(recorder.document()["spans"])
    for name in ("api.answer_queries", "exec.run_tasks", "synthesis.timeline_namespace",
                 "sandbox.validate", "sandbox.compile", "sandbox.execute"):
        assert table[name]["calls"] >= 1, name
    assert recorder.counters["sandbox.runs"] == 1
    # a closed run records nothing more
    api.answer_query("fat-tree-failover", "tq-e1", backend="networkx")
    assert len(recorder.spans) == sum(row["calls"] for row in table.values())


def test_self_time_subtracts_direct_children():
    spans = [[1, None, 1, "outer", 0.0, 1.0],
             [2, 1, 1, "inner", 0.1, 0.4],
             [3, 2, 1, "leaf", 0.2, 0.3]]
    table = layers.span_table(spans)
    assert abs(table["outer"]["self_ms"] - 700.0) < 1e-6
    assert abs(table["inner"]["self_ms"] - 200.0) < 1e-6
    assert abs(table["leaf"]["self_ms"] - 100.0) < 1e-6


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(199), 0.95) is None
    assert percentile(range(200), 0.95) == 189
    assert percentile(range(19), 0.50) is None
    assert percentile(range(20), 0.50) == 9
    assert min_samples(0.95) == 200


def test_histogram_quantile_interpolates_inside_the_bucket():
    # bucket 80 spans (1e-3, 1e-3 * 10**0.05]
    assert abs(layers.histogram_quantile({}, {"80": 4}, 0.5)
               - 1e-3 * 10 ** (0.5 / 20)) < 1e-12
    assert layers.histogram_quantile({"80": 4}, {"80": 4}, 0.5) == 0.0


def test_a_tampered_expected_answer_is_a_failure():
    from repro import api

    expected = load_expected("serve-direct")
    scenario, query = expected["candidates"][0]
    request = {"scenario": scenario, "query": query, "backend": "direct"}
    document = json.loads(json.dumps(
        api.answer_query(scenario, query, backend="direct").to_document()))
    assert AnswerChecker(expected).check(request, 200, document) is None

    tampered = copy.deepcopy(expected)
    tampered["answers"][request_key(request)]["answer"] = "tampered"
    failure = AnswerChecker(tampered).check(request, 200, document)
    assert failure == {"request": request, "status": 200,
                       "message": "answer differs from the expected answer"}

    error = {"error": {"status": 500, "message": "TypeError: boom"}}
    assert AnswerChecker(expected).check(request, 500, error)["message"] == "TypeError: boom"


def test_a_tampered_sweep_record_is_a_failure():
    expected = load_expected("sweep-tables")
    rows = copy.deepcopy(expected["records"])
    assert check_sweep(expected, rows) == []
    rows[5][3] = not rows[5][3]
    failures = check_sweep(expected, rows)
    assert len(failures) == 1 and failures[0]["request"] == rows[5][:3]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
