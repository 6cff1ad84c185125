"""The shared read-only temporal namespace and the validated-code cache.

Contract (see :mod:`repro.synthesis.temporal` and DESIGN.md "Timeline-aware
synthesis"): a (timeline, backend) namespace is built once and shared by
every request; each request gets fresh ``snapshots``/``deltas`` lists; a
program that tries to mutate the shared contents is an ``execute``-stage
fault and cannot change the next request's answer; each distinct program
source is validated once per worker-context lifetime.
"""

import asyncio
import copy
import dataclasses
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest

from repro import api
from repro.exec import ExecutorPolicy, clear_worker_contexts
from repro.frames import FrameError
from repro.sandbox import executor
from repro.scenarios.engine import replay_scenario, timeline_to_dict
from repro.scenarios.registry import get_scenario
from repro.serve import ServerThread, ServiceConfig, request_json
from repro.synthesis import CodeSynthesisEngine, temporal
from repro.synthesis.temporal import (
    FrozenTimeline,
    ReadOnlyDict,
    freeze_timeline,
    run_temporal_program,
    timeline_namespace,
)
from repro.utils.validation import ValidationError

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = "fat-tree-failover"
#: a gpt-4 cell that passes on both codegen backends
QUERY = "tq-e1"


@pytest.fixture(autouse=True)
def _isolate_worker_contexts():
    clear_worker_contexts()
    yield
    clear_worker_contexts()


@pytest.fixture(scope="module")
def payload():
    return timeline_to_dict(replay_scenario(get_scenario(SCENARIO)))


def _warm_policy():
    return ExecutorPolicy.serial(keep_contexts=True)


def _stable(document):
    """An answer document without its per-run fields."""
    return {key: value for key, value in document.items()
            if key not in ("duration_s", "cached")}


def _document(answer):
    return json.dumps(_stable(answer.to_document()), sort_keys=True)


def _answer(backend, policy=None):
    return api.answer_queries([api.QuerySpec(scenario=SCENARIO, query=QUERY,
                                             backend=backend)],
                              policy=policy or _warm_policy())[0]


# ---------------------------------------------------------------------------
# read-only building blocks
# ---------------------------------------------------------------------------
class TestReadOnlyDict:
    def test_every_mutator_raises(self):
        frozen = ReadOnlyDict(a=1)
        mutations = [
            lambda: frozen.__setitem__("a", 2),
            lambda: frozen.__delitem__("a"),
            lambda: frozen.update(b=2),
            lambda: frozen.setdefault("b", 2),
            lambda: frozen.pop("a"),
            lambda: frozen.popitem(),
            lambda: frozen.clear(),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError, match="read-only"):
                mutate()
        assert frozen == {"a": 1}

    def test_copies_and_serializations_are_plain_dicts(self):
        frozen = ReadOnlyDict(a=ReadOnlyDict(b=(1, 2)))
        for clone in (frozen.copy(), copy.copy(frozen), copy.deepcopy(frozen),
                      pickle.loads(pickle.dumps(frozen))):
            assert type(clone) is dict
            assert clone == {"a": {"b": (1, 2)}}
        assert type(copy.deepcopy(frozen)["a"]) is dict
        assert json.loads(json.dumps(frozen)) == {"a": {"b": [1, 2]}}


class TestFrozenTimeline:
    def test_contents_are_read_only_all_the_way_down(self, payload):
        frozen = freeze_timeline(payload, "networkx")
        first = frozen.snapshots[0]
        assert isinstance(first, ReadOnlyDict)
        assert isinstance(first["attributes"], ReadOnlyDict)
        srlgs = first["attributes"]["srlgs"]
        assert srlgs and all(isinstance(members, tuple) for members in srlgs.values())
        assert frozen.deltas[0] is None
        assert isinstance(frozen.deltas[1]["missing_edges"], tuple)
        graph = first["graph"]
        node = next(iter(graph.nodes))
        edge = next(iter(graph.edges))
        assert isinstance(graph.graph, ReadOnlyDict)
        assert isinstance(graph.nodes[node], ReadOnlyDict)
        assert isinstance(graph.edges[edge], ReadOnlyDict)
        # one data dict per DiGraph edge, whichever index reaches it
        assert graph.succ[edge[0]][edge[1]] is graph.pred[edge[1]][edge[0]]

    def test_frames_are_read_only(self, payload):
        frozen = freeze_timeline(payload, "frames")
        nodes_df = frozen.snapshots[0]["nodes_df"]
        with pytest.raises(FrameError, match="read-only"):
            nodes_df["extra"] = 1
        widened = nodes_df.assign(extra=1)
        widened["more"] = 2  # derived frames are writable
        assert "extra" not in nodes_df.columns

    def test_view_is_fresh_lists_over_shared_contents(self, payload):
        frozen = freeze_timeline(payload, "networkx")
        first = timeline_namespace(frozen, "networkx")
        second = timeline_namespace(frozen, "networkx")
        assert type(first["snapshots"]) is list and type(first["deltas"]) is list
        assert first["snapshots"] is not second["snapshots"]
        assert all(a is b for a, b in zip(first["snapshots"], second["snapshots"]))
        first["snapshots"].pop()
        assert len(second["snapshots"]) == len(frozen.snapshots)

    def test_view_rejects_a_namespace_of_another_backend(self, payload):
        with pytest.raises(ValidationError, match="frozen for backend 'frames'"):
            timeline_namespace(freeze_timeline(payload, "frames"), "networkx")

    def test_copying_library_calls_still_work(self, payload):
        # networkx copies attribute dicts with deepcopy; json is an allowed
        # import — both must work on the shared namespace
        code = ("import json\n"
                "G = snapshots[0]['graph']\n"
                "U = G.to_undirected()\n"
                "U.add_edge('x', 'y')\n"
                "R = G.reverse()\n"
                "text = json.dumps(snapshots[0]['attributes'], sort_keys=True)\n"
                "result = [U.number_of_edges() > 0, R.number_of_edges(), len(text) > 2]\n")
        outcome = run_temporal_program(code, freeze_timeline(payload, "networkx"),
                                       "networkx")
        assert outcome.success, outcome.describe_error()
        graph = freeze_timeline(payload, "networkx").snapshots[0]["graph"]
        assert outcome.result == [True, graph.number_of_edges(), True]

    def test_crash_fault_still_indexes_off_a_list(self, payload):
        from repro.llm.faults import TemporalFaultInjector

        outcome = run_temporal_program(TemporalFaultInjector().crash_code(),
                                       freeze_timeline(payload, "frames"), "frames")
        assert outcome.error_message == "list index out of range"


# ---------------------------------------------------------------------------
# mutation attempts are recorded faults that leave the next answer unchanged
# ---------------------------------------------------------------------------
NETWORKX_MUTATIONS = {
    "add_edge": "snapshots[0]['graph'].add_edge('phantom-a', 'phantom-b')\n",
    "node_attribute": ("G = snapshots[0]['graph']\n"
                       "G.nodes[next(iter(G.nodes))]['role'] = 'phantom'\n"),
    "edge_attribute": ("G = snapshots[0]['graph']\n"
                       "G.edges[next(iter(G.edges))]['capacity_gbps'] = 0\n"),
    "graph_attribute": "snapshots[0]['graph'].graph['srlgs'] = {}\n",
}
SHARED_MUTATIONS = {
    "attributes": "snapshots[0]['attributes']['srlgs'] = {}\n",
    "srlg_members": ("members = next(iter(snapshots[0]['attributes']['srlgs'].values()))\n"
                     "members.append(('phantom-a', 'phantom-b'))\n"),
    "delta": "deltas[1]['missing_edges'] = []\n",
    "snapshot_entry": "snapshots[0]['time'] = 99.0\n",
}
FRAMES_MUTATIONS = {
    "frame_column": "snapshots[0]['nodes_df']['role'] = 'phantom'\n",
    "edge_frame_column": "snapshots[-1]['edges_df']['capacity_gbps'] = 0\n",
}
CASES = ([("networkx", name, code) for name, code in NETWORKX_MUTATIONS.items()]
         + [(backend, name, code) for backend in ("networkx", "frames")
            for name, code in SHARED_MUTATIONS.items()]
         + [("frames", name, code) for name, code in FRAMES_MUTATIONS.items()])


@pytest.mark.parametrize("backend,name,mutation", CASES,
                         ids=[f"{backend}-{name}" for backend, name, _ in CASES])
def test_mutation_is_an_execute_fault_and_next_answer_is_identical(
        monkeypatch, backend, name, mutation):
    policy = _warm_policy()
    before = _document(_answer(backend, policy))

    original = CodeSynthesisEngine.generate_temporal

    def mutating(self, intent, backend):
        program = original(self, intent, backend)
        return dataclasses.replace(program, code=mutation + program.code)

    with monkeypatch.context() as patch:
        patch.setattr(CodeSynthesisEngine, "generate_temporal", mutating)
        faulty = _answer(backend, policy)
    assert not faulty.passed
    assert faulty.failure_stage == "execute", faulty.failure_reason

    after = _answer(backend, policy)
    assert after.passed
    assert _document(after) == before


# ---------------------------------------------------------------------------
# build counts: namespaces per (timeline, backend), validation per source
# ---------------------------------------------------------------------------
@pytest.fixture
def counters(monkeypatch):
    counts = {"freeze": Counter(), "validate": Counter()}
    real_freeze = temporal.freeze_timeline
    real_validate = executor.validate_source

    def counting_freeze(timeline, backend):
        counts["freeze"][backend] += 1
        return real_freeze(timeline, backend)

    def counting_validate(source, policy=None):
        counts["validate"][source] += 1
        return real_validate(source, policy)

    monkeypatch.setattr(temporal, "freeze_timeline", counting_freeze)
    monkeypatch.setattr(executor, "validate_source", counting_validate)
    return counts


def _corpus_requests():
    from repro.benchmark.queries import temporal_queries_for

    return [api.QuerySpec(scenario=SCENARIO, query=query.query_id, backend=backend)
            for backend in ("networkx", "frames")
            for query in temporal_queries_for(SCENARIO)]


def test_warm_requests_build_once_and_validate_each_source_once(counters):
    policy = _warm_policy()
    requests = _corpus_requests()
    rounds = 3
    for _ in range(rounds):
        for request in requests:
            api.answer_queries([request], policy=policy)
    assert counters["freeze"] == Counter({"networkx": 1, "frames": 1})
    assert counters["validate"]
    assert set(counters["validate"].values()) == {1}


def test_cold_batch_runs_validate_every_source_again(counters):
    requests = _corpus_requests()
    first = api.answer_queries(requests)
    distinct = set(counters["validate"])
    second = api.answer_queries(requests)
    assert [_document(a) for a in first] == [_document(b) for b in second]
    assert set(counters["validate"]) == distinct
    assert set(counters["validate"].values()) == {2}
    assert counters["freeze"] == Counter({"networkx": 2, "frames": 2})


def test_concurrent_warm_requests_share_one_namespace(counters):
    """More threads than cores, with frequent thread switches, answer the
    corpus over one set of shared namespaces and code objects."""
    import sys
    import threading

    requests = _corpus_requests()
    reference = [_document(answer) for answer in api.answer_queries(requests)]
    counters["freeze"].clear()
    counters["validate"].clear()
    policy = _warm_policy()
    answers = {}

    def answer_all(offset):
        order = requests[offset:] + requests[:offset]
        answers[offset] = [
            (request, _document(api.answer_queries([request], policy=policy)[0]))
            for _ in range(2) for request in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=answer_all, args=(offset,))
                   for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = {id(request): document for request, document in zip(requests, reference)}
    assert len(answers) == 6
    for answered in answers.values():
        assert [document for _, document in answered] == [
            expected[id(request)] for request, _ in answered]
    assert counters["freeze"] == Counter({"networkx": 1, "frames": 1})
    assert set(counters["validate"].values()) == {1}


def test_freeform_questions_leave_no_cached_code():
    """``ask`` writes parsed values into the program source, so each
    distinct question is a distinct program: none of them stays cached."""
    from repro.exec.workers import _CONTEXT_CACHE

    before = len(_CONTEXT_CACHE)
    for threshold in range(1000, 1006):
        answer = api.ask(f"List the edges carrying more than {threshold} bytes",
                         nodes=10, edges=10)
        assert f"> {threshold}" in answer.code
        assert answer.execution.success, answer.execution.describe_error()
    assert len(_CONTEXT_CACHE) == before


def test_frozen_timeline_is_what_the_worker_shares():
    _answer("networkx")
    from repro.exec.workers import _CONTEXT_CACHE

    shared = [value for key, value in _CONTEXT_CACHE.items()
              if key[0] == "temporal-namespace"]
    assert len(shared) == 1 and isinstance(shared[0], FrozenTimeline)


# ---------------------------------------------------------------------------
# serve answers are unchanged
# ---------------------------------------------------------------------------
def test_serve_answers_match_the_benchmark_expectations():
    expected = json.loads((ROOT / "perfbench" / "expected" / "serve-codegen.json")
                          .read_text(encoding="utf-8"))
    with ServerThread(ServiceConfig(port=0, workers=2)) as server:
        for _ in range(2):  # cold, then warm
            for key, document in sorted(expected["answers"].items()):
                scenario, query, backend = key.split("|")
                status, answer = asyncio.run(request_json(
                    server.host, server.port, "POST", "/query",
                    {"scenario": scenario, "query": query, "backend": backend}))
                assert status == 200, answer
                assert _stable(answer) == _stable(document), key
