"""Tests for the invariants hoisted out of the warm answer path.

Three things are computed once and reused by every request:

* the registry's read-only :class:`~repro.scenarios.registry.ScenarioRecord`
  (spec, spec dict, spec hash), built when a scenario is registered;
* the ``spec_hash`` every temporal task carries next to its ``spec``;
* a failing model's output — the direct backend's stale answer and the
  codegen backends' faulty program — memoized per worker process.

Each test here fails if one of those reuses returns something a fresh
computation would not.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import api
from repro.api import QuerySpec
from repro.benchmark import tasks
from repro.benchmark.queries import temporal_queries_for, temporal_scenario_names
from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner
from repro.benchmark.tasks import run_temporal_cell, temporal_cell_task
from repro.exec import ExecutorPolicy, clear_worker_contexts
from repro.llm.calibration import CalibrationTable
from repro.scenarios import (
    CapacityDegradationEvent,
    LinkDownEvent,
    get_scenario,
    register_scenario,
)
from repro.scenarios.registry import scenario_record
from repro.utils.hashing import stable_hash

SCENARIO = "fat-tree-failover"
TEMPORAL_BACKENDS = ("direct", "networkx", "frames")
MODELS = tuple(BenchmarkConfig().models)
#: worker-context tags of the memoized failing outputs
MEMO_TAGS = ("temporal-stale-answer", "temporal-faulty-program")


@pytest.fixture
def contexts():
    """Fresh worker contexts for the test, dropped again afterwards."""
    clear_worker_contexts()
    yield
    clear_worker_contexts()


def _answers(scenario: str):
    """Every (query, backend, model) answer of *scenario*, warm contexts
    kept, as comparable documents plus the full verdict."""
    requests = [QuerySpec(scenario=scenario, query=query.query_id,
                          model=model, backend=backend)
                for query in temporal_queries_for(scenario)
                for backend in TEMPORAL_BACKENDS
                for model in MODELS]
    answers = api.answer_queries(
        requests, policy=ExecutorPolicy.serial(keep_contexts=True))
    return [(answer.to_document() | {"duration_s": None}, answer.record)
            for answer in answers]


# ---------------------------------------------------------------------------
# one read-only record per registration
# ---------------------------------------------------------------------------
class TestScenarioRecord:
    def test_record_is_built_once_and_hashes_its_dict(self):
        record = scenario_record(SCENARIO)
        assert scenario_record(SCENARIO) is record
        assert record.spec_dict == get_scenario(SCENARIO).to_dict()
        assert record.spec_hash == stable_hash(record.spec_dict)

    def test_edited_copies_change_neither_answers_nor_record(self, contexts):
        record = scenario_record(SCENARIO)
        spec_dict = dict(record.spec_dict)
        before = _answers(SCENARIO)
        for edited in (get_scenario(SCENARIO), api.load_scenario(SCENARIO)):
            edited.params["k"] = 6
            edited.seed += 1
            edited.events[0].source = "pod1-agg0"
        assert _answers(SCENARIO) == before
        assert scenario_record(SCENARIO) is record
        assert record.spec_dict == spec_dict
        assert record.spec.to_dict() == spec_dict
        assert record.spec_hash == stable_hash(spec_dict)
        assert get_scenario(SCENARIO).to_dict() == spec_dict

    def test_replace_rehashes_and_answers_on_the_new_spec(self, contexts):
        original = get_scenario(SCENARIO)
        old_hash = scenario_record(SCENARIO).spec_hash
        changed = get_scenario(SCENARIO)
        # another chassis degrades earlier and then loses an uplink, so the
        # timeline's times, its goldens and its failing outputs all move
        changed.events[0] = LinkDownEvent(at=1.5, source="pod1-agg0",
                                          target="core-0")
        changed.events[1] = CapacityDegradationEvent(at=0.5, factor=0.5,
                                                     source="pod1-agg0")
        before = _answers(SCENARIO)
        try:
            register_scenario(changed, replace=True)
            changed.seed += 1    # the registry keeps its own copy
            record = scenario_record(SCENARIO)
            assert record.spec_hash != old_hash
            assert record.spec_hash == stable_hash(record.spec_dict)
            assert record.spec.seed == original.seed
            # warm contexts of the old spec are still cached; the answers
            # must be the new spec's all the same
            after = _answers(SCENARIO)
            clear_worker_contexts()
            assert after == _answers(SCENARIO)
            assert after != before
        finally:
            register_scenario(original, replace=True)
        assert scenario_record(SCENARIO).spec_hash == old_hash


# ---------------------------------------------------------------------------
# the spec hash rides in every temporal payload
# ---------------------------------------------------------------------------
class TestSpecHashInPayload:
    def test_api_cells_carry_the_spec_hash(self, monkeypatch, contexts):
        captured = []
        real_run_tasks = api.run_tasks

        def capture(task_set, **kwargs):
            captured.extend(task_set)
            return real_run_tasks(task_set, **kwargs)

        monkeypatch.setattr(api, "run_tasks", capture)
        api.answer_queries([QuerySpec(scenario=scenario,
                                      query=temporal_queries_for(scenario)[0].query_id)
                            for scenario in temporal_scenario_names()])
        assert len(captured) == len(temporal_scenario_names())
        for task in captured:
            assert task.payload["spec_hash"] == stable_hash(task.payload["spec"])

    def test_runner_cells_carry_the_spec_hash(self, monkeypatch):
        captured = []

        def capture(self, task_set):
            captured.extend(task_set)
            return []

        monkeypatch.setattr(BenchmarkRunner, "_dispatch", capture)
        BenchmarkRunner(BenchmarkConfig(models=("gpt-4",))).run_temporal_suite(
            backends=TEMPORAL_BACKENDS)
        assert {task.payload["spec"]["name"] for task in captured} == set(
            temporal_scenario_names())
        for task in captured:
            assert task.payload["spec_hash"] == stable_hash(task.payload["spec"])


# ---------------------------------------------------------------------------
# the failing model's output is memoized, never the verdict
# ---------------------------------------------------------------------------
def _corpus_cells():
    config_payload = BenchmarkConfig().to_payload()
    return [temporal_cell_task(config_payload, scenario_record(scenario),
                               query.query_id, model, backend).payload
            for scenario in temporal_scenario_names()
            for query in temporal_queries_for(scenario)
            for backend in TEMPORAL_BACKENDS
            for model in MODELS]


def _unmemoized(monkeypatch):
    """Make the failing-output memos compute afresh on every call."""
    real_worker_context = tasks.worker_context

    def fresh(key, builder):
        return builder() if key[0] in MEMO_TAGS else real_worker_context(key, builder)

    monkeypatch.setattr(tasks, "worker_context", fresh)


class TestFailingOutputMemo:
    def test_memoized_outputs_equal_fresh_ones_on_every_corpus_cell(
            self, monkeypatch, contexts):
        cells = _corpus_cells()
        memoized = [run_temporal_cell(payload) for payload in cells]
        # a second pass answers every failing cell from the memos
        assert [run_temporal_cell(payload) for payload in cells] == memoized
        _unmemoized(monkeypatch)
        fresh = [run_temporal_cell(payload) for payload in cells]
        assert fresh == memoized
        failing = [record for record in memoized if not record.passed]
        assert {record.backend for record in failing} == set(TEMPORAL_BACKENDS)

    def test_threads_racing_for_the_memos_get_fresh_outputs(self, contexts):
        cells = _corpus_cells()
        expected = [run_temporal_cell(payload) for payload in cells]
        clear_worker_contexts()

        def answer_all(offset):
            order = list(range(offset, len(cells))) + list(range(offset))
            return [(index, run_temporal_cell(cells[index])) for index in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(answer_all, offset)
                           for offset in range(0, len(cells), len(cells) // 8)]
                answered = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for answers in answered:
            assert len(answers) == len(cells)
            for index, record in answers:
                assert record == expected[index]

    def test_other_fault_type_gets_another_program(self, monkeypatch, contexts):
        payload = next(
            cell for cell in _corpus_cells()
            if cell["backend"] != "direct"
            and not run_temporal_cell(cell).details["intended_correct"]
            and CalibrationTable().temporal_fault_type_for(
                cell["query_id"], cell["model"], cell["backend"]) != "runtime_crash")
        first = run_temporal_cell(payload)
        assert first.details["fault"] != "runtime_crash"
        real_fault_type = CalibrationTable.temporal_fault_type_for

        def crash_this_cell(self, query_id, model, backend):
            if (query_id, model, backend) == (payload["query_id"], payload["model"],
                                              payload["backend"]):
                return "runtime_crash"
            return real_fault_type(self, query_id, model, backend)

        monkeypatch.setattr(CalibrationTable, "temporal_fault_type_for",
                            crash_this_cell)
        second = run_temporal_cell(payload)
        assert second.details["fault"] == "runtime_crash"
        assert second.generated_code != first.generated_code
