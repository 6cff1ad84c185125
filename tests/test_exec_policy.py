"""Tests for :class:`repro.exec.ExecutorPolicy` and the policy-era API.

Covers the one executor rule (serial at ``jobs == 1``, under the ``serial``
mode or for a single task; a process pool otherwise), worker contexts
shared by concurrent answer threads that each run a serial ``run_tasks``
(serve's path), and worker-context retention (``keep_contexts``).
"""

import sys
import threading

import pytest

from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner
from repro.exec import (
    ExecutorPolicy,
    ParallelExecutor,
    SerialExecutor,
    Task,
    TaskSet,
)
from repro.exec import workers
from repro.exec.workers import _CONTEXT_CACHE, clear_worker_contexts, worker_context
from repro.utils.validation import ValidationError


def square_tasks(count=8):
    return TaskSet(name="squares", tasks=[
        Task(key=f"sq/{index}", fn="repro.exec.demo:square", payload={"x": index})
        for index in range(count)])


def small_config():
    return BenchmarkConfig(traffic_node_count=20, traffic_edge_count=20)


# ---------------------------------------------------------------------------
# executor selection
# ---------------------------------------------------------------------------
class TestModeResolution:
    def test_jobs_one_always_resolves_serial(self):
        tasks = square_tasks()
        for mode in ("serial", "processes"):
            assert isinstance(ExecutorPolicy(mode=mode, jobs=1).build_executor(tasks),
                              SerialExecutor)

    def test_fixed_modes_resolve_to_themselves(self):
        tasks = square_tasks()
        assert isinstance(ExecutorPolicy(mode="serial", jobs=2).build_executor(tasks),
                          SerialExecutor)
        executor = ExecutorPolicy(mode="processes", jobs=3).build_executor(tasks)
        assert isinstance(executor, ParallelExecutor) and executor.jobs == 3

    def test_single_task_never_leaves_the_process(self):
        assert isinstance(
            ExecutorPolicy.processes(jobs=4).build_executor(square_tasks(count=1)),
            SerialExecutor)

    def test_build_executor_matches_resolution(self):
        tasks = square_tasks()
        assert isinstance(ExecutorPolicy.serial().build_executor(tasks),
                          SerialExecutor)
        assert isinstance(ExecutorPolicy(jobs=2).build_executor(tasks),
                          ParallelExecutor)

    def test_validate_rejects_bad_values(self):
        for mode in ("gpu", "threads", "auto"):
            with pytest.raises(ValidationError):
                ExecutorPolicy(mode=mode).validate()
        with pytest.raises(ValidationError):
            ExecutorPolicy(jobs=0).validate()


# ---------------------------------------------------------------------------
# concurrent answer threads
# ---------------------------------------------------------------------------
def _static_and_temporal_records(policy):
    runner = BenchmarkRunner(small_config(), policy=policy)
    static = runner.run_application(
        "traffic_analysis", backends=("networkx",), models=["gpt-4"])
    temporal = runner.run_temporal_suite(
        scenarios=["fat-tree-failover"], models=["gpt-4"])
    return [(report.render_summary(), report.logger.to_records())
            for report in (static, temporal)]


class TestAnswerThreads:
    def test_concurrent_answer_threads_match_serial(self):
        # serve's answer threads each run a serial run_tasks and share the
        # process's worker contexts; a tiny switch interval interleaves
        # their context builds, lookups and sandbox runs
        expected = _static_and_temporal_records(ExecutorPolicy.serial())
        policy = ExecutorPolicy.serial(keep_contexts=True)
        outcomes = {}

        def answer(index):
            try:
                outcomes[index] = _static_and_temporal_records(policy)
            except BaseException as error:  # noqa: BLE001 - reported below
                outcomes[index] = error

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=answer, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
            clear_worker_contexts()
        assert [outcomes[index] for index in range(4)] == [expected] * 4


# ---------------------------------------------------------------------------
# worker-context retention
# ---------------------------------------------------------------------------
class TestContextRetention:
    def test_in_process_runs_clear_contexts_by_default(self):
        BenchmarkRunner(small_config()).run_application(
            "traffic_analysis", backends=("networkx",), models=["gpt-4"])
        assert not _CONTEXT_CACHE

    def test_keep_contexts_retains_memos_across_runs(self):
        runner = BenchmarkRunner(
            small_config(), policy=ExecutorPolicy.serial(keep_contexts=True))
        try:
            runner.run_application("traffic_analysis", backends=("networkx",),
                                   models=["gpt-4"])
            assert _CONTEXT_CACHE  # the warm path the serve layer relies on
        finally:
            clear_worker_contexts()

    def test_concurrent_clear_cannot_fail_a_context_lookup(self, monkeypatch):
        class ClearedOnStore(dict):
            # another thread's run ends right after this one stores its build
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.clear()

        monkeypatch.setattr(workers, "_CONTEXT_CACHE", ClearedOnStore())
        assert worker_context(("k",), lambda: 42) == 42
