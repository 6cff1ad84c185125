"""Tests for :class:`repro.exec.ExecutorPolicy` and the policy-era API.

Covers mode resolution (fixed modes, ``auto`` per task-set size and host
core count), the thread executor's byte-identity with serial runs on
both the static benchmark and the temporal suite, and worker-context
retention (``keep_contexts``).
"""

import pytest

from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner
from repro.exec import (
    ExecutorPolicy,
    ParallelExecutor,
    SerialExecutor,
    Task,
    TaskSet,
    ThreadExecutor,
    run_tasks,
)
from repro.exec.workers import _CONTEXT_CACHE, clear_worker_contexts
from repro.utils.validation import ValidationError


def square_tasks(count=8):
    return TaskSet(name="squares", tasks=[
        Task(key=f"sq/{index}", fn="repro.exec.demo:square", payload={"x": index})
        for index in range(count)])


def small_config():
    return BenchmarkConfig(traffic_node_count=20, traffic_edge_count=20)


# ---------------------------------------------------------------------------
# mode resolution
# ---------------------------------------------------------------------------
class TestModeResolution:
    def test_jobs_one_always_resolves_serial(self):
        tasks = square_tasks()
        for mode in ("auto", "serial", "threads", "processes"):
            assert ExecutorPolicy(mode=mode, jobs=1).resolve_mode(tasks) == "serial"

    def test_fixed_modes_resolve_to_themselves(self):
        tasks = square_tasks()
        assert ExecutorPolicy(mode="threads", jobs=2).resolve_mode(tasks) == "threads"
        assert ExecutorPolicy(mode="processes", jobs=2).resolve_mode(
            tasks, cpu_count=1) == "processes"

    def test_auto_single_task_never_leaves_the_process(self):
        assert ExecutorPolicy(mode="auto", jobs=4).resolve_mode(
            square_tasks(count=1)) == "serial"

    def test_auto_cpu_profile_needs_spare_cores(self):
        policy = ExecutorPolicy(mode="auto", jobs=2)
        tasks = square_tasks()
        assert policy.resolve_mode(tasks, cpu_count=1) == "serial"
        assert policy.resolve_mode(tasks, cpu_count=4) == "processes"

    def test_build_executor_matches_resolution(self):
        tasks = square_tasks()
        assert isinstance(ExecutorPolicy.serial().build_executor(tasks),
                          SerialExecutor)
        assert isinstance(ExecutorPolicy.threads(jobs=2).build_executor(tasks),
                          ThreadExecutor)
        assert isinstance(
            ExecutorPolicy.processes(jobs=2).build_executor(tasks, cpu_count=1),
            ParallelExecutor)
        assert isinstance(
            ExecutorPolicy.auto(jobs=2).build_executor(tasks, cpu_count=1),
            SerialExecutor)

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            ExecutorPolicy(mode="gpu").validate()
        with pytest.raises(ValidationError):
            ExecutorPolicy(jobs=0).validate()


# ---------------------------------------------------------------------------
# thread-executor byte-identity
# ---------------------------------------------------------------------------
class TestThreadEquivalence:
    def test_threads_match_serial_on_demo_tasks(self):
        tasks = square_tasks(count=13)
        serial = run_tasks(tasks, policy=ExecutorPolicy.serial())
        threaded = run_tasks(tasks, policy=ExecutorPolicy.threads(jobs=3))
        assert serial.values() == threaded.values()
        assert [r.key for r in threaded.results] == [t.key for t in tasks]

    def test_threads_match_serial_on_benchmark_suite(self):
        serial = BenchmarkRunner(small_config())
        threaded = BenchmarkRunner(small_config(),
                                   policy=ExecutorPolicy.threads(jobs=2))
        report_serial = serial.run_application(
            "traffic_analysis", backends=("networkx",), models=["gpt-4"])
        report_threaded = threaded.run_application(
            "traffic_analysis", backends=("networkx",), models=["gpt-4"])
        assert (report_serial.render_summary()
                == report_threaded.render_summary())
        assert (report_serial.logger.to_records()
                == report_threaded.logger.to_records())

    def test_threads_match_serial_on_temporal_suite(self):
        serial = BenchmarkRunner(BenchmarkConfig())
        threaded = BenchmarkRunner(BenchmarkConfig(),
                                   policy=ExecutorPolicy.threads(jobs=2))
        report_serial = serial.run_temporal_suite(
            scenarios=["fat-tree-failover"], models=["gpt-4"])
        report_threaded = threaded.run_temporal_suite(
            scenarios=["fat-tree-failover"], models=["gpt-4"])
        assert (report_serial.render_summary()
                == report_threaded.render_summary())
        assert (report_serial.logger.to_records()
                == report_threaded.logger.to_records())


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
