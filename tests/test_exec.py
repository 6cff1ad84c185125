"""Tests for the ``repro.exec`` execution fabric.

Covers the task model, the shard/chunk policy, serial-vs-parallel
equivalence, cache hit/miss/invalidation semantics, and failure surfacing —
both well-behaved worker exceptions and hard worker crashes that kill the
process.
"""

import pytest

from repro.exec import (
    ExecutorPolicy,
    ResultCache,
    Task,
    TaskExecutionError,
    TaskSet,
    resolve_worker,
    run_tasks,
    shard_tasks,
)
from repro.utils.validation import ValidationError


def square_tasks(count=8, group_of=None):
    return TaskSet(name="squares", tasks=[
        Task(key=f"sq/{index}", fn="repro.exec.demo:square", payload={"x": index},
             group=group_of(index) if group_of else "")
        for index in range(count)])


# ---------------------------------------------------------------------------
# task model
# ---------------------------------------------------------------------------
class TestTaskModel:
    def test_digest_is_stable_across_calls(self):
        task = Task(key="a", fn="m:f", payload={"x": 1, "y": [1, 2]})
        assert task.digest() == task.digest()

    def test_digest_changes_with_key_fn_and_payload(self):
        base = Task(key="a", fn="m:f", payload={"x": 1})
        assert base.digest() != Task(key="b", fn="m:f", payload={"x": 1}).digest()
        assert base.digest() != Task(key="a", fn="m:g", payload={"x": 1}).digest()
        assert base.digest() != Task(key="a", fn="m:f", payload={"x": 2}).digest()

    def test_digest_ignores_payload_key_order(self):
        left = Task(key="a", fn="m:f", payload={"x": 1, "y": 2})
        right = Task(key="a", fn="m:f", payload={"y": 2, "x": 1})
        assert left.digest() == right.digest()

    def test_task_set_rejects_duplicate_keys(self):
        task_set = TaskSet(name="dupes", tasks=[
            Task(key="same", fn="m:f", payload={}),
            Task(key="same", fn="m:f", payload={}),
        ])
        with pytest.raises(ValidationError):
            task_set.validate()

    def test_fn_must_be_dotted_reference(self):
        with pytest.raises(ValidationError):
            Task(key="a", fn="not-a-reference", payload={}).validate()

    def test_non_json_payload_is_rejected(self):
        # sets stringify non-deterministically across processes; strict JSON
        # canonicalization must refuse them instead of corrupting digests
        with pytest.raises(TypeError):
            Task(key="a", fn="m:f", payload={"tags": {"a", "b"}}).validate()

    def test_package_version_participates_in_digest(self, monkeypatch):
        import repro.exec.task as task_module

        task = Task(key="a", fn="m:f", payload={"x": 1})
        before = task.digest()
        monkeypatch.setattr(task_module, "_PACKAGE_VERSION", "0.0.0-test")
        assert task.digest() != before  # a release boundary invalidates caches

    def test_resolve_worker_errors(self):
        with pytest.raises(ValueError):
            resolve_worker("repro.exec.demo")  # no colon
        with pytest.raises(ValueError):
            resolve_worker("repro.exec.demo:nope")
        assert resolve_worker("repro.exec.demo:square")({"x": 3}) == 9


# ---------------------------------------------------------------------------
# shard/chunk policy
# ---------------------------------------------------------------------------
class TestSharding:
    def test_groups_stay_whole_within_chunks(self):
        # four groups of three; ~4 chunks per worker makes chunks of three
        task_set = square_tasks(12, group_of=lambda index: f"g{index % 4}")
        chunks = shard_tasks(task_set.tasks, jobs=1)
        # every group fills exactly one chunk
        assert sorted(chunk[0].group for chunk in chunks) == ["g0", "g1", "g2", "g3"]
        for chunk in chunks:
            assert len({task.group for task in chunk}) == 1
        # all twelve tasks survive sharding exactly once
        keys = [task.key for chunk in chunks for task in chunk]
        assert sorted(keys) == sorted(task_set.keys())

    def test_chunk_size_splits_large_groups(self):
        # ~4 chunks per worker: ten tasks at jobs=1 go in chunks of three
        task_set = square_tasks(10)
        chunks = shard_tasks(task_set.tasks, jobs=1)
        assert [len(chunk) for chunk in chunks] == [3, 3, 3, 1]

    def test_auto_chunking_targets_four_chunks_per_worker(self):
        task_set = square_tasks(32)
        chunks = shard_tasks(task_set.tasks, jobs=4)
        assert len(chunks) == 16

    def test_empty_task_list(self):
        assert shard_tasks([], jobs=4) == []


# ---------------------------------------------------------------------------
# serial vs parallel equivalence
# ---------------------------------------------------------------------------
class TestEquivalence:
    def test_values_identical_across_executors(self):
        task_set = square_tasks(10, group_of=lambda index: f"g{index % 2}")
        serial = run_tasks(task_set, policy=ExecutorPolicy.serial())
        parallel = run_tasks(task_set, policy=ExecutorPolicy.processes(jobs=3))
        assert serial.values() == parallel.values() == [i * i for i in range(10)]

    def test_results_come_back_in_task_order(self):
        task_set = square_tasks(9)
        report = run_tasks(task_set,
                           policy=ExecutorPolicy.processes(jobs=3))
        assert [result.key for result in report.results] == task_set.keys()

    def test_jobs_one_uses_serial_path(self):
        report = run_tasks(square_tasks(3), policy=ExecutorPolicy.serial())
        assert report.jobs == 1 and report.ok

    def test_serial_run_clears_worker_contexts(self):
        from repro.benchmark.runner import BenchmarkConfig
        from repro.exec.workers import _CONTEXT_CACHE

        config = BenchmarkConfig(traffic_node_count=10, traffic_edge_count=10)
        task_set = TaskSet(name="ctx", tasks=[
            Task(key="cell", fn="repro.benchmark.tasks:run_benchmark_cell",
                 payload={
                     "config": config.to_payload(),
                     "app": {"kind": "generated", "application": "traffic_analysis"},
                     "backend": "networkx", "query_id": "ta-e1", "model": "gpt-4",
                 })])
        report = run_tasks(task_set, policy=ExecutorPolicy.serial())
        assert report.ok
        # the memoized application must not outlive the serial dispatch
        assert not any(key[0] == "benchmark-application" for key in _CONTEXT_CACHE)


# ---------------------------------------------------------------------------
# the result cache
# ---------------------------------------------------------------------------
class TestCache:
    def test_first_run_misses_second_run_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task_set = square_tasks(6)
        first = run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        second = run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        assert first.cache_hits == 0 and first.executed == 6
        assert second.cache_hits == 6 and second.executed == 0
        assert first.values() == second.values()

    def test_cache_skips_recomputation(self, tmp_path):
        log_path = tmp_path / "executions.log"
        cache = ResultCache(tmp_path / "cache")
        task_set = TaskSet(name="logged", tasks=[
            Task(key="cell", fn="repro.exec.demo:record_and_echo",
                 payload={"value": 42, "log_path": str(log_path)})])
        run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        # one execution despite two runs: the second was served from disk
        assert log_path.read_text().splitlines() == ["42"]

    def test_changed_task_invalidates_naturally(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        original = TaskSet(name="one", tasks=[
            Task(key="cell", fn="repro.exec.demo:square", payload={"x": 3})])
        run_tasks(original, policy=ExecutorPolicy.serial(cache))

        changed_payload = TaskSet(name="one", tasks=[
            Task(key="cell", fn="repro.exec.demo:square", payload={"x": 4})])
        report = run_tasks(changed_payload, policy=ExecutorPolicy.serial(cache))
        assert report.cache_hits == 0 and report.values() == [16]

        changed_key = TaskSet(name="one", tasks=[
            Task(key="renamed-cell", fn="repro.exec.demo:square", payload={"x": 3})])
        report = run_tasks(changed_key, policy=ExecutorPolicy.serial(cache))
        assert report.cache_hits == 0 and report.values() == [9]

    def test_failures_are_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task_set = TaskSet(name="boom", tasks=[
            Task(key="bad", fn="repro.exec.demo:boom", payload={})])
        run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        assert len(cache) == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = Task(key="cell", fn="repro.exec.demo:square", payload={"x": 5})
        run_tasks(TaskSet(name="one", tasks=[task]), policy=ExecutorPolicy.serial(cache))
        cache.entry_path(task.digest()).write_bytes(b"not a pickle")
        report = run_tasks(TaskSet(name="one", tasks=[task]),
                           policy=ExecutorPolicy.serial(cache))
        assert report.cache_hits == 0 and report.values() == [25]

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_tasks(square_tasks(4), policy=ExecutorPolicy.serial(cache))
        assert len(cache) == 4
        assert cache.clear() == 4
        assert len(cache) == 0

    def test_hit_leaves_its_entry_untouched(self, tmp_path):
        # a lookup only reads: the entry's mtime survives a hit
        import os

        cache = ResultCache(tmp_path / "cache")
        task = Task(key="cell", fn="repro.exec.demo:square", payload={"x": 6})
        run_tasks(TaskSet(name="one", tasks=[task]), policy=ExecutorPolicy.serial(cache))
        path = cache.entry_path(task.digest())
        os.utime(path, ns=(1_000_000_000, 1_000_000_000))
        assert cache.get(task.digest()) == (True, 36)
        assert path.stat().st_mtime_ns == 1_000_000_000


# ---------------------------------------------------------------------------
# failure surfacing
# ---------------------------------------------------------------------------
class TestFailures:
    def test_worker_exception_is_a_per_task_error(self):
        task_set = TaskSet(name="mixed", tasks=[
            Task(key="bad", fn="repro.exec.demo:boom", payload={"message": "kapow"}),
            Task(key="good", fn="repro.exec.demo:square", payload={"x": 2}),
        ])
        report = run_tasks(task_set,
                           policy=ExecutorPolicy.processes(jobs=2))
        assert not report.ok
        assert "kapow" in report.results[0].error
        assert report.results[1].ok and report.results[1].value == 4
        with pytest.raises(TaskExecutionError) as excinfo:
            report.values()
        assert "bad" in str(excinfo.value)

    def test_hard_worker_crash_surfaces_not_hangs(self):
        """A worker killed mid-task must yield an error, and innocent tasks
        sharing the (broken) pool must still complete via the isolated retry."""
        task_set = TaskSet(name="crashy", tasks=[
            Task(key="crash", fn="repro.exec.demo:hard_crash", payload={}, group="a"),
            Task(key="ok-1", fn="repro.exec.demo:square", payload={"x": 5}, group="b"),
            Task(key="ok-2", fn="repro.exec.demo:square", payload={"x": 6}, group="c"),
        ])
        report = run_tasks(task_set,
                           policy=ExecutorPolicy.processes(jobs=2))
        by_key = {result.key: result for result in report.results}
        assert not by_key["crash"].ok
        assert "crashed" in by_key["crash"].error
        assert by_key["ok-1"].value == 25
        assert by_key["ok-2"].value == 36

    def test_serial_executor_also_captures_exceptions(self):
        report = run_tasks(TaskSet(name="boom", tasks=[
            Task(key="bad", fn="repro.exec.demo:boom", payload={})]),
            policy=ExecutorPolicy.serial())
        assert not report.ok and "boom" in report.results[0].error


# ---------------------------------------------------------------------------
# the run report
# ---------------------------------------------------------------------------
class TestRunReport:
    def test_telemetry_fields(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task_set = square_tasks(4)
        run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        report = run_tasks(task_set, policy=ExecutorPolicy.serial(cache))
        dumped = report.to_dict()
        assert dumped["tasks"] == 4
        assert dumped["cache_hits"] == 4
        assert dumped["failed"] == 0
        assert len(dumped["results"]) == 4
        assert "squares" in report.summary()
