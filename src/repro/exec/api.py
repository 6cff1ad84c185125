"""``run_tasks`` — the one entry point of the execution fabric.

The call sequence is always: check the cache for every task (in the
parent), dispatch only the misses through the executor the
:class:`~repro.exec.policy.ExecutorPolicy` selected, fold cached and fresh
results back into task-set order, and persist fresh successes.  Cache
lookups and stores stay in the parent process so the cache never needs
cross-process coordination.

The policy object is the API: owners (runner, cost analyzer, CLI, serve)
describe *how* they want work run once — mode, jobs, cache, context
retention — and hand the same value everywhere.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

from repro.exec.executors import SerialExecutor
from repro.exec.policy import ExecutorPolicy
from repro.exec.report import RunReport, TaskResult
from repro.exec.task import TaskSet
from repro.exec.workers import clear_worker_contexts
from repro.obs import ingest_observations, span

logger = logging.getLogger(__name__)

def run_tasks(task_set: TaskSet,
              policy: Optional[ExecutorPolicy] = None) -> RunReport:
    """Run every task of *task_set* and return the ordered :class:`RunReport`.

    Parameters
    ----------
    task_set:
        The ordered, uniquely-keyed work description.
    policy:
        The :class:`ExecutorPolicy` deciding mechanism (serial / processes),
        worker count, caching, and whether worker contexts outlive the run.
        ``None`` means the default policy (serial, uncached).

    The report's ``results`` are in task-set order regardless of executor or
    completion order — the determinism contract every consumer builds on.
    """
    if policy is None:
        policy = ExecutorPolicy.serial()
    policy.validate()
    task_set.validate()
    executor = policy.build_executor(task_set)
    started = time.perf_counter()

    dispatch_attrs = {"task_set": task_set.name, "tasks": len(task_set),
                      "jobs": executor.jobs,
                      "executor": type(executor).__name__}
    with span("exec.run_tasks", attrs=dispatch_attrs):
        results = {}
        pending = []
        if policy.cache is not None:
            with span("cache.lookup", attrs={"tasks": len(task_set)}):
                for task in task_set:
                    hit, value = policy.cache.get(task.digest())
                    if hit:
                        results[task.key] = TaskResult(key=task.key, value=value,
                                                       cached=True)
                    else:
                        pending.append(task)
        else:
            pending = list(task_set)
        dispatch_attrs["cache_hits"] = len(task_set) - len(pending)

        try:
            for raw in executor.execute(pending):
                # telemetry captured by pool children rides next to the
                # result; merge it into the parent's tracer/registry and
                # drop it before the result value is seen by any consumer
                ingest_observations(raw.get("obs"))
                result = TaskResult(key=raw["key"], value=raw["value"],
                                    error=raw["error"],
                                    duration_s=raw["duration_s"])
                results[result.key] = result
        finally:
            if isinstance(executor, SerialExecutor) and not policy.keep_contexts:
                # in-process execution memoizes worker contexts (rebuilt
                # applications) in *this* process; drop them so long-lived
                # sessions don't accumulate one graph per swept
                # configuration.  Pool workers die with their pool, so the
                # parallel path needs no cleanup.  Long-lived owners (the
                # serve layer) opt out via policy.keep_contexts to reuse
                # per-scenario state across runs.
                clear_worker_contexts()

        if policy.cache is not None:
            fresh_by_key = {task.key: task for task in pending}
            with span("cache.store", attrs={"tasks": len(fresh_by_key)}):
                for key, task in fresh_by_key.items():
                    result = results[key]
                    if result.ok:
                        policy.cache.put(task.digest(), key, result.value)

    report = RunReport(
        task_set=task_set.name,
        jobs=executor.jobs,
        results=[results[task.key] for task in task_set],
        wall_time_s=time.perf_counter() - started,
    )
    logger.debug("run_tasks %s [%s]: %d tasks, %d cache hits, %d failed, %.3fs",
                 report.task_set, type(executor).__name__, len(report.results),
                 report.cache_hits, len(report.failures()), report.wall_time_s)
    return report
