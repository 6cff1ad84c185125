"""``repro.exec`` — the deterministic parallel execution fabric.

Sweeps in this repository (benchmark grids, cost sweeps) are embarrassingly
parallel collections of *pure* cells: every provider, golden, generator, and
scenario replay is a deterministic function of its inputs.  The fabric
exploits that purity:

* a :class:`Task` names one cell with a stable key and describes it as data
  (worker dotted path + JSON payload);
* :func:`run_tasks` dispatches a :class:`TaskSet` under an
  :class:`ExecutorPolicy` — serially in-process at ``jobs == 1``, under
  ``mode == "serial"`` or for a single task, and on a pool of ``jobs``
  worker processes otherwise;
* a content-keyed :class:`ResultCache` skips cells whose digest (fabric
  version + key + worker + canonical payload) already has a stored result;
* the :class:`RunReport` carries per-task timing/telemetry and returns
  results **in task-set order**, never completion order.

The headline guarantee — serial and parallel runs produce byte-identical
tables — follows from pure workers plus order-stable reporting, and is
enforced by the tier-1 tests.
"""

from repro.exec.api import run_tasks
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.executors import ParallelExecutor, SerialExecutor, shard_tasks
from repro.exec.policy import ExecutorPolicy
from repro.exec.report import RunReport, TaskExecutionError, TaskResult
from repro.exec.task import FABRIC_VERSION, Task, TaskSet
from repro.exec.workers import clear_worker_contexts, resolve_worker, worker_context

__all__ = [
    "DEFAULT_CACHE_DIR",
    "ExecutorPolicy",
    "FABRIC_VERSION",
    "ParallelExecutor",
    "ResultCache",
    "RunReport",
    "SerialExecutor",
    "Task",
    "TaskExecutionError",
    "TaskResult",
    "TaskSet",
    "clear_worker_contexts",
    "resolve_worker",
    "run_tasks",
    "shard_tasks",
    "worker_context",
]
