"""Executor selection: how a task set decides *where* its cells run.

Every cell in this repository is local computation — the simulated LLMs
answer instantly, and generated code runs in the in-process sandbox — so
the only way a pool can win is with real cores to spread the work over.
`benchmarks/results/parallel_speedup.json` records what a process pool
costs: serialization and pool spin-up, which a short sweep cannot earn
back even with a second core.  So "how parallel" (``jobs``) and "which
mechanism" (serial / threads / processes) are different decisions:

* cpu-bound cells need real cores, which in CPython means processes — but
  only when the host actually has spare cores;
* threads buy nothing for cpu-bound cells under the GIL; they stay
  selectable for callers that want shared in-process caches;
* a single task never benefits from any pool.

:class:`ExecutorPolicy` is the value object that carries the whole
decision — mode, worker count, chunking, caching, context retention — and
resolves it per :class:`~repro.exec.task.TaskSet` from the set's size and
the host's core count.  It replaces the ad-hoc ``jobs``/``cache_dir``/
``no_cache`` kwarg threading that the runner, the cost analyzer, and the
CLI used to push through every layer.

Whatever the policy picks, the fabric's determinism contract holds: the
three mechanisms produce byte-identical reports for the same task set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.exec.cache import ResultCache
from repro.exec.executors import ParallelExecutor, SerialExecutor, ThreadExecutor
from repro.exec.task import TaskSet
from repro.utils.validation import require, require_in

#: the selectable dispatch mechanisms; ``auto`` resolves per task set
EXECUTOR_MODES = ("auto", "serial", "threads", "processes")


@dataclass(frozen=True)
class ExecutorPolicy:
    """How (and where) a sweep owner wants its task sets executed.

    ``mode`` names the dispatch mechanism; ``auto`` defers the choice to
    :meth:`resolve_mode`, which inspects the task set's size and the
    host's core count.  The policy is immutable and JSON-free on purpose:
    it never travels inside task payloads, so the choice of executor can
    never perturb digests, cache keys, or results.
    """

    mode: str = "auto"
    #: worker count; 1 always means the in-process serial executor
    jobs: int = 1
    #: ``None`` (no caching), a directory path, or a live :class:`ResultCache`
    cache: Union[None, str, ResultCache] = None
    #: keep :func:`~repro.exec.workers.worker_context` memos alive after an
    #: in-process run — long-lived owners (the serve layer) opt in so
    #: per-scenario state survives across requests instead of rebuilding
    keep_contexts: bool = False

    # ------------------------------------------------------------------
    def validate(self) -> None:
        require_in(self.mode, EXECUTOR_MODES, "executor mode")
        require(self.jobs >= 1, f"jobs must be at least 1, got {self.jobs}")

    # ------------------------------------------------------------------
    def resolve_mode(self, task_set: TaskSet,
                     cpu_count: Optional[int] = None) -> str:
        """The concrete mechanism this policy uses for *task_set*.

        Fixed modes resolve to themselves (``jobs=1`` always collapses to
        serial — there is no 1-worker pool worth paying for).  ``auto``
        runs a task set of one serially — it never leaves the calling
        process — and any larger set in processes when the host has more
        than one core (*cpu_count* overrides :func:`os.cpu_count` for
        tests); a 1-core host runs it serially, since no spare core can
        hide the pool's cost.
        """
        self.validate()
        if self.jobs <= 1 or self.mode == "serial":
            return "serial"
        if self.mode != "auto":
            return self.mode
        if len(task_set) <= 1:
            return "serial"
        cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        return "processes" if cores > 1 else "serial"

    def build_executor(self, task_set: TaskSet,
                       cpu_count: Optional[int] = None):
        """Instantiate the executor :meth:`resolve_mode` picked."""
        mode = self.resolve_mode(task_set, cpu_count=cpu_count)
        if mode == "serial":
            return SerialExecutor()
        if mode == "threads":
            return ThreadExecutor(jobs=self.jobs)
        return ParallelExecutor(jobs=self.jobs)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def serial(cls, cache: Union[None, str, ResultCache] = None,
               **overrides) -> "ExecutorPolicy":
        return cls(mode="serial", jobs=1, cache=cache, **overrides)

    @classmethod
    def threads(cls, jobs: int = 2, cache: Union[None, str, ResultCache] = None,
                **overrides) -> "ExecutorPolicy":
        return cls(mode="threads", jobs=jobs, cache=cache, **overrides)

    @classmethod
    def processes(cls, jobs: int = 2, cache: Union[None, str, ResultCache] = None,
                  **overrides) -> "ExecutorPolicy":
        return cls(mode="processes", jobs=jobs, cache=cache, **overrides)

    @classmethod
    def auto(cls, jobs: int = 2, cache: Union[None, str, ResultCache] = None,
             **overrides) -> "ExecutorPolicy":
        return cls(mode="auto", jobs=jobs, cache=cache, **overrides)
