"""Executor selection: how a task set decides *where* its cells run.

Every cell in this repository is short, local, cpu-bound computation — the
simulated LLMs answer instantly, and generated code runs in the in-process
sandbox.  So there are two mechanisms and one rule: a set runs serially in
the calling process at ``jobs == 1``, under ``mode == "serial"``, or when
it holds a single task; anything else runs on a process pool of ``jobs``
workers.  `benchmarks/results/parallel_speedup.json` records what that
pool costs — serialization and spin-up, which a short sweep cannot earn
back on a 2-core host — so the owner picks the pool with ``jobs``, never a
heuristic on its behalf.

:class:`ExecutorPolicy` is the value object that carries the whole
decision — mode, worker count, caching, context retention.  It replaces
the ad-hoc ``jobs``/``cache_dir``/``no_cache`` kwarg threading that the
runner, the cost analyzer, and the CLI used to push through every layer.

Whatever the policy picks, the fabric's determinism contract holds: both
mechanisms produce byte-identical reports for the same task set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exec.cache import ResultCache
from repro.exec.executors import ParallelExecutor, SerialExecutor
from repro.exec.task import TaskSet
from repro.utils.validation import require, require_in

#: the selectable dispatch mechanisms
EXECUTOR_MODES = ("serial", "processes")


@dataclass(frozen=True)
class ExecutorPolicy:
    """How (and where) a sweep owner wants its task sets executed.

    The policy is immutable and JSON-free on purpose: it never travels
    inside task payloads, so the choice of executor can never perturb
    digests, cache keys, or results.
    """

    mode: str = "processes"
    #: worker count; 1 always means the in-process serial executor
    jobs: int = 1
    #: the result cache, or ``None`` for no caching
    cache: Optional[ResultCache] = None
    #: keep :func:`~repro.exec.workers.worker_context` memos alive after an
    #: in-process run — long-lived owners (the serve layer) opt in so
    #: per-scenario state survives across requests instead of rebuilding
    keep_contexts: bool = False

    # ------------------------------------------------------------------
    def validate(self) -> None:
        require_in(self.mode, EXECUTOR_MODES, "executor mode")
        require(self.jobs >= 1, f"jobs must be at least 1, got {self.jobs}")

    def build_executor(self, task_set: TaskSet):
        """The executor for *task_set*: serial in-process, or a process pool.

        ``jobs == 1``, ``mode == "serial"`` and a one-task set never leave
        the calling process — no pool is worth paying for there; anything
        else runs on a pool of ``jobs`` workers.
        """
        if self.jobs == 1 or self.mode == "serial" or len(task_set) <= 1:
            return SerialExecutor()
        return ParallelExecutor(jobs=self.jobs)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def serial(cls, cache: Optional[ResultCache] = None,
               **overrides) -> "ExecutorPolicy":
        return cls(mode="serial", jobs=1, cache=cache, **overrides)

    @classmethod
    def processes(cls, jobs: int = 2, cache: Optional[ResultCache] = None,
                  **overrides) -> "ExecutorPolicy":
        return cls(mode="processes", jobs=jobs, cache=cache, **overrides)
