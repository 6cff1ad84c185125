"""Executors: the pluggable dispatch strategies of the fabric.

Every executor honors the same contract: take an ordered list of tasks,
return one raw result dict per task **in input order**, and never raise for
a failing cell — failures (including hard worker crashes that break the
process pool) surface as per-task errors.

:class:`SerialExecutor` runs everything in-process and is the reference
implementation the determinism tests compare against.
:class:`ParallelExecutor` fans chunks of tasks out over a process pool for
cpu-bound work.  Because workers are pure functions of their payloads,
completion order is irrelevant and every reordered output is byte-identical
to a serial run.
"""

from __future__ import annotations

import math
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Dict, List, Optional, Sequence

from repro.exec.task import Task
from repro.exec.workers import run_chunk, run_task  # noqa: F401 - run_task is pool-submitted
from repro.obs import tracing_enabled
from repro.utils.validation import require


def shard_tasks(tasks: Sequence[Task], jobs: int) -> List[List[Task]]:
    """Split tasks into submission chunks, respecting shard groups.

    Tasks sharing a ``group`` are kept in the same chunks (in task order) so
    that per-process context — a rebuilt application, a replayed scenario —
    is constructed once per chunk rather than once per task.  Chunks aim
    for ~4 per worker, which balances load without drowning the pool in
    tiny submissions.
    """
    require(jobs >= 1, "jobs must be at least 1")
    if not tasks:
        return []
    per_chunk = max(1, math.ceil(len(tasks) / (jobs * 4)))

    grouped: Dict[str, List[Task]] = {}
    order: List[str] = []
    for task in tasks:
        if task.group not in grouped:
            grouped[task.group] = []
            order.append(task.group)
        grouped[task.group].append(task)

    chunks: List[List[Task]] = []
    for group in order:
        members = grouped[group]
        for start in range(0, len(members), per_chunk):
            chunks.append(members[start:start + per_chunk])
    return chunks


class SerialExecutor:
    """Run every task in the calling process, in task order."""

    jobs = 1

    def execute(self, tasks: Sequence[Task]) -> List[Dict[str, Any]]:
        return [run_task(task.to_wire()) for task in tasks]


class ParallelExecutor:
    """Run task chunks on a process pool.

    Parameters
    ----------
    jobs:
        Number of worker processes; tasks go in about 4 chunks per worker
        (:func:`shard_tasks`).
    """

    def __init__(self, jobs: int = 2) -> None:
        require(jobs >= 1, "jobs must be at least 1")
        self.jobs = jobs

    # ------------------------------------------------------------------
    @staticmethod
    def _to_wire(task: Task) -> Dict[str, Any]:
        """Wire form plus the out-of-band observability marker.

        The marker rides *next to* the payload, never inside it — task
        digests (and therefore cache keys) hash only key/fn/payload, so
        enabling tracing cannot change what is (or was) cached.  Pool
        children capture their spans and metric deltas per task and the
        parent merges them back into one trace.
        """
        wire = task.to_wire()
        wire["obs"] = {"trace": tracing_enabled()}
        return wire

    def execute(self, tasks: Sequence[Task]) -> List[Dict[str, Any]]:
        if not tasks:
            return []
        chunks = shard_tasks(tasks, self.jobs)
        by_key: Dict[str, Dict[str, Any]] = {}
        suspects: List[Task] = []
        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            pending = {pool.submit(run_chunk, [self._to_wire(task) for task in chunk]): chunk
                       for chunk in chunks}
            while pending:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    chunk = pending.pop(future)
                    error = future.exception()
                    if error is None:
                        for raw in future.result():
                            by_key[raw["key"]] = raw
                    else:
                        # A hard worker crash (killed process, unpicklable
                        # result) breaks the whole pool, so *every* pending
                        # chunk lands here — innocents included.
                        suspects.extend(chunk)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        for raw in self._retry_isolated(suspects):
            by_key[raw["key"]] = raw
        return [by_key[task.key] for task in tasks]

    # ------------------------------------------------------------------
    def _retry_isolated(self, tasks: Sequence[Task]) -> List[Dict[str, Any]]:
        """Re-run crash suspects one at a time, each behind a disposable pool.

        Workers are pure, so re-running an innocent task is free; only the
        task that genuinely kills its process keeps a crash error.  The pool
        is recreated after each breakage, so a sweep with one crasher costs
        one extra pool spin-up, never a hang.
        """
        results: List[Dict[str, Any]] = []
        pool: Optional[ProcessPoolExecutor] = None
        try:
            for task in tasks:
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=1)
                try:
                    results.append(pool.submit(run_task, self._to_wire(task)).result())
                except BaseException as error:  # noqa: BLE001 - crash, not raise
                    if isinstance(error, KeyboardInterrupt):
                        raise
                    results.append({
                        "key": task.key, "ok": False, "value": None,
                        "error": (f"worker crashed before returning a result "
                                  f"({type(error).__name__}: {error})"),
                        "duration_s": 0.0,
                    })
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        return results
