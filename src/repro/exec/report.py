"""Run reports: per-task telemetry aggregated over one fabric dispatch.

The report is the single return value of :func:`repro.exec.run_tasks`.  Its
``results`` list is ordered exactly like the input task set — never by
completion order — so consumers that fold results into tables inherit the
fabric's determinism for free.  Timing fields are telemetry only: they vary
run to run and must never influence any derived table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.tables import format_table


@dataclass
class TaskResult:
    """Outcome of one task: a value or an error, plus telemetry."""

    key: str
    value: Any = None
    error: Optional[str] = None
    duration_s: float = 0.0
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


class TaskExecutionError(RuntimeError):
    """Raised when a sweep is asked to be strict and at least one cell failed."""

    def __init__(self, task_set: str, failures: List[TaskResult]) -> None:
        self.task_set = task_set
        self.failures = failures
        lines = [f"{len(failures)} task(s) failed in task set {task_set!r}:"]
        for result in failures[:5]:
            first_line = (result.error or "").strip().splitlines()[0] if result.error else ""
            lines.append(f"  - {result.key}: {first_line}")
        if len(failures) > 5:
            lines.append(f"  ... and {len(failures) - 5} more")
        super().__init__("\n".join(lines))


@dataclass
class RunReport:
    """Everything known about one dispatch of a task set."""

    task_set: str
    jobs: int
    results: List[TaskResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def failures(self) -> List[TaskResult]:
        return [result for result in self.results if not result.ok]

    def values(self) -> List[Any]:
        """Task values in task-set order (failed cells raise)."""
        self.raise_on_error()
        return [result.value for result in self.results]

    def raise_on_error(self) -> None:
        failures = self.failures()
        if failures:
            raise TaskExecutionError(self.task_set, failures)

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cached)

    @property
    def executed(self) -> int:
        return sum(1 for result in self.results if not result.cached)

    @property
    def task_time_s(self) -> float:
        """Summed per-task compute time (> wall time when workers overlap)."""
        return sum(result.duration_s for result in self.results)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable telemetry dump (values are *not* included)."""
        return {
            "task_set": self.task_set,
            "jobs": self.jobs,
            "tasks": len(self.results),
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failed": len(self.failures()),
            "wall_time_s": round(self.wall_time_s, 6),
            "task_time_s": round(self.task_time_s, 6),
            "results": [
                {"key": result.key, "ok": result.ok, "cached": result.cached,
                 "duration_s": round(result.duration_s, 6),
                 "error": (result.error or "").strip().splitlines()[0] if result.error else None}
                for result in self.results
            ],
        }

    def summary(self) -> str:
        """Render the run telemetry as a table."""
        rows = []
        for result in self.results:
            status = "cached" if result.cached else ("ok" if result.ok else "FAILED")
            rows.append([result.key, status, f"{result.duration_s:.4f}"])
        title = (f"Run report — {self.task_set} "
                 f"(jobs={self.jobs}, wall={self.wall_time_s:.3f}s, "
                 f"hits={self.cache_hits}/{len(self.results)})")
        return format_table(["task", "status", "seconds"], rows, title=title)
