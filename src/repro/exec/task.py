"""The task model of the execution fabric.

A :class:`Task` names one unit of work with a stable, human-readable key
(e.g. ``bench/traffic_analysis/networkx/tq-03/gpt-4``) and describes the
work as *data*: a dotted-path reference to a worker function plus a
JSON-serializable payload.  Because the description is pure data, tasks
cross process boundaries trivially and their content digest doubles as the
on-disk cache key — two tasks with the same key, worker, and payload are the
same computation.

A :class:`TaskSet` is an ordered collection of tasks with unique keys.  The
order is part of the contract: executors may *complete* tasks in any order,
but results are always reported in task-set order, which is what makes
serial and parallel runs byte-identical downstream.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List

from repro import __version__ as _PACKAGE_VERSION
from repro.utils.validation import require


#: bumping this invalidates every cached result (change it when the result
#: representation or the worker contract changes incompatibly)
FABRIC_VERSION = 2


def canonical_payload(payload: Any) -> str:
    """Canonical JSON text of a task payload (sorted keys, stable scalars).

    Strict JSON only: anything non-serializable raises ``TypeError`` rather
    than degrading to ``str()``, whose output can vary across processes
    (e.g. set ordering) and would corrupt content digests.
    """
    return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class Task:
    """One named, self-describing unit of work."""

    #: stable human-readable identity of the cell (unique within a task set)
    key: str
    #: worker reference as ``package.module:function``
    fn: str
    #: JSON-serializable arguments handed to the worker
    payload: Dict[str, Any] = field(default_factory=dict)
    #: shard affinity — tasks sharing a group are chunked together so that
    #: per-process context (e.g. a rebuilt application) is reused, not rebuilt
    group: str = ""

    def validate(self) -> None:
        require(bool(self.key), "task key must be non-empty")
        require(":" in self.fn,
                f"task fn must be a 'module:function' reference, got {self.fn!r}")
        try:
            canonical_payload(self.payload)
        except (TypeError, ValueError) as error:
            raise type(error)(
                f"task {self.key!r} payload is not serializable: {error}") from error

    def digest(self) -> str:
        """Content key: identical (key, fn, payload) => identical digest.

        The package version participates so cached results never survive a
        release boundary — worker *code* may have changed even when the task
        description has not.
        """
        hasher = hashlib.sha256()
        for part in (str(FABRIC_VERSION), _PACKAGE_VERSION, self.key, self.fn,
                     canonical_payload(self.payload)):
            hasher.update(part.encode("utf-8"))
            hasher.update(b"\x1f")
        return hasher.hexdigest()

    def to_wire(self) -> Dict[str, Any]:
        """The plain-data form shipped to worker processes."""
        return {"key": self.key, "fn": self.fn, "payload": self.payload}


@dataclass
class TaskSet:
    """An ordered, uniquely-keyed collection of tasks swept as one unit.

    A set carries no workload hint: the :class:`~repro.exec.ExecutorPolicy`
    picks its mechanism from the set's size and the host's core count.
    """

    name: str
    tasks: List[Task] = field(default_factory=list)

    def validate(self) -> None:
        require(bool(self.name), "task set name must be non-empty")
        seen = set()
        for task in self.tasks:
            task.validate()
            require(task.key not in seen,
                    f"duplicate task key {task.key!r} in task set {self.name!r}")
            seen.add(task.key)

    def add(self, task: Task) -> Task:
        self.tasks.append(task)
        return task

    def extend(self, tasks: Iterable[Task]) -> None:
        self.tasks.extend(tasks)

    def keys(self) -> List[str]:
        return [task.key for task in self.tasks]

    def groups(self) -> List[str]:
        """Distinct shard groups in first-appearance order."""
        ordered: List[str] = []
        for task in self.tasks:
            if task.group not in ordered:
                ordered.append(task.group)
        return ordered

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)
