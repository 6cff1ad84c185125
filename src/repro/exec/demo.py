"""Reference workers for the fabric's own tests and benchmarks.

Real sweeps reference workers in :mod:`repro.benchmark.tasks` and
:mod:`repro.cost.tasks`; the functions here exist so the fabric can be
exercised (and its failure modes provoked) without dragging in the whole
evaluation stack.  They are importable from worker processes under any
multiprocessing start method, which is exactly why they live in the package
rather than in a test module.
"""

from __future__ import annotations

import os
from typing import Any, Dict


def echo(payload: Dict[str, Any]) -> Any:
    """Return ``payload['value']`` unchanged."""
    return payload["value"]


def square(payload: Dict[str, Any]) -> int:
    """Return ``payload['x']`` squared."""
    return payload["x"] ** 2


def record_and_echo(payload: Dict[str, Any]) -> Any:
    """Append one line to ``payload['log_path']`` then echo ``value``.

    The side-effect lets tests count actual executions, distinguishing a
    cache hit (no new line) from a recomputation.
    """
    with open(payload["log_path"], "a", encoding="utf-8") as handle:
        handle.write(f"{payload['value']}\n")
    return payload["value"]


def boom(payload: Dict[str, Any]) -> None:
    """Raise — the well-behaved failure (captured as a per-task error)."""
    raise RuntimeError(payload.get("message", "boom"))


def hard_crash(payload: Dict[str, Any]) -> None:
    """Kill the worker process outright — the ill-behaved failure.

    ``os._exit`` bypasses every exception handler, simulating a segfaulting
    or OOM-killed worker; the pool breaks and the fabric must still surface
    a per-task error instead of hanging.
    """
    os._exit(payload.get("code", 3))
