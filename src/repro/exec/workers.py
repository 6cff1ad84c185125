"""Worker-side machinery of the execution fabric.

Everything here runs inside the executing process — which is the parent for
:class:`~repro.exec.executors.SerialExecutor` and a pool child for
:class:`~repro.exec.executors.ParallelExecutor`.  Workers are referenced by
dotted path (``package.module:function``) rather than by object so that task
descriptions pickle trivially and survive any multiprocessing start method.

Two contracts matter:

* a worker is a **pure function of its payload** — same payload, same
  result, in any process, in any order (the fabric's determinism guarantee
  rests on this);
* a worker never lets an exception escape :func:`run_task` — failures are
  captured as per-task error strings so one bad cell cannot take down a
  sweep.

:func:`worker_context` offers process-local memoization for expensive
deterministic setup (rebuilding an application from its config, replaying a
scenario).  Chunking tasks by shard group means cells sharing a context land
in the same process and rebuild it once.
"""

from __future__ import annotations

import importlib
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Tuple

from repro.obs import collect_observations, sample_now, span


def resolve_worker(reference: str) -> Callable[[Dict[str, Any]], Any]:
    """Import and return the worker named by a ``module:function`` reference."""
    module_name, _, function_name = reference.partition(":")
    if not module_name or not function_name:
        raise ValueError(
            f"worker reference must look like 'package.module:function', "
            f"got {reference!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, function_name)
    except AttributeError as error:
        raise ValueError(
            f"module {module_name!r} has no worker function "
            f"{function_name!r}") from error


# ---------------------------------------------------------------------------
# process-local context memoization
# ---------------------------------------------------------------------------
_CONTEXT_CACHE: Dict[Tuple[Any, ...], Any] = {}
_MISSING = object()
_CONTEXT_CACHE_LOCK = threading.Lock()
_CONTEXT_BUILD_LOCKS: Dict[Tuple[Any, ...], threading.Lock] = {}


def worker_context(key: Tuple[Any, ...], builder: Callable[[], Any]) -> Any:
    """Build-once-per-process memoization for deterministic setup work.

    *key* must capture every input of *builder* (configs, spec digests); the
    built value is shared by every task of the same process, so it must be
    treated as immutable by workers (copy before mutating).

    Thread-safe: caller threads that each run a serial
    :func:`~repro.exec.api.run_tasks` — serve's answer threads — may request
    the same context at once, and exactly one of them builds it.  A per-key
    build lock keeps unrelated contexts from serializing each other's
    construction.  The value returned is the one built or read under that
    lock, so a concurrent :func:`clear_worker_contexts` (the end of another
    thread's run) cannot make the call fail.
    """
    value = _CONTEXT_CACHE.get(key, _MISSING)
    if value is not _MISSING:
        return value
    with _CONTEXT_CACHE_LOCK:
        build_lock = _CONTEXT_BUILD_LOCKS.setdefault(key, threading.Lock())
    with build_lock:
        value = _CONTEXT_CACHE.get(key, _MISSING)
        if value is _MISSING:
            value = _CONTEXT_CACHE[key] = builder()
    return value


def clear_worker_contexts() -> None:
    """Drop all memoized contexts (test isolation + session hygiene hook)."""
    with _CONTEXT_CACHE_LOCK:
        _CONTEXT_CACHE.clear()
        _CONTEXT_BUILD_LOCKS.clear()


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------
def run_task(wire_task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one wire-form task, capturing failure, timing, and telemetry.

    Returns a plain dict (never raises): ``{"key", "ok", "value", "error",
    "duration_s"}``.  ``value`` is only meaningful when ``ok`` is true.

    When the wire form carries an ``obs`` marker (set by the parallel
    executor for pool children), the task runs under an isolated
    observability capture, takes one resource reading, and its spans and
    metric deltas ride back to the parent in an extra ``obs`` result field
    — *never* inside ``value``, so telemetry cannot perturb results,
    digests, or cached entries.
    """
    observe = wire_task.get("obs")
    if observe is None:
        # in-process execution: spans and metrics land directly in this
        # process's (the parent's) tracer and registry
        return _execute_wire_task(wire_task)
    with collect_observations(trace=bool(observe.get("trace"))) as capture:
        raw = _execute_wire_task(wire_task)
        # one resource reading per task: the gauges max-merge, so the
        # parent ends up with each worker process's peak footprint
        sample_now()
    raw["obs"] = capture.to_wire()
    return raw


def _execute_wire_task(wire_task: Dict[str, Any]) -> Dict[str, Any]:
    key = wire_task["key"]
    started = time.perf_counter()
    try:
        with span("exec.task", attrs={"key": key}):
            worker = resolve_worker(wire_task["fn"])
            value = worker(wire_task["payload"])
        return {"key": key, "ok": True, "value": value, "error": None,
                "duration_s": time.perf_counter() - started}
    except BaseException as error:  # noqa: BLE001 - a sweep must survive any cell
        if isinstance(error, (KeyboardInterrupt, SystemExit)):
            raise
        detail = traceback.format_exc(limit=8)
        return {"key": key, "ok": False, "value": None,
                "error": f"{type(error).__name__}: {error}\n{detail}",
                "duration_s": time.perf_counter() - started}


def run_chunk(wire_tasks: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Execute a chunk of tasks sequentially in this process.

    The pool submits chunks (not single tasks) so that shard groups reuse
    their :func:`worker_context` and per-submission overhead amortizes.
    """
    return [run_task(wire_task) for wire_task in wire_tasks]
