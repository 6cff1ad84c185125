"""Per-layer tracing for the traced benchmark run.

:func:`install` wraps each layer's public function at the name its caller
looks up (a module attribute, or a class attribute for methods) and records
one span per call in memory: id, parent, request id, name, start and end.
:meth:`Installation.remove` restores every attribute exactly, so the
wrappers never touch a timed (untraced) run.  :func:`layer_metrics` turns
the recorded spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import builtins
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute, span name) — functions wrapped where callers look them up
MODULE_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "answer_queries", "api.answer_queries"),
    ("repro.serve.service", "answer_queries", "api.answer_queries"),
    ("repro.api", "run_tasks", "exec.run_tasks"),
    ("repro.benchmark.runner", "run_tasks", "exec.run_tasks"),
    ("repro.scenarios.engine", "replay_scenario", "scenarios.replay"),
    ("repro.scenarios.overlay", "replay_scenario", "scenarios.replay"),
    ("repro.scenarios.engine", "timeline_to_dict", "scenarios.timeline_to_dict"),
    ("repro.synthesis.temporal", "parse_timeline_payload", "synthesis.parse_timeline"),
    ("repro.synthesis.temporal", "timeline_namespace", "synthesis.timeline_namespace"),
    ("repro.sandbox.executor", "validate_source", "sandbox.validate"),
    # not a module attribute: the wrapper shadows the builtin for this module
    ("repro.sandbox.executor", "compile", "sandbox.compile"),
    ("repro.core.pipeline", "build_prompt", "core.build_prompt"),
    ("repro.core.application", "compute_stats", "graph.compute_stats"),
    ("repro.core.application", "to_networkx", "graph.views"),
    ("repro.core.application", "to_frames", "graph.views"),
    ("repro.core.application", "to_sql_database", "graph.views"),
    ("repro.benchmark.evaluator", "diff_graphs", "graph.diff"),
)

#: (module, class, method, span name) — methods wrapped on their class
CLASS_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.synthesis.engine", "CodeSynthesisEngine", "generate_temporal",
     "synthesis.generate_temporal"),
    ("repro.sandbox.executor", "ExecutionSandbox", "execute", "sandbox.execute"),
    ("repro.llm.tokenizer", "ApproximateTokenizer", "tokenize", "llm.tokenize"),
    ("repro.llm.base", "LlmProvider", "complete", "llm.complete"),
    ("repro.sqlengine.database", "Database", "execute", "sqlengine.execute"),
    ("repro.benchmark.goldens", "GoldenAnswerSelector", "golden_for", "benchmark.golden"),
    ("repro.benchmark.goldens", "TemporalGoldenSelector", "golden_for", "benchmark.golden"),
    ("repro.benchmark.evaluator", "ResultsEvaluator", "evaluate", "benchmark.evaluate"),
    ("repro.benchmark.evaluator", "ResultsEvaluator", "evaluate_temporal",
     "benchmark.evaluate"),
)

#: modules that call ``worker_context`` through their own global name
WORKER_CONTEXT_CALLERS = ("repro.api", "repro.benchmark.tasks", "repro.cost.tasks")

_ABSENT = object()


class Recorder:
    """In-memory span and counter store, shared by every wrapper of a run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, Optional[int], int, str, float, float]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: goldens returned so far; a golden seen before is a cache hit
        self._goldens: Dict[int, Any] = {}

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable[[Any], None]] = None) -> Callable:
        """*function* recording a span named *name* per call; *after* sees the
        result once the span is closed."""
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append((span_id, parent[1] if parent else span_id))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, request = stack.pop()
                spans.append((span_id, parent[0] if parent else None, request,
                              name, start, end))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = function
        return traced

    # -- per-target result hooks (run outside the span) ---------------------
    def sandbox_outcome(self, outcome: Any) -> None:
        self.count("sandbox.runs")
        if outcome.failed:
            self.count("sandbox.failures")

    def golden(self, golden: Any) -> None:
        with self._lock:
            hit = id(golden) in self._goldens
            self._goldens[id(golden)] = golden  # held, so ids are never reused
            self.counters["benchmark.golden.hits"] += hit

    def timeline_bytes(self, payload: Any) -> None:
        self.count("scenarios.timeline_to_dict.bytes",
                   len(json.dumps(payload, default=str)))

    def worker_context(self, original: Callable) -> Callable:
        """``worker_context`` that also counts how often the builder ran."""
        recorder = self

        def counted(key, builder):
            def counting_builder():
                recorder.count("exec.worker_context.builds")
                return builder()
            return original(key, counting_builder)

        return self.wrap("exec.worker_context", counted)

    def document(self) -> Dict[str, Any]:
        return {"spans": [list(span) for span in self.spans],
                "counters": dict(self.counters)}


class Installation:
    """The patched attributes of one :func:`install`, undone by :meth:`remove`."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, replacement)

    def remove(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)


def install(recorder: Recorder) -> Installation:
    """Wrap every layer target; returns the handle that removes them."""
    installation = Installation()
    hooks = {"sandbox.execute": recorder.sandbox_outcome,
             "benchmark.golden": recorder.golden,
             "scenarios.timeline_to_dict": recorder.timeline_bytes}
    for module_name, attribute, name in MODULE_TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None) or getattr(builtins, attribute)
        installation.patch(module, attribute,
                           recorder.wrap(name, original, hooks.get(name)))
    for module_name, class_name, method, name in CLASS_TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        # the base method and every subclass override of it
        for owner in [cls, *_subclasses(cls)]:
            if method in owner.__dict__:
                installation.patch(owner, method, recorder.wrap(
                    name, owner.__dict__[method], hooks.get(name)))
    for module_name in WORKER_CONTEXT_CALLERS:
        module = importlib.import_module(module_name)
        installation.patch(module, "worker_context",
                           recorder.worker_context(module.worker_context))
    return installation


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------
def span_table(spans: List[List[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total ``ms`` and ``self_ms`` (the span minus
    the time its direct child spans cover)."""
    child_ms: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            child_ms[parent] += (end - start) * 1000.0
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for span_id, _, _, name, start, end in spans:
        ms = (end - start) * 1000.0
        row = table[name]
        row["calls"] += 1
        row["ms"] += ms
        row["self_ms"] += max(0.0, ms - child_ms[span_id])
    return table


#: every per-layer metric: name -> unit
PER_LAYER_UNITS: Dict[str, str] = {
    "serve.request.p50_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.client_overhead_ms": "ms",
    "api.answer_queries.ms_per_call": "ms",
    "api.answer_queries.self_ms": "ms",
    "exec.run_tasks.ms_per_call": "ms",
    "exec.run_tasks.self_ms": "ms",
    "exec.worker_context.hit_ratio": "ratio",
    "exec.worker_context.builds": "count",
    "scenarios.replay.ms": "ms",
    "scenarios.timeline_to_dict.ms": "ms",
    "scenarios.timeline_to_dict.bytes": "bytes",
    "synthesis.parse_timeline.ms": "ms",
    "synthesis.timeline_namespace.ms_per_call": "ms",
    "synthesis.timeline_namespace.calls": "count",
    "synthesis.generate_temporal.ms_per_call": "ms",
    "sandbox.validate.ms_per_call": "ms",
    "sandbox.compile.ms_per_call": "ms",
    "sandbox.execute.ms_per_call": "ms",
    "sandbox.execute.self_ms": "ms",
    "sandbox.runs": "count",
    "sandbox.failures": "count",
    "core.build_prompt.ms_per_call": "ms",
    "graph.compute_stats.ms_per_call": "ms",
    "llm.tokenize.calls": "count",
    "llm.tokenize.ms_per_call": "ms",
    "llm.complete.ms_per_call": "ms",
    "graph.views.ms_per_call": "ms",
    "graph.diff.ms_per_call": "ms",
    "sqlengine.execute.ms_per_call": "ms",
    "sqlengine.execute.calls": "count",
    "benchmark.golden.ms_per_call": "ms",
    "benchmark.golden.hit_ratio": "ratio",
    "benchmark.evaluate.ms_per_call": "ms",
    "obs.tracing_overhead_pct": "%",
    "error_rate": "fraction",
}


#: the bucket layout of the program's exported histograms (``repro.obs.metrics``):
#: bucket ``i`` holds values in ``(FLOOR * 10**(i/20), FLOOR * 10**((i+1)/20)]``
HISTOGRAM_FLOOR = 1e-7
BUCKETS_PER_DECADE = 20


def histogram_quantile(before: Dict[str, int], after: Dict[str, int],
                       fraction: float) -> float:
    """Quantile of the observations a histogram gained between two bucket
    snapshots, interpolated geometrically inside the crossing bucket (so it
    varies continuously instead of reading a bucket bound); 0 when empty."""
    delta = {int(key): count - before.get(key, 0) for key, count in after.items()
             if key != "underflow" and count > before.get(key, 0)}
    rank = fraction * sum(delta.values())
    seen = 0
    for index in sorted(delta):
        count = delta[index]
        if seen + count >= rank:
            lower = HISTOGRAM_FLOOR * 10 ** (index / BUCKETS_PER_DECADE)
            return lower * 10 ** ((rank - seen) / count / BUCKETS_PER_DECADE)
        seen += count
    return 0.0


def layer_metrics(trace: Dict[str, Any], serve_p50_ms: float,
                  client_p50_ms: float, overhead_pct: float,
                  error_rate: float) -> Dict[str, float]:
    """Every per-layer metric from one traced run.

    ``*.ms`` and ``*.ms_per_call`` are mean milliseconds per call and
    ``*.self_ms`` mean self time per call; a layer the workload bypasses
    reads 0 calls and 0 ms.  *serve_p50_ms* is the server's own request
    p50 (0 for in-process workloads).
    """
    table = span_table(trace["spans"])
    counters = trace["counters"]

    def calls(name: str) -> float:
        return table[name]["calls"] if name in table else 0

    def per_call(name: str, field: str = "ms") -> float:
        return table[name][field] / table[name]["calls"] if calls(name) else 0.0

    def ratio(hits: float, total: float) -> float:
        return hits / total if total else 0.0

    context_calls = calls("exec.worker_context")
    context_builds = counters.get("exec.worker_context.builds", 0)
    answer_ms = per_call("api.answer_queries")
    values = {
        "serve.request.p50_ms": serve_p50_ms,
        "serve.wait_ms": serve_p50_ms - answer_ms if serve_p50_ms else 0.0,
        "serve.client_overhead_ms": client_p50_ms - serve_p50_ms if serve_p50_ms else 0.0,
        "api.answer_queries.ms_per_call": answer_ms,
        "api.answer_queries.self_ms": per_call("api.answer_queries", "self_ms"),
        "exec.run_tasks.ms_per_call": per_call("exec.run_tasks"),
        "exec.run_tasks.self_ms": per_call("exec.run_tasks", "self_ms"),
        "exec.worker_context.hit_ratio": ratio(context_calls - context_builds,
                                               context_calls),
        "exec.worker_context.builds": context_builds,
        "scenarios.replay.ms": per_call("scenarios.replay"),
        "scenarios.timeline_to_dict.ms": per_call("scenarios.timeline_to_dict"),
        "scenarios.timeline_to_dict.bytes": ratio(
            counters.get("scenarios.timeline_to_dict.bytes", 0),
            calls("scenarios.timeline_to_dict")),
        "synthesis.parse_timeline.ms": per_call("synthesis.parse_timeline"),
        "synthesis.timeline_namespace.ms_per_call": per_call("synthesis.timeline_namespace"),
        "synthesis.timeline_namespace.calls": calls("synthesis.timeline_namespace"),
        "synthesis.generate_temporal.ms_per_call": per_call("synthesis.generate_temporal"),
        "sandbox.validate.ms_per_call": per_call("sandbox.validate"),
        "sandbox.compile.ms_per_call": per_call("sandbox.compile"),
        "sandbox.execute.ms_per_call": per_call("sandbox.execute"),
        "sandbox.execute.self_ms": per_call("sandbox.execute", "self_ms"),
        "sandbox.runs": counters.get("sandbox.runs", 0),
        "sandbox.failures": counters.get("sandbox.failures", 0),
        "core.build_prompt.ms_per_call": per_call("core.build_prompt"),
        "graph.compute_stats.ms_per_call": per_call("graph.compute_stats"),
        "llm.tokenize.calls": calls("llm.tokenize"),
        "llm.tokenize.ms_per_call": per_call("llm.tokenize"),
        "llm.complete.ms_per_call": per_call("llm.complete"),
        "graph.views.ms_per_call": per_call("graph.views"),
        "graph.diff.ms_per_call": per_call("graph.diff"),
        "sqlengine.execute.ms_per_call": per_call("sqlengine.execute"),
        "sqlengine.execute.calls": calls("sqlengine.execute"),
        "benchmark.golden.ms_per_call": per_call("benchmark.golden"),
        "benchmark.golden.hit_ratio": ratio(counters.get("benchmark.golden.hits", 0),
                                            calls("benchmark.golden")),
        "benchmark.evaluate.ms_per_call": per_call("benchmark.evaluate"),
        "obs.tracing_overhead_pct": overhead_pct,
        "error_rate": error_rate,
    }
    return values
