"""Benchmark cells as execution-fabric tasks.

One task is one (application, backend, query, model) cell of the accuracy
grid.  The payload carries the full benchmark config plus an *application
context* describing which network state the cell runs against — a generated
application, the small strawman variant, or a replayed scenario.  Workers
rebuild that state deterministically and memoize it per process via
:func:`repro.exec.workers.worker_context`, so a chunk of cells sharing a
context (same shard group) pays the rebuild once.

Cell purity is inherited from the stack: topology generators, scenario
replay, providers, and goldens are all pure functions of their inputs, which
is what lets serial and parallel sweeps produce byte-identical tables and
lets results be cached by content digest.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.benchmark.queries import query_by_id, temporal_query_by_id
from repro.exec.task import Task
from repro.exec.workers import worker_context
from repro.obs import span
from repro.utils.hashing import stable_hash

#: dotted-path reference resolved inside worker processes
BENCHMARK_CELL_WORKER = "repro.benchmark.tasks:run_benchmark_cell"
TEMPORAL_CELL_WORKER = "repro.benchmark.tasks:run_temporal_cell"


def benchmark_cell_task(report_name: str, config_payload: Dict[str, Any],
                        app_context: Dict[str, Any], backend: str,
                        query_id: str, model: str) -> Task:
    """Describe one accuracy-grid cell as a fabric task.

    *app_context* is one of::

        {"kind": "generated", "application": "traffic_analysis" | "malt"}
        {"kind": "strawman"}
        {"kind": "scenario", "spec": <ScenarioSpec dict>}
    """
    return Task(
        key=f"bench/{report_name}/{backend}/{query_id}/{model}",
        fn=BENCHMARK_CELL_WORKER,
        payload={
            "config": config_payload,
            "app": app_context,
            "backend": backend,
            "query_id": query_id,
            "model": model,
        },
        # one group per network state: cells sharing it chunk together and
        # reuse the worker-process application memo
        group=f"{report_name}/{app_context['kind']}"
              + (f"/{app_context['spec']['name']}" if app_context["kind"] == "scenario" else ""),
    )


def _build_application(config_payload: Dict[str, Any], app_context: Dict[str, Any]):
    from repro.benchmark.runner import BenchmarkConfig

    config = BenchmarkConfig.from_payload(config_payload)
    kind = app_context["kind"]
    if kind == "scenario":
        from repro.scenarios.overlay import application_from_scenario
        from repro.scenarios.spec import ScenarioSpec

        return application_from_scenario(ScenarioSpec.from_dict(app_context["spec"]))
    if kind == "strawman":
        return config.strawman_application()
    if app_context["application"] == "malt":
        return config.malt_application()
    return config.traffic_application()


# ---------------------------------------------------------------------------
# temporal cells
# ---------------------------------------------------------------------------
def temporal_cell_task(config_payload: Dict[str, Any], record, query_id: str,
                       model: str, backend: str = "direct") -> Task:
    """Describe one temporal-accuracy cell as a fabric task.

    *record* is the scenario's
    :class:`~repro.scenarios.registry.ScenarioRecord`: the payload carries
    its spec dict as ``spec`` and the dict's hash as ``spec_hash``, which
    keys every per-scenario worker context, so no cell re-hashes its spec.
    *backend* selects the answering path: ``direct`` (answer straight from
    the replayed timeline) or a timeline-aware codegen backend
    (``frames``/``networkx``) whose emitted program runs in the sandbox.
    The payload round-trips through JSON (spec dicts, config dumps), so
    temporal cells cross process boundaries and participate in the
    content-keyed result cache exactly like static benchmark cells.
    """
    scenario = record.spec.name
    return Task(
        key=f"bench/temporal/{scenario}/{backend}/{query_id}/{model}",
        fn=TEMPORAL_CELL_WORKER,
        payload={
            "config": config_payload,
            "spec": record.spec_dict,
            "spec_hash": record.spec_hash,
            "query_id": query_id,
            "model": model,
            "backend": backend,
        },
        # one group per scenario: cells sharing a timeline chunk together
        # and replay (and serialize) it once per worker process
        group=f"temporal/{scenario}",
    )


def _replay_timeline(spec_dict: Dict[str, Any]):
    from repro.scenarios.engine import replay_scenario
    from repro.scenarios.spec import ScenarioSpec

    return replay_scenario(ScenarioSpec.from_dict(spec_dict))


def _freeze_timeline(timeline, spec_hash: str, backend: str):
    """The shared read-only namespace of *timeline* for one codegen backend,
    built from the per-process parse shared by both backends."""
    from repro.scenarios.engine import timeline_to_dict
    from repro.synthesis.temporal import freeze_timeline, parse_timeline_payload

    parsed = worker_context(
        ("scenario-timeline-parsed", spec_hash),
        lambda: parse_timeline_payload(timeline_to_dict(timeline)))
    return freeze_timeline(parsed, backend)


def _corrupt(value: Any) -> Any:
    """A deterministic wrong answer of last resort, shaped like *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return list(value[:-1]) if value else [["phantom-node", "phantom-peer"]]
    if isinstance(value, dict):
        return ({key: _corrupt(item) for key, item in value.items()}
                if value else {"phantom": 1})
    if value is None:
        return 0.0
    return None


def _binds_time(query) -> bool:
    """True when the query's intent has a bound time parameter."""
    from repro.benchmark.queries import TIME_PARAMS

    return any(key in TIME_PARAMS and value is not None
               for key, value in query.intent.params)


def _misanchored_answers(timeline, query, golden_value: Any):
    """Lazily, each ``(shift, intent, answer)`` of the query with every time
    shifted 1, 2, ... snapshots earlier whose answer is not the golden."""
    from repro.llm.faults import TemporalFaultInjector
    from repro.synthesis.reference import evaluate_temporal_reference

    times = timeline.times()
    injector = TemporalFaultInjector()
    for shift in range(1, len(times)):
        intent = injector.misanchored_intent(query.intent, times, shift)
        value = evaluate_temporal_reference(timeline, intent).value
        if value != golden_value:
            yield shift, intent, value


def _window_cut_answers(timeline, query, golden_value: Any):
    """Lazily, each ``(cut, answer)`` of the query over the timeline without
    its 1, 2, ... newest snapshots whose answer is not the golden."""
    from repro.scenarios.engine import ScenarioTimeline
    from repro.synthesis.reference import evaluate_temporal_reference

    for cut in range(1, len(timeline.snapshots)):
        stale = ScenarioTimeline(scenario_name=timeline.scenario_name,
                                 snapshots=timeline.snapshots[:-cut])
        value = evaluate_temporal_reference(stale, query.intent).value
        if value != golden_value:
            yield cut, value


def _stale_answer(timeline, query, golden_value: Any) -> Any:
    """The answer a failing model produces: a stale/mis-anchored replay.

    Models that get temporal questions wrong typically reason over the wrong
    point in time, so the simulated fault re-evaluates the same reference
    semantics with every referenced timestamp shifted earlier — or, for
    whole-timeline questions, over a replay missing its newest snapshots.
    The shift widens until the answer actually *differs* from the golden
    (a mis-anchored answer that coincides with the truth is not a failure),
    corrupting the golden value as a last resort; every step is
    deterministic, so serial and parallel sweeps stay byte-identical.
    """
    wrong = (_misanchored_answers if _binds_time(query)
             else _window_cut_answers)(timeline, query, golden_value)
    first = next(wrong, None)
    return _corrupt(golden_value) if first is None else first[-1]


def _faulty_temporal_program(timeline, query, backend: str, golden_value: Any,
                             engine, preferred: str):
    """The (code, fault label) a failing codegen model emits.

    The *preferred* fault type (drawn from the calibration table) is
    honoured where the intent's shape allows (mis-anchoring needs a bound
    time parameter); data-level faults escalate deterministically until the broken program's
    answer actually *differs* from the golden (a mis-anchored program that
    lands on the truth is not a failure), trying the other data fault next
    and falling back to a crashing program — which always fails — when no
    data fault can surface a difference.
    """
    from repro.llm.faults import TemporalFaultInjector, TemporalFaultType

    injector = TemporalFaultInjector()
    attempts = {
        TemporalFaultType.MISANCHORED_SNAPSHOT.value: (
            TemporalFaultType.MISANCHORED_SNAPSHOT.value,
            TemporalFaultType.OFF_BY_ONE_WINDOW.value),
        TemporalFaultType.OFF_BY_ONE_WINDOW.value: (
            TemporalFaultType.OFF_BY_ONE_WINDOW.value,
            TemporalFaultType.MISANCHORED_SNAPSHOT.value),
        TemporalFaultType.RUNTIME_CRASH.value: (),
    }[preferred]
    for fault in attempts:
        if fault == TemporalFaultType.MISANCHORED_SNAPSHOT.value and _binds_time(query):
            # wrong snapshot anchoring: shift every referenced time earlier
            for shift, intent, _ in _misanchored_answers(timeline, query, golden_value):
                code = engine.generate_temporal(intent, backend).code
                return code, f"misanchored_snapshot(shift={shift})"
        elif fault == TemporalFaultType.OFF_BY_ONE_WINDOW.value:
            # reason over a delta window missing its newest snapshots
            for cut, _ in _window_cut_answers(timeline, query, golden_value):
                code = (injector.truncation_prelude(cut)
                        + engine.generate_temporal(query.intent, backend).code)
                return code, f"off_by_one_window(cut={cut})"
    return injector.crash_code(), TemporalFaultType.RUNTIME_CRASH.value


def run_temporal_cell(payload: Dict[str, Any]):
    """Worker: answer one temporal query and return its verdict.

    The timeline replay (and, for codegen backends, its parsed form and the
    read-only namespace of each backend — see
    :mod:`repro.synthesis.temporal`) is memoized per process — cells of one
    scenario chunk together via their
    shard group — and the golden is served by a memoized
    :class:`~repro.benchmark.goldens.TemporalGoldenSelector` keyed on the
    timeline's snapshot digests.

    The ``direct`` backend answers from the timeline (the strawman-like
    path); ``frames``/``networkx`` run the full pipeline — emit a
    timeline-aware program, execute it in the sandbox against the serialized
    snapshot sequence, and evaluate whatever the program leaves in
    ``result``.  Sandbox failures are recorded as ``execute``-stage faults.
    """
    from repro.benchmark.evaluator import ResultsEvaluator
    from repro.benchmark.goldens import TemporalGoldenSelector
    from repro.benchmark.queries import temporal_bucket_size
    from repro.llm.calibration import CalibrationTable, DEFAULT_CALIBRATION

    backend = payload.get("backend", "direct")
    spec_hash = payload["spec_hash"]
    timeline = worker_context(
        ("scenario-timeline", spec_hash),
        lambda: _replay_timeline(payload["spec"]))
    selector = worker_context(("temporal-golden-selector",), TemporalGoldenSelector)

    query = temporal_query_by_id(payload["query_id"])
    model = payload["model"]
    with span("benchmark.golden", attrs={"query": query.query_id}):
        golden = selector.golden_for(query, timeline)

    calibration = DEFAULT_CALIBRATION
    if payload["config"].get("calibration") is not None:
        calibration = CalibrationTable.from_dict(payload["config"]["calibration"])
    # temporal cells calibrate against the traffic-analysis table: the
    # direct path uses the strawman column, codegen backends use their
    # representation's column (see CalibrationTable.temporal_passes)
    intended_correct = calibration.temporal_passes(
        model, backend, query.complexity, query.difficulty_rank,
        temporal_bucket_size(query.complexity))

    anchor = query.anchor_time
    snapshot = (timeline.snapshots[-1] if anchor is None
                else timeline.snapshot_at(anchor))
    details = {
        "anchor_time": snapshot.time,
        "snapshot_digest": snapshot.digest,
        "intended_correct": intended_correct,
    }
    evaluator = ResultsEvaluator()

    # a failing model's output is a function of (timeline, query) — and,
    # for codegen, of the backend and the preferred fault type — since the
    # golden is; it is memoized per process like the timeline.  The verdict
    # never is: every request is evaluated afresh.
    if backend == "direct":
        answer = golden.value if intended_correct else worker_context(
            ("temporal-stale-answer", spec_hash, query.query_id),
            lambda: _stale_answer(timeline, query, golden.value))
        with span("benchmark.evaluate", attrs={"query": query.query_id,
                                               "backend": backend}):
            return evaluator.evaluate_temporal(query, model, answer, golden,
                                               details=details, backend=backend)

    # codegen backends: emit, sandbox-execute, evaluate.  The serialized
    # timeline is parsed once per process and frozen once per backend; each
    # cell only builds the two per-request namespace lists over it.
    from repro.synthesis import CodeSynthesisEngine
    from repro.synthesis.temporal import run_temporal_program

    frozen_timeline = worker_context(
        ("temporal-namespace", spec_hash, backend),
        lambda: _freeze_timeline(timeline, spec_hash, backend))
    engine = worker_context(("synthesis-engine",), CodeSynthesisEngine)

    if intended_correct:
        code = engine.generate_temporal(query.intent, backend).code
    else:
        preferred = calibration.temporal_fault_type_for(query.query_id, model,
                                                        backend)
        code, fault_label = worker_context(
            ("temporal-faulty-program", spec_hash, query.query_id, backend,
             preferred),
            lambda: _faulty_temporal_program(timeline, query, backend,
                                             golden.value, engine, preferred))
        details["fault"] = fault_label

    # the programs come from the finite template table: cache their code
    outcome = run_temporal_program(code, frozen_timeline, backend,
                                   cache_code=True)
    with span("benchmark.evaluate", attrs={"query": query.query_id,
                                           "backend": backend}):
        if outcome.failed:
            return evaluator.evaluate_temporal(
                query, model, None, golden, details=details, backend=backend,
                generated_code=code,
                execution_error=(outcome.error_type, outcome.error_message))
        return evaluator.evaluate_temporal(
            query, model, outcome.result, golden, details=details,
            backend=backend, generated_code=code)


def run_benchmark_cell(payload: Dict[str, Any]):
    """Worker: run one cell and return its :class:`EvaluationRecord`."""
    from repro.benchmark.runner import BenchmarkConfig, BenchmarkRunner

    context_key = ("benchmark-application",
                   stable_hash(payload["config"], payload["app"]))
    application = worker_context(
        context_key, lambda: _build_application(payload["config"], payload["app"]))
    # memoize the runner per config so its golden-answer cache spans every
    # cell of this process — goldens compute once per (query, graph), not
    # once per (backend, model)
    runner = worker_context(
        ("benchmark-runner", stable_hash(payload["config"])),
        lambda: BenchmarkRunner(BenchmarkConfig.from_payload(payload["config"])))
    query = query_by_id(payload["query_id"])
    return runner.run_query(application, query, payload["model"], payload["backend"])
