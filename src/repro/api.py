"""``repro.api`` — the stable importable facade of the reproduction.

One import surface for everything the batch CLI and the long-running
service (:mod:`repro.serve`) both need:

* :func:`load_scenario` / :func:`list_scenarios` — the named scenario corpus;
* :func:`answer_query` / :func:`answer_temporal_query` — answer one NL query
  against a scenario through the full pipeline (synthesis → sandbox →
  evaluate), returning a :class:`QueryAnswer`;
* :func:`answer_queries` — the batch form: many (scenario, query, model,
  backend) cells as **one** fabric task set, dispatched under an
  :class:`~repro.exec.ExecutorPolicy`;
* :func:`ask` — the freeform path (any NL text against a generated
  application, no golden/evaluation);
* :func:`run_tasks` — re-exported fabric entry point.

The CLI subcommands and the HTTP handlers are thin argument parsers over
these functions, which is what makes the library/daemon duality real: an
answer computed here is *the* answer — the service, the CLI, and an
importing notebook cannot disagree, because they share this code path and
its worker-level memoization.

Every answer cell runs through the exact workers the benchmark sweeps use
(:func:`repro.benchmark.tasks.run_benchmark_cell` /
:func:`run_temporal_cell`), so facade answers are byte-identical to the
batch benchmark's verdicts for the same (scenario, query, model, backend).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from repro.benchmark.evaluator import EvaluationRecord, normalize_value
from repro.benchmark.queries import (
    BenchmarkQuery,
    TemporalQuery,
    queries_for,
    temporal_queries_for,
)
from repro.benchmark.runner import BenchmarkConfig
from repro.benchmark.tasks import run_benchmark_cell, run_temporal_cell
from repro.exec import (
    ExecutorPolicy,
    Task,
    TaskSet,
    run_tasks,
    worker_context,
)
from repro.utils.hashing import stable_hash
from repro.utils.validation import ValidationError, require, require_in

if TYPE_CHECKING:  # the scenario package is imported on first use
    from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "API_CELL_WORKER",
    "QueryAnswer",
    "QuerySpec",
    "answer_queries",
    "answer_query",
    "answer_temporal_query",
    "ask",
    "list_scenarios",
    "load_scenario",
    "resolve_query",
    "run_tasks",
]

#: dotted-path reference resolved inside worker processes/threads
API_CELL_WORKER = "repro.api:run_api_cell"

#: answering paths for static scenario queries (full codegen backends; the
#: strawman needs the shrunken traffic graph, which scenarios don't model)
STATIC_BACKENDS = ("sql", "pandas", "networkx")

DEFAULT_MODEL = "gpt-4"
DEFAULT_STATIC_BACKEND = "networkx"
DEFAULT_TEMPORAL_BACKEND = "direct"


# ---------------------------------------------------------------------------
# scenario corpus
# ---------------------------------------------------------------------------
def load_scenario(scenario):
    """Resolve a scenario name (or pass through a spec) to a validated
    :class:`~repro.scenarios.spec.ScenarioSpec`."""
    from repro.scenarios.overlay import resolve_spec

    return resolve_spec(scenario)


def _static_corpus_name(spec) -> str:
    return "malt" if spec.family == "malt" else "traffic_analysis"


def scenario_document(spec) -> Dict[str, Any]:
    """JSON-safe description of one scenario and the queries it can answer."""
    spec = _scenario_record(spec).spec
    return {
        "name": spec.name,
        "family": spec.family,
        "description": spec.description,
        "events": len(spec.events),
        "queries": {
            "static": [query.query_id
                       for query in queries_for(_static_corpus_name(spec))],
            "temporal": [query.query_id
                         for query in temporal_queries_for(spec.name)],
        },
    }


def list_scenarios() -> List[Dict[str, Any]]:
    """Every registered scenario as a :func:`scenario_document`."""
    from repro.scenarios.registry import scenario_names

    return [scenario_document(name) for name in scenario_names()]


# ---------------------------------------------------------------------------
# query resolution
# ---------------------------------------------------------------------------
def _normalize_text(text: str) -> str:
    return " ".join(text.casefold().replace("?", " ").replace("!", " ")
                    .replace(".", " ").split())


def resolve_query(spec, query: str) -> Union[BenchmarkQuery, TemporalQuery]:
    """Resolve *query* — a corpus id or natural-language text — for a scenario.

    Ids (``ta-m5``, ``tq-3``) match exactly; free text matches the corpus
    query whose normalized wording (case/punctuation-insensitive) equals it.
    The searched corpus is the scenario's static family corpus plus the
    temporal queries targeting the scenario, so one resolver serves both
    answering paths.
    """
    return _resolve_query(_scenario_record(spec).spec, query)


def _resolve_query(spec, query: str) -> Union[BenchmarkQuery, TemporalQuery]:
    """:func:`resolve_query` for an already-resolved *spec*."""
    candidates: List[Union[BenchmarkQuery, TemporalQuery]] = list(
        queries_for(_static_corpus_name(spec))) + list(
        temporal_queries_for(spec.name))
    for candidate in candidates:
        if candidate.query_id == query:
            return candidate
    wanted = _normalize_text(query)
    for candidate in candidates:
        if _normalize_text(candidate.text) == wanted:
            return candidate
    raise ValidationError(
        f"unknown query {query!r} for scenario {spec.name!r}: pass a corpus "
        f"query id or the exact text of one (see 'repro queries')")


# ---------------------------------------------------------------------------
# the answer value object
# ---------------------------------------------------------------------------
@dataclass
class QuerySpec:
    """One (scenario, query, model, backend) answer request."""

    #: a registered scenario's name, or a spec of the caller's own
    scenario: Union[str, ScenarioSpec]
    query: str
    model: str = DEFAULT_MODEL
    #: ``None`` picks the kind's default (networkx / direct)
    backend: Optional[str] = None


@dataclass
class QueryAnswer:
    """The outcome of answering one query against one scenario."""

    scenario: str
    query_id: str
    query_text: str
    #: ``static`` (single replayed graph) or ``temporal`` (whole timeline)
    kind: str
    model: str
    backend: str
    passed: bool
    #: the produced answer in golden-normalized shape: the golden value when
    #: the cell passed, the (wrong) produced value on a compare failure,
    #: ``None`` when the pipeline failed before producing a value
    answer: Any = None
    failure_stage: Optional[str] = None
    failure_reason: Optional[str] = None
    cost_usd: float = 0.0
    cached: bool = False
    duration_s: float = 0.0
    #: the full benchmark verdict backing this answer
    record: Optional[EvaluationRecord] = field(default=None, repr=False)

    def to_document(self) -> Dict[str, Any]:
        """JSON-safe form (what ``POST /query`` returns)."""
        return {
            "scenario": self.scenario,
            "query_id": self.query_id,
            "query": self.query_text,
            "kind": self.kind,
            "model": self.model,
            "backend": self.backend,
            "passed": self.passed,
            "answer": self.answer,
            "failure_stage": self.failure_stage,
            "failure_reason": self.failure_reason,
            "cost_usd": self.cost_usd,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 6),
        }


# ---------------------------------------------------------------------------
# the answer cell worker
# ---------------------------------------------------------------------------
def _api_cell_task(record, resolved, model: str, backend: str,
                   config_payload: Dict[str, Any]) -> Task:
    """One answer cell over a :class:`~repro.scenarios.registry.ScenarioRecord`.

    The payload shares the record's spec dict (workers never edit payloads)
    and, for temporal cells, carries its hash as ``spec_hash``.
    """
    name = record.spec.name
    kind = "temporal" if isinstance(resolved, TemporalQuery) else "static"
    if kind == "temporal":
        payload = {"kind": kind, "config": config_payload,
                   "spec": record.spec_dict, "spec_hash": record.spec_hash,
                   "query_id": resolved.query_id,
                   "model": model, "backend": backend}
        group = f"temporal/{name}"
    else:
        payload = {"kind": kind, "config": config_payload,
                   "app": {"kind": "scenario", "spec": record.spec_dict},
                   "backend": backend, "query_id": resolved.query_id,
                   "model": model}
        group = f"api/scenario/{name}"
    return Task(key=f"api/{name}/{kind}/{backend}/{resolved.query_id}/{model}",
                fn=API_CELL_WORKER, payload=payload, group=group)


def _golden_answer_static(payload: Dict[str, Any]) -> Any:
    """The normalized golden for a passed static cell, via the same
    worker-context memos :func:`run_benchmark_cell` populated."""
    from repro.benchmark.runner import BenchmarkRunner
    from repro.benchmark.queries import query_by_id
    from repro.benchmark.tasks import _build_application

    application = worker_context(
        ("benchmark-application", stable_hash(payload["config"], payload["app"])),
        lambda: _build_application(payload["config"], payload["app"]))
    runner = worker_context(
        ("benchmark-runner", stable_hash(payload["config"])),
        lambda: BenchmarkRunner(BenchmarkConfig.from_payload(payload["config"])))
    query = query_by_id(payload["query_id"])
    golden = runner.goldens.golden_for(query, application.graph)
    return normalize_value(golden.value)


def _golden_answer_temporal(payload: Dict[str, Any]) -> Any:
    from repro.benchmark.goldens import TemporalGoldenSelector
    from repro.benchmark.queries import temporal_query_by_id
    from repro.benchmark.tasks import _replay_timeline

    timeline = worker_context(("scenario-timeline", payload["spec_hash"]),
                              lambda: _replay_timeline(payload["spec"]))
    selector = worker_context(("temporal-golden-selector",), TemporalGoldenSelector)
    query = temporal_query_by_id(payload["query_id"])
    return normalize_value(selector.golden_for(query, timeline).value)


def run_api_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: answer one facade cell — the benchmark verdict plus the value.

    Delegates to the exact benchmark workers (so the verdict is the
    benchmark's verdict), then derives the *answer value* clients actually
    asked for: a passed cell answers with the normalized golden (what the
    generated program produced, by definition of passing), a compare
    failure answers with the wrong value the program produced, and an
    earlier-stage failure has no value at all.
    """
    inner = {key: value for key, value in payload.items() if key != "kind"}
    if payload["kind"] == "temporal":
        record = run_temporal_cell(inner)
        golden = _golden_answer_temporal(inner)
    else:
        record = run_benchmark_cell(inner)
        golden = _golden_answer_static(inner)
    if record.passed:
        answer = golden
    elif record.failure_stage == "compare":
        answer = record.details.get("actual_value")
    else:
        answer = None
    return {"record": record, "answer": answer}


# ---------------------------------------------------------------------------
# the facade entry points
# ---------------------------------------------------------------------------
def _default_backend(resolved) -> str:
    return (DEFAULT_TEMPORAL_BACKEND if isinstance(resolved, TemporalQuery)
            else DEFAULT_STATIC_BACKEND)


def _validate_backend(resolved, backend: str) -> None:
    from repro.llm.calibration import TEMPORAL_BACKENDS

    if isinstance(resolved, TemporalQuery):
        require_in(backend, TEMPORAL_BACKENDS, "temporal backend")
    else:
        require_in(backend, STATIC_BACKENDS, "backend")


def _scenario_record(scenario):
    """The registry record of a scenario name; a spec object gets a record
    of its own, so the caller's spec is never shared with a task."""
    from repro.scenarios.registry import ScenarioRecord, scenario_record

    if isinstance(scenario, str):
        return scenario_record(scenario)
    return ScenarioRecord.of(load_scenario(scenario))


def answer_queries(requests: Sequence[QuerySpec],
                   policy: Optional[ExecutorPolicy] = None,
                   config: Optional[BenchmarkConfig] = None) -> List[QueryAnswer]:
    """Answer a batch of requests as one fabric task set.

    Duplicate requests collapse to one cell (every copy receives the same
    answer), and results come back in request order whatever executor the
    *policy* resolves to.  A cell whose worker
    raised fails the batch with :class:`~repro.exec.TaskExecutionError`
    naming the cell and its error.
    """
    require(bool(requests), "answer_queries needs at least one request")
    config = config or BenchmarkConfig()
    config_payload = config.to_payload()

    task_set = TaskSet(name="api/answers")
    keys: List[str] = []
    resolved_by_key: Dict[str, Any] = {}
    for request in requests:
        record = _scenario_record(request.scenario)
        resolved = _resolve_query(record.spec, request.query)
        backend = request.backend or _default_backend(resolved)
        _validate_backend(resolved, backend)
        task = _api_cell_task(record, resolved, request.model, backend,
                              config_payload)
        if task.key not in resolved_by_key:
            task_set.add(task)
            resolved_by_key[task.key] = (record.spec.name, resolved,
                                         request.model, backend)
        keys.append(task.key)

    report = run_tasks(task_set, policy=policy)
    report.raise_on_error()
    results = {result.key: result for result in report.results}
    answers: List[QueryAnswer] = []
    for key in keys:
        result = results[key]
        scenario, resolved, model, backend = resolved_by_key[key]
        value = result.value
        record: EvaluationRecord = value["record"]
        answers.append(QueryAnswer(
            scenario=scenario,
            query_id=resolved.query_id,
            query_text=resolved.text,
            kind="temporal" if isinstance(resolved, TemporalQuery) else "static",
            model=model,
            backend=backend,
            passed=record.passed,
            answer=value["answer"],
            failure_stage=record.failure_stage,
            failure_reason=record.failure_reason,
            cost_usd=record.cost_usd,
            cached=result.cached,
            duration_s=result.duration_s,
            record=record,
        ))
    return answers


def answer_query(scenario, query: str, model: str = DEFAULT_MODEL,
                 backend: Optional[str] = None,
                 policy: Optional[ExecutorPolicy] = None,
                 config: Optional[BenchmarkConfig] = None) -> QueryAnswer:
    """Answer one query (corpus id or NL text) against one scenario."""
    return answer_queries(
        [QuerySpec(scenario=scenario, query=query, model=model, backend=backend)],
        policy=policy, config=config)[0]


def answer_temporal_query(scenario, query: str, model: str = DEFAULT_MODEL,
                          backend: str = DEFAULT_TEMPORAL_BACKEND,
                          policy: Optional[ExecutorPolicy] = None,
                          config: Optional[BenchmarkConfig] = None) -> QueryAnswer:
    """Answer one temporal query over a scenario's replayed timeline."""
    resolved = resolve_query(scenario, query)
    require(isinstance(resolved, TemporalQuery),
            f"query {resolved.query_id!r} is not a temporal query; "
            f"use answer_query() for static corpus queries")
    return answer_query(scenario, resolved.query_id, model=model,
                        backend=backend, policy=policy, config=config)


def ask(query: str, application: str = "traffic",
        backend: str = DEFAULT_STATIC_BACKEND, model: str = DEFAULT_MODEL,
        nodes: int = 40, edges: int = 40):
    """Answer freeform NL text against a generated application.

    The exploratory path: no golden, no evaluation — just the pipeline
    (prompt → provider → extract → sandbox) and its
    :class:`~repro.core.pipeline.PipelineResult`.
    """
    from repro.core import NetworkManagementPipeline
    from repro.llm import create_provider
    from repro.malt import MaltApplication
    from repro.traffic import TrafficAnalysisApplication

    require_in(application, ("traffic", "malt"), "application")
    if application == "traffic":
        app = TrafficAnalysisApplication.with_size(nodes, edges)
    else:
        app = MaltApplication.small()
    provider = create_provider(model)
    pipeline = NetworkManagementPipeline(app, provider, backend)
    return pipeline.run_query(query)
