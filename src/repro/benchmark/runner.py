"""The benchmark runner: regenerate the paper's accuracy tables.

The runner wires every piece together: for each (model, backend, query) it
builds the application, runs the pipeline, evaluates against the golden
answer, classifies failures, and aggregates accuracy per complexity level —
which is exactly the content of the paper's Tables 2, 3, 4 and 5.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.benchmark.evaluator import EvaluationRecord, ResultsEvaluator
from repro.benchmark.goldens import GoldenAnswerSelector
from repro.benchmark.logger import ResultsLogger
from repro.benchmark.tasks import benchmark_cell_task, temporal_cell_task
from repro.benchmark.queries import (
    BenchmarkQuery,
    COMPLEXITY_LEVELS,
    bucket_size,
    queries_for,
    temporal_queries_for,
    temporal_scenario_names,
)
from repro.core.application import NetworkApplication
from repro.core.pipeline import NetworkManagementPipeline, QueryRequest
from repro.exec import (
    ExecutorPolicy,
    RunReport,
    TaskSet,
    run_tasks,
)
from repro.llm.calibration import CalibrationTable
from repro.llm.catalog import DEFAULT_MODELS, create_provider
from repro.malt import MaltApplication, MaltTopologyConfig
from repro.obs import span
from repro.traffic import CommunicationGraphConfig, TrafficAnalysisApplication
from repro.utils.tables import format_table
from repro.utils.validation import require


#: backends compared for each application (the paper only runs the strawman
#: on traffic analysis, where the graph size can be kept inside the window)
TRAFFIC_BACKENDS = ("strawman", "sql", "pandas", "networkx")
MALT_BACKENDS = ("sql", "pandas", "networkx")


def _plain(value: Any) -> bool:
    """True when *value* is scalars (``None``, bool, number, str) in lists,
    tuples, sets and dicts: the evaluator's normalized copy of it, which
    copies every container, then refers to nothing else."""
    if isinstance(value, (list, tuple, set, frozenset)):
        return all(map(_plain, value))
    if isinstance(value, dict):
        return all(map(_plain, value)) and all(map(_plain, value.values()))
    return value is None or type(value) in (bool, int, float, str)


@dataclass
class BenchmarkConfig:
    """Knobs of one benchmark run."""

    models: Sequence[str] = tuple(DEFAULT_MODELS)
    traffic_node_count: int = 40
    traffic_edge_count: int = 40
    strawman_node_count: int = 10
    strawman_edge_count: int = 10
    malt_config: Optional[MaltTopologyConfig] = None
    seed: int = 7
    calibration: Optional[CalibrationTable] = None

    def traffic_application(self) -> TrafficAnalysisApplication:
        return TrafficAnalysisApplication(config=CommunicationGraphConfig(
            node_count=self.traffic_node_count, edge_count=self.traffic_edge_count,
            seed=self.seed))

    def strawman_application(self) -> TrafficAnalysisApplication:
        return TrafficAnalysisApplication(config=CommunicationGraphConfig(
            node_count=self.strawman_node_count, edge_count=self.strawman_edge_count,
            seed=self.seed))

    def malt_application(self) -> MaltApplication:
        return MaltApplication(config=self.malt_config)

    # ------------------------------------------------------------------
    # serialization: benchmark cells cross process boundaries as plain data
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-friendly dump of everything a worker needs to rebuild apps.

        ``models`` is deliberately excluded — each task names its model
        explicitly, so the model list never perturbs cache keys.
        """
        return {
            "traffic_node_count": self.traffic_node_count,
            "traffic_edge_count": self.traffic_edge_count,
            "strawman_node_count": self.strawman_node_count,
            "strawman_edge_count": self.strawman_edge_count,
            "malt_config": asdict(self.malt_config) if self.malt_config else None,
            "seed": self.seed,
            "calibration": self.calibration.to_dict() if self.calibration else None,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "BenchmarkConfig":
        malt_config = None
        if payload.get("malt_config") is not None:
            fields_ = dict(payload["malt_config"])
            for tuple_field in ("switch_capacities_gbps", "vendors", "port_speeds_gbps"):
                if tuple_field in fields_:
                    fields_[tuple_field] = tuple(fields_[tuple_field])
            malt_config = MaltTopologyConfig(**fields_)
        calibration = None
        if payload.get("calibration") is not None:
            calibration = CalibrationTable.from_dict(payload["calibration"])
        return cls(
            traffic_node_count=payload["traffic_node_count"],
            traffic_edge_count=payload["traffic_edge_count"],
            strawman_node_count=payload["strawman_node_count"],
            strawman_edge_count=payload["strawman_edge_count"],
            malt_config=malt_config,
            seed=payload["seed"],
            calibration=calibration,
        )


@dataclass
class AccuracyReport:
    """Aggregated accuracy for one application."""

    application: str
    backends: Sequence[str]
    models: Sequence[str]
    logger: ResultsLogger = field(default_factory=ResultsLogger)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Paper Table 2 content: model -> backend -> overall accuracy."""
        table: Dict[str, Dict[str, float]] = {}
        for model in self.models:
            table[model] = {}
            for backend in self.backends:
                table[model][backend] = self.logger.accuracy(model=model, backend=backend)
        return table

    def breakdown(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Paper Tables 3/4 content: model -> backend -> complexity -> accuracy."""
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for model in self.models:
            table[model] = {}
            for backend in self.backends:
                per_complexity = {}
                for complexity in COMPLEXITY_LEVELS:
                    records = [r for r in self.logger.filtered(model=model, backend=backend)
                               if r.complexity == complexity]
                    per_complexity[complexity] = (
                        sum(1 for r in records if r.passed) / len(records) if records else 0.0)
                table[model][backend] = per_complexity
        return table

    def error_type_counts(self, backend: str = "networkx") -> Dict[str, int]:
        """Paper Table 5 content for one backend."""
        return self.logger.error_type_counts(backend=backend)

    # ------------------------------------------------------------------
    def render_summary(self) -> str:
        from repro.benchmark.logger import accuracy_cell

        rows = []
        summary = self.summary()
        for model in self.models:
            rows.append([model] + [accuracy_cell(summary[model][backend])
                                   for backend in self.backends])
        return format_table(["model"] + list(self.backends), rows,
                            title=f"Accuracy summary — {self.application}")

    def render_breakdown(self) -> str:
        rows = []
        breakdown = self.breakdown()
        for model in self.models:
            for backend in self.backends:
                cell = breakdown[model][backend]
                rows.append([model, backend] + [cell[c] for c in COMPLEXITY_LEVELS])
        return format_table(["model", "backend"] + list(COMPLEXITY_LEVELS), rows,
                            title=f"Accuracy by complexity — {self.application}")


@dataclass
class TemporalAccuracyReport:
    """Aggregated temporal accuracy, grouped per scenario, backend and
    snapshot.  ``backends`` lists the answering paths swept: ``direct``
    (straight from the timeline) and/or the timeline-aware codegen backends
    (``frames``/``networkx``)."""

    scenarios: Sequence[str]
    models: Sequence[str]
    backends: Sequence[str] = ("direct",)
    #: scenario -> ordered (snapshot time, digest) pairs of its replay
    snapshots: Dict[str, List[Tuple[float, str]]] = field(default_factory=dict)
    logger: ResultsLogger = field(default_factory=ResultsLogger)

    # ------------------------------------------------------------------
    def _records(self, model: Optional[str] = None,
                 scenario: Optional[str] = None,
                 backend: Optional[str] = None) -> List[EvaluationRecord]:
        selected = self.logger.records
        if model is not None:
            selected = [r for r in selected if r.model == model]
        if scenario is not None:
            selected = [r for r in selected
                        if r.details.get("scenario") == scenario]
        if backend is not None:
            selected = [r for r in selected if r.backend == backend]
        return selected

    @staticmethod
    def _accuracy(records: List[EvaluationRecord]) -> float:
        if not records:
            return 0.0
        return sum(1 for r in records if r.passed) / len(records)

    def summary(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """model -> backend -> scenario -> accuracy over the temporal corpus."""
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for model in self.models:
            table[model] = {}
            for backend in self.backends:
                table[model][backend] = {
                    scenario: self._accuracy(self._records(model, scenario, backend))
                    for scenario in self.scenarios}
        return table

    def backend_summary(self) -> Dict[str, Dict[str, float]]:
        """model -> backend -> overall accuracy (the codegen-vs-direct view)."""
        table: Dict[str, Dict[str, float]] = {}
        for model in self.models:
            table[model] = {backend: self._accuracy(self._records(model, backend=backend))
                            for backend in self.backends}
        return table

    def snapshot_breakdown(self, scenario: str,
                           backend: Optional[str] = None,
                           ) -> List[Dict[str, object]]:
        """Per-snapshot accuracy rows for one scenario.

        Each temporal query anchors at the latest snapshot its text
        references (whole-timeline questions anchor at the final snapshot);
        a row aggregates every (query, model) cell anchored there — of one
        answering *backend* when given, of all swept backends otherwise.
        """
        rows: List[Dict[str, object]] = []
        for time, digest in self.snapshots.get(scenario, []):
            anchored = [r for r in self._records(scenario=scenario,
                                                 backend=backend)
                        if r.details.get("anchor_time") == time]
            if not anchored:
                continue
            rows.append({
                "time": time,
                "digest": digest,
                "queries": sorted({r.query_id for r in anchored}),
                "cells": len(anchored),
                "accuracy": self._accuracy(anchored),
            })
        return rows

    # ------------------------------------------------------------------
    def render_summary(self) -> str:
        rows = []
        summary = self.summary()
        for model in self.models:
            for backend in self.backends:
                rows.append([model, backend]
                            + [summary[model][backend][scenario]
                               for scenario in self.scenarios])
        return format_table(["model", "backend"] + list(self.scenarios), rows,
                            title="Temporal accuracy by scenario")

    def render_backend_summary(self) -> str:
        rows = []
        summary = self.backend_summary()
        for model in self.models:
            rows.append([model] + [summary[model][backend]
                                   for backend in self.backends])
        return format_table(["model"] + list(self.backends), rows,
                            title="Temporal accuracy by backend")

    def render_snapshot_tables(self) -> str:
        """One per-snapshot table per scenario; multi-backend runs break
        each snapshot down per answering backend so a row's accuracy always
        describes a single path."""
        blocks = []
        for scenario in self.scenarios:
            if len(self.backends) == 1:
                rows = [[row["time"], row["digest"], ", ".join(row["queries"]),
                         row["cells"], row["accuracy"]]
                        for row in self.snapshot_breakdown(scenario)]
                headers = ["time", "digest", "queries", "cells", "accuracy"]
            else:
                rows = [[row["time"], backend, row["digest"],
                         ", ".join(row["queries"]), row["cells"],
                         row["accuracy"]]
                        for backend in self.backends
                        for row in self.snapshot_breakdown(scenario, backend)]
                rows.sort(key=lambda row: row[0])
                headers = ["time", "backend", "digest", "queries", "cells",
                           "accuracy"]
            blocks.append(format_table(
                headers, rows, title=f"Per-snapshot accuracy — {scenario}"))
        return "\n\n".join(blocks)


class BenchmarkRunner:
    """Run NeMoEval end to end for one or both applications.

    Sweeps (``run_application``, ``run_scenario``, ``run_scenario_suite``)
    are dispatched through the :mod:`repro.exec` fabric: every (application,
    backend, query, model) cell becomes a task, executed under *policy* —
    serially in-process or on a process pool — with results folded back in
    task order, so the produced tables are byte-identical regardless of the
    executor or cache state.
    """

    def __init__(self, config: Optional[BenchmarkConfig] = None,
                 policy: Optional[ExecutorPolicy] = None) -> None:
        self.config = config or BenchmarkConfig()
        self.policy = policy or ExecutorPolicy.serial()
        self.evaluator = ResultsEvaluator()
        self.goldens = GoldenAnswerSelector()
        #: telemetry of the most recent fabric dispatch (None before any sweep)
        self.last_run_report: Optional[RunReport] = None

    # ------------------------------------------------------------------
    def _dispatch(self, task_set: TaskSet) -> List[EvaluationRecord]:
        """Run a task set through the fabric; cell failures raise loudly."""
        with span("benchmark.dispatch", attrs={"task_set": task_set.name,
                                               "tasks": len(task_set)}):
            run_report = run_tasks(task_set, policy=self.policy)
        self.last_run_report = run_report
        records = run_report.values()  # raises TaskExecutionError on any failure
        # thread cache provenance into the records so saved result logs can
        # report cache effectiveness; the flag is telemetry — it is set
        # *after* fresh results were persisted, so cached entries themselves
        # never carry it and rendered tables never read it
        for result, record in zip(run_report.results, records):
            if isinstance(record, EvaluationRecord):
                record.cached = result.cached
        return records

    # ------------------------------------------------------------------
    def run_query(self, application: NetworkApplication, query: BenchmarkQuery,
                  model: str, backend: str, attempt: int = 0,
                  feedback: Optional[str] = None) -> EvaluationRecord:
        """Run one (query, model, backend) cell and evaluate it."""
        with span("benchmark.cell", attrs={"query": query.query_id,
                                           "model": model, "backend": backend}):
            provider = create_provider(model, calibration=self.config.calibration)
            # the simulated models' programs come from their finite
            # template and fault tables: validate and compile each once
            pipeline = NetworkManagementPipeline(application, provider, backend,
                                                 cache_code=True)
            metadata = query.metadata(bucket_size(query.application, query.complexity))
            request = QueryRequest(query=query.text, backend=backend, metadata=metadata,
                                   attempt=attempt, feedback=feedback)
            pipeline_result = pipeline.run(request)
            with span("benchmark.evaluate", attrs={"query": query.query_id}):
                with span("benchmark.golden", attrs={"query": query.query_id}):
                    golden = self.goldens.golden_for(query, application.graph)
                record = self.evaluator.evaluate(query, model, pipeline_result, golden,
                                                 application.graph)
            # the record keeps normalized copies of the result, so a plain
            # result leaves it nothing that refers into the view
            if _plain(pipeline_result.result_value):
                pipeline.recycle_view(pipeline_result)
            return record

    # ------------------------------------------------------------------
    def run_application(self, application_name: str,
                        backends: Optional[Sequence[str]] = None,
                        models: Optional[Sequence[str]] = None) -> AccuracyReport:
        """Run every query of one application for all models and backends."""
        models = list(models or self.config.models)
        if backends is None:
            backends = TRAFFIC_BACKENDS if application_name == "traffic_analysis" else MALT_BACKENDS
        report = AccuracyReport(application=application_name, backends=list(backends),
                                models=models)

        with span("benchmark.suite", attrs={"application": application_name,
                                            "models": len(models)}):
            config_payload = self.config.to_payload()
            task_set = TaskSet(name=f"benchmark/{application_name}")
            for backend in backends:
                # the paper only runs the strawman's shrunken graph on traffic
                # analysis; a MALT strawman sweep keeps the full MALT state
                if backend == "strawman" and application_name == "traffic_analysis":
                    app_context = {"kind": "strawman"}
                else:
                    app_context = {"kind": "generated", "application": application_name}
                for query in queries_for(application_name):
                    for model in models:
                        task_set.add(benchmark_cell_task(
                            application_name, config_payload, app_context,
                            backend, query.query_id, model))
            for record in self._dispatch(task_set):
                report.logger.log(record)
        return report

    def run_all(self) -> Dict[str, AccuracyReport]:
        """Run both applications (the full paper evaluation)."""
        return {
            "traffic_analysis": self.run_application("traffic_analysis"),
            "malt": self.run_application("malt"),
        }

    # ------------------------------------------------------------------
    # scenario sweeps
    # ------------------------------------------------------------------
    def _add_scenario_tasks(self, task_set: TaskSet, spec, backends, queries,
                            models) -> int:
        """Append one task per (backend, query, model) cell of one scenario."""
        config_payload = self.config.to_payload()
        app_context = {"kind": "scenario", "spec": spec.to_dict()}
        added = 0
        for backend in backends:
            for query in queries:
                for model in models:
                    task_set.add(benchmark_cell_task(
                        f"scenario:{spec.name}", config_payload, app_context,
                        backend, query.query_id, model))
                    added += 1
        return added

    def run_scenario_suite(self, suite=None, models: Optional[Sequence[str]] = None,
                           backends: Sequence[str] = ("networkx",),
                           queries: Optional[Sequence[BenchmarkQuery]] = None,
                           ) -> Dict[str, AccuracyReport]:
        """Sweep a whole scenario suite; scenario name -> accuracy report.

        The whole suite becomes **one** task set, so with a parallel
        executor the sweep scales across scenarios as well as across the
        cells inside each scenario.
        """
        from repro.scenarios.overlay import resolve_spec
        from repro.scenarios.suite import default_suite

        if suite is None:
            suite = default_suite()
        suite.validate()
        models = list(models or self.config.models)

        task_set = TaskSet(name=f"benchmark/suite/{suite.name}")
        reports: Dict[str, AccuracyReport] = {}
        owners: List[str] = []
        for spec in suite.scenarios:
            spec = resolve_spec(spec)
            scenario_queries = (queries if queries is not None else queries_for(
                "malt" if spec.family == "malt" else "traffic_analysis"))
            reports[spec.name] = AccuracyReport(
                application=f"scenario:{spec.name}", backends=list(backends),
                models=models)
            added = self._add_scenario_tasks(task_set, spec, backends,
                                             scenario_queries, models)
            owners.extend([spec.name] * added)

        for owner, record in zip(owners, self._dispatch(task_set)):
            reports[owner].logger.log(record)
        return reports

    # ------------------------------------------------------------------
    # temporal sweeps
    # ------------------------------------------------------------------
    def run_temporal_suite(self, scenarios: Optional[Sequence[str]] = None,
                           models: Optional[Sequence[str]] = None,
                           backends: Sequence[str] = ("direct",),
                           ) -> TemporalAccuracyReport:
        """Answer the temporal query corpus over replayed scenario timelines.

        Every (scenario, temporal query, model, backend) cell becomes one
        fabric task whose worker replays the scenario (memoized per
        process), computes the temporal golden from the timeline's
        snapshots and diffs, and evaluates the model's answer against it —
        directly from the timeline for the ``direct`` backend, or by
        emitting and sandbox-executing a timeline-aware program for the
        ``frames``/``networkx`` backends.  Results fold back in task order,
        so serial and parallel sweeps produce byte-identical tables.
        """
        from repro.llm.calibration import TEMPORAL_BACKENDS
        from repro.scenarios.engine import replay_scenario
        from repro.scenarios.registry import scenario_record
        from repro.utils.validation import require_in

        scenarios = list(scenarios or temporal_scenario_names())
        models = list(models or self.config.models)
        # order-preserving dedupe: a repeated backend would produce duplicate
        # task keys and abort the whole sweep at TaskSet validation
        backends = list(dict.fromkeys(backends))
        for backend in backends:
            require_in(backend, TEMPORAL_BACKENDS, "temporal backend")
        report = TemporalAccuracyReport(scenarios=scenarios, models=models,
                                        backends=backends)

        with span("benchmark.suite", attrs={"kind": "temporal",
                                            "scenarios": len(scenarios)}):
            config_payload = self.config.to_payload()
            task_set = TaskSet(name="benchmark/temporal")
            for scenario in scenarios:
                registered = scenario_record(scenario)
                queries = temporal_queries_for(scenario)
                require(bool(queries),
                        f"no temporal queries target scenario {scenario!r}; "
                        f"temporal scenarios: {temporal_scenario_names()}")
                timeline = replay_scenario(registered.spec)
                report.snapshots[scenario] = [
                    (snapshot.time, snapshot.digest) for snapshot in timeline.snapshots]
                for query in queries:
                    for model in models:
                        for backend in backends:
                            task_set.add(temporal_cell_task(
                                config_payload, registered, query.query_id, model,
                                backend))
            for record in self._dispatch(task_set):
                report.logger.log(record)
        return report
