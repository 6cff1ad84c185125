"""Per-query cost accounting and the graph-size scalability sweep."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchmark.queries import BenchmarkQuery, traffic_queries
from repro.core.prompts import build_prompt
from repro.cost.tasks import scalability_task, scenario_cost_task
from repro.exec import ExecutorPolicy, RunReport, TaskSet, run_tasks
from repro.llm.catalog import create_provider
from repro.llm.pricing import DEFAULT_PRICING, PricingTable
from repro.llm.tokenizer import count_tokens
from repro.traffic import CommunicationGraphConfig, TrafficAnalysisApplication
from repro.utils.tables import format_cdf
from repro.utils.validation import require_positive


#: assumed completion size (tokens) for a code answer; generated programs in
#: this repository are well under this and the figure is insensitive to it
DEFAULT_COMPLETION_TOKENS = 250


@dataclass
class QueryCost:
    """Token and dollar cost of answering one query one way."""

    query_id: str
    backend: str
    model: str
    prompt_tokens: int
    completion_tokens: int
    cost_usd: float
    within_token_limit: bool = True


@dataclass
class CostCdf:
    """Empirical CDF of per-query cost for one approach."""

    backend: str
    costs: List[float] = field(default_factory=list)

    def points(self, num_points: int = 20) -> List[tuple]:
        return format_cdf(self.costs, num_points)

    @property
    def mean(self) -> float:
        return sum(self.costs) / len(self.costs) if self.costs else 0.0

    @property
    def max(self) -> float:
        return max(self.costs) if self.costs else 0.0


@dataclass
class ScenarioCostPoint:
    """Per-query cost of one scenario's replayed network state."""

    scenario: str
    family: str
    graph_size: int                     # nodes + edges of the final state
    codegen_cost_usd: float
    strawman_cost_usd: Optional[float]  # None once the prompt exceeds the window
    strawman_within_limit: bool


@dataclass
class ScalabilityPoint:
    """Cost at one graph size (Figure 4b has one of these per x-value)."""

    graph_size: int                     # nodes + edges
    codegen_cost_usd: float
    strawman_cost_usd: Optional[float]  # None once the prompt exceeds the window
    strawman_within_limit: bool


@dataclass
class ScalabilitySweep:
    """The full Figure-4b series."""

    model: str
    points: List[ScalabilityPoint] = field(default_factory=list)

    def strawman_limit_size(self) -> Optional[int]:
        """The smallest graph size at which the strawman exceeds the window."""
        for point in self.points:
            if not point.strawman_within_limit:
                return point.graph_size
        return None


class CostAnalyzer:
    """Compute Figure 4a (cost CDF) and Figure 4b (cost vs graph size).

    The sweep methods (``scalability_sweep``, ``scenario_cost_sweep``)
    dispatch their per-size / per-scenario cells through the
    :mod:`repro.exec` fabric, so they parallelize and cache under the same
    determinism contract as the benchmark runner: identical figures whether
    run serially, on a process pool, or from cache.
    """

    def __init__(self, model: str = "gpt-4", pricing: Optional[PricingTable] = None,
                 completion_tokens: int = DEFAULT_COMPLETION_TOKENS,
                 policy: Optional[ExecutorPolicy] = None) -> None:
        require_positive(completion_tokens, "completion_tokens")
        self.model = model
        self.pricing = pricing or DEFAULT_PRICING
        self.completion_tokens = completion_tokens
        self.policy = policy or ExecutorPolicy.serial()
        #: telemetry of the most recent fabric dispatch (None before any sweep)
        self.last_run_report: Optional[RunReport] = None
        self._provider = create_provider(model)

    # ------------------------------------------------------------------
    def _dispatch(self, task_set: TaskSet) -> List:
        run_report = run_tasks(task_set, policy=self.policy)
        self.last_run_report = run_report
        return run_report.values()  # raises TaskExecutionError on any failure

    # ------------------------------------------------------------------
    def query_cost(self, application: TrafficAnalysisApplication,
                   query: BenchmarkQuery, backend: str) -> QueryCost:
        """Cost of answering one query against one backend."""
        prompt = build_prompt(application, query.text, backend)
        prompt_tokens = count_tokens(prompt.text)
        within_limit = prompt_tokens <= self._provider.context_window
        cost = self.pricing.cost(self.model, prompt_tokens, self.completion_tokens)
        return QueryCost(
            query_id=query.query_id,
            backend=backend,
            model=self.model,
            prompt_tokens=prompt_tokens,
            completion_tokens=self.completion_tokens,
            cost_usd=cost,
            within_token_limit=within_limit,
        )

    # ------------------------------------------------------------------
    def cost_cdf(self, node_count: int = 40, edge_count: int = 40,
                 backends: Sequence[str] = ("networkx", "strawman"),
                 queries: Optional[Sequence[BenchmarkQuery]] = None,
                 seed: int = 7) -> Dict[str, CostCdf]:
        """Figure 4a: per-query cost distribution at a fixed graph size."""
        application = TrafficAnalysisApplication(config=CommunicationGraphConfig(
            node_count=node_count, edge_count=edge_count, seed=seed))
        queries = list(queries or traffic_queries())
        cdfs: Dict[str, CostCdf] = {}
        for backend in backends:
            cdf = CostCdf(backend=backend)
            for query in queries:
                cdf.costs.append(self.query_cost(application, query, backend).cost_usd)
            cdfs[backend] = cdf
        return cdfs

    # ------------------------------------------------------------------
    def scalability_sweep(self, graph_sizes: Sequence[int] = (40, 80, 120, 160, 200, 300, 400),
                          query: Optional[BenchmarkQuery] = None,
                          seed: int = 7) -> ScalabilitySweep:
        """Figure 4b: code-gen vs strawman cost as the graph grows.

        ``graph_sizes`` are total sizes (nodes + edges); each size is split
        evenly between nodes and edges, matching the paper's x-axis.
        """
        query = query or traffic_queries()[12]  # the color-by-prefix example query
        task_set = TaskSet(name=f"cost/scalability/{self.model}")
        for size in graph_sizes:
            task_set.add(scalability_task(self, size, seed, query.query_id))
        return ScalabilitySweep(model=self.model, points=self._dispatch(task_set))

    # ------------------------------------------------------------------
    def scenario_cost_sweep(self, scenarios: Optional[Sequence] = None,
                            query: Optional[BenchmarkQuery] = None,
                            ) -> List[ScenarioCostPoint]:
        """Cost scaling across topology families (the Figure-4b axis widened).

        Each scenario (a :class:`repro.scenarios.ScenarioSpec` or registered
        name) is replayed, its final state is annotated with the traffic
        schema, and the code-gen versus strawman cost of a representative
        query is computed — showing how the strawman penalty varies across
        structurally different families, not just graph sizes.
        """
        from repro.benchmark.queries import malt_queries
        from repro.scenarios.overlay import resolve_spec
        from repro.scenarios.suite import default_suite

        if scenarios is None:
            scenarios = default_suite().scenarios
        traffic_query = query or traffic_queries()[12]  # the color-by-prefix query
        malt_query = query or malt_queries()[0]
        task_set = TaskSet(name=f"cost/scenarios/{self.model}")
        for spec in scenarios:
            spec = resolve_spec(spec)
            representative = malt_query if spec.family == "malt" else traffic_query
            task_set.add(scenario_cost_task(self, spec, representative.query_id))
        return self._dispatch(task_set)
