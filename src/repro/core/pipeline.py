"""End-to-end query pipeline (the full loop of the paper's Figure 2).

For one natural-language query the pipeline builds the prompt, calls the
(simulated) LLM, extracts the code from the response, runs it in the
execution sandbox against the chosen backend representation, and converts the
mutated state back into a :class:`PropertyGraph` so the application wrapper —
or the benchmark evaluator — can inspect it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.core.application import NetworkApplication
from repro.core.codeblocks import extract_python_code, extract_sql_code
from repro.core.prompts import PromptBundle, build_prompt
from repro.graph import PropertyGraph
from repro.llm.base import LlmProvider, LlmRequest, LlmResponse, TokenLimitExceeded
from repro.obs import span
from repro.sandbox import ExecutionOutcome, ExecutionSandbox
from repro.sqlengine import SqlError
from repro.utils.validation import require_in


@dataclass
class QueryRequest:
    """One query to run through the pipeline."""

    query: str
    backend: str
    metadata: Dict[str, Any] = field(default_factory=dict)
    attempt: int = 0
    feedback: Optional[str] = None


@dataclass
class PipelineResult:
    """Everything produced while answering one query.

    With the networkx backend the code ran on ``view`` (unless it rebound
    ``G``), and ``result_value`` may refer into it.  The view is the
    result's own unless the result is given to
    :meth:`NetworkManagementPipeline.recycle_view`, after which the next
    query may write to it: neither it nor ``result_value`` may be used then.
    """

    request: QueryRequest
    prompt: Optional[PromptBundle] = None
    response: Optional[LlmResponse] = None
    code: str = ""
    execution: Optional[ExecutionOutcome] = None
    result_value: Any = None
    #: the state the code left in its view; it is the application's current
    #: graph, or shares rows with it (see ``NetworkApplication``), so read-only
    updated_graph: Optional[PropertyGraph] = None
    #: the networkx view the pipeline handed the code
    view: Any = None
    error_stage: Optional[str] = None    # "prompt", "llm", "extract", "execute"
    error_message: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        """True when code was produced and executed without an error."""
        return self.error_stage is None

    @property
    def cost_usd(self) -> float:
        return self.response.cost_usd if self.response else 0.0


def _fail_execute(result: PipelineResult, error: Exception,
                  outcome: ExecutionOutcome) -> None:
    """Score *error* as an execute-stage failure of *result*."""
    outcome.error_type = type(error).__name__
    outcome.error_message = str(error)
    result.execution = outcome
    result.error_stage = "execute"
    result.error_message = outcome.describe_error()


class NetworkManagementPipeline:
    """Wire an application, an LLM provider, and the sandbox together.

    With *cache_code*, generated Python is validated and compiled once per
    distinct source (``ExecutionSandbox.execute(cache_code=True)``).  Only
    callers whose sources come from a finite table may set it: the
    benchmark's simulated models render a fixed template and fault table,
    while freeform ``ask`` writes parsed values into the source.
    """

    def __init__(self, application: NetworkApplication, provider: LlmProvider,
                 backend: str, sandbox: Optional[ExecutionSandbox] = None,
                 cache_code: bool = False) -> None:
        require_in(backend, ("networkx", "pandas", "sql", "strawman"), "backend")
        self.application = application
        self.provider = provider
        self.backend = backend
        self.sandbox = sandbox or ExecutionSandbox()
        self.cache_code = cache_code

    # ------------------------------------------------------------------
    def run(self, request: QueryRequest) -> PipelineResult:
        """Answer one query end to end."""
        result = PipelineResult(request=request)
        metadata = dict(request.metadata)
        metadata.setdefault("backend", self.backend)
        metadata.setdefault("query", request.query)
        metadata.setdefault("application", self.application.name)

        with span("prompt.build"):
            result.prompt = build_prompt(self.application, request.query, self.backend,
                                         extra_metadata=metadata)
        llm_request = LlmRequest(prompt=result.prompt.text, metadata=result.prompt.metadata,
                                 attempt=request.attempt, feedback=request.feedback)
        try:
            result.response = self.provider.complete(llm_request)
        except TokenLimitExceeded as exc:
            result.error_stage = "llm"
            result.error_message = str(exc)
            return result

        if self.backend == "strawman":
            self._interpret_strawman(result)
            return result

        if self.backend == "sql":
            result.code = extract_sql_code(result.response.text)
        else:
            result.code = extract_python_code(result.response.text)
        if not result.code:
            result.error_stage = "extract"
            result.error_message = "the response contained no code"
            return result

        if self.backend == "sql":
            self._execute_sql(result)
        else:
            self._execute_python(result)
        return result

    def run_query(self, query: str, **metadata: Any) -> PipelineResult:
        """Convenience wrapper accepting a bare query string."""
        return self.run(QueryRequest(query=query, backend=self.backend, metadata=metadata))

    def recycle_view(self, result: PipelineResult) -> None:
        """Give the networkx view this pipeline handed *result*'s code back
        to the application for the next query
        (:meth:`NetworkApplication.recycle_networkx_view`), written or not,
        once the code's thread has stopped."""
        if result.view is not None and not result.execution.still_running:
            self.application.recycle_networkx_view(result.view)

    # ------------------------------------------------------------------
    def _execute_python(self, result: PipelineResult) -> None:
        with span("graph.view"):
            if self.backend == "networkx":
                result.view = self.application.networkx_view()
                namespace: Dict[str, Any] = {"G": result.view}
            else:
                nodes_df, edges_df = self.application.frame_view()
                namespace = {"nodes_df": nodes_df, "edges_df": edges_df}

        outcome = self.sandbox.execute(result.code, namespace, cache_code=self.cache_code)
        result.execution = outcome
        if outcome.failed:
            result.error_stage = "execute"
            result.error_message = outcome.describe_error()
            return
        try:
            with span("graph.round_trip"):
                if self.backend == "networkx":
                    updated = self.application.read_networkx_view(outcome.namespace["G"])
                else:
                    updated = self.application.read_frame_view(
                        outcome.namespace["nodes_df"], outcome.namespace["edges_df"])
        except Exception as exc:  # noqa: BLE001 - a program can leave anything behind
            # a program that rebinds or breaks its view fails like one that raises
            _fail_execute(result, exc, replace(outcome, success=False))
            return
        result.result_value = outcome.result
        result.updated_graph = updated

    def _execute_sql(self, result: PipelineResult) -> None:
        with span("graph.view"):
            database = self.application.sql_view()
        statements = [stmt.strip() for stmt in result.code.split(";") if stmt.strip()]
        last_result = None
        try:
            with span("sql.execute"):
                for statement in statements:
                    returned = database.execute(statement)
                    if returned is not None:
                        last_result = returned
        except SqlError as exc:
            _fail_execute(result, exc, ExecutionOutcome(success=False))
            return
        result.execution = ExecutionOutcome(success=True, result=last_result)
        result.result_value = last_result
        with span("graph.round_trip"):
            result.updated_graph = self.application.read_sql_view(database)

    def _interpret_strawman(self, result: PipelineResult) -> None:
        """Parse the strawman's direct answer (JSON value and/or graph)."""
        from repro.graph.serialization import graph_from_dict

        text = result.response.text.strip()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            # a bare textual answer: keep it as the result value
            result.result_value = text
            return
        if isinstance(payload, dict) and "kind" in payload:
            result.result_value = payload.get("value")
            if payload.get("graph") is not None:
                result.updated_graph = graph_from_dict(payload["graph"])
        else:
            result.result_value = payload
