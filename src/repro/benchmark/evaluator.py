"""The results evaluator (paper Figure 3, right box).

The evaluator executes nothing itself — it receives the
:class:`~repro.core.pipeline.PipelineResult` of running LLM-generated code
and compares the outcome against the golden answer:

* analysis queries: the produced value must match the golden value, and the
  network state must be untouched;
* manipulation queries: the resulting graph must equal the golden graph;
* queries with both a value and a state change check both.

Because the three backends return results in different shapes (Python
objects, dataframes, SQL result sets), :func:`compare_values` normalizes the
generated result into the golden value's shape before comparing — e.g. a
two-column result set is matched against a golden dict, a single column
against a golden list.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.benchmark.goldens import GoldenAnswer
from repro.benchmark.queries import BenchmarkQuery, TemporalQuery
from repro.core.pipeline import PipelineResult
from repro.frames import DataFrame, Series
from repro.graph import PropertyGraph, diff_graphs
from repro.graph.diff import values_equal
from repro.obs import span
from repro.sqlengine import ResultSet


@dataclass
class EvaluationRecord:
    """The verdict for one (query, model, backend) execution."""

    query_id: str
    model: str
    backend: str
    complexity: str
    passed: bool
    failure_stage: Optional[str] = None     # "llm", "extract", "execute", "compare"
    failure_reason: Optional[str] = None
    error_type: Optional[str] = None        # Table-5 taxonomy label, set by the classifier
    cost_usd: float = 0.0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    generated_code: str = ""
    details: Dict[str, Any] = field(default_factory=dict)
    #: whether this record was served from the fabric's result cache rather
    #: than recomputed — telemetry threaded in by the runner after dispatch,
    #: never part of the cached entry itself or of any accuracy table
    cached: bool = False


# ---------------------------------------------------------------------------
# value normalization and comparison
# ---------------------------------------------------------------------------
def _records_from_table(columns: List[str], records: List[Dict[str, Any]]) -> List[List[Any]]:
    return [[record.get(column) for column in columns] for record in records]


def _normalize(value: Any) -> Any:
    """Convert backend-specific containers into plain Python structures."""
    if isinstance(value, ResultSet):
        return {"__table__": True, "columns": list(value.columns),
                "records": value.to_records()}
    if isinstance(value, DataFrame):
        return {"__table__": True, "columns": list(value.columns),
                "records": value.to_records()}
    if isinstance(value, Series):
        return list(value.values)
    if isinstance(value, tuple):
        return [_normalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_normalize(item) for item in value)
    if isinstance(value, list):
        return [_normalize(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _normalize(item) for key, item in value.items()}
    return value


def normalize_value(value: Any) -> Any:
    """Public alias of :func:`_normalize` — the shape answers travel in.

    The facade (:mod:`repro.api`) and the serve layer return answer values
    in this golden-normalized form so an HTTP response, a CLI table, and a
    batch result log can never disagree about container shapes.
    """
    return _normalize(value)


def _is_table(value: Any) -> bool:
    return isinstance(value, dict) and value.get("__table__") is True


def compare_values(expected: Any, actual: Any, float_tolerance: float = 1e-6) -> bool:
    """Compare a golden value against a backend-produced value.

    The golden value's shape drives the coercion applied to the generated
    value (tables collapse to dicts, columns, scalars, or row lists).
    """
    expected = _normalize(expected)
    actual = _normalize(actual)

    if _is_table(actual):
        columns = actual["columns"]
        records = actual["records"]
        rows = _records_from_table(columns, records)
        if isinstance(expected, dict):
            if len(columns) >= 2:
                actual = {row[0]: row[1] for row in rows}
            else:
                return False
        elif isinstance(expected, list):
            if expected and isinstance(expected[0], list):
                actual = [row[: len(expected[0])] for row in rows]
            elif (len(rows) == 1 and len(expected) > 1
                  and len(rows[0]) == len(expected)):
                # a single multi-column row matched against a flat golden list
                # (e.g. "return the source and target addresses")
                actual = rows[0]
            else:
                actual = [row[0] for row in rows]
        elif len(rows) == 1 and len(columns) == 1:
            actual = rows[0][0]
        else:
            actual = rows

    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return False
        return all(values_equal(expected[key], actual[key], float_tolerance)
                   for key in expected)
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return False
        return all(compare_values(e, a, float_tolerance) for e, a in zip(expected, actual))
    return values_equal(expected, actual, float_tolerance)


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------
class ResultsEvaluator:
    """Compare pipeline results against golden answers."""

    def __init__(self, float_tolerance: float = 1e-6) -> None:
        self.float_tolerance = float_tolerance

    def evaluate(self, query: BenchmarkQuery, model: str,
                 pipeline_result: PipelineResult, golden: GoldenAnswer,
                 original_graph: PropertyGraph) -> EvaluationRecord:
        """Produce the pass/fail verdict for one execution."""
        record = EvaluationRecord(
            query_id=query.query_id,
            model=model,
            backend=pipeline_result.request.backend,
            complexity=query.complexity,
            passed=False,
            generated_code=pipeline_result.code,
        )
        if pipeline_result.response is not None:
            record.cost_usd = pipeline_result.response.cost_usd
            record.prompt_tokens = pipeline_result.response.prompt_tokens
            record.completion_tokens = pipeline_result.response.completion_tokens
            record.details["response_metadata"] = dict(pipeline_result.response.metadata)

        if not pipeline_result.succeeded:
            record.failure_stage = pipeline_result.error_stage
            record.failure_reason = pipeline_result.error_message
            if pipeline_result.execution is not None:
                record.details["error_type"] = pipeline_result.execution.error_type
                record.details["error_message"] = pipeline_result.execution.error_message
            return record

        # value check -----------------------------------------------------
        if golden.expects_value:
            if not compare_values(golden.value, pipeline_result.result_value,
                                  self.float_tolerance):
                record.failure_stage = "compare"
                record.failure_reason = "result value does not match the golden answer"
                record.details["expected_value"] = _normalize(golden.value)
                record.details["actual_value"] = _normalize(pipeline_result.result_value)
                return record

        # graph-state check ------------------------------------------------
        expected_graph = golden.graph if (golden.expects_graph and golden.graph is not None) \
            else original_graph
        actual_graph = pipeline_result.updated_graph
        if golden.expects_graph and actual_graph is None:
            record.failure_stage = "compare"
            record.failure_reason = "the query requires a state change but no graph was produced"
            return record
        if actual_graph is not None:
            with span("graph.diff"):
                diff = diff_graphs(expected_graph, actual_graph, self.float_tolerance)
            if not diff.is_empty:
                record.failure_stage = "compare"
                record.failure_reason = f"graphs are not identical: {diff.summary()}"
                record.details["graph_diff"] = diff.summary()
                return record

        record.passed = True
        return record

    # ------------------------------------------------------------------
    def evaluate_temporal(self, query: TemporalQuery, model: str, answer: Any,
                          golden: GoldenAnswer,
                          details: Optional[Dict[str, Any]] = None,
                          backend: str = "direct",
                          generated_code: str = "",
                          execution_error: Optional[Tuple[str, str]] = None,
                          ) -> EvaluationRecord:
        """Produce the verdict for one temporal-query answer.

        *backend* is the answering path: ``direct`` (the model answers
        straight from the replayed timeline; a pure value comparison) or a
        codegen backend (``frames``/``networkx``), where *generated_code*
        ran in the sandbox.  A sandbox failure arrives as *execution_error*
        — an ``(error_type, error_message)`` pair — and is recorded as an
        ``execute``-stage fault rather than compared.
        """
        record = EvaluationRecord(
            query_id=query.query_id,
            model=model,
            backend=backend,
            complexity=query.complexity,
            passed=False,
            generated_code=generated_code,
        )
        record.details.update(details or {})
        record.details["scenario"] = query.scenario
        if execution_error is not None:
            error_type, error_message = execution_error
            record.failure_stage = "execute"
            record.failure_reason = f"{error_type}: {error_message}"
            record.details["error_type"] = error_type
            record.details["error_message"] = error_message
            return record
        if not compare_values(golden.value, answer, self.float_tolerance):
            record.failure_stage = "compare"
            record.failure_reason = ("temporal result value does not match "
                                     "the golden answer")
            record.details["expected_value"] = _normalize(golden.value)
            record.details["actual_value"] = _normalize(answer)
            return record
        record.passed = True
        return record
