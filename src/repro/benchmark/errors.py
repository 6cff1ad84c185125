"""Error classification (paper Table 5).

The classifier maps a failed :class:`EvaluationRecord` back to the paper's
seven-way error taxonomy using only *observed* behaviour — the failure stage,
the exception type and message, and whether the mismatch was in the value or
in the graph state.  It deliberately does not look at the simulated model's
internal fault label, so the taxonomy is re-derived the way the paper's
authors derived it: by inspecting what the generated code did.
"""

from __future__ import annotations

from typing import Optional

from repro.benchmark.evaluator import EvaluationRecord


#: machine label -> the row label used in the paper's Table 5
ERROR_TYPE_LABELS = {
    "syntax_error": "Syntax error",
    "imaginary_graph_attribute": "Imaginary graph attributes",
    "imaginary_function_argument": "Imaginary files/function arguments",
    "argument_error": "Arguments error",
    "operation_error": "Operation error",
    "wrong_calculation_logic": "Wrong calculation logic",
    "graphs_not_identical": "Graphs are not identical",
}


def _message(record: EvaluationRecord) -> str:
    parts = [record.failure_reason or ""]
    parts.append(str(record.details.get("error_message", "")))
    return " ".join(parts).lower()


def classify_error(record: EvaluationRecord) -> Optional[str]:
    """Classify a failed record into the Table-5 taxonomy.

    Returns ``None`` for records that passed.
    """
    if record.passed:
        return None
    error_type = str(record.details.get("error_type", "") or "")
    message = _message(record)

    # 1) code that never parsed / responses without code
    if record.failure_stage in ("extract",):
        return "syntax_error"
    if error_type in ("SyntaxError", "SqlSyntaxError", "PolicyViolation"):
        return "syntax_error"
    if record.failure_stage == "llm":
        # the prompt did not fit the window; treat like a response the
        # operator could not use at all
        return "syntax_error"

    if record.failure_stage == "execute":
        if error_type in ("KeyError", "FrameError") or "unknown column" in message \
                or "has no column" in message:
            return "imaginary_graph_attribute"
        if "unexpected keyword" in message or "unknown aggregate function" in message \
                or "got an unexpected" in message:
            return "imaginary_function_argument"
        if error_type == "TypeError" and ("positional argument" in message
                                          or "required argument" in message
                                          or "missing" in message):
            return "argument_error"
        if "takes exactly one argument" in message or "requires an argument" in message:
            return "argument_error"
        if error_type in ("TypeError", "ValueError", "ZeroDivisionError") \
                or "unsupported operand" in message or "requires a numeric value" in message:
            return "operation_error"
        if error_type == "AttributeError":
            return "imaginary_function_argument"
        return "operation_error"

    # 2) executed fine but produced the wrong outcome
    if record.failure_stage == "compare":
        if "graphs are not identical" in message or "state change" in message:
            return "graphs_not_identical"
        return "wrong_calculation_logic"

    return "operation_error"
