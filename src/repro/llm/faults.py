"""Fault injection: producing the *wrong* code a struggling LLM would write.

When the calibration table decides that a simulated model fails a query, the
provider still has to return code — code that looks plausible but fails the
way real LLM output failed in the paper (Table 5): syntax errors, references
to imaginary graph attributes or function arguments, bad argument counts,
unsupported operations, wrong calculation logic, or manipulations that leave
the graph in a subtly different state.

Each fault type renders per-backend code whose *execution outcome* carries
the characteristic signature, so the benchmark's error classifier can
re-derive the Table-5 taxonomy from observed behaviour rather than from a
label smuggled through the pipeline.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.utils.validation import require_in


class FaultType(str, enum.Enum):
    """The error taxonomy of paper Table 5."""

    SYNTAX_ERROR = "syntax_error"
    IMAGINARY_GRAPH_ATTRIBUTE = "imaginary_graph_attribute"
    IMAGINARY_FUNCTION_ARGUMENT = "imaginary_function_argument"
    ARGUMENT_ERROR = "argument_error"
    OPERATION_ERROR = "operation_error"
    WRONG_CALCULATION_LOGIC = "wrong_calculation_logic"
    GRAPHS_NOT_IDENTICAL = "graphs_not_identical"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_PYTHON_BACKENDS = ("networkx", "pandas")
_ALL_BACKENDS = ("networkx", "pandas", "sql", "strawman")


class FaultInjector:
    """Render faulty code (or a faulty answer) for a given fault type."""

    def render(self, fault_type: str, backend: str,
               correct_code: Optional[str] = None) -> str:
        """Return faulty code for *backend* exhibiting *fault_type*.

        When *correct_code* is provided, logic-level faults
        (``wrong_calculation_logic``, ``graphs_not_identical``) are derived
        from it so the faulty code still reads like an answer to the same
        query; structural faults use canned plausible-looking snippets.
        """
        require_in(backend, _ALL_BACKENDS, "backend")
        fault = FaultType(fault_type)
        if backend == "sql":
            return self._render_sql(fault)
        if backend == "strawman":
            return self._render_strawman(fault)
        return self._render_python(fault, backend, correct_code)

    # ------------------------------------------------------------------
    def _render_python(self, fault: FaultType, backend: str,
                       correct_code: Optional[str]) -> str:
        graph_variable = "G" if backend == "networkx" else "nodes_df"
        if fault is FaultType.SYNTAX_ERROR:
            return (f"for node in {graph_variable}.nodes(:\n"
                    "    result = node\n")
        if fault is FaultType.IMAGINARY_GRAPH_ATTRIBUTE:
            if backend == "networkx":
                return ("result = sum(G.nodes[n]['total_traffic_bytes'] "
                        "for n in G.nodes())\n")
            return "result = nodes_df['total_traffic_bytes'].sum()\n"
        if fault is FaultType.IMAGINARY_FUNCTION_ARGUMENT:
            if backend == "networkx":
                return ("import networkx as nx\n"
                        "result = nx.degree_centrality(G, weight='bytes', "
                        "normalized='auto')\n")
            return ("result = edges_df.sort_values('bytes', direction='descending')\n")
        if fault is FaultType.ARGUMENT_ERROR:
            if backend == "networkx":
                return "result = G.subgraph('n0', 'n1', 'n2')\n"
            return "result = edges_df.merge()\n"
        if fault is FaultType.OPERATION_ERROR:
            if backend == "networkx":
                return ("totals = {}\n"
                        "for u, v, data in G.edges(data=True):\n"
                        "    totals[u] = totals.get(u, 0) + data\n"
                        "result = totals\n")
            return ("result = edges_df['bytes'] + edges_df['source']\n"
                    "result = result.sum()\n")
        if fault is FaultType.WRONG_CALCULATION_LOGIC:
            if correct_code:
                return correct_code + "\nresult = None if result is None else 0\n"
            return "result = 0\n"
        if fault is FaultType.GRAPHS_NOT_IDENTICAL:
            base = correct_code or ""
            if backend == "networkx":
                return base + "\nG.add_node('phantom-node', added_by='mistake')\n"
            return base + (
                "\nimport itertools\n"
                "nodes_df = nodes_df.assign(phantom=[1] * len(nodes_df))\n")
        raise ValueError(f"unhandled fault type {fault}")

    # ------------------------------------------------------------------
    def _render_sql(self, fault: FaultType) -> str:
        if fault is FaultType.SYNTAX_ERROR:
            return "SELECT id FROM nodes WHERE (address LIKE '10.%'"
        if fault is FaultType.IMAGINARY_GRAPH_ATTRIBUTE:
            return "SELECT id, total_traffic_bytes FROM nodes"
        if fault is FaultType.IMAGINARY_FUNCTION_ARGUMENT:
            return "SELECT MEDIAN(bytes) FROM edges"
        if fault is FaultType.ARGUMENT_ERROR:
            return "SELECT SUM(bytes, packets) FROM edges"
        if fault is FaultType.OPERATION_ERROR:
            return "SELECT SUM(source) + SUM(bytes) FROM edges"
        if fault is FaultType.WRONG_CALCULATION_LOGIC:
            return "SELECT COUNT(*) FROM edges"
        if fault is FaultType.GRAPHS_NOT_IDENTICAL:
            return "DELETE FROM edges WHERE bytes < 0; UPDATE nodes SET type = 'host'"
        raise ValueError(f"unhandled fault type {fault}")

    # ------------------------------------------------------------------
    def _render_strawman(self, fault: FaultType) -> str:
        """The strawman answers directly, so its faults are wrong answers."""
        if fault is FaultType.SYNTAX_ERROR:
            return "I could not parse the network data provided."
        if fault in (FaultType.IMAGINARY_GRAPH_ATTRIBUTE,
                     FaultType.IMAGINARY_FUNCTION_ARGUMENT):
            return "The answer is based on the 'total_traffic' field: 42."
        if fault is FaultType.ARGUMENT_ERROR:
            return "The requested nodes are: n999, n1000."
        if fault is FaultType.OPERATION_ERROR:
            return "The total is approximately 1,234,567 (estimated)."
        if fault is FaultType.WRONG_CALCULATION_LOGIC:
            return "0"
        if fault is FaultType.GRAPHS_NOT_IDENTICAL:
            return "I updated the graph as requested (no changes were necessary)."
        raise ValueError(f"unhandled fault type {fault}")


# ---------------------------------------------------------------------------
# codegen-temporal faults
# ---------------------------------------------------------------------------
class TemporalFaultType(str, enum.Enum):
    """How timeline-aware code generation goes wrong.

    These are deliberately distinct from the direct-answer fault model (a
    stale re-read of the timeline): a failing codegen model emits a program
    whose *time handling* is broken.
    """

    #: every referenced timestamp anchors one or more snapshots too early
    MISANCHORED_SNAPSHOT = "misanchored_snapshot"
    #: the program reasons over a delta window missing its newest snapshots
    OFF_BY_ONE_WINDOW = "off_by_one_window"
    #: the program indexes past the snapshot sequence and crashes
    RUNTIME_CRASH = "runtime_crash"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TemporalFaultInjector:
    """Build the broken inputs/preludes of each temporal fault type.

    Every method is a pure function of its arguments, keeping faulty
    temporal programs deterministic across processes — a requirement of the
    fabric's serial-vs-parallel byte-identity contract.
    """

    def misanchored_intent(self, intent, times, shift: int):
        """*intent* with every bound time parameter shifted *shift* snapshots
        earlier (clamped at the first snapshot)."""
        from bisect import bisect_right

        from repro.synthesis.intents import Intent
        from repro.synthesis.reference import TEMPORAL_TIME_PARAMS

        shifted = {}
        for key, value in intent.params:
            if key in TEMPORAL_TIME_PARAMS and value is not None:
                index = bisect_right(times, float(value)) - 1
                shifted[key] = times[max(0, index - shift)]
            else:
                shifted[key] = value
        return Intent.create(intent.name, **shifted)

    def truncation_prelude(self, cut: int) -> str:
        """A prelude dropping the newest *cut* snapshots before the correct
        program runs — the off-by-one delta-window fault."""
        return (f"snapshots = snapshots[:-{cut}]\n"
                f"deltas = deltas[:-{cut}]\n")

    def crash_code(self) -> str:
        """A plausible-looking anchoring bug that indexes off the end of the
        snapshot sequence and raises ``IndexError`` in the sandbox."""
        return "result = snapshots[len(snapshots)]['time']\n"
