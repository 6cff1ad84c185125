"""Graph comparison used by the benchmark evaluator.

The paper's "Results Evaluator" compares the outcome of executing the
LLM-generated code against the golden answer's outcome.  When the outcome is
an updated graph (e.g. "Remove packet switch P1 from Chassis 4"), the
comparison must be structural *and* attribute-aware — Table 5 even includes a
dedicated failure class, "Graphs are not identical".  :func:`diff_graphs`
returns a precise description of how two graphs differ so the results logger
can record it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.graph.model import PropertyGraph


class _AbsentType:
    """Singleton marking an attribute that one side does not have at all.

    A plain string sentinel ("<absent>") is ambiguous: an attribute whose
    *real value* is that string would silently compare equal to a missing
    one.  The singleton is only ever equal to itself, renders as
    ``<absent>`` in diff summaries, and keeps its identity across pickling
    (diff tuples travel through the execution fabric's result cache).
    """

    _instance: "_AbsentType" = None

    def __new__(cls) -> "_AbsentType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<absent>"

    def __reduce__(self):
        return (_AbsentType, ())


#: the unique missing-attribute marker used in attribute-mismatch tuples
ABSENT = _AbsentType()


@dataclass
class GraphDiff:
    """Structured difference between two graphs."""

    missing_nodes: List[Any] = field(default_factory=list)
    extra_nodes: List[Any] = field(default_factory=list)
    missing_edges: List[Tuple[Any, Any]] = field(default_factory=list)
    extra_edges: List[Tuple[Any, Any]] = field(default_factory=list)
    node_attribute_mismatches: List[Tuple[Any, str, Any, Any]] = field(default_factory=list)
    edge_attribute_mismatches: List[Tuple[Tuple[Any, Any], str, Any, Any]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.missing_nodes or self.extra_nodes or self.missing_edges
                    or self.extra_edges or self.node_attribute_mismatches
                    or self.edge_attribute_mismatches)

    def summary(self, limit: int = 5) -> str:
        """Human-readable summary (truncated to *limit* items per category)."""
        if self.is_empty:
            return "graphs are identical"
        parts = []
        if self.missing_nodes:
            parts.append(f"missing nodes: {self.missing_nodes[:limit]}")
        if self.extra_nodes:
            parts.append(f"extra nodes: {self.extra_nodes[:limit]}")
        if self.missing_edges:
            parts.append(f"missing edges: {self.missing_edges[:limit]}")
        if self.extra_edges:
            parts.append(f"extra edges: {self.extra_edges[:limit]}")
        if self.node_attribute_mismatches:
            parts.append(f"node attribute mismatches: {self.node_attribute_mismatches[:limit]}")
        if self.edge_attribute_mismatches:
            parts.append(f"edge attribute mismatches: {self.edge_attribute_mismatches[:limit]}")
        return "; ".join(parts)


def values_equal(left: Any, right: Any, float_tolerance: float = 1e-9) -> bool:
    """Compare attribute values with float tolerance and container recursion.

    An object always equals itself, NaN included: a value the code under
    test never touched must not count as a change.
    """
    if left is right:
        return True
    if isinstance(left, float) or isinstance(right, float):
        try:
            return math.isclose(float(left), float(right), rel_tol=float_tolerance,
                                abs_tol=float_tolerance)
        except (TypeError, ValueError):
            return False
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left) != set(right):
            return False
        return all(values_equal(left[k], right[k], float_tolerance) for k in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(values_equal(a, b, float_tolerance) for a, b in zip(left, right))
    return left == right


def _diff_attrs(left: Dict[str, Any], right: Dict[str, Any],
                float_tolerance: float) -> List[Tuple[str, Any, Any]]:
    mismatches = []
    for key in sorted(set(left) | set(right), key=str):
        left_value = left.get(key, ABSENT)
        right_value = right.get(key, ABSENT)
        if left_value is ABSENT and right_value is ABSENT:
            continue
        if left_value is ABSENT or right_value is ABSENT:
            mismatches.append((key, left_value, right_value))
            continue
        if not values_equal(left_value, right_value, float_tolerance):
            mismatches.append((key, left_value, right_value))
    return mismatches


def diff_graphs(expected: PropertyGraph, actual: PropertyGraph,
                float_tolerance: float = 1e-9) -> GraphDiff:
    """Return the full structural/attribute diff between two graphs."""
    if _same_adjacency(expected, actual):
        return GraphDiff()
    diff = GraphDiff()
    expected_nodes = set(expected.nodes())
    actual_nodes = set(actual.nodes())
    diff.missing_nodes = sorted(expected_nodes - actual_nodes, key=str)
    diff.extra_nodes = sorted(actual_nodes - expected_nodes, key=str)

    expected_edges = set(expected.edges())
    actual_edges = set(actual.edges())
    diff.missing_edges = sorted(expected_edges - actual_edges, key=str)
    diff.extra_edges = sorted(actual_edges - expected_edges, key=str)

    for node_id in sorted(expected_nodes & actual_nodes, key=str):
        for key, left, right in _diff_attrs(expected.node_attributes(node_id),
                                            actual.node_attributes(node_id),
                                            float_tolerance):
            diff.node_attribute_mismatches.append((node_id, key, left, right))

    for edge in sorted(expected_edges & actual_edges, key=str):
        source, target = edge
        for key, left, right in _diff_attrs(expected.edge_attributes(source, target),
                                            actual.edge_attributes(source, target),
                                            float_tolerance):
            diff.edge_attribute_mismatches.append((edge, key, left, right))
    return diff


def _same_adjacency(expected: PropertyGraph, actual: PropertyGraph) -> bool:
    """True when the graphs' stored nodes, edges and attributes compare equal.

    Plain ``==`` on the adjacency dicts is stricter than the tolerant
    comparison below (it treats an object as equal to itself first, as
    :func:`values_equal` does), so when it holds the full diff is empty.
    An undirected graph lists each edge in the orientation its first
    endpoint was stored in, so there the node order must match as well.
    """
    if expected.directed != actual.directed:
        return False
    if not expected.directed and list(expected._nodes) != list(actual._nodes):
        return False
    return expected._nodes == actual._nodes and expected._succ == actual._succ


def graphs_equal(expected: PropertyGraph, actual: PropertyGraph,
                 float_tolerance: float = 1e-9) -> bool:
    """True when the two graphs have identical structure and attributes."""
    return diff_graphs(expected, actual, float_tolerance).is_empty
