"""Summary statistics for property graphs.

Used by the application wrappers to describe the network to the prompt
generator ("the communication graph has N nodes and M edges, edge weights
are bytes/connections/packets, ...") and by a few golden answers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.graph.model import PropertyGraph


@dataclass
class GraphStats:
    """Aggregate description of a property graph."""

    node_count: int
    edge_count: int
    directed: bool
    node_attribute_keys: List[str]
    edge_attribute_keys: List[str]
    max_out_degree: int
    max_in_degree: int
    isolated_nodes: int
    node_type_counts: Dict[str, int] = field(default_factory=dict)
    edge_weight_totals: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "directed": self.directed,
            "node_attribute_keys": list(self.node_attribute_keys),
            "edge_attribute_keys": list(self.edge_attribute_keys),
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "isolated_nodes": self.isolated_nodes,
            "node_type_counts": dict(self.node_type_counts),
            "edge_weight_totals": dict(self.edge_weight_totals),
        }


def compute_stats(graph: PropertyGraph, type_key: str = "type",
                  weight_keys: Optional[List[str]] = None) -> GraphStats:
    """Compute :class:`GraphStats` for *graph*.

    Parameters
    ----------
    graph:
        The graph to summarize.
    type_key:
        Node attribute used to build the per-type node counts (MALT uses
        entity kinds stored under ``type``).
    weight_keys:
        Edge attributes summed into ``edge_weight_totals``.  When omitted,
        all numeric edge attributes found on the first pass are used.
    """
    node_keys: set = set()
    type_counter: Counter = Counter()
    for _, attrs in graph.nodes(data=True):
        node_keys.update(attrs.keys())
        if type_key in attrs:
            type_counter[str(attrs[type_key])] += 1

    edge_keys: set = set()
    numeric_keys: set = set()
    for _, _, attrs in graph.edges(data=True):
        edge_keys.update(attrs.keys())
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                numeric_keys.add(key)

    if weight_keys is None:
        weight_keys = sorted(numeric_keys)

    weight_totals = {key: float(graph.total_edge_weight(key)) for key in weight_keys}

    out_degrees = [graph.out_degree(n) for n in graph.nodes()]
    in_degrees = [graph.in_degree(n) for n in graph.nodes()]
    isolated = sum(1 for n in graph.nodes() if graph.degree(n) == 0)

    return GraphStats(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        directed=graph.directed,
        node_attribute_keys=sorted(node_keys),
        edge_attribute_keys=sorted(edge_keys),
        max_out_degree=max(out_degrees) if out_degrees else 0,
        max_in_degree=max(in_degrees) if in_degrees else 0,
        isolated_nodes=isolated,
        node_type_counts=dict(type_counter),
        edge_weight_totals=weight_totals,
    )
