"""Property-graph substrate.

All network state in this reproduction — communication graphs for traffic
analysis and MALT topologies for lifecycle management — is held in a
:class:`~repro.graph.model.PropertyGraph`: a directed graph whose nodes and
edges carry arbitrary attribute dictionaries.  The package also provides
serialization, conversions to the three code-generation backends (NetworkX,
dataframes, SQL tables), graph comparison for the benchmark evaluator, and
summary statistics.
"""

from repro.graph.model import PropertyGraph, GraphError, NodeView, EdgeView
from repro.graph.diff import GraphDiff, graphs_equal, diff_graphs
from repro.graph.serialization import (
    graph_to_dict,
    graph_from_dict,
    graph_to_json,
    graph_from_json,
)
from repro.graph.convert import (
    to_networkx,
    from_networkx,
    to_frames,
    from_frames,
    to_sql_database,
)
from repro.graph.stats import GraphStats, compute_stats

__all__ = [
    "PropertyGraph",
    "GraphError",
    "NodeView",
    "EdgeView",
    "GraphDiff",
    "graphs_equal",
    "diff_graphs",
    "graph_to_dict",
    "graph_from_dict",
    "graph_to_json",
    "graph_from_json",
    "to_networkx",
    "from_networkx",
    "to_frames",
    "from_frames",
    "to_sql_database",
    "GraphStats",
    "compute_stats",
]
