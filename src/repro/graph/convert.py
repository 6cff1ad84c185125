"""Conversions from :class:`PropertyGraph` to the three code-gen backends.

The paper evaluates three representations of the same network state:

* a **NetworkX** graph (``networkx.DiGraph`` / ``networkx.Graph``),
* two **dataframes** (a node table and an edge table), and
* a relational **SQL database** with ``nodes`` and ``edges`` tables.

Each application wrapper builds a :class:`PropertyGraph` once and converts it
to whichever representation the selected backend requires, so the generated
code for every backend runs on exactly the same underlying network state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

from repro.frames import DataFrame
from repro.graph.model import PropertyGraph
from repro.sqlengine import Database, Table


NODE_ID_COLUMN = "id"
EDGE_SOURCE_COLUMN = "source"
EDGE_TARGET_COLUMN = "target"


# ---------------------------------------------------------------------------
# NetworkX
# ---------------------------------------------------------------------------
def to_networkx(graph: PropertyGraph, force_directed: bool = False):
    """Convert to ``networkx.DiGraph`` (or ``Graph`` for undirected graphs).

    With *force_directed* an undirected graph is also exposed as a
    ``DiGraph`` holding exactly the stored edge orientation — used by the
    timeline-aware synthesis namespace, where snapshot diffs are defined
    over raw stored tuples.
    """
    nx_graph = nx.DiGraph() if (graph.directed or force_directed) else nx.Graph()
    nx_graph.graph.update(graph.graph_attributes)
    nx_graph.graph["name"] = graph.name
    for node_id, attrs in graph.nodes(data=True):
        nx_graph.add_node(node_id, **dict(attrs))
    for source, target, attrs in graph.edges(data=True):
        nx_graph.add_edge(source, target, **dict(attrs))
    return nx_graph


def from_networkx(nx_graph) -> PropertyGraph:
    """Convert a NetworkX graph back into a :class:`PropertyGraph`."""
    directed = nx_graph.is_directed()
    graph = PropertyGraph(name=nx_graph.graph.get("name", "graph"), directed=directed)
    graph.graph_attributes.update(
        {k: v for k, v in nx_graph.graph.items() if k != "name"})
    for node_id, attrs in nx_graph.nodes(data=True):
        graph.add_node(node_id, **dict(attrs))
    for source, target, attrs in nx_graph.edges(data=True):
        graph.add_edge(source, target, **dict(attrs))
    return graph


# ---------------------------------------------------------------------------
# dataframes
# ---------------------------------------------------------------------------
def _collect_attribute_keys(items: List[Tuple[Any, Dict[str, Any]]]) -> List[str]:
    ordered: Dict[str, None] = {}
    for _, attrs in items:
        for key in attrs:
            ordered.setdefault(key, None)
    return list(ordered)


def to_frames(graph: PropertyGraph) -> Tuple[DataFrame, DataFrame]:
    """Convert into ``(node_frame, edge_frame)``.

    The node frame has an ``id`` column plus one column per node attribute;
    the edge frame has ``source``/``target`` columns plus one column per edge
    attribute — the same schema the paper's pandas backend uses.
    """
    node_items = graph.nodes(data=True)
    node_keys = _collect_attribute_keys(node_items)
    node_records = []
    for node_id, attrs in node_items:
        record = {NODE_ID_COLUMN: node_id}
        for key in node_keys:
            record[key] = attrs.get(key)
        node_records.append(record)
    node_frame = DataFrame.from_records(node_records,
                                        columns=[NODE_ID_COLUMN] + node_keys)

    edge_items = [((source, target), attrs)
                  for source, target, attrs in graph.edges(data=True)]
    edge_keys = _collect_attribute_keys(edge_items)
    edge_records = []
    for (source, target), attrs in edge_items:
        record = {EDGE_SOURCE_COLUMN: source, EDGE_TARGET_COLUMN: target}
        for key in edge_keys:
            record[key] = attrs.get(key)
        edge_records.append(record)
    edge_frame = DataFrame.from_records(
        edge_records, columns=[EDGE_SOURCE_COLUMN, EDGE_TARGET_COLUMN] + edge_keys)
    return node_frame, edge_frame


def from_frames(node_frame: DataFrame, edge_frame: DataFrame,
                name: str = "graph", directed: bool = True) -> PropertyGraph:
    """Rebuild a graph from node/edge frames produced by :func:`to_frames`."""
    graph = PropertyGraph(name=name, directed=directed)
    for _, record in node_frame.iterrows():
        node_id = record[NODE_ID_COLUMN]
        attrs = {k: v for k, v in record.items() if k != NODE_ID_COLUMN and v is not None}
        graph.add_node(node_id, **attrs)
    for _, record in edge_frame.iterrows():
        source = record[EDGE_SOURCE_COLUMN]
        target = record[EDGE_TARGET_COLUMN]
        attrs = {k: v for k, v in record.items()
                 if k not in (EDGE_SOURCE_COLUMN, EDGE_TARGET_COLUMN) and v is not None}
        graph.add_edge(source, target, **attrs)
    return graph


# ---------------------------------------------------------------------------
# SQL
# ---------------------------------------------------------------------------
def to_sql_database(graph: PropertyGraph, name: Optional[str] = None) -> Database:
    """Convert into a :class:`~repro.sqlengine.Database` with node/edge tables."""
    node_frame, edge_frame = to_frames(graph)
    return frames_to_database(node_frame, edge_frame, name or graph.name)


def frames_to_database(node_frame: DataFrame, edge_frame: DataFrame,
                       name: str) -> Database:
    """A database whose ``nodes``/``edges`` tables hold the rows of frames
    produced by :func:`to_frames` (the frames themselves are not modified)."""
    database = Database(name)
    for table_name, frame in (("nodes", node_frame), ("edges", edge_frame)):
        database.add_table(Table.from_columns(
            table_name, {column: frame[column].values for column in frame.columns}))
    return database


def from_sql_database(database: Database, name: str = "graph",
                      directed: bool = True) -> PropertyGraph:
    """Rebuild a graph from a database produced by :func:`to_sql_database`."""
    node_table = database.table("nodes")
    edge_table = database.table("edges")
    node_frame = DataFrame.from_records(node_table.rows, columns=node_table.columns)
    edge_frame = DataFrame.from_records(edge_table.rows, columns=edge_table.columns)
    return from_frames(node_frame, edge_frame, name=name, directed=directed)
