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

from itertools import repeat
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.frames import DataFrame
from repro.graph.model import PropertyGraph
from repro.sqlengine import Database, Table
from repro.utils import DICT_MUTATORS


NODE_ID_COLUMN = "id"
EDGE_SOURCE_COLUMN = "source"
EDGE_TARGET_COLUMN = "target"


# ---------------------------------------------------------------------------
# storage shared by every conversion
# ---------------------------------------------------------------------------
def _store(nodes: Dict, succ: Dict, pred: Dict, directed: bool,
           node_items: Iterable[Tuple[Any, Dict[str, Any]]],
           edge_items: Iterable[Tuple[Any, Any, Dict[str, Any]]]) -> None:
    """Store nodes and edges, in order, into node/successor/predecessor dicts
    exactly as per-element ``add_node``/``add_edge`` calls would.

    Both :class:`PropertyGraph` and networkx keep this layout, so every
    conversion fills the target's dicts through here instead of calling a
    method per element: a repeated node or edge merges its attributes into
    the first one, an edge creates missing endpoints, and an undirected edge
    is stored under both endpoints (pass ``pred=succ`` for ``nx.Graph``).
    The attribute dicts given are stored as they are, so they must be fresh.
    """
    for node_id, attrs in node_items:
        if node_id in nodes:
            nodes[node_id].update(attrs)
        else:
            nodes[node_id] = attrs
            succ[node_id] = {}
            pred[node_id] = {}
    for source, target, attrs in edge_items:
        if source not in nodes or target not in nodes:
            for end in (source, target):
                if end not in nodes:
                    nodes[end] = {}
                    succ[end] = {}
                    pred[end] = {}
        row = succ[source]
        if target in row:
            row[target].update(attrs)
            continue
        row[target] = attrs
        pred[target][source] = attrs
        if not directed:
            succ[target][source] = attrs
            pred[source][target] = attrs


# ---------------------------------------------------------------------------
# NetworkX
# ---------------------------------------------------------------------------
class Writes:
    """Whether the dicts of one tracked networkx graph were written to."""

    written = False


class TrackedDict(dict):
    """A ``dict`` that marks its :class:`Writes` (``writes``) written
    whenever one of its mutators runs, even one that changes nothing.

    Reads stay plain dict reads.  Like ``ReadOnlyDict``, its ``copy()``,
    ``copy.copy``/``deepcopy`` and pickled form are ordinary dicts.
    """

    __slots__ = ("writes",)

    def __reduce__(self):
        return (dict, (dict(self),))


def _tracking(mutator):
    def tracked(self, *args, **kwargs):
        self.writes.written = True
        return mutator(self, *args, **kwargs)
    return tracked


for _name in DICT_MUTATORS:
    setattr(TrackedDict, _name, _tracking(getattr(dict, _name)))


def to_networkx(graph: PropertyGraph, force_directed: bool = False,
                writes: Optional[Writes] = None):
    """Convert to ``networkx.DiGraph`` (or ``Graph`` for undirected graphs).

    With *force_directed* an undirected graph is also exposed as a
    ``DiGraph`` holding exactly the stored edge orientation — used by the
    timeline-aware synthesis namespace, where snapshot diffs are defined
    over raw stored tuples.

    With *writes*, every dict the graph stores its contents in (``graph``,
    ``_node``, ``_adj``/``_succ``, ``_pred``, each of their rows and each
    attribute dict) is a :class:`TrackedDict` reporting to *writes*.  The
    graph holds the same keys and values, in the same order, either way.
    """
    directed = graph.directed or force_directed
    nx_graph = nx.DiGraph() if directed else nx.Graph()
    if writes is None:
        new = dict
    else:
        def new(items):
            tracked = TrackedDict(items)
            tracked.writes = writes
            return tracked
    nx_graph.graph = new(dict(graph.graph_attributes, name=graph.name))
    _store(nx_graph._node, nx_graph._adj, nx_graph._pred if directed else nx_graph._adj,
           directed,
           ((node_id, new(attrs)) for node_id, attrs in graph._nodes.items()),
           ((source, target, new(attrs))
            for source, target, attrs in graph.edges(data=True)))
    if writes is not None:
        # a tracked row would record every store into it as a write, so the
        # rows are filled as plain dicts and then copied one at a time
        for table in (nx_graph._adj, nx_graph._pred) if directed else (nx_graph._adj,):
            for node, row in table.items():
                table[node] = new(row)
        nx_graph._node, nx_graph._adj = new(nx_graph._node), new(nx_graph._adj)
        if directed:
            nx_graph._succ, nx_graph._pred = nx_graph._adj, new(nx_graph._pred)
    return nx_graph


def from_networkx(nx_graph) -> PropertyGraph:
    """Convert a NetworkX graph back into a :class:`PropertyGraph`."""
    directed = nx_graph.is_directed()
    graph = PropertyGraph(name=nx_graph.graph.get("name", "graph"), directed=directed)
    graph.graph_attributes.update(
        {k: v for k, v in nx_graph.graph.items() if k != "name"})
    _store(graph._nodes, graph._succ, graph._pred, directed,
           ((node_id, dict(attrs)) for node_id, attrs in nx_graph.nodes(data=True)),
           ((source, target, dict(attrs))
            for source, target, attrs in nx_graph.edges(data=True)))
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


def _records(columns: List[str], rows: Iterable[Sequence[Any]]) -> Iterator[Dict[str, Any]]:
    """One ``{column: value}`` dict per row of values in column order."""
    return map(dict, map(zip, repeat(columns), rows))


def _graph_from_records(node_records: Iterable[Dict[str, Any]],
                        edge_records: Iterable[Dict[str, Any]],
                        name: str, directed: bool) -> PropertyGraph:
    """The graph whose nodes and edges are the given fresh records, in order,
    with ``None``-valued attributes left out."""
    def without_none(record: Dict[str, Any]) -> Dict[str, Any]:
        if None in record.values():
            return {k: v for k, v in record.items() if v is not None}
        return record

    graph = PropertyGraph(name=name, directed=directed)
    _store(graph._nodes, graph._succ, graph._pred, directed,
           ((record.pop(NODE_ID_COLUMN), without_none(record)) for record in node_records),
           ((record.pop(EDGE_SOURCE_COLUMN), record.pop(EDGE_TARGET_COLUMN),
             without_none(record)) for record in edge_records))
    return graph


def from_frames(node_frame: DataFrame, edge_frame: DataFrame,
                name: str = "graph", directed: bool = True) -> PropertyGraph:
    """Rebuild a graph from node/edge frames produced by :func:`to_frames`."""
    def records(frame: DataFrame) -> Iterator[Dict[str, Any]]:
        columns = frame.columns
        return _records(columns, zip(*(frame[column].values for column in columns)))

    return _graph_from_records(records(node_frame), records(edge_frame),
                               name=name, directed=directed)


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
    def records(table: Table) -> Iterator[Dict[str, Any]]:
        return _records(table.columns, table.row_values())

    return _graph_from_records(records(database.table("nodes")),
                               records(database.table("edges")),
                               name=name, directed=directed)
