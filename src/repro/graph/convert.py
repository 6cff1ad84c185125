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

from itertools import chain, repeat
from operator import is_
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.frames import DataFrame
from repro.graph.diff import ABSENT
from repro.graph.model import PropertyGraph, _copies, _scalars_only
from repro.sqlengine import Database, Table


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
class WriteLog:
    """The undo log of one tracked networkx graph.

    ``entries`` holds, oldest first, ``(dict, key, the key's prior value or
    ABSENT)`` for every key a mutator of one of the graph's dicts set or
    removed, and ``(dict, ORDER, its keys)`` before the first removal from
    a dict, whose key order a re-insertion would change.  ``deep`` is set
    when the conversion deep-copied attribute values: a write inside such a
    value reaches no mutator, so that graph's log is incomplete.
    """

    __slots__ = ("entries", "deep")

    def __init__(self) -> None:
        self.entries: List[Tuple[Dict, Any, Any]] = []
        self.deep = False

    def setting(self, tracked: "TrackedDict", keys: Iterable[Any]) -> None:
        self.entries.extend((tracked, key, dict.get(tracked, key, ABSENT)) for key in keys)

    def removing(self, tracked: "TrackedDict", keys: Iterable[Any]) -> None:
        if not tracked.ordered:
            self.entries.append((tracked, ORDER, list(tracked)))
            tracked.ordered = True
        self.setting(tracked, keys)

    def rollback(self) -> None:
        """Undo every logged write, newest first: each dict then holds the
        same keys, in the same order, bound to the same objects as before."""
        for tracked, key, prior in reversed(self.entries):
            if key is ORDER:
                items = [(k, dict.__getitem__(tracked, k)) for k in prior]
                dict.clear(tracked)
                dict.update(tracked, items)
                tracked.ordered = False
            elif prior is ABSENT:
                dict.pop(tracked, key, None)
            else:
                dict.__setitem__(tracked, key, prior)
        self.entries.clear()


#: the key of a :class:`WriteLog` entry that records a dict's key order
ORDER = object()


class TrackedDict(dict):
    """A ``dict`` whose mutators log what they replace or remove to its
    :class:`WriteLog` (``log``) before they run.  ``at`` is the node whose
    attributes or row it is, or the source of the edge whose attributes;
    ``ordered`` is set while the log holds its key order.

    Reads stay plain dict reads.  Like ``ReadOnlyDict``, its ``copy()``,
    ``copy.copy``/``deepcopy`` and pickled form are ordinary dicts.
    """

    __slots__ = ("log", "at", "ordered")

    def __reduce__(self):
        return (dict, (dict(self),))

    def __setitem__(self, key, value):
        self.log.setting(self, (key,))
        dict.__setitem__(self, key, value)

    def setdefault(self, key, default=None):
        if key not in self:
            self.log.setting(self, (key,))
        return dict.setdefault(self, key, default)

    def update(self, *args, **kwargs):
        items = dict(*args, **kwargs)
        self.log.setting(self, items)
        dict.update(self, items)

    def __ior__(self, other):
        self.update(other)
        return self

    def __delitem__(self, key):
        if key in self:
            self.log.removing(self, (key,))
        dict.__delitem__(self, key)

    def pop(self, key, *default):
        if key in self:
            self.log.removing(self, (key,))
        return dict.pop(self, key, *default)

    def popitem(self):
        if self:
            self.log.removing(self, (next(reversed(self)),))
        return dict.popitem(self)

    def clear(self):
        if self:
            self.log.removing(self, list(self))
        dict.clear(self)


def to_networkx(graph: PropertyGraph, force_directed: bool = False,
                log: Optional[WriteLog] = None):
    """Convert to ``networkx.DiGraph`` (or ``Graph`` for undirected graphs).

    With *force_directed* an undirected graph is also exposed as a
    ``DiGraph`` holding exactly the stored edge orientation — used by the
    timeline-aware synthesis namespace, where snapshot diffs are defined
    over raw stored tuples.

    With *log*, every dict the graph stores its contents in (``graph``,
    ``_node``, ``_adj``/``_succ``, ``_pred``, each of their rows and each
    attribute dict) is a :class:`TrackedDict` logging to *log*, and an
    attribute value of no scalar type is a deep copy (``log.deep``), so
    that no write reaches *graph*.  The graph holds the same keys and
    values, in the same order, either way.
    """
    directed = graph.directed or force_directed
    nx_graph = nx.DiGraph() if directed else nx.Graph()
    head, node_attrs = dict(graph.graph_attributes, name=graph.name), graph._nodes.values()
    edges = graph.edges(data=True)
    edge_attrs = [attrs for _, _, attrs in edges]
    if log is None:
        new = dict
    else:
        if not _scalars_only(chain((head,), node_attrs, edge_attrs)):
            log.deep = True
            head = _copies([head])[0]
            node_attrs, edge_attrs = _copies(list(node_attrs)), _copies(edge_attrs)

        def new(items, at=None):
            tracked = TrackedDict(items)
            tracked.log, tracked.at, tracked.ordered = log, at, False
            return tracked
    nx_graph.graph = new(head)
    _store(nx_graph._node, nx_graph._adj, nx_graph._pred if directed else nx_graph._adj,
           directed, zip(graph._nodes, map(new, node_attrs)),
           ((source, target, new(attrs))
            for (source, target, _), attrs in zip(edges, edge_attrs)))
    if log is not None:
        # a tracked row would log every store into it, so the rows are
        # filled as plain dicts and then copied one at a time
        for table in (nx_graph._adj, nx_graph._pred) if directed else (nx_graph._adj,):
            for node, row in table.items():
                table[node] = new(row, node)
        for node, attrs in nx_graph._node.items():
            attrs.at = node
        for node, row in nx_graph._adj.items():
            for attrs in row.values():
                attrs.at = node
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


def _kept(old: Optional[Dict], new: Dict) -> Dict:
    """*old* when *new* holds the same keys bound to the same objects, in
    the same order, else a plain copy of *new*."""
    if (old is not None and len(old) == len(new)
            and all(map(is_, chain(old, old.values()), chain(new, new.values())))):
        return old
    return dict(new)


def from_logged_networkx(graph: PropertyGraph, nx_graph, log: WriteLog) -> PropertyGraph:
    """``from_networkx(nx_graph)`` for *nx_graph*, a tracked conversion of
    *graph* (:func:`to_networkx` with *log*) written to only as *log*
    records, at the cost of the rows the log names.

    The result stores *graph*'s own node, successor and predecessor dicts
    wherever they hold what the conversion would, so it must not be
    mutated.  It equals the conversion in nodes, edges, attributes and
    their order, except that a node's predecessors keep *graph*'s order.
    An undirected graph, or a directed one whose ``_node`` and ``_adj``
    hold different nodes, is converted.
    """
    nodes, succ = nx_graph._node, nx_graph._adj
    # the nodes whose attributes or successors may have changed, in the
    # order the log names them
    owners: Dict[Any, None] = {}
    head = reshaped = False
    if nx_graph.is_directed():
        for tracked, key, _ in log.entries:
            if tracked is nx_graph.graph:
                head = True
            elif tracked is nodes or tracked is succ:
                reshaped = True
                owners[key] = None
            elif tracked is not nx_graph._pred:
                owners[tracked.at] = None
        owners.pop(ORDER, None)
    if not nx_graph.is_directed() or (reshaped and nodes.keys() != succ.keys()):
        return from_networkx(nx_graph)
    old_nodes, old_succ, old_pred = graph._nodes, graph._succ, graph._pred
    for node in [node for node in owners if node in old_nodes and node not in nodes]:
        owners.update(dict.fromkeys(old_pred[node]))  # they lost their edge to it

    def patched(old: Dict, names, build) -> Dict:
        """*old* with the entries of *names* rebuilt, in *nx_graph*'s node
        order when it has other nodes."""
        if reshaped:
            return {node: build(node) if node in names or node not in old else old[node]
                    for node in nodes}
        changed = {node: row for node in names if (row := build(node)) is not old[node]}
        return {**old, **changed} if changed else old

    def successors(node):
        old = old_succ.get(node, {})
        return _kept(old, {target: _kept(old.get(target), attrs)
                           for target, attrs in succ[node].items()})

    new_nodes = patched(old_nodes, owners, lambda node: _kept(old_nodes.get(node), nodes[node]))
    new_succ = patched(old_succ, owners, successors)
    changes: Dict[Any, Dict[Any, Any]] = {}
    for source in owners:
        old, new = old_succ.get(source, {}), new_succ.get(source, {})
        if not new_nodes.keys() >= new.keys():  # an edge to a node that is gone
            return from_networkx(nx_graph)
        if new is not old:
            for target in chain(old, (target for target in new if target not in old)):
                if old.get(target) is not new.get(target):
                    changes.setdefault(target, {})[source] = new.get(target, ABSENT)

    def predecessors(node):
        row = dict(old_pred.get(node, {}))
        for source, attrs in changes.get(node, {}).items():
            if attrs is ABSENT:
                del row[source]
            else:
                row[source] = attrs
        return row

    result = PropertyGraph(name=graph.name)
    result.graph_attributes = dict(graph.graph_attributes)
    if head:
        result.name = nx_graph.graph.get("name", "graph")
        result.graph_attributes = {k: v for k, v in nx_graph.graph.items() if k != "name"}
    result._nodes, result._succ = new_nodes, new_succ
    result._pred = patched(old_pred, changes, predecessors)
    return result


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
