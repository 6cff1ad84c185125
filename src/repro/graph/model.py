"""The :class:`PropertyGraph` directed attributed graph.

This is the single in-memory representation that every application wrapper in
the reproduction produces (Figure 2,  1  in the paper): nodes carry attribute
dictionaries (IP address, device type, capacity, ...), directed edges carry
attribute dictionaries (bytes, connections, packets, relationship kind, ...).

The class intentionally mirrors a small, explicit subset of the NetworkX
``DiGraph`` API (``add_node``, ``add_edge``, ``nodes``, ``edges``,
``neighbors``), because the LLM-generated code in the NetworkX backend runs
against a real ``networkx.DiGraph`` obtained through
:func:`repro.graph.convert.to_networkx`.  Keeping the two shapes close makes
conversions loss-free and easy to reason about.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.utils.validation import ValidationError, require


class GraphError(ValidationError):
    """Raised for structurally invalid graph operations."""


NodeId = Any
EdgeKey = Tuple[NodeId, NodeId]
AttrDict = Dict[str, Any]


class NodeView:
    """Read-mostly view of a node and its attributes."""

    __slots__ = ("node_id", "attributes")

    def __init__(self, node_id: NodeId, attributes: AttrDict) -> None:
        self.node_id = node_id
        self.attributes = attributes

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeView({self.node_id!r}, {self.attributes!r})"


class EdgeView:
    """Read-mostly view of a directed edge and its attributes."""

    __slots__ = ("source", "target", "attributes")

    def __init__(self, source: NodeId, target: NodeId, attributes: AttrDict) -> None:
        self.source = source
        self.target = target
        self.attributes = attributes

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EdgeView({self.source!r} -> {self.target!r}, {self.attributes!r})"


class PropertyGraph:
    """A directed graph whose nodes and edges carry attribute dictionaries.

    Parameters
    ----------
    name:
        Human-readable name recorded in serialized output.
    directed:
        When ``False`` the graph stores a single undirected edge per pair
        (kept for communication graphs that are naturally symmetric).  The
        default is directed, matching both applications in the paper.
    """

    def __init__(self, name: str = "graph", directed: bool = True) -> None:
        self.name = name
        self.directed = bool(directed)
        self._nodes: Dict[NodeId, AttrDict] = {}
        self._succ: Dict[NodeId, Dict[NodeId, AttrDict]] = {}
        self._pred: Dict[NodeId, Dict[NodeId, AttrDict]] = {}
        self.graph_attributes: AttrDict = {}

    # ------------------------------------------------------------------
    # node operations
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, **attributes: Any) -> None:
        """Add a node (or merge attributes into an existing node)."""
        if node_id not in self._nodes:
            self._nodes[node_id] = {}
            self._succ[node_id] = {}
            self._pred[node_id] = {}
        self._nodes[node_id].update(attributes)

    def remove_node(self, node_id: NodeId) -> None:
        """Remove a node and every edge incident to it."""
        self._require_node(node_id)
        for target in list(self._succ[node_id]):
            del self._pred[target][node_id]
        for source in list(self._pred[node_id]):
            del self._succ[source][node_id]
        del self._succ[node_id]
        del self._pred[node_id]
        del self._nodes[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def node(self, node_id: NodeId) -> NodeView:
        self._require_node(node_id)
        return NodeView(node_id, self._nodes[node_id])

    def node_attributes(self, node_id: NodeId) -> AttrDict:
        self._require_node(node_id)
        return self._nodes[node_id]

    def set_node_attribute(self, node_id: NodeId, key: str, value: Any) -> None:
        self._require_node(node_id)
        self._nodes[node_id][key] = value

    def nodes(self, data: bool = False) -> List:
        """Return node ids, or ``(id, attrs)`` pairs when ``data`` is true."""
        if data:
            return [(nid, attrs) for nid, attrs in self._nodes.items()]
        return list(self._nodes)

    def iter_nodes(self) -> Iterator[NodeView]:
        for nid, attrs in self._nodes.items():
            yield NodeView(nid, attrs)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # edge operations
    # ------------------------------------------------------------------
    def add_edge(self, source: NodeId, target: NodeId, **attributes: Any) -> None:
        """Add a directed edge (auto-creating endpoints), merging attributes."""
        if source not in self._nodes:
            self.add_node(source)
        if target not in self._nodes:
            self.add_node(target)
        existing = self._succ[source].get(target)
        if existing is None:
            existing = {}
            self._succ[source][target] = existing
            self._pred[target][source] = existing
            if not self.directed:
                self._succ[target][source] = existing
                self._pred[source][target] = existing
        existing.update(attributes)

    def remove_edge(self, source: NodeId, target: NodeId) -> None:
        self._require_edge(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        if not self.directed and source != target:
            del self._succ[target][source]
            del self._pred[source][target]

    def has_edge(self, source: NodeId, target: NodeId) -> bool:
        return source in self._succ and target in self._succ[source]

    def edge(self, source: NodeId, target: NodeId) -> EdgeView:
        self._require_edge(source, target)
        return EdgeView(source, target, self._succ[source][target])

    def edge_attributes(self, source: NodeId, target: NodeId) -> AttrDict:
        self._require_edge(source, target)
        return self._succ[source][target]

    def set_edge_attribute(self, source: NodeId, target: NodeId, key: str, value: Any) -> None:
        self._require_edge(source, target)
        self._succ[source][target][key] = value

    def edges(self, data: bool = False) -> List:
        """Return ``(u, v)`` tuples, or ``(u, v, attrs)`` when ``data`` is true."""
        result = []
        seen = set()
        for source, targets in self._succ.items():
            for target, attrs in targets.items():
                if not self.directed:
                    key = frozenset((source, target))
                    if key in seen:
                        continue
                    seen.add(key)
                if data:
                    result.append((source, target, attrs))
                else:
                    result.append((source, target))
        return result

    def iter_edges(self) -> Iterator[EdgeView]:
        for source, target, attrs in self.edges(data=True):
            yield EdgeView(source, target, attrs)

    @property
    def edge_count(self) -> int:
        stored = sum(len(targets) for targets in self._succ.values())
        if self.directed:
            return stored
        # an undirected edge is stored in both endpoints' successors, a
        # self-loop only once
        self_loops = sum(1 for node, targets in self._succ.items() if node in targets)
        return (stored + self_loops) // 2

    # ------------------------------------------------------------------
    # adjacency queries
    # ------------------------------------------------------------------
    def successors(self, node_id: NodeId) -> List[NodeId]:
        self._require_node(node_id)
        return list(self._succ[node_id])

    def predecessors(self, node_id: NodeId) -> List[NodeId]:
        self._require_node(node_id)
        return list(self._pred[node_id])

    def neighbors(self, node_id: NodeId) -> List[NodeId]:
        """Union of successors and predecessors (order-stable, deduplicated)."""
        self._require_node(node_id)
        combined: Dict[NodeId, None] = {}
        for other in self._succ[node_id]:
            combined[other] = None
        for other in self._pred[node_id]:
            combined[other] = None
        return list(combined)

    def out_degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        self._require_node(node_id)
        if weight is None:
            return len(self._succ[node_id])
        return sum(attrs.get(weight, 0) for attrs in self._succ[node_id].values())

    def in_degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        self._require_node(node_id)
        if weight is None:
            return len(self._pred[node_id])
        return sum(attrs.get(weight, 0) for attrs in self._pred[node_id].values())

    def degree(self, node_id: NodeId, weight: Optional[str] = None) -> float:
        return self.out_degree(node_id, weight) + self.in_degree(node_id, weight)

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    def find_nodes(self, **conditions: Any) -> List[NodeId]:
        """Return ids of nodes whose attributes equal every given condition."""
        matches = []
        for nid, attrs in self._nodes.items():
            if all(attrs.get(key) == value for key, value in conditions.items()):
                matches.append(nid)
        return matches

    def find_edges(self, **conditions: Any) -> List[EdgeKey]:
        """Return ``(u, v)`` pairs whose attributes equal every given condition."""
        matches = []
        for source, target, attrs in self.edges(data=True):
            if all(attrs.get(key) == value for key, value in conditions.items()):
                matches.append((source, target))
        return matches

    def subgraph(self, node_ids: Iterable[NodeId]) -> "PropertyGraph":
        """Return a deep-copied subgraph induced on *node_ids*."""
        keep = set(node_ids)
        missing = keep - set(self._nodes)
        require(not missing, f"subgraph references unknown nodes: {sorted(map(str, missing))}")
        sub = PropertyGraph(name=f"{self.name}.subgraph", directed=self.directed)
        for nid in keep:
            sub.add_node(nid, **_copy.deepcopy(self._nodes[nid]))
        for source, target, attrs in self.edges(data=True):
            if source in keep and target in keep:
                sub.add_edge(source, target, **_copy.deepcopy(attrs))
        sub.graph_attributes = _copy.deepcopy(self.graph_attributes)
        return sub

    def copy(self) -> "PropertyGraph":
        """Deep copy of the graph (attribute dictionaries are not shared)."""
        duplicate = PropertyGraph(name=self.name, directed=self.directed)
        for nid, attrs in self._nodes.items():
            duplicate.add_node(nid, **_copy.deepcopy(attrs))
        for source, target, attrs in self.edges(data=True):
            duplicate.add_edge(source, target, **_copy.deepcopy(attrs))
        duplicate.graph_attributes = _copy.deepcopy(self.graph_attributes)
        return duplicate

    def total_edge_weight(self, key: str) -> float:
        """Sum an edge attribute over all edges, treating missing values as 0."""
        return sum(attrs.get(key, 0) for _, _, attrs in self.edges(data=True))

    def node_attribute_values(self, key: str) -> Dict[NodeId, Any]:
        """Mapping from node id to attribute value, skipping nodes without it."""
        return {nid: attrs[key] for nid, attrs in self._nodes.items() if key in attrs}

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (f"PropertyGraph(name={self.name!r}, {kind}, "
                f"nodes={self.node_count}, edges={self.edge_count})")

    def __eq__(self, other: object) -> bool:
        from repro.graph.diff import graphs_equal  # local import to avoid cycle

        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return graphs_equal(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable container

    # ------------------------------------------------------------------
    # internal checks
    # ------------------------------------------------------------------
    def _require_node(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            raise GraphError(f"node {node_id!r} is not in the graph")

    def _require_edge(self, source: NodeId, target: NodeId) -> None:
        if source not in self._succ or target not in self._succ[source]:
            raise GraphError(f"edge {source!r} -> {target!r} is not in the graph")
