"""Application wrapper base class (component  1  of the paper's Figure 2).

An application wrapper owns the raw network data of one management
application, converts it into the shared :class:`PropertyGraph`
representation, and describes the graph's structure (what nodes, edges, and
attributes mean) in natural language for the prompt generator.  It is also
the component that receives the updated graph back after the operator
approves a state-changing query ("sync state" in the paper's figure).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.graph import PropertyGraph, compute_stats
from repro.graph.convert import frames_to_database, to_frames, to_networkx

# sql_view builds on the memoized frames and never calls to_sql_database; it
# stays importable here because perfbench's traced run wraps every view
# builder at this module
from repro.graph.convert import to_sql_database  # noqa: F401


@dataclass
class ApplicationContext:
    """Everything the prompt generator needs to know about an application."""

    application_name: str
    application_description: str
    graph_description: str
    node_schema: Dict[str, str]
    edge_schema: Dict[str, str]
    terminology: Dict[str, str] = field(default_factory=dict)
    example_queries: List[str] = field(default_factory=list)

    def render(self) -> str:
        """Render the context as the natural-language block used in prompts."""
        lines = [
            f"Application: {self.application_name}",
            self.application_description,
            "",
            "Graph structure:",
            self.graph_description,
            "",
            "Node attributes:",
        ]
        for key, meaning in self.node_schema.items():
            lines.append(f"  - {key}: {meaning}")
        lines.append("Edge attributes:")
        for key, meaning in self.edge_schema.items():
            lines.append(f"  - {key}: {meaning}")
        if self.terminology:
            lines.append("Terminology:")
            for term, meaning in self.terminology.items():
                lines.append(f"  - {term}: {meaning}")
        return "\n".join(lines)


class NetworkApplication(abc.ABC):
    """Base class for the two benchmark applications.

    Subclasses provide the raw-data-to-graph conversion and the
    natural-language context; this base class provides the representation
    conversions shared by every backend and the state-sync hook.

    The prompt summary and the frames are built once per current graph and
    reused by every query until :meth:`sync_state` installs a new graph.
    The current graph must therefore never be mutated in place; every view
    handed out is a fresh, writable structure, so a query cannot leak its
    edits into the next one.
    """

    #: short machine-readable identifier ("traffic_analysis", "malt")
    name: str = "application"

    def __init__(self, graph: PropertyGraph) -> None:
        self._graph = graph
        self._history: List[Dict[str, Any]] = []
        #: (the graph the entries were built from, {entry name: value})
        self._memo: Tuple[Optional[PropertyGraph], Dict[str, Any]] = (None, {})

    # ------------------------------------------------------------------
    # data access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PropertyGraph:
        """The current network state as a property graph."""
        return self._graph

    def _memoized(self, name: str, build: Callable[[], Any]) -> Any:
        """The entry *name* for the current graph, built on first use.

        Entries are keyed on the identity of the current graph, so replacing
        it (:meth:`sync_state`) drops them all.
        """
        graph, entries = self._memo
        if graph is not self._graph:
            entries = {}
            self._memo = (self._graph, entries)
        if name not in entries:
            entries[name] = build()
        return entries[name]

    def _frames(self):
        """The read-only ``(node_frame, edge_frame)`` of the current graph."""
        return self._memoized("frames", lambda: tuple(
            frame.freeze() for frame in to_frames(self._graph)))

    def networkx_view(self):
        """The state as a ``networkx`` graph (NetworkX backend input)."""
        return to_networkx(self._graph)

    def frame_view(self):
        """The state as ``(node_frame, edge_frame)`` (pandas-style backend input)."""
        node_frame, edge_frame = self._frames()
        return node_frame.copy(deep=False), edge_frame.copy(deep=False)

    def sql_view(self):
        """The state as an in-memory SQL database (SQL backend input)."""
        return frames_to_database(*self._frames(), self._graph.name)

    # ------------------------------------------------------------------
    # description for prompt generation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def context(self) -> ApplicationContext:
        """Return the natural-language application context."""

    def graph_summary(self) -> str:
        """One-paragraph quantitative summary of the current graph."""
        return self._memoized("summary", self._build_summary)

    def _build_summary(self) -> str:
        stats = compute_stats(self._graph)
        return (f"The graph has {stats.node_count} nodes and {stats.edge_count} edges; "
                f"node attributes: {', '.join(stats.node_attribute_keys) or 'none'}; "
                f"edge attributes: {', '.join(stats.edge_attribute_keys) or 'none'}.")

    # ------------------------------------------------------------------
    # state synchronisation ( 1  <- 6  in Figure 2)
    # ------------------------------------------------------------------
    def sync_state(self, updated_graph: PropertyGraph, query: str,
                   approved_by: Optional[str] = None) -> None:
        """Accept an operator-approved updated graph as the new network state."""
        self._history.append({
            "query": query,
            "approved_by": approved_by,
            "previous_nodes": self._graph.node_count,
            "previous_edges": self._graph.edge_count,
            "new_nodes": updated_graph.node_count,
            "new_edges": updated_graph.edge_count,
        })
        self._graph = updated_graph

    @property
    def history(self) -> List[Dict[str, Any]]:
        """Log of approved state changes (used for future prompt enhancement)."""
        return list(self._history)
