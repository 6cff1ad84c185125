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
import copy
import threading
from dataclasses import dataclass, field
from itertools import chain
from operator import is_
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple
from weakref import WeakKeyDictionary

import networkx as nx

from repro.frames import DataFrame
from repro.graph import PropertyGraph, compute_stats
from repro.graph.convert import (
    frames_to_database,
    from_frames,
    from_logged_networkx,
    from_networkx,
    from_sql_database,
    to_frames,
    to_networkx,
    WriteLog,
)
from repro.graph.model import _scalars_only
from repro.obs import span
from repro.sqlengine import Database

# sql_view builds on the memoized frames and never calls to_sql_database; it
# stays importable here because perfbench's traced run wraps every view
# builder at this module
from repro.graph.convert import to_sql_database  # noqa: F401


def _same_objects(left: Iterable[Any], right: Iterable[Any]) -> bool:
    return all(map(is_, left, right))


#: what a new networkx graph keeps in its ``__dict__``, in order
_STORAGE = {kind: tuple(vars(kind())) for kind in (nx.Graph, nx.DiGraph)}

#: guards the idle recycled networkx view and the views handed out, which
#: map to (their :func:`_head` then, their ``WriteLog``)
_VIEW_LOCK = threading.Lock()
_IDLE_VIEW = "idle networkx view"
_VIEWS = "networkx views"


def _head(nx_graph: Any) -> List[Any]:
    """The type of a ``Graph``/``DiGraph`` and its storage attributes."""
    return [type(nx_graph), *map(vars(nx_graph).get, _STORAGE[type(nx_graph)])]


def _same_cells(frame: Any, frozen: DataFrame) -> bool:
    """True when *frame* has *frozen*'s columns, in order, holding the same
    objects in every cell."""
    columns = frozen.columns
    return (type(frame) is DataFrame and frame.columns == columns
            and len(frame) == len(frozen)
            and all(_same_objects(frame[column].values, frozen[column].values)
                    for column in columns))


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
    handed out is a writable structure no one else holds, so a query cannot
    leak its edits into the next one.

    Reading a view back (``read_*_view``) returns the graph the view's state
    converts to.  A view the query wrote nothing to holds the current
    graph, so it reads back as the current graph itself, which must not be
    mutated either.  SQL and networkx views report their own writes; frames
    are compared cell by cell.  A written networkx view reads back as the
    current graph's storage with the rows its log names replaced, which
    shares every other row with the current graph.

    A networkx view is the one view that costs a full conversion, so each
    current graph converts once.  A caller that keeps nothing referring into
    its view hands it back (:meth:`recycle_networkx_view`), written or not;
    rolled back, it is the next :meth:`networkx_view`, taken by one caller
    only.  At most one view waits, and :meth:`sync_state` drops it with the
    other entries.
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

    def _entries(self) -> Dict[str, Any]:
        """The memo entries of the current graph.

        Entries are keyed on the identity of the current graph, so replacing
        it (:meth:`sync_state`) drops them all.
        """
        graph, entries = self._memo
        if graph is not self._graph:
            entries = {}
            self._memo = (self._graph, entries)
        return entries

    def _memoized(self, name: str, build: Callable[[], Any]) -> Any:
        """The entry *name* for the current graph, built on first use."""
        entries = self._entries()
        if name not in entries:
            entries[name] = build()
        return entries[name]

    def _frames(self):
        """The read-only ``(node_frame, edge_frame)`` of the current graph."""
        def build():
            with span("graph.to_frames"):
                frames = to_frames(self._graph)
            return tuple(frame.freeze() for frame in frames)

        return self._memoized("frames", build)

    def networkx_view(self):
        """The state as a ``networkx`` graph (NetworkX backend input): the
        idle recycled view when there is one, else a new conversion whose
        dicts log writes to them (:class:`~repro.graph.convert.WriteLog`).
        A graph with an attribute value of no scalar type converts to a
        view that is never recycled or read back from its log."""
        entries = self._entries()
        with _VIEW_LOCK:
            view = entries.pop(_IDLE_VIEW, None)
        if view is None:
            log = WriteLog()
            with span("graph.to_networkx"):
                view = to_networkx(self._graph, log=log)
            if not log.deep:
                with _VIEW_LOCK:
                    entries.setdefault(_VIEWS, WeakKeyDictionary())[view] = (_head(view), log)
        return view

    def _log(self, nx_graph) -> Optional[WriteLog]:
        """The write log of *nx_graph* when it is a :meth:`networkx_view` of
        the current graph that still stores in the dicts it was built with."""
        if type(nx_graph) not in _STORAGE:
            return None
        with _VIEW_LOCK:
            head, log = self._entries().get(_VIEWS, {}).get(nx_graph, (None, None))
        return log if log is not None and _same_objects(_head(nx_graph), head) else None

    def recycle_networkx_view(self, nx_graph) -> None:
        """Roll *nx_graph*, a :meth:`networkx_view` a query has finished
        with, back to the current graph and keep it for the next
        :meth:`networkx_view` call, unless its log is gone (:meth:`_log`).

        Its attributes besides its storage are deleted, kept or not, and a
        kept view's ``__networkx_cache__`` is emptied.  At most one view is
        kept.  The caller gives the view up, together with everything that
        refers into it (the program's result and namespace, and a thread
        still running the program): the next query may write to it.
        """
        if type(nx_graph) not in _STORAGE:
            return
        # networkx's cached views point back at the graph: without them, a
        # dropped view is freed at once rather than by a full collection
        state = vars(nx_graph)
        for name in [name for name in state if name not in _STORAGE[type(nx_graph)]]:
            del state[name]
        log = self._log(nx_graph)
        if log is not None:
            log.rollback()
            if "__networkx_cache__" in state:
                state["__networkx_cache__"].clear()
            with _VIEW_LOCK:
                self._entries().setdefault(_IDLE_VIEW, nx_graph)

    def frame_view(self):
        """The state as ``(node_frame, edge_frame)`` (pandas-style backend
        input).  A graph with an attribute value of no scalar type gets a
        deep copy, which shares no mutable value with the graph; its cells
        are then other objects, so it reads back by conversion."""
        deep = self._memoized("frames deep", lambda: not _scalars_only(chain(
            (attrs for _, attrs in self._graph.nodes(data=True)),
            (attrs for _, _, attrs in self._graph.edges(data=True)))))
        node_frame, edge_frame = self._frames()
        return node_frame.copy(deep=deep), edge_frame.copy(deep=deep)

    def sql_view(self):
        """The state as an in-memory SQL database (SQL backend input)."""
        return frames_to_database(*self._frames(), self._graph.name)

    def read_networkx_view(self, nx_graph) -> PropertyGraph:
        """The graph a :meth:`networkx_view` holds after a query ran on it:
        the current graph itself when its log is empty, the current graph
        with the logged rows replaced when not
        (:func:`~repro.graph.convert.from_logged_networkx`), and the
        conversion of *nx_graph* when it has no log (``G`` rebound by the
        program, or a storage attribute of it, see :meth:`_log`)."""
        log = self._log(nx_graph)
        if log is None:
            return from_networkx(nx_graph)
        if not log.entries:
            return self._graph
        return from_logged_networkx(self._graph, nx_graph, log)

    def read_frame_view(self, node_frame: DataFrame, edge_frame: DataFrame) -> PropertyGraph:
        """The graph a :meth:`frame_view` holds after a query ran on it."""
        if all(map(_same_cells, (node_frame, edge_frame), self._frames())):
            return self._graph
        return self._with_head(from_frames(node_frame, edge_frame,
                                           directed=self._graph.directed))

    def read_sql_view(self, database: Database) -> PropertyGraph:
        """The graph a :meth:`sql_view` holds after a query ran on it."""
        if not database.written:
            return self._graph
        return self._with_head(from_sql_database(database, directed=self._graph.directed))

    def _with_head(self, graph: PropertyGraph) -> PropertyGraph:
        """*graph*, read back from frames or SQL, which hold no graph name or
        attributes, given the current graph's, as :meth:`PropertyGraph.copy`
        does."""
        graph.name = self._graph.name
        graph.graph_attributes = copy.deepcopy(self._graph.graph_attributes)
        return graph

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
        with span("graph.compute_stats"):
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
        self._memo = (None, {})

    @property
    def history(self) -> List[Dict[str, Any]]:
        """Log of approved state changes (used for future prompt enhancement)."""
        return list(self._history)
