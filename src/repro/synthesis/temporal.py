"""Runtime of the timeline-aware synthesis backends.

The paper's thesis is that LLM-*generated code* over a network representation
beats answering directly from serialized data.  This module is the temporal
half of that pipeline: it turns a **serialized**
:class:`~repro.scenarios.engine.ScenarioTimeline` (the dict produced by
:func:`repro.scenarios.engine.timeline_to_dict`) into the sandbox namespace a
generated temporal program consumes, and executes the program under the same
:class:`~repro.sandbox.executor.ExecutionSandbox` policy as the static
benchmark code.

The namespace contract (documented in DESIGN.md "Timeline-aware synthesis"):

``snapshots``
    An ordered list of mappings, one per scenario snapshot, each carrying

    * ``time`` — the snapshot timestamp (float),
    * ``digest`` — the snapshot's content digest,
    * ``directed`` — whether the underlying network is directed,
    * ``attributes`` — the graph-level attributes (SRLG declarations,
      scenario metadata),
    * backend-specific state: a NetworkX ``graph`` for the ``networkx``
      backend, or ``nodes_df``/``edges_df`` dataframes for ``frames``.

    Graphs are exposed as ``networkx.DiGraph`` in the timeline's *stored*
    edge orientation regardless of directedness — the same orientation the
    serialized snapshots and the reference diff machinery use — and the
    ``directed`` flag tells generated programs whether link-presence checks
    must be treated symmetrically.

``deltas``
    A list aligned with ``snapshots``: the structural diff from the previous
    snapshot (``missing_nodes`` / ``extra_nodes`` / ``missing_edges`` /
    ``extra_edges`` / changed-attribute keys), ``None`` for the initial
    snapshot.

Programs leave their answer in ``result``, exactly like static benchmark
programs.

Isolation contract.  :func:`freeze_timeline` builds the namespace contents
once per (timeline, backend) as **read-only** objects, which every request
then shares:

* graphs are ``networkx.freeze``-d, and their graph-level, per-node and
  per-edge attribute dicts are :class:`ReadOnlyDict`;
* frames are read-only :class:`~repro.frames.DataFrame` (column assignment
  raises :class:`~repro.frames.FrameError`; ``assign`` still returns a
  writable copy);
* ``attributes`` and every delta are read-only all the way down: mappings
  become :class:`ReadOnlyDict` and lists become tuples.

Values nested *inside* node and edge attributes stay shared with the parsed
timeline, under the same treat-as-immutable contract the static benchmark's
memoized applications rely on.  A program that tries to mutate the shared
contents fails in the sandbox (an ``execute``-stage fault) instead of
corrupting the next request's answer.

:func:`timeline_namespace` is the per-request view: fresh ``snapshots`` and
``deltas`` **lists** over the shared contents — O(snapshots) per request —
so a program may rebind, slice or index off them exactly as before
(``snapshots[len(snapshots)]`` still raises ``list index out of range``).
Sweep workers keep the frozen form, and the sandbox's validated code object
of each program (``cache_code=True``), in
:func:`~repro.exec.workers.worker_context` entries, so they live exactly as
long as the other per-process memos: across requests under ``repro serve``
(``keep_contexts=True``), and until the end of each batch run otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs import span
from repro.sandbox import ExecutionOutcome, ExecutionSandbox
from repro.synthesis.engine import TEMPORAL_CODE_BACKENDS
from repro.utils import DICT_MUTATORS
from repro.utils.validation import require, require_in


class ReadOnlyDict(dict):
    """A ``dict`` whose mutating methods raise ``TypeError``.

    Reads stay plain dict reads.  ``copy()``, ``copy.copy``/``deepcopy`` and
    pickling all produce ordinary dicts, so library code that copies
    attribute dicts (``DiGraph.to_undirected``, ``reverse``) and
    ``json.dumps`` keep working on the shared namespace — which a
    ``MappingProxyType`` cannot offer, since it can be neither deep-copied
    nor serialized.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("this mapping is shared read-only namespace state; "
                        "copy it with dict(...) before modifying it")

    def __reduce__(self):
        return (dict, (dict(self),))


for _name in DICT_MUTATORS:
    setattr(ReadOnlyDict, _name, ReadOnlyDict._read_only)


def _deep_freeze(value: Any) -> Any:
    """*value* (parsed JSON) with every dict read-only and every list a tuple."""
    if isinstance(value, dict):
        return ReadOnlyDict({key: _deep_freeze(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple([_deep_freeze(item) for item in value])
    return value


def _frozen_networkx(graph, attributes: ReadOnlyDict):
    """The timeline's NetworkX view of *graph*, frozen for sharing;
    *attributes* are its already-frozen graph-level attributes."""
    import networkx as nx

    from repro.graph.convert import to_networkx

    nx_graph = to_networkx(graph, force_directed=True)
    nx_graph.graph = ReadOnlyDict(attributes, name=nx_graph.graph["name"])
    node_table = nx_graph._node
    for node in node_table:
        node_table[node] = ReadOnlyDict(node_table[node])
    for source, neighbours in nx_graph._adj.items():
        for target, data in neighbours.items():
            # a DiGraph keeps one data dict per edge, shared by both indexes
            frozen = ReadOnlyDict(data)
            neighbours[target] = frozen
            nx_graph._pred[target][source] = frozen
    return nx.freeze(nx_graph)


@dataclass(frozen=True)
class FrozenTimeline:
    """The shared, read-only namespace contents of one (timeline, backend)."""

    backend: str
    snapshots: Tuple[ReadOnlyDict, ...]
    deltas: Tuple[Optional[ReadOnlyDict], ...]


def parse_timeline_payload(timeline_payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Deserialize a timeline payload into per-snapshot parse results.

    Each entry carries the snapshot's metadata, its rebuilt
    :class:`~repro.graph.model.PropertyGraph` and the serialized delta.
    Parsing is a pure function of the payload, so sweep workers memoize this
    result per scenario and build each backend's :func:`freeze_timeline`
    from it.
    """
    from repro.graph.serialization import graph_from_dict
    from repro.scenarios.engine import require_timeline_format

    require_timeline_format(timeline_payload)
    parsed = []
    for entry in timeline_payload["snapshots"]:
        graph = graph_from_dict(entry["graph"])
        parsed.append({
            "time": float(entry["time"]),
            "digest": entry["digest"],
            "graph": graph,
            "delta": entry.get("delta"),
        })
    return parsed


TimelineSource = Union[Dict[str, Any], List[Dict[str, Any]], FrozenTimeline]


def freeze_timeline(timeline: Union[Dict[str, Any], List[Dict[str, Any]]],
                    backend: str) -> FrozenTimeline:
    """Build the shared read-only namespace contents for *backend*.

    *timeline* is either the raw payload dict from
    :func:`repro.scenarios.engine.timeline_to_dict` or the pre-parsed list
    from :func:`parse_timeline_payload`.  This is the expensive step (graph
    conversion); callers that answer many requests build it once and pass
    the result to :func:`timeline_namespace`.
    """
    from repro.graph.convert import to_frames

    require_in(backend, TEMPORAL_CODE_BACKENDS, "backend")
    parsed = (timeline if isinstance(timeline, list)
              else parse_timeline_payload(timeline))
    snapshots = []
    raw_attributes: Any = None
    for entry in parsed:
        graph = entry["graph"]
        if graph.graph_attributes != raw_attributes:
            # graph-level attributes (SRLG tables) rarely change between
            # snapshots: consecutive equal ones share one frozen tree
            raw_attributes = graph.graph_attributes
            attributes = _deep_freeze(raw_attributes)
        snapshot: Dict[str, Any] = {
            "time": entry["time"],
            "digest": entry["digest"],
            "directed": graph.directed,
            "attributes": attributes,
        }
        if backend == "networkx":
            snapshot["graph"] = _frozen_networkx(graph, attributes)
        else:
            nodes_df, edges_df = to_frames(graph)
            snapshot["nodes_df"] = nodes_df.freeze()
            snapshot["edges_df"] = edges_df.freeze()
        snapshots.append(ReadOnlyDict(snapshot))
    return FrozenTimeline(
        backend=backend,
        snapshots=tuple(snapshots),
        deltas=tuple(_deep_freeze(entry["delta"]) for entry in parsed))


def timeline_namespace(timeline: TimelineSource, backend: str) -> Dict[str, Any]:
    """The sandbox namespace of one serialized timeline for *backend*.

    *timeline* is a :class:`FrozenTimeline` from :func:`freeze_timeline`
    (the warm path: only the two lists are built, O(snapshots)), or any
    form :func:`freeze_timeline` accepts, which is frozen first.
    """
    if isinstance(timeline, FrozenTimeline):
        require(timeline.backend == backend,
                f"namespace was frozen for backend {timeline.backend!r}, "
                f"not {backend!r}")
        frozen = timeline
    else:
        frozen = freeze_timeline(timeline, backend)
    return {"snapshots": list(frozen.snapshots), "deltas": list(frozen.deltas)}


def run_temporal_program(code: str, timeline: TimelineSource, backend: str,
                         sandbox: Optional[ExecutionSandbox] = None,
                         cache_code: bool = False) -> ExecutionOutcome:
    """Execute a generated temporal program against a serialized timeline.

    *timeline* accepts the same forms as :func:`timeline_namespace`.
    Failures (syntax errors, policy violations, runtime exceptions, time
    budget, attempts to mutate the shared namespace) are captured in the
    returned :class:`~repro.sandbox.executor.ExecutionOutcome` — never
    raised — so a faulty generated program is a recorded fault, not a sweep
    crash.  *cache_code* is passed on to
    :meth:`~repro.sandbox.executor.ExecutionSandbox.execute`.
    """
    sandbox = sandbox or ExecutionSandbox()
    with span("temporal.namespace"):
        namespace = timeline_namespace(timeline, backend)
    return sandbox.execute(code, namespace, cache_code=cache_code)
