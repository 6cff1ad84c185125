"""Tests for the property-graph substrate (model, diff, serialization, stats, convert)."""

import copy
import math
import operator
import pickle

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.frames import DataFrame
from repro.graph import (
    GraphError,
    PropertyGraph,
    compute_stats,
    diff_graphs,
    from_networkx,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    graphs_equal,
    to_frames,
    to_networkx,
    to_sql_database,
)
from repro.graph.convert import TrackedDict, WriteLog, from_frames, from_sql_database
from repro.graph import diff as diff_module
from repro.graph.diff import ABSENT, values_equal
from repro.synthesis.temporal import ReadOnlyDict
from repro.utils import DICT_MUTATORS
from repro.utils.validation import ValidationError


def build_sample() -> PropertyGraph:
    graph = PropertyGraph("sample")
    graph.add_node("a", address="10.0.0.1", type="host")
    graph.add_node("b", address="10.0.1.2", type="router")
    graph.add_node("c", address="15.76.0.9", type="host")
    graph.add_edge("a", "b", bytes=100, packets=4)
    graph.add_edge("b", "a", bytes=50, packets=2)
    graph.add_edge("b", "c", bytes=10, packets=1)
    return graph


class TestPropertyGraphBasics:
    def test_add_and_count(self):
        graph = build_sample()
        assert graph.node_count == 3
        assert graph.edge_count == 3
        assert len(graph) == 3
        assert "a" in graph

    def test_node_attribute_merge(self):
        graph = PropertyGraph()
        graph.add_node("x", color="red")
        graph.add_node("x", size=3)
        assert graph.node_attributes("x") == {"color": "red", "size": 3}

    def test_add_edge_autocreates_nodes(self):
        graph = PropertyGraph()
        graph.add_edge("u", "v", weight=1)
        assert graph.has_node("u") and graph.has_node("v")

    def test_remove_node_removes_incident_edges(self):
        graph = build_sample()
        graph.remove_node("b")
        assert graph.edge_count == 0
        assert not graph.has_node("b")

    def test_remove_edge(self):
        graph = build_sample()
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")
        assert graph.has_edge("b", "a")

    def test_missing_node_raises(self):
        graph = build_sample()
        with pytest.raises(GraphError):
            graph.node_attributes("missing")
        with pytest.raises(GraphError):
            graph.remove_node("missing")

    def test_missing_edge_raises(self):
        graph = build_sample()
        with pytest.raises(GraphError):
            graph.edge_attributes("a", "c")

    def test_degrees(self):
        graph = build_sample()
        assert graph.out_degree("b") == 2
        assert graph.in_degree("b") == 1
        assert graph.degree("b") == 3
        assert graph.out_degree("b", weight="bytes") == 60

    def test_neighbors_union(self):
        graph = build_sample()
        assert set(graph.neighbors("b")) == {"a", "c"}

    def test_subgraph(self):
        graph = build_sample()
        sub = graph.subgraph(["a", "b"])
        assert sub.node_count == 2
        assert sub.edge_count == 2
        # deep copy: mutating the subgraph leaves the original untouched
        sub.node_attributes("a")["type"] = "changed"
        assert graph.node_attributes("a")["type"] == "host"

    def test_subgraph_unknown_node(self):
        with pytest.raises(ValidationError):
            build_sample().subgraph(["a", "zz"])

    def test_copy_is_deep(self):
        graph = build_sample()
        duplicate = graph.copy()
        duplicate.edge_attributes("a", "b")["bytes"] = 999
        assert graph.edge_attributes("a", "b")["bytes"] == 100

    def test_total_edge_weight(self):
        assert build_sample().total_edge_weight("bytes") == 160

    def test_undirected_graph_edge_symmetry(self):
        graph = PropertyGraph(directed=False)
        graph.add_edge("a", "b", weight=1)
        assert graph.has_edge("b", "a")
        assert graph.edge_count == 1

    def test_edge_count_directed_counts_each_orientation(self):
        graph = build_sample()
        graph.add_edge("c", "c", bytes=1)
        assert graph.edge_count == len(graph.edges()) == 4

    def test_edge_count_undirected_without_self_loops(self):
        graph = PropertyGraph(directed=False)
        for source, target in (("a", "b"), ("b", "c"), ("c", "a"), ("b", "a")):
            graph.add_edge(source, target)
        assert graph.edge_count == len(graph.edges()) == 3

    def test_edge_count_undirected_with_self_loops(self):
        graph = PropertyGraph(directed=False)
        for source, target in (("a", "b"), ("a", "a"), ("b", "c"), ("c", "c")):
            graph.add_edge(source, target)
        assert graph.edge_count == len(graph.edges()) == 4
        graph.remove_edge("a", "a")
        assert graph.edge_count == len(graph.edges()) == 3

    def test_equality_uses_structure(self):
        graph = build_sample()
        assert graph == build_sample()
        other = build_sample()
        other.set_node_attribute("a", "type", "router")
        assert graph != other


class TestGraphDiff:
    def test_identical_graphs(self):
        diff = diff_graphs(build_sample(), build_sample())
        assert diff.is_empty
        assert diff.summary() == "graphs are identical"

    def test_missing_node_detected(self):
        left = build_sample()
        right = build_sample()
        right.remove_node("c")
        diff = diff_graphs(left, right)
        assert diff.missing_nodes == ["c"]
        assert not diff.is_empty

    def test_extra_edge_detected(self):
        right = build_sample()
        right.add_edge("a", "c", bytes=1)
        diff = diff_graphs(build_sample(), right)
        assert ("a", "c") in diff.extra_edges

    def test_attribute_mismatch_detected(self):
        right = build_sample()
        right.set_edge_attribute("a", "b", "bytes", 101)
        diff = diff_graphs(build_sample(), right)
        assert diff.edge_attribute_mismatches
        assert "bytes" in diff.summary()

    def test_float_tolerance(self):
        left = build_sample()
        right = build_sample()
        right.set_edge_attribute("a", "b", "bytes", 100.0 + 1e-12)
        assert graphs_equal(left, right)

    def test_absent_sentinel_not_confused_with_literal_string(self):
        # regression: the missing-attribute marker used to be the string
        # "<absent>", so an attribute whose *real value* was "<absent>" on
        # one side and missing on the other compared equal and the diff was
        # silently empty
        left = build_sample()
        right = build_sample()
        left.set_node_attribute("a", "marker", "<absent>")
        diff = diff_graphs(left, right)
        assert ("a", "marker", "<absent>", ABSENT) in diff.node_attribute_mismatches
        assert not graphs_equal(left, right)

    def test_absent_sentinel_renders_in_summary(self):
        left = build_sample()
        right = build_sample()
        right.set_node_attribute("a", "extra", 1)
        diff = diff_graphs(left, right)
        assert ("a", "extra", ABSENT, 1) in diff.node_attribute_mismatches
        assert "<absent>" in diff.summary()

    def test_absent_sentinel_is_a_pickle_stable_singleton(self):
        import pickle

        assert pickle.loads(pickle.dumps(ABSENT)) is ABSENT
        assert ABSENT == ABSENT
        assert ABSENT != "<absent>"

    def test_untouched_nan_attribute_round_trips_as_identical(self):
        # regression: values_equal(x, x) was False for a NaN x, so a graph
        # holding a NaN "differed" from its own untouched round trip and a
        # correct read-only cell failed at compare
        graph = build_sample()
        graph.set_node_attribute("a", "load", math.nan)
        assert values_equal(graph.node_attributes("a")["load"],
                            graph.node_attributes("a")["load"])
        assert diff_graphs(graph, from_networkx(to_networkx(graph))).is_empty
        # the full comparison agrees, not just the unchanged-graph shortcut
        changed = from_networkx(to_networkx(graph))
        changed.add_node("d")
        diff = diff_graphs(graph, changed)
        assert diff.extra_nodes == ["d"]
        assert not diff.node_attribute_mismatches

    def test_distinct_nan_objects_still_differ(self):
        left = build_sample()
        right = build_sample()
        left.set_node_attribute("a", "load", float("nan"))
        right.set_node_attribute("a", "load", float("nan"))
        assert not graphs_equal(left, right)

    def test_matching_literal_absent_strings_still_equal(self):
        left = build_sample()
        right = build_sample()
        left.set_node_attribute("a", "marker", "<absent>")
        right.set_node_attribute("a", "marker", "<absent>")
        assert graphs_equal(left, right)


def _undirected(order):
    graph = PropertyGraph("ring", directed=False)
    for node_id in order:
        graph.add_node(node_id)
    graph.add_edge("a", "b", weight=1)
    graph.add_edge("b", "c", weight=2)
    return graph


def _changed(change):
    graph = build_sample()
    change(graph)
    return graph


#: (left, right, whether the graphs are equal) for every diff category
_DIFF_CASES = {
    "identical": (build_sample, build_sample, True),
    "missing node": (build_sample, lambda: _changed(lambda g: g.remove_node("c")), False),
    "extra node": (build_sample, lambda: _changed(lambda g: g.add_node("d")), False),
    "missing edge": (build_sample, lambda: _changed(lambda g: g.remove_edge("b", "c")),
                     False),
    "extra edge": (build_sample, lambda: _changed(lambda g: g.add_edge("c", "a")), False),
    "float within tolerance": (
        lambda: _changed(lambda g: g.set_edge_attribute("a", "b", "load", 0.5)),
        lambda: _changed(lambda g: g.set_edge_attribute("a", "b", "load", 0.5 + 1e-12)),
        True),
    "float beyond tolerance": (
        lambda: _changed(lambda g: g.set_edge_attribute("a", "b", "load", 0.5)),
        lambda: _changed(lambda g: g.set_edge_attribute("a", "b", "load", 0.5001)),
        False),
    "tuple vs list": (
        lambda: _changed(lambda g: g.set_node_attribute("a", "ports", (1, 2))),
        lambda: _changed(lambda g: g.set_node_attribute("a", "ports", [1, 2])),
        True),
    "undirected, other node order": (lambda: _undirected("abc"),
                                     lambda: _undirected("cba"), False),
}


@pytest.mark.parametrize("case", sorted(_DIFF_CASES))
def test_diff_shortcut_agrees_with_full_comparison(case, monkeypatch):
    make_left, make_right, equal = _DIFF_CASES[case]
    left, right = make_left(), make_right()
    shortcut = diff_graphs(left, right)
    monkeypatch.setattr(diff_module, "_same_adjacency", lambda *_: False)
    full = diff_graphs(left, right)
    assert shortcut == full
    assert full.is_empty is equal


class TestSerialization:
    def test_dict_roundtrip(self):
        graph = build_sample()
        assert graphs_equal(graph, graph_from_dict(graph_to_dict(graph)))

    def test_json_roundtrip(self):
        graph = build_sample()
        assert graphs_equal(graph, graph_from_json(graph_to_json(graph)))

    def test_invalid_payload_rejected(self):
        with pytest.raises(ValidationError):
            graph_from_dict({"nodes": [{}]})


class TestStats:
    def test_compute_stats(self):
        stats = compute_stats(build_sample())
        assert stats.node_count == 3
        assert stats.edge_count == 3
        assert stats.node_type_counts == {"host": 2, "router": 1}
        assert stats.edge_weight_totals["bytes"] == 160
        assert stats.isolated_nodes == 0


class TestConversions:
    def test_networkx_roundtrip(self):
        graph = build_sample()
        assert graphs_equal(graph, from_networkx(to_networkx(graph)))

    def test_networkx_has_attributes(self):
        nx_graph = to_networkx(build_sample())
        assert nx_graph.nodes["a"]["address"] == "10.0.0.1"
        assert nx_graph.edges["a", "b"]["bytes"] == 100

    def test_frames_roundtrip(self):
        graph = build_sample()
        nodes_df, edges_df = to_frames(graph)
        assert isinstance(nodes_df, DataFrame)
        assert len(nodes_df) == 3 and len(edges_df) == 3
        assert graphs_equal(graph, from_frames(nodes_df, edges_df))

    def test_sql_roundtrip(self):
        graph = build_sample()
        database = to_sql_database(graph)
        assert database.table("nodes").columns[0] == "id"
        assert graphs_equal(graph, from_sql_database(database))


# ---------------------------------------------------------------------------
# bulk conversions: the same graphs, in the same order, as per-element builds
# ---------------------------------------------------------------------------
def _per_element_to_networkx(graph, force_directed=False):
    nx_graph = nx.DiGraph() if (graph.directed or force_directed) else nx.Graph()
    nx_graph.graph.update(graph.graph_attributes)
    nx_graph.graph["name"] = graph.name
    for node_id, attrs in graph.nodes(data=True):
        nx_graph.add_node(node_id, **dict(attrs))
    for source, target, attrs in graph.edges(data=True):
        nx_graph.add_edge(source, target, **dict(attrs))
    return nx_graph


def _per_element_from_networkx(nx_graph):
    graph = PropertyGraph(name=nx_graph.graph.get("name", "graph"),
                          directed=nx_graph.is_directed())
    graph.graph_attributes.update(
        {k: v for k, v in nx_graph.graph.items() if k != "name"})
    for node_id, attrs in nx_graph.nodes(data=True):
        graph.add_node(node_id, **dict(attrs))
    for source, target, attrs in nx_graph.edges(data=True):
        graph.add_edge(source, target, **dict(attrs))
    return graph


def _per_element_from_frames(node_frame, edge_frame, name="graph", directed=True):
    graph = PropertyGraph(name=name, directed=directed)
    for _, record in node_frame.iterrows():
        node_id = record["id"]
        graph.add_node(node_id, **{k: v for k, v in record.items()
                                   if k != "id" and v is not None})
    for _, record in edge_frame.iterrows():
        source, target = record["source"], record["target"]
        graph.add_edge(source, target, **{k: v for k, v in record.items()
                                          if k not in ("source", "target")
                                          and v is not None})
    return graph


def _per_element_from_sql_database(database, name="graph", directed=True):
    frames = [DataFrame.from_records(table.rows, columns=table.columns)
              for table in (database.table("nodes"), database.table("edges"))]
    return _per_element_from_frames(*frames, name=name, directed=directed)


def _undirected_with_self_loop():
    # stored edge orientation and adjacency order differ from the edges() walk
    graph = PropertyGraph("loops", directed=False)
    graph.graph_attributes["seed"] = 3
    for node_id in ("a", "b", "c", "d"):
        graph.add_node(node_id, weight=len(node_id), label=None)
    graph.add_edge("c", "b", bytes=1)
    graph.add_edge("c", "a", bytes=2.5)
    graph.add_edge("c", "c", bytes=3)
    graph.add_edge("d", "a", bytes=4, kind="x")
    return graph


@pytest.fixture(scope="module")
def layout_graphs(corpus_applications):
    return {"traffic": corpus_applications["traffic"].graph,
            "malt": corpus_applications["malt"].graph,
            "sample": build_sample(),
            "undirected": _undirected_with_self_loop()}


class TestBulkConversions:
    """Each conversion stores what per-element ``add_node``/``add_edge``
    calls stored, in the same node, successor and predecessor order."""

    @pytest.mark.parametrize("name", ["traffic", "malt", "sample", "undirected"])
    def test_networkx_both_ways(self, layout_graphs, name, storage_layout):
        graph = layout_graphs[name]
        for force_directed in (False, True):
            nx_graph = to_networkx(graph, force_directed=force_directed)
            assert storage_layout(nx_graph) == storage_layout(
                _per_element_to_networkx(graph, force_directed=force_directed))
            assert storage_layout(from_networkx(nx_graph)) \
                == storage_layout(_per_element_from_networkx(nx_graph))

    @pytest.mark.parametrize("name", ["traffic", "malt", "sample", "undirected"])
    def test_frames_and_sql(self, layout_graphs, name, storage_layout):
        graph = layout_graphs[name]
        frames = to_frames(graph)
        assert storage_layout(from_frames(*frames, directed=graph.directed)) \
            == storage_layout(_per_element_from_frames(*frames, directed=graph.directed))
        database = to_sql_database(graph)
        assert storage_layout(from_sql_database(database, name="db", directed=graph.directed)) \
            == storage_layout(_per_element_from_sql_database(database, name="db",
                                                      directed=graph.directed))

    def test_rows_that_repeat_or_dangle(self, storage_layout):
        """Repeated node and edge rows merge into the first; an edge to an
        unlisted node creates it; a reversed undirected edge merges too."""
        nodes = DataFrame({"id": ["a", "b", "a"], "kind": ["x", None, None],
                           "size": [1, 2, 3]})
        edges = DataFrame({"source": ["a", "a", "b", "z"],
                           "target": ["b", "b", "a", "a"],
                           "bytes": [1, None, 7, 2]})
        for directed in (True, False):
            assert storage_layout(from_frames(nodes, edges, directed=directed)) \
                == storage_layout(_per_element_from_frames(nodes, edges, directed=directed))

    def test_missing_id_column_fails_as_before(self):
        nodes = DataFrame({"name": ["a"]})
        edges = DataFrame({"source": [], "target": []})
        for build in (from_frames, _per_element_from_frames):
            with pytest.raises(KeyError, match="id"):
                build(nodes, edges)


def _per_element_copy(graph, node_ids=None):
    """What ``copy()`` (or, given *node_ids*, ``subgraph()``) stored when it
    called ``add_node``/``add_edge`` with a deep copy of each attribute dict."""
    keep = set(graph._nodes if node_ids is None else node_ids)
    duplicate = PropertyGraph(name=graph.name if node_ids is None
                              else f"{graph.name}.subgraph", directed=graph.directed)
    for node_id in (graph._nodes if node_ids is None else keep):
        duplicate.add_node(node_id, **copy.deepcopy(graph._nodes[node_id]))
    for source, target, attrs in graph.edges(data=True):
        if source in keep and target in keep:
            duplicate.add_edge(source, target, **copy.deepcopy(attrs))
    duplicate.graph_attributes = copy.deepcopy(graph.graph_attributes)
    return duplicate


class TestCopies:
    """``copy`` and ``subgraph`` store through ``convert._store`` what the
    per-element calls stored, and share no attribute dict or mutable value."""

    @pytest.mark.parametrize("name", ["traffic", "malt", "sample", "undirected"])
    def test_store_like_per_element_calls(self, layout_graphs, name, storage_layout):
        graph = layout_graphs[name]
        assert storage_layout(graph.copy()) == storage_layout(_per_element_copy(graph))
        kept = list(graph._nodes)[::2] + list(graph._nodes)[1:4]
        assert storage_layout(graph.subgraph(kept)) \
            == storage_layout(_per_element_copy(graph, kept))

    def test_self_loops_keep_one_shared_dict(self):
        for directed in (True, False):
            graph = PropertyGraph(directed=directed)
            graph.add_edge("a", "a", bytes=1)
            graph.add_edge("b", "a", bytes=2)
            for duplicate in (graph.copy(), graph.subgraph(["a", "b"])):
                loop = duplicate._succ["a"]["a"]
                assert duplicate._pred["a"]["a"] is loop
                assert loop == {"bytes": 1} and loop is not graph._succ["a"]["a"]
                assert duplicate.edge_count == graph.edge_count

    def test_share_no_attribute_dict_or_mutable_value(self):
        graph = PropertyGraph("shared")
        graph.add_node("a", tags=["x"], meta={"rack": [1]}, size=3)
        graph.add_node("b", size=4, label=None, up=True, load=0.5)
        graph.add_edge("a", "b", path=["a", "b"], bytes=10)
        graph.add_edge("b", "a", bytes=2)
        graph.graph_attributes["history"] = [1]
        for duplicate in (graph.copy(), graph.subgraph(["a", "b"])):
            assert graphs_equal(duplicate, graph)
            for node_id in ("a", "b"):
                assert duplicate._nodes[node_id] is not graph._nodes[node_id]
                assert type(duplicate._nodes[node_id]) is dict
            for source, target in (("a", "b"), ("b", "a")):
                assert duplicate._succ[source][target] is not graph._succ[source][target]
            duplicate._nodes["a"]["tags"].append("y")
            duplicate._nodes["a"]["meta"]["rack"].append(2)
            duplicate._succ["a"]["b"]["path"].append("c")
            duplicate._nodes["b"]["size"] = 5
            duplicate.graph_attributes["history"].append(2)
            assert graph._nodes["a"] == {"tags": ["x"], "meta": {"rack": [1]}, "size": 3}
            assert graph._succ["a"]["b"]["path"] == ["a", "b"]
            assert graph._nodes["b"]["size"] == 4
            assert graph.graph_attributes["history"] == [1]

    def test_copies_of_dict_subclasses_are_plain(self):
        graph = PropertyGraph("tracked")
        graph.add_edge("a", "b")
        tracked = TrackedDict(bytes=1)
        tracked.log = WriteLog()
        graph._succ["a"]["b"] = graph._pred["b"]["a"] = tracked
        graph._nodes["a"] = ReadOnlyDict(size=1)
        duplicate = graph.copy()
        assert type(duplicate._succ["a"]["b"]) is dict
        assert type(duplicate._nodes["a"]) is dict
        duplicate._succ["a"]["b"]["bytes"] = 2
        assert not tracked.log.entries


def _storage_dicts(nx_graph):
    """Every dict a networkx graph stores its contents in."""
    tops = [nx_graph.graph, nx_graph._node, nx_graph._adj]
    if nx_graph.is_directed():
        tops += [nx_graph._succ, nx_graph._pred]
    rows = [row for top in tops[2:] for row in top.values()]
    attrs = [attrs for row in rows for attrs in row.values()]
    return tops + list(nx_graph._node.values()) + rows + attrs


def test_diff_compares_only_the_rows_that_are_not_shared(monkeypatch):
    """A graph sharing all but a few rows with another diffs against it as
    a full copy with the same changes does, comparing only those rows."""
    graph = build_sample()
    copied, shared = graph.copy(), PropertyGraph(graph.name)
    shared._nodes, shared._succ, shared._pred = dict(graph._nodes), dict(graph._succ), graph._pred
    shared._nodes["a"] = dict(graph._nodes["a"])
    shared._succ["b"] = {"a": {"bytes": 51, "packets": 2}, "d": {}}
    for changed in (copied, shared):
        changed._nodes["a"]["type"] = "router"
    copied._succ["b"]["a"]["bytes"] = 51
    copied.add_edge("b", "d")
    del copied._succ["b"]["c"]
    del copied._nodes["d"]
    compared = []
    original = diff_module._diff_attrs
    monkeypatch.setattr(diff_module, "_diff_attrs",
                        lambda left, right, tolerance: compared.append(left)
                        or original(left, right, tolerance))
    expected = diff_graphs(graph, copied)
    assert not expected.is_empty
    compared.clear()
    assert diff_graphs(graph, shared) == expected
    assert compared == [graph._nodes["a"], graph._succ["b"]["a"]]


class TestTrackedNetworkx:
    """A conversion with ``log`` stores what a plain one does, in
    ``TrackedDict``s: reads log nothing, networkx's writers log."""

    @pytest.mark.parametrize("name", ["traffic", "malt", "sample", "undirected"])
    def test_tracked_conversion_stores_what_the_plain_one_does(self, layout_graphs, name,
                                                              storage_layout):
        graph = layout_graphs[name]
        for force_directed in (False, True):
            log = WriteLog()
            tracked = to_networkx(graph, force_directed=force_directed, log=log)
            assert storage_layout(tracked) == storage_layout(
                to_networkx(graph, force_directed=force_directed))
            assert all(type(d) is TrackedDict and d.log is log
                       for d in _storage_dicts(tracked))
            assert all(type(d) is dict for d in _storage_dicts(
                to_networkx(graph, force_directed=force_directed)))
            _ = (list(nx.bfs_edges(tracked, next(iter(tracked)))), dict(tracked.degree),
                 list(tracked.edges(data=True)), dict(tracked.nodes(data=True)))
            assert not log.entries

    @pytest.mark.parametrize("write", [
        lambda g: g.add_edge("a", "z"),
        lambda g: g.nodes["a"].update(type="switch"),
        lambda g: operator.setitem(g.edges["a", "b"], "bytes", 0),
        lambda g: g.remove_node("c"),
        lambda g: nx.set_node_attributes(g, 1, "mark"),
    ])
    def test_networkx_writes_are_recorded(self, write):
        log = WriteLog()
        nx_graph = to_networkx(build_sample(), log=log)
        write(nx_graph)
        assert log.entries


#: mutator name -> a call of it on ``{"a": 1}``, dunders through the operator
#: a program would write
_MUTATIONS = {
    "__setitem__": lambda d: operator.setitem(d, "a", 2),
    "__delitem__": lambda d: operator.delitem(d, "a"),
    "__ior__": lambda d: operator.ior(d, {"b": 2}),
    "clear": lambda d: d.clear(),
    "pop": lambda d: d.pop("a"),
    "popitem": lambda d: d.popitem(),
    "setdefault": lambda d: d.setdefault("b", 2),
    "update": lambda d: d.update(b=2),
}


def test_the_mutation_table_covers_every_mutator():
    assert sorted(_MUTATIONS) == sorted(DICT_MUTATORS)


@pytest.mark.parametrize("name", DICT_MUTATORS)
def test_each_mutator_refuses_or_records(name):
    """A ``ReadOnlyDict`` refuses every mutator and a ``TrackedDict``
    logs it, so that a rollback restores it; copies and pickles of either
    are plain dicts."""
    mutate = _MUTATIONS[name]
    frozen = ReadOnlyDict(a=1)
    with pytest.raises(TypeError, match="read-only"):
        mutate(frozen)
    assert frozen == {"a": 1}

    tracked, plain = TrackedDict(a=1, z=3), {"a": 1, "z": 3}
    value = tracked["a"]
    tracked.log, tracked.ordered = WriteLog(), False
    returned = mutate(tracked)
    assert tracked.log.entries
    assert returned == mutate(plain) and tracked == plain
    tracked.log.rollback()
    assert list(tracked.items()) == [("a", 1), ("z", 3)] and tracked["a"] is value
    assert not tracked.log.entries
    for original in (ReadOnlyDict(a=ReadOnlyDict(b=1)), TrackedDict(a=1)):
        for clone in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert type(clone) is dict and clone == original


# ---------------------------------------------------------------------------
# property-based roundtrips
# ---------------------------------------------------------------------------
_node_ids = st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=4),
                     min_size=2, max_size=8, unique=True)


@st.composite
def random_graph(draw):
    ids = draw(_node_ids)
    graph = PropertyGraph("random")
    for node_id in ids:
        graph.add_node(node_id, weight=draw(st.integers(0, 100)))
    edge_count = draw(st.integers(0, min(10, len(ids) * (len(ids) - 1))))
    for _ in range(edge_count):
        source = draw(st.sampled_from(ids))
        target = draw(st.sampled_from(ids))
        if source != target:
            graph.add_edge(source, target, bytes=draw(st.integers(0, 1000)))
    return graph


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_json_roundtrip_property(graph):
    assert graphs_equal(graph, graph_from_json(graph_to_json(graph)))


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_frames_roundtrip_property(graph):
    nodes_df, edges_df = to_frames(graph)
    assert graphs_equal(graph, from_frames(nodes_df, edges_df))


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_networkx_roundtrip_property(graph):
    assert graphs_equal(graph, from_networkx(to_networkx(graph)))


@settings(max_examples=30, deadline=None)
@given(random_graph())
def test_copy_equals_original_property(graph):
    assert graphs_equal(graph, graph.copy())
