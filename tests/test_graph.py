"""Tests for the property-graph substrate (model, diff, serialization, stats, convert)."""

import math

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
    graph_to_edge_list,
    graph_to_json,
    graphs_equal,
    to_frames,
    to_networkx,
    to_sql_database,
)
from repro.graph.convert import from_frames, from_sql_database
from repro.graph import diff as diff_module
from repro.graph.diff import ABSENT, values_equal
from repro.graph.stats import degree_histogram, top_nodes_by_weight
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

    def test_find_nodes_and_edges(self):
        graph = build_sample()
        assert graph.find_nodes(type="host") == ["a", "c"]
        assert graph.find_edges(bytes=50) == [("b", "a")]

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

    def test_edge_list_projection(self):
        records = graph_to_edge_list(build_sample(), weight_keys=["bytes"])
        assert all(set(record) == {"source", "target", "bytes"} for record in records)
        assert len(records) == 3


class TestStats:
    def test_compute_stats(self):
        stats = compute_stats(build_sample())
        assert stats.node_count == 3
        assert stats.edge_count == 3
        assert stats.node_type_counts == {"host": 2, "router": 1}
        assert stats.edge_weight_totals["bytes"] == 160
        assert stats.isolated_nodes == 0

    def test_degree_histogram(self):
        histogram = degree_histogram(build_sample())
        assert sum(histogram.values()) == 3

    def test_top_nodes_by_weight(self):
        top = top_nodes_by_weight(build_sample(), "bytes", k=1, direction="out")
        assert top[0][0] == "a"
        with pytest.raises(ValueError):
            top_nodes_by_weight(build_sample(), "bytes", direction="sideways")


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
