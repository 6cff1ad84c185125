"""Tests for the traffic-analysis and MALT application substrates."""

import contextlib
import copy
import gc
import operator
import sys
import threading
import time
import weakref
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark import BenchmarkConfig, BenchmarkRunner
from repro.benchmark import runner as runner_module
from repro.benchmark.evaluator import ResultsEvaluator
from repro.benchmark.goldens import GoldenAnswer
from repro.benchmark.queries import queries_for
from repro.benchmark.tasks import benchmark_cell_task
from repro.core import NetworkManagementPipeline
from repro.core import application as application_module
from repro.core.application import ApplicationContext
from repro.exec import TaskSet, clear_worker_contexts, run_tasks
from repro.frames import FrameError
from repro.graph import PropertyGraph, diff_graphs, from_networkx, graphs_equal
from repro.graph.convert import from_frames, from_sql_database, to_networkx
from repro.llm.base import LlmProvider
from repro.sandbox import ExecutionSandbox, SandboxPolicy
from repro.sandbox import executor as executor_module
from repro.malt import (
    EntityKind,
    MaltApplication,
    MaltTopologyConfig,
    RelationshipKind,
    generate_malt_topology,
    paper_scale_topology,
)
from repro.malt.schema import describe_schema
from repro.traffic import (
    AddressAllocator,
    CommunicationGraphConfig,
    TrafficAnalysisApplication,
    generate_communication_graph,
    generate_flow_log,
    graph_from_flows,
    prefix16,
    prefix24,
    prefix_of,
)
from repro.utils import DeterministicRng
from repro.utils.validation import ValidationError


class TestAddressing:
    def test_prefix_extraction(self):
        assert prefix_of("10.24.3.7", 8) == "10"
        assert prefix16("10.24.3.7") == "10.24"
        assert prefix24("10.24.3.7") == "10.24.3"

    def test_invalid_address_rejected(self):
        with pytest.raises(ValidationError):
            prefix16("not-an-address")
        with pytest.raises(ValidationError):
            prefix16("300.1.1.1")
        with pytest.raises(ValidationError):
            prefix_of("10.0.0.1", 12)

    def test_allocator_produces_unique_addresses(self):
        allocator = AddressAllocator(DeterministicRng(3), prefix_count=3)
        addresses = allocator.allocate_many(100)
        assert len(set(addresses)) == 100

    def test_allocator_pins_benchmark_prefix(self):
        allocator = AddressAllocator(DeterministicRng(3), prefix_count=2)
        assert "15.76" in allocator.prefixes

    def test_allocator_addresses_use_known_prefixes(self):
        allocator = AddressAllocator(DeterministicRng(1), prefix_count=4)
        prefixes = set(allocator.prefixes)
        for address in allocator.allocate_many(50):
            assert prefix16(address) in prefixes

    @staticmethod
    def _fill_pinned_prefix(allocator, skip_third_octet=None):
        # mark every address the allocator could draw (fourth octet 1..254)
        # as taken, optionally leaving one /24 free
        first, second = AddressAllocator.PINNED_PREFIX
        for third in range(256):
            if third == skip_third_octet:
                continue
            for fourth in range(1, 255):
                allocator._allocated.add(f"{first}.{second}.{third}.{fourth}")

    def test_allocator_exhaustion_raises(self):
        allocator = AddressAllocator(DeterministicRng(5), prefix_count=1)
        self._fill_pinned_prefix(allocator)
        with pytest.raises(RuntimeError, match="address space exhausted"):
            allocator.allocate()

    def test_allocator_finds_remaining_addresses_before_exhausting(self):
        allocator = AddressAllocator(DeterministicRng(5), prefix_count=1)
        self._fill_pinned_prefix(allocator, skip_third_octet=0)
        address = allocator.allocate()
        assert address.startswith("15.76.0.")
        assert address in allocator._allocated


class TestCommunicationGraphGenerator:
    def test_respects_requested_size(self):
        graph = generate_communication_graph(node_count=30, edge_count=45, seed=5)
        assert graph.node_count == 30
        assert graph.edge_count == 45

    def test_deterministic_for_same_seed(self):
        first = generate_communication_graph(node_count=20, edge_count=25, seed=9)
        second = generate_communication_graph(node_count=20, edge_count=25, seed=9)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_communication_graph(node_count=20, edge_count=25, seed=1)
        second = generate_communication_graph(node_count=20, edge_count=25, seed=2)
        assert first != second

    def test_edge_weights_in_configured_range(self):
        config = CommunicationGraphConfig(node_count=20, edge_count=30,
                                          min_bytes=10, max_bytes=20, seed=3)
        graph = generate_communication_graph(config)
        for _, _, attrs in graph.edges(data=True):
            assert 10 <= attrs["bytes"] <= 20
            assert attrs["connections"] >= 1
            assert attrs["packets"] >= 1

    def test_nodes_have_expected_attributes(self):
        graph = generate_communication_graph(node_count=10, edge_count=12, seed=3)
        for _, attrs in graph.nodes(data=True):
            assert set(attrs) >= {"address", "type", "name"}

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_communication_graph(node_count=1, edge_count=1)
        with pytest.raises(ValidationError):
            generate_communication_graph(node_count=3, edge_count=100)

    def test_flow_log_aggregates_back_to_graph(self):
        config = CommunicationGraphConfig(node_count=12, edge_count=15, seed=4)
        graph = generate_communication_graph(config)
        flows = generate_flow_log(config, flows_per_edge=3)
        rebuilt = graph_from_flows(flows)
        # same totals per (source address, target address) pair
        def totals(g):
            result = {}
            for source, target, attrs in g.edges(data=True):
                key = (g.node_attributes(source)["address"], g.node_attributes(target)["address"])
                result[key] = attrs["bytes"]
            return result
        assert totals(rebuilt) == totals(graph)

    def test_flow_record_as_dict(self):
        flows = generate_flow_log(CommunicationGraphConfig(node_count=5, edge_count=5, seed=1),
                                  flows_per_edge=1)
        record = flows[0].as_dict()
        assert set(record) == {"source", "destination", "bytes", "packets",
                               "connections", "protocol"}

    @settings(max_examples=10, deadline=None)
    @given(st.integers(5, 40), st.integers(5, 60))
    def test_generator_size_property(self, nodes, edges):
        edges = min(edges, nodes * (nodes - 1))
        graph = generate_communication_graph(node_count=nodes, edge_count=edges, seed=2)
        assert graph.node_count == nodes
        assert graph.edge_count == edges


class TestTrafficApplication:
    def test_context_structure(self, traffic_app):
        context = traffic_app.context()
        assert isinstance(context, ApplicationContext)
        assert "bytes" in context.edge_schema
        rendered = context.render()
        assert "Network traffic analysis" in rendered

    def test_views(self, traffic_app):
        nx_graph = traffic_app.networkx_view()
        nodes_df, edges_df = traffic_app.frame_view()
        database = traffic_app.sql_view()
        assert nx_graph.number_of_nodes() == 40
        assert len(nodes_df) == 40 and len(edges_df) == 40
        assert database.execute("SELECT COUNT(*) FROM edges").scalar() == 40

    def test_sync_state_records_history(self):
        application = TrafficAnalysisApplication.with_size(10, 10)
        updated = application.graph.copy()
        updated.add_node("new", address="1.2.3.4", type="host")
        application.sync_state(updated, query="add a node", approved_by="operator")
        assert application.graph.node_count == 11
        assert application.history[0]["query"] == "add a node"


class _ScriptedProvider(LlmProvider):
    """A provider whose every answer is one fixed code block."""

    model_name = "gpt-4"

    def __init__(self, language: str, code: str) -> None:
        super().__init__()
        self._text = f"```{language}\n{code}\n```"

    def _generate(self, request):
        return self._text, {}


#: backend -> (code block language, a cell that edits every view it gets)
_TAMPERING_CELLS = {
    "networkx": ("python", "first = list(G.nodes)[0]\n"
                           "G.nodes[list(G.nodes)[1]]['type'] = 'tampered'\n"
                           "G.remove_node(first)\n"
                           "result = G.number_of_nodes()"),
    "pandas": ("python", "nodes_df['type'] = 'tampered'\n"
                         "edges_df['bytes'] = 0\n"
                         "nodes_df = nodes_df[nodes_df['type'] == 'none']\n"
                         "result = len(nodes_df)"),
    "sql": ("sql", "UPDATE nodes SET type = 'tampered';\n"
                   "DELETE FROM edges;\n"
                   "SELECT COUNT(*) FROM edges"),
}


def _view_fingerprint(application):
    """Everything a cell can read from the three views, as plain data."""
    nx_graph = application.networkx_view()
    nodes_df, edges_df = application.frame_view()
    database = application.sql_view()
    return {
        "networkx": (sorted(nx_graph.nodes(data="type")),
                     sorted((u, v, d["bytes"]) for u, v, d in nx_graph.edges(data=True))),
        "frames": (nodes_df.to_records(), edges_df.to_records()),
        "sql": (database.table("nodes").rows, database.table("edges").rows),
    }


class TestStaticViewIsolation:
    @pytest.mark.parametrize("backend", sorted(_TAMPERING_CELLS))
    def test_tampering_cell_leaks_nothing(self, backend):
        application = TrafficAnalysisApplication.with_size(12, 15)
        pristine = application.graph.copy()
        before = _view_fingerprint(application)
        language, code = _TAMPERING_CELLS[backend]
        pipeline = NetworkManagementPipeline(
            application, _ScriptedProvider(language, code), backend)
        result = pipeline.run_query("tamper with everything")
        assert result.succeeded, result.error_message
        assert not graphs_equal(pristine, result.updated_graph)
        assert graphs_equal(pristine, application.graph)
        assert _view_fingerprint(application) == before

    def test_memoized_frames_are_read_only(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        for frame in application._frames():
            with pytest.raises(FrameError):
                frame["type"] = "tampered"
        # the frames handed to a cell stay writable
        nodes_df, _ = application.frame_view()
        nodes_df["type"] = "tampered"
        assert application.frame_view()[0]["type"].values != nodes_df["type"].values

    def test_views_follow_sync_state(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        summary = application.graph_summary()
        updated = application.graph.copy()
        updated.add_node("new", address="1.2.3.4", type="tampered", name="new")
        application.sync_state(updated, query="add a node")
        assert application.graph_summary() != summary
        assert "13 nodes" in application.graph_summary()
        assert application.networkx_view().nodes["new"]["type"] == "tampered"
        nodes_df, _ = application.frame_view()
        assert "new" in nodes_df["id"].values
        assert application.sql_view().execute(
            "SELECT COUNT(*) FROM nodes WHERE type = 'tampered'").scalar() == 1

    def test_sweep_computes_stats_once(self, small_benchmark_config, monkeypatch):
        calls = []
        original = application_module.compute_stats

        def counting(graph, *args, **kwargs):
            calls.append(graph)
            return original(graph, *args, **kwargs)

        monkeypatch.setattr(application_module, "compute_stats", counting)
        clear_worker_contexts()  # no application left memoized by another test
        report = BenchmarkRunner(small_benchmark_config).run_application("malt")
        assert len(report.logger.records) > 1
        assert len(calls) == 1


def _read_backs(application, write=False):
    """backend -> (a view read back by the application, the full conversion
    of that view).  With *write* each view is written to first, by writes
    that change nothing or only a value's type.  A frames or SQL view holds
    no graph name or attributes: their conversions take the application
    graph's."""
    graph = application.graph
    nx_graph = application.networkx_view()
    frames = application.frame_view()
    database = application.sql_view()
    if write:
        nx_graph.graph.update(nx_graph.graph)
        frames[1]["bytes"] = [float(value) for value in frames[1]["bytes"]]
        database.execute("DELETE FROM edges WHERE bytes < 0")
    head = {"name": graph.name, "directed": graph.directed}
    converted = {"pandas": from_frames(*frames, **head),
                 "sql": from_sql_database(database, **head)}
    for conversion in converted.values():
        conversion.graph_attributes = copy.deepcopy(graph.graph_attributes)
    return {
        "networkx": (application.read_networkx_view(nx_graph), from_networkx(nx_graph)),
        "pandas": (application.read_frame_view(*frames), converted["pandas"]),
        "sql": (application.read_sql_view(database), converted["sql"]),
    }


def _undirected_application():
    graph = PropertyGraph("loops", directed=False)
    for node_id in ("a", "b", "c"):
        graph.add_node(node_id, type="host")
    graph.add_edge("c", "b", bytes=1)
    graph.add_edge("c", "a", bytes=2)
    graph.add_edge("b", "b", bytes=3)
    return TrafficAnalysisApplication(graph)


def _application_with_none_attribute():
    graph = TrafficAnalysisApplication.with_size(12, 15).graph.copy()
    graph.set_node_attribute(graph.nodes()[0], "note", None)
    return TrafficAnalysisApplication(graph)


#: name -> (backend, code block language, a cell that writes to its view)
_WRITING_CELLS = {
    "networkx-new-attribute": ("networkx", "python",
                               "G.nodes[list(G.nodes)[0]]['x'] = 1\nresult = 0"),
    "networkx-equal-float": ("networkx", "python",
                             "u, v = list(G.edges)[0]\n"
                             "G.edges[u, v]['bytes'] = float(G.edges[u, v]['bytes'])\n"
                             "result = 0"),
    "pandas-new-column": ("pandas", "python", "nodes_df['x'] = 1\nresult = 0"),
    "pandas-equal-floats": ("pandas", "python",
                            "edges_df['bytes'] = [float(b) for b in edges_df['bytes']]\n"
                            "result = 0"),
    "sql-update": ("sql", "sql", "UPDATE nodes SET type = 'x'"),
    "sql-update-no-row": ("sql", "sql", "UPDATE nodes SET type = 'x' WHERE id = 'none'"),
    "sql-delete-no-row": ("sql", "sql", "DELETE FROM edges WHERE bytes < 0"),
}


def test_a_view_shares_no_mutable_value_with_the_graph():
    """A list an edge holds is copied into the view: a program appending to
    it leaves the graph alone, reads back by conversion, and the view is
    never handed out again (its log cannot see the append)."""
    graph = PropertyGraph("paths")
    graph.add_edge("a", "b", path=["a", "b"])
    application = TrafficAnalysisApplication(graph)
    view = application.networkx_view()
    view["a"]["b"]["path"].append("X")
    assert graph.edge_attributes("a", "b")["path"] == ["a", "b"]
    read_back = application.read_networkx_view(view)
    assert read_back.edge_attributes("a", "b")["path"] == ["a", "b", "X"]
    application.recycle_networkx_view(view)
    assert application.networkx_view() is not view


def test_a_frames_view_shares_no_mutable_value_with_the_graph():
    """The frames view of a graph holding a list is a deep copy: appending
    to a cell's list leaves the graph alone and reads back by conversion."""
    graph = PropertyGraph("paths")
    graph.add_edge("a", "b", path=["a", "b"])
    application = TrafficAnalysisApplication(graph)
    nodes_df, edges_df = application.frame_view()
    edges_df["path"].values[0].append("X")
    assert graph.edge_attributes("a", "b")["path"] == ["a", "b"]
    read_back = application.read_frame_view(nodes_df, edges_df)
    assert read_back is not graph
    assert read_back.edge_attributes("a", "b")["path"] == ["a", "b", "X"]
    untouched = application.read_frame_view(*application.frame_view())
    assert untouched is not graph and graphs_equal(untouched, graph)


class TestUnwrittenReadBack:
    """A view the query did not write reads back as the current graph
    itself; a written view reads back as its full conversion."""

    @pytest.mark.parametrize("name", ["traffic", "malt"])
    def test_skip_yields_the_full_conversion(self, corpus_applications, name):
        application = corpus_applications[name]
        for backend, (read_back, converted) in _read_backs(application).items():
            assert read_back is application.graph, backend
            assert diff_graphs(converted, read_back).is_empty, backend

    @pytest.mark.parametrize("make", [_application_with_none_attribute,
                                      _undirected_application])
    def test_other_graphs_read_back_as_converted(self, make, storage_layout):
        application = make()
        for backend, (read_back, _) in _read_backs(application).items():
            assert read_back is application.graph, backend
        for backend, (read_back, converted) in _read_backs(application, write=True).items():
            assert read_back is not application.graph, backend
            assert storage_layout(read_back) == storage_layout(converted), backend

    def test_none_attribute_takes_the_round_trip(self):
        application = _application_with_none_attribute()
        first = application.graph.nodes()[0]
        for backend, (read_back, _) in _read_backs(application).items():
            assert read_back.node_attributes(first)["note"] is None, backend
        for backend in ("pandas", "sql"):
            read_back, _ = _read_backs(application, write=True)[backend]
            assert "note" not in read_back.node_attributes(first), backend

    @pytest.mark.parametrize("backend", ["pandas", "sql"])
    def test_read_only_cell_on_a_none_attribute_passes(self, backend):
        application = _application_with_none_attribute()
        language, code = {"pandas": ("python", "result = len(nodes_df)"),
                          "sql": ("sql", "SELECT COUNT(*) FROM nodes")}[backend]
        result = NetworkManagementPipeline(
            application, _ScriptedProvider(language, code), backend).run_query("count")
        query = queries_for("traffic_analysis")[0]
        golden = GoldenAnswer(query.query_id, "value", application.graph.node_count)
        record = ResultsEvaluator().evaluate(query, "gpt-4", result, golden,
                                             application.graph)
        assert record.passed, record.failure_reason

    def test_written_read_back_keeps_the_graph_name_and_attributes(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        graph = application.graph
        assert graph.graph_attributes
        for backend, (read_back, _) in _read_backs(application, write=True).items():
            assert read_back is not graph, backend
            assert read_back.name == graph.name, backend
            assert read_back.graph_attributes == graph.graph_attributes, backend
            assert read_back.graph_attributes is not graph.graph_attributes, backend

    @pytest.mark.parametrize("cell", sorted(_WRITING_CELLS))
    def test_writing_cell_takes_the_round_trip(self, cell):
        application = TrafficAnalysisApplication.with_size(12, 15)
        _read_backs(application)  # the unwritten read-backs exist already
        backend, language, code = _WRITING_CELLS[cell]
        result = NetworkManagementPipeline(
            application, _ScriptedProvider(language, code), backend).run_query("write")
        assert result.succeeded, result.error_message
        updated = result.updated_graph
        assert updated is not application.graph
        edge = application.graph.edges()[0]
        if cell.endswith("equal-float") or cell.endswith("equal-floats"):
            assert type(updated.edge_attributes(*edge)["bytes"]) is float
        elif cell.endswith("no-row"):
            assert graphs_equal(application.graph, updated)
        else:
            assert not graphs_equal(application.graph, updated)

    def test_sql_update_does_not_reach_the_next_view(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        pipeline = NetworkManagementPipeline(
            application, _ScriptedProvider("sql", "UPDATE nodes SET type = 'x'"), "sql")
        assert pipeline.run_query("write").succeeded
        assert application.sql_view().execute(
            "SELECT COUNT(*) FROM nodes WHERE type = 'x'").scalar() == 0


@pytest.mark.parametrize("code, error_type", [
    ("SELECT COUNT(*) FROM edges WHERE bytes BETWEEN NULL AND 10", None),
    ("SELECT id FROM nodes WHERE type BETWEEN 1 AND 10", "SqlExecutionError"),
], ids=["null-bound", "mixed-types"])
def test_generated_between_is_scored_not_raised(code, error_type, monkeypatch):
    monkeypatch.setattr(runner_module, "create_provider",
                        lambda model, **_: _ScriptedProvider("sql", code))
    query = queries_for("traffic_analysis")[0]
    task_set = TaskSet(name="between")
    task_set.add(benchmark_cell_task(
        "between", BenchmarkConfig().to_payload(),
        {"kind": "generated", "application": "traffic_analysis"},
        "sql", query.query_id, "gpt-4"))
    [record] = run_tasks(task_set).values()
    assert record.details.get("error_type") == error_type
    assert (record.failure_stage == "execute") == (error_type is not None)


@pytest.mark.parametrize("code, error_type", [
    ("G = 5\nresult = 0", "AttributeError"),
    ("G.graph = 5\nresult = 0", "AttributeError"),
    ("G._node[list(G.nodes)[0]] = 5\nresult = 0", "TypeError"),
], ids=["rebound-view", "rebound-graph-dict", "node-dict-replaced"])
def test_a_view_that_cannot_be_read_back_is_scored_not_raised(code, error_type):
    application = TrafficAnalysisApplication.with_size(12, 15)
    graph = application.graph
    _, result = _networkx_cell(application, code)
    assert result.error_stage == "execute"
    assert result.execution.failed and result.execution.error_type == error_type
    assert result.error_message.startswith(f"{error_type}: ")
    assert result.updated_graph is None and application.graph is graph
    _, after = _networkx_cell(application, "result = G.number_of_nodes()")
    assert after.succeeded and after.result_value == 12


def _undirected_mirrored_application():
    """An undirected application whose graph stores its edges in the order
    ``to_networkx`` does, so that an unwritten view of it mirrors it."""
    return TrafficAnalysisApplication(
        from_networkx(to_networkx(_undirected_application().graph)))


def _networkx_cell(application, code, sandbox=None):
    """Run *code* as a networkx cell and offer its view back for reuse:
    ``(the view the cell was handed, the pipeline result)``."""
    pipeline = NetworkManagementPipeline(
        application, _ScriptedProvider("python", code), "networkx", sandbox=sandbox)
    result = pipeline.run_query("cell")
    pipeline.recycle_view(result)
    return result.view, result


#: a cell that fills every networkx cached view of G and writes nothing
_READING_CELL = ("names = ['nodes', 'edges', 'adj', 'degree']\n"
                 "if G.is_directed():\n"
                 "    names += ['pred', 'succ', 'in_edges', 'out_edges', 'in_degree',\n"
                 "              'out_degree']\n"
                 "views = [getattr(G, name) for name in names]\n"
                 "result = G.number_of_edges()")


def _pred_reordering_edge(nx_graph):
    """An edge last among its source's successors but not last among its
    target's predecessors: removing and re-adding it reorders only _pred."""
    return next((s, t) for s, t in nx_graph.edges
                if list(nx_graph._adj[s])[-1] == t and list(nx_graph._pred[t])[-1] != s)


def _consecutive_targets(nx_graph):
    """Two targets next to each other in _pred, the second with a predecessor."""
    targets = list(nx_graph._pred)
    return next((t1, t2) for t1, t2 in zip(targets, targets[1:]) if nx_graph._pred[t2])


def _empty(rows):
    """Two nodes with empty rows."""
    return [node for node, row in rows.items() if not row][:2]


#: cells that leave their view unlike a new one, so that its next taker
#: must get it rolled back, or a new one: name -> the code, or view -> the
#: code.  They run on a directed traffic application.
_LEAKING_CELLS = {
    "graph-key": "G.graph['note'] = 1",
    "node-attribute-write": "G.nodes[list(G)[0]]['type'] = 'other'",
    "attribute-write": "u, v = list(G.edges)[0]\nG.edges[u, v]['bytes'] += 1",
    "edge-re-added": lambda g: ("s, t = next(e for e in G.edges if e == {!r})\n"
                                "attrs = dict(G.edges[s, t])\n"
                                "G.remove_edge(s, t)\n"
                                "G.add_edge(s, t, **attrs)".format(_pred_reordering_edge(g))),
    "pred-entry-moved": lambda g: ("t1, t2 = {!r}\n"
                                   "source = list(G._pred[t2])[0]\n"
                                   "G._pred[t1][source] = G._pred[t2].pop(source)"
                                   .format(_consecutive_targets(g))),
    "pred-row-reordered": ("t = next(t for t, row in G._pred.items() if len(row) > 1)\n"
                           "items = list(G._pred[t].items())\n"
                           "G._pred[t].clear()\n"
                           "G._pred[t].update(reversed(items))"),
    "pred-source-rekeyed": ("t = next(t for t, row in G._pred.items() if row)\n"
                            "row = G._pred[t]\n"
                            "other = next(n for n in G if n not in row and n != t)\n"
                            "row[other] = row.pop(list(row)[-1])"),
    "pred-target-rekeyed": "G._pred['ghost'] = G._pred.pop(list(G._pred)[-1])",
    "pred-dict-copied": "u, v = list(G.edges)[0]\nG._pred[v][u] = dict(G._pred[v][u])",
    "adj-dict-copied": "u, v = list(G.edges)[0]\nG._adj[u][v] = dict(G._adj[u][v])",
    "succ-split": "G._succ = dict(G._adj)",
    "rows-shared": lambda g: "a, b = {!r}\nG._adj[a] = G._adj[b]".format(_empty(g._adj)),
    "pred-rows-shared": lambda g: "a, b = {!r}\nG._pred[a] = G._pred[b]".format(
        _empty(g._pred)),
    "raises-after-writing": "G.graph['note'] = 1\nraise ValueError('no')",
    "rebound": "G = G.copy()",
    "dict-name-mutator": "dict.update(G.graph, note=1)",
    "mutator-dunder": "G.graph.__init__(note=1)",
    "getattr-dict-mutator": "getattr(dict, 'update')(G.graph, note=1)",
}

#: leaking cells that write behind the methods of G's dicts, which log
#: writes: the sandbox policy rejects them
_BYPASS_CELLS = ("dict-name-mutator", "mutator-dunder", "getattr-dict-mutator")

#: cells that only set attributes of G besides its storage, or fill its
#: ``__networkx_cache__``: recycling deletes and empties them
_ATTRIBUTE_CELLS = {
    "setattr": "setattr(G, 'marker', 1)",
    "cached-view-replaced": "G.nodes = {}",
    "cached-view-of-another-graph": "G.nodes = G.subgraph([]).nodes",
    "networkx-cache-entry": "G.__networkx_cache__['x'] = 1",
}

#: the same for an undirected application whose view mirrors it
_LEAKING_UNDIRECTED_CELLS = {
    "undirected-dict-split": "G._adj['c']['b'] = dict(G._adj['c']['b'])",
    "node-dicts-shared": "G._node['a'] = G._node['b']",
}


#: leaking cells that rebind a storage attribute of G, so that the view
#: has no log to roll back and is dropped
_REBINDING_CELLS = ("succ-split",)


def _same_values(nx_graph, graph):
    """True when every attribute value of *nx_graph* is the object *graph*
    stores at the same place."""
    def same(left, right):
        return list(left) == list(right) and all(map(operator.is_, left.values(),
                                                     right.values()))
    return (all(same(nx_graph._node[node], attrs) for node, attrs in graph._nodes.items())
            and all(same(nx_graph._adj[source][target], attrs)
                    for source, target, attrs in graph.edges(data=True)))


class TestRecycledNetworkxView:
    """A networkx view a cell has finished with is rolled back and handed
    to the next cell instead of a new conversion; a view whose storage
    attributes were rebound is dropped."""

    @pytest.mark.parametrize("name", ["traffic", "malt", "undirected"])
    def test_recycled_view_equals_a_new_one(self, corpus_applications, name,
                                            storage_layout):
        application = (_undirected_mirrored_application() if name == "undirected"
                       else corpus_applications[name])
        view, result = _networkx_cell(application, _READING_CELL)
        assert result.succeeded, result.error_message
        recycled = application.networkx_view()
        assert recycled is view
        new = to_networkx(application.graph)
        assert storage_layout(recycled) == storage_layout(new)
        assert vars(recycled).keys() == vars(new).keys()
        assert application.networkx_view() is not recycled

    @pytest.mark.parametrize("cell", sorted(_LEAKING_CELLS) + sorted(_LEAKING_UNDIRECTED_CELLS))
    def test_leaking_cell_gives_the_next_cell_a_new_view(self, cell, storage_layout):
        if cell in _LEAKING_CELLS:
            application = TrafficAnalysisApplication.with_size(12, 15)
            code = _LEAKING_CELLS[cell]
        else:
            application = _undirected_mirrored_application()
            code = _LEAKING_UNDIRECTED_CELLS[cell]
        if callable(code):
            code = code(to_networkx(application.graph))
        _read_backs(application)  # the unwritten read-backs exist already
        view, result = _networkx_cell(application, code + "\nresult = 0")
        if result.succeeded:  # read back as written
            assert result.updated_graph is not application.graph, cell
        following = application.networkx_view()
        assert (following is view) == (cell not in _REBINDING_CELLS)
        assert storage_layout(following) == storage_layout(to_networkx(application.graph))
        assert _same_values(following, application.graph)

    @pytest.mark.parametrize("cell", _BYPASS_CELLS)
    def test_bypass_cell_is_rejected(self, cell):
        application = TrafficAnalysisApplication.with_size(12, 15)
        view, result = _networkx_cell(application, _LEAKING_CELLS[cell] + "\nresult = 0")
        assert result.execution.error_type == "PolicyViolation"
        assert "note" not in view.graph
        # unchecked, the cell writes to G without logging it
        outcome = ExecutionSandbox().execute(_LEAKING_CELLS[cell], {"G": view},
                                             validate=False)
        assert not outcome.failed and view.graph["note"] == 1
        assert application.read_networkx_view(view)._nodes is application.graph._nodes

    @pytest.mark.parametrize("cell", sorted(_ATTRIBUTE_CELLS))
    def test_recycling_deletes_what_a_cell_set_besides_the_storage(self, cell,
                                                                  storage_layout):
        application = TrafficAnalysisApplication.with_size(12, 15)
        _read_backs(application)  # the unwritten read-backs exist already
        view, result = _networkx_cell(application, _ATTRIBUTE_CELLS[cell] + "\nresult = 0")
        assert result.succeeded, result.error_message
        following = application.networkx_view()
        assert following is view
        new = to_networkx(application.graph)
        assert storage_layout(following) == storage_layout(new)
        assert vars(following).keys() == vars(new).keys()
        assert getattr(following, "__networkx_cache__", {}) == {}
        assert list(following.nodes) == list(new.nodes)

    def test_the_last_read_back_decides(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        view = application.networkx_view()
        assert application.read_networkx_view(view) is application.graph
        view.graph["note"] = 1
        assert application.read_networkx_view(view).graph_attributes["note"] == 1
        application.recycle_networkx_view(view)
        assert application.networkx_view() is view and "note" not in view.graph

    def test_a_view_not_read_back_since_it_was_taken_is_rolled_back(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        view = _networkx_cell(application, _READING_CELL)[0]
        assert application.networkx_view() is view
        view.graph["note"] = 1
        application.recycle_networkx_view(view)
        assert application.networkx_view() is view and "note" not in view.graph

    def test_stopped_timed_out_cell_recycles_its_view(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        code = "while True:\n    G.graph['late'] = 1\n    G.add_node('late')"
        view, result = _networkx_cell(application, code,
                                      ExecutionSandbox(SandboxPolicy(max_seconds=0.02)))
        assert result.execution.error_type == "SandboxTimeout"
        assert not result.execution.still_running
        assert application.networkx_view() is view
        assert "late" not in view.graph and "late" not in view

    def test_timed_out_cell_drops_its_view(self, monkeypatch):
        """A cell whose program outlives its timeout, catching the
        exception that stops it, keeps its view."""
        monkeypatch.setattr(executor_module, "_STOP_GRACE_SECONDS", 0.01)
        application = TrafficAnalysisApplication.with_size(12, 15)
        code = ("total = 0\n"
                "try:\n"
                "    while True:\n"
                "        total += 1\n"
                "except:\n"
                "    for step in range(3_000_000):\n"
                "        total += step\n"
                "G.graph['late'] = total\n"
                "result = 0")
        view, result = _networkx_cell(application, code,
                                      ExecutionSandbox(SandboxPolicy(max_seconds=0.02)))
        assert result.execution.error_type == "SandboxTimeout"
        assert result.execution.still_running
        following = application.networkx_view()
        deadline = time.monotonic() + 60
        while "late" not in view.graph and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "late" in view.graph
        assert following is not view and "late" not in following.graph

    def test_only_views_of_plain_results_go_back(self, monkeypatch):
        application = TrafficAnalysisApplication.with_size(12, 15)
        builds = []
        original = application_module.to_networkx
        monkeypatch.setattr(application_module, "to_networkx",
                            lambda graph, **kwargs: builds.append(graph)
                            or original(graph, **kwargs))
        code = ["result = G.number_of_nodes()"]
        monkeypatch.setattr(runner_module, "create_provider",
                            lambda model, **_: _ScriptedProvider("python", code[0]))
        runner, query = BenchmarkRunner(), queries_for("traffic_analysis")[0]
        for _ in range(3):
            runner.run_query(application, query, "gpt-4", "networkx")
        assert len(builds) == 1
        code[0] = "result = G.degree"  # a record keeps a result it cannot copy
        kept = runner.run_query(application, query, "gpt-4", "networkx")
        degrees = kept.details["actual_value"]
        before = dict(degrees)
        code[0] = "G.add_edge('n0', 'new')\nresult = G.number_of_nodes()"
        runner.run_query(application, query, "gpt-4", "networkx")
        assert len(builds) == 2
        assert dict(degrees) == before
        code[0] = "raise ValueError('no')"  # a written view goes back rolled back
        runner.run_query(application, query, "gpt-4", "networkx")
        runner.run_query(application, query, "gpt-4", "networkx")
        assert len(builds) == 2

    def test_sync_state_drops_the_idle_view(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        view = _networkx_cell(application, _READING_CELL)[0]
        idle = weakref.ref(view)
        del view
        updated = application.graph.copy()
        updated.add_node("new", type="host")
        application.sync_state(updated, query="add a node")
        gc.collect()
        assert idle() is None
        assert "new" in application.networkx_view()

    def test_threads_never_hold_one_view_at_once(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        held, lock, clashes = set(), threading.Lock(), []

        def cells():
            for _ in range(300):
                view = application.networkx_view()
                with lock:
                    if id(view) in held:
                        clashes.append(id(view))
                    held.add(id(view))
                application.read_networkx_view(view)
                with lock:
                    held.discard(id(view))
                application.recycle_networkx_view(view)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=cells) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not clashes

    def test_kept_results_hold_distinct_views(self):
        application = TrafficAnalysisApplication.with_size(12, 15)
        _networkx_cell(application, _READING_CELL)  # leaves a view idle
        pipeline = NetworkManagementPipeline(
            application, _ScriptedProvider("python", _READING_CELL), "networkx")
        first, second = pipeline.run_query("one"), pipeline.run_query("two")
        assert first.execution.namespace["G"] is not second.execution.namespace["G"]


def _node_at(nx_graph, index):
    nodes = list(nx_graph)
    return nodes[index % len(nodes)] if nodes else f"new{index}"


def _edge_at(nx_graph, index):
    edges = list(nx_graph.edges)
    return edges[index % len(edges)] if edges else None


def _with_edge(mutate):
    def apply(g, i, j, value):
        edge = _edge_at(g, i)
        if edge is not None:
            mutate(g, edge, j, value)
    return apply


#: networkx mutations a program may make: name -> mutate(G, i, j, value),
#: where i and j pick nodes or edges and value is an attribute value
_MUTATORS = {
    "add-node": lambda g, i, j, value: g.add_node(f"new{i}", weight=value),
    "add-existing-node": lambda g, i, j, value: g.add_node(_node_at(g, i), weight=value),
    "remove-node": lambda g, i, j, value: g.remove_nodes_from([_node_at(g, i)]),
    "add-edge": lambda g, i, j, value: g.add_edge(_node_at(g, i), _node_at(g, j), bytes=value),
    "add-edge-to-new-node": lambda g, i, j, value: g.add_edge(_node_at(g, i), f"new{j}"),
    "remove-edge": _with_edge(lambda g, edge, j, value: g.remove_edge(*edge)),
    "re-add-edge": _with_edge(lambda g, edge, j, value: (
        g.remove_edge(*edge), g.add_edge(*edge, bytes=value))),
    "node-attribute": lambda g, i, j, value: g.nodes[_node_at(g, i)].__setitem__(
        "type", value) if len(g) else None,
    "edge-attribute": _with_edge(lambda g, edge, j, value: g.edges[edge].__setitem__(
        f"k{j}", value)),
    "edge-attribute-removed": _with_edge(lambda g, edge, j, value: g.edges[edge].pop(
        next(iter(g.edges[edge]), None), None)),
    "attributes-cleared": lambda g, i, j, value: g.nodes[_node_at(g, i)].clear()
    if len(g) else None,
    "attributes-updated": _with_edge(lambda g, edge, j, value: g.edges[edge].update(
        bytes=value, extra=j)),
    "attributes-or": _with_edge(lambda g, edge, j, value: operator.ior(
        g.edges[edge], {"bytes": value})),
    "attribute-popitem": lambda g, i, j, value: g.nodes[_node_at(g, i)].popitem()
    if len(g) and g.nodes[_node_at(g, i)] else None,
    "attribute-setdefault": lambda g, i, j, value: g.nodes[_node_at(g, i)].setdefault(
        f"k{j}", value) if len(g) else None,
    "graph-key": lambda g, i, j, value: g.graph.__setitem__(f"k{j}", value),
    "graph-name-removed": lambda g, i, j, value: g.graph.pop("name", None),
    "graph-updated": lambda g, i, j, value: g.graph.update(application=value),
    "graph-cleared": lambda g, i, j, value: g.clear(),
    "edges-cleared": lambda g, i, j, value: g.clear_edges(),
    "node-removed-behind-networkx": lambda g, i, j, value: [
        table.pop(node, None) for node in [_node_at(g, i)]
        for table in (g._node, g._adj, g._pred)],
    "row-shared-behind-networkx": lambda g, i, j, value: g._adj.__setitem__(
        _node_at(g, i), g._adj[_node_at(g, j)]) if len(g) else None,
}

_ROLLBACK_APPLICATIONS = {}


def _rollback_application(name):
    """One application per name for every example, so that each example
    runs on the view the previous one rolled back."""
    if name not in _ROLLBACK_APPLICATIONS:
        _ROLLBACK_APPLICATIONS[name] = (
            TrafficAnalysisApplication.with_size(12, 15) if name == "traffic"
            else MaltApplication(config=MaltTopologyConfig(
                datacenters=1, pods_per_datacenter=1, racks_per_pod=2, chassis_per_rack=1,
                switches_per_chassis=2, ports_per_switch=2, control_points=2,
                port_links=3)))
    return _ROLLBACK_APPLICATIONS[name]


class TestWriteLogRollback:
    """Random networkx mutations of a recycled view: its read-back equals
    the view's conversion, and its rollback equals a new conversion."""

    @pytest.mark.parametrize("name", ["traffic", "malt"])
    @settings(max_examples=60, deadline=None)
    @given(mutations=st.lists(st.tuples(st.sampled_from(sorted(_MUTATORS)),
                                        st.integers(0, 50), st.integers(0, 50),
                                        st.integers(-3, 3)), max_size=12))
    def test_rollback_restores_a_new_conversion(self, name, mutations, storage_layout):
        application = _rollback_application(name)
        graph = application.graph
        pristine = storage_layout(graph)
        view = application.networkx_view()
        for mutation, i, j, value in mutations:
            # a write behind networkx can make a later call raise halfway,
            # as a failing program would
            with contextlib.suppress(KeyError, nx.NetworkXError):
                _MUTATORS[mutation](view, i, j, value)
        read_back, converted = application.read_networkx_view(view), from_networkx(view)
        assert diff_graphs(converted, read_back).is_empty
        assert (read_back.name, read_back.graph_attributes) == (
            converted.name, converted.graph_attributes)
        assert list(read_back._nodes) == list(converted._nodes)
        assert [(u, list(row)) for u, row in read_back._succ.items()] == [
            (u, list(row)) for u, row in converted._succ.items()]
        assert {v: set(row) for v, row in read_back._pred.items()} == {
            v: set(row) for v, row in converted._pred.items()}
        assert all(read_back._pred[v][u] is attrs
                   for u, v, attrs in read_back.edges(data=True))
        application.recycle_networkx_view(view)
        assert application.networkx_view() is view
        assert storage_layout(view) == storage_layout(to_networkx(graph))
        assert _same_values(view, graph)
        assert all(map(operator.is_, view.graph.values(),
                       {**graph.graph_attributes, "name": graph.name}.values()))
        assert storage_layout(graph) == pristine
        application.recycle_networkx_view(view)


class TestMaltSchema:
    def test_describe_schema_mentions_all_kinds(self):
        description = describe_schema()
        for kind in EntityKind:
            assert kind.value in description
        for kind in RelationshipKind:
            assert kind.value in description


def _entities_of_type(graph, entity_type):
    return [node for node, attrs in graph.nodes(data=True) if attrs["type"] == entity_type]


def _contains(graph, parent, child):
    return (graph.edge_attributes(parent, child)["relationship"]
            == RelationshipKind.CONTAINS.value)


class TestMaltGenerator:
    def test_paper_scale_counts(self):
        graph = paper_scale_topology()
        assert graph.node_count == 5493
        assert graph.edge_count == 6424

    def test_small_topology_structure(self, malt_app):
        counts = Counter(attrs["type"] for _, attrs in malt_app.graph.nodes(data=True))
        assert counts["EK_DATACENTER"] == 1
        assert counts["EK_POD"] == 2
        assert counts["EK_PACKET_SWITCH"] == 1 * 2 * 2 * 2 * 4
        assert counts["EK_PORT"] == counts["EK_PACKET_SWITCH"] * 3

    def test_chassis_capacity_is_sum_of_switches(self, malt_app):
        graph = malt_app.graph
        for chassis in _entities_of_type(graph, "EK_CHASSIS"):
            total = sum(graph.node_attributes(s)["capacity"]
                        for s in graph.successors(chassis)
                        if _contains(graph, chassis, s))
            assert graph.node_attributes(chassis)["capacity"] == total

    def test_every_switch_has_one_controller(self, malt_app):
        graph = malt_app.graph
        for switch in _entities_of_type(graph, "EK_PACKET_SWITCH"):
            controllers = [p for p in graph.predecessors(switch)
                           if graph.edge_attributes(p, switch).get("relationship")
                           == RelationshipKind.CONTROLS.value]
            assert len(controllers) == 1

    def test_containment_parent(self, malt_app):
        graph = malt_app.graph
        assert [p for p in graph.predecessors("ju1.a1.m1.s2c1")
                if _contains(graph, p, "ju1.a1.m1.s2c1")] == ["ju1.a1.m1.c1"]
        assert not any(_contains(graph, p, "wan") for p in graph.predecessors("wan"))

    def test_benchmark_switch_exists(self, malt_app):
        assert malt_app.graph.has_node("ju1.a1.m1.s2c1")

    def test_deterministic(self):
        config = MaltTopologyConfig(datacenters=1, pods_per_datacenter=1, racks_per_pod=2,
                                    chassis_per_rack=1, switches_per_chassis=2,
                                    ports_per_switch=2, control_points=2, port_links=3)
        assert generate_malt_topology(config) == generate_malt_topology(config)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            generate_malt_topology(MaltTopologyConfig(datacenters=0))


class TestMaltApplication:
    def test_context_mentions_schema(self, malt_app):
        rendered = malt_app.context().render()
        assert "EK_PACKET_SWITCH" in rendered
        assert "RK_CONTAINS" in rendered

    def test_views(self, malt_app):
        database = malt_app.sql_view()
        switches = database.execute(
            "SELECT COUNT(*) FROM nodes WHERE type = 'EK_PACKET_SWITCH'").scalar()
        assert switches == 32
