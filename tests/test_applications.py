"""Tests for the traffic-analysis and MALT application substrates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmark import BenchmarkRunner
from repro.core import NetworkManagementPipeline
from repro.core import application as application_module
from repro.core.application import ApplicationContext
from repro.exec import clear_worker_contexts
from repro.frames import FrameError
from repro.graph import graphs_equal
from repro.llm.base import LlmProvider
from repro.malt import (
    EntityKind,
    MaltTopologyConfig,
    RelationshipKind,
    generate_malt_topology,
    paper_scale_topology,
)
from repro.malt.generator import (
    containment_children,
    containment_parent,
    entities_of_type,
    type_counts,
)
from repro.malt.schema import describe_schema, entity_kind_names, relationship_kind_names
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


class TestMaltSchema:
    def test_kind_names(self):
        assert "EK_PACKET_SWITCH" in entity_kind_names()
        assert "RK_CONTAINS" in relationship_kind_names()

    def test_describe_schema_mentions_all_kinds(self):
        description = describe_schema()
        for kind in EntityKind:
            assert kind.value in description
        for kind in RelationshipKind:
            assert kind.value in description


class TestMaltGenerator:
    def test_paper_scale_counts(self):
        graph = paper_scale_topology()
        assert graph.node_count == 5493
        assert graph.edge_count == 6424

    def test_expected_counts_match_config(self):
        config = MaltTopologyConfig()
        assert config.expected_node_count == 5493
        assert config.expected_edge_count == 6424

    def test_small_topology_structure(self, malt_app):
        graph = malt_app.graph
        counts = type_counts(graph)
        assert counts["EK_DATACENTER"] == 1
        assert counts["EK_POD"] == 2
        assert counts["EK_PACKET_SWITCH"] == 1 * 2 * 2 * 2 * 4
        assert counts["EK_PORT"] == counts["EK_PACKET_SWITCH"] * 3

    def test_chassis_capacity_is_sum_of_switches(self, malt_app):
        graph = malt_app.graph
        for chassis in entities_of_type(graph, "EK_CHASSIS"):
            switches = containment_children(graph, chassis, "EK_PACKET_SWITCH")
            total = sum(graph.node_attributes(s)["capacity"] for s in switches)
            assert graph.node_attributes(chassis)["capacity"] == total

    def test_every_switch_has_one_controller(self, malt_app):
        graph = malt_app.graph
        for switch in entities_of_type(graph, "EK_PACKET_SWITCH"):
            controllers = [p for p in graph.predecessors(switch)
                           if graph.edge_attributes(p, switch).get("relationship")
                           == RelationshipKind.CONTROLS.value]
            assert len(controllers) == 1

    def test_containment_parent(self, malt_app):
        graph = malt_app.graph
        assert containment_parent(graph, "ju1.a1.m1.s2c1") == "ju1.a1.m1.c1"
        assert containment_parent(graph, "wan") is None

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
