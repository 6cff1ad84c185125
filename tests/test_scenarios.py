"""Tests for the ``repro.scenarios`` subsystem.

Covers every topology family, every event kind, spec serialization, replay
determinism (identical snapshot digests across runs), the built-in registry,
the benchmark/cost integrations, and the ``scenarios`` CLI sub-command.
"""

import json

import pytest

from repro.benchmark import BenchmarkConfig, BenchmarkRunner
from repro.benchmark.queries import traffic_queries
from repro.cli import main
from repro.cost import CostAnalyzer
from repro.graph import PropertyGraph
from repro.graph.diff import graphs_equal
from repro.graph.serialization import graph_from_json, graph_to_json
from repro.malt import MaltApplication
from repro.scenarios import (
    CapacityDegradationEvent,
    EngineState,
    EventEngine,
    GravityTrafficEvent,
    LinkDownEvent,
    LinkUpEvent,
    MaintenanceWindowEvent,
    NodeJoinEvent,
    NodeLeaveEvent,
    ScenarioSpec,
    ScenarioSuite,
    ScenarioTimeline,
    SrlgFailureEvent,
    TrafficSurgeEvent,
    build_topology,
    builtin_scenarios,
    default_suite,
    event_from_dict,
    event_kinds,
    family_names,
    get_family,
    get_scenario,
    graph_digest,
    register_scenario,
    replay_scenario,
    scenario_names,
)
from repro.traffic import TrafficAnalysisApplication
from repro.utils.validation import ValidationError


ALL_FAMILIES = ("fat-tree", "wan-backbone", "ring", "star", "mesh",
                "geometric", "random-traffic", "malt")

#: families whose edges carry the physical capacity/latency schema
PHYSICAL_FAMILIES = ("fat-tree", "wan-backbone", "ring", "star", "mesh", "geometric")


# ---------------------------------------------------------------------------
# topology families
# ---------------------------------------------------------------------------
class TestTopologyFamilies:
    def test_registry_lists_every_family(self):
        assert set(family_names()) == set(ALL_FAMILIES)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_every_family_builds_a_nonempty_graph(self, family):
        graph = build_topology(family, seed=7)
        assert isinstance(graph, PropertyGraph)
        assert graph.node_count > 0 and graph.edge_count > 0
        assert graph.graph_attributes["family"] == family
        assert graph.graph_attributes["seed"] == 7

    @pytest.mark.parametrize("family", PHYSICAL_FAMILIES)
    def test_physical_families_carry_capacity_and_latency(self, family):
        graph = build_topology(family, seed=7)
        for _, _, attrs in graph.edges(data=True):
            assert attrs["capacity_gbps"] > 0
            assert attrs["latency_ms"] > 0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_generation_is_deterministic_in_the_seed(self, family):
        first = build_topology(family, seed=42)
        second = build_topology(family, seed=42)
        assert graph_digest(first) == graph_digest(second)

    def test_different_seeds_differ(self):
        assert graph_digest(build_topology("wan-backbone", seed=1)) != \
            graph_digest(build_topology("wan-backbone", seed=2))

    def test_fat_tree_structure(self):
        graph = build_topology("fat-tree", {"k": 4, "hosts_per_edge": 2})
        roles = [attrs["role"] for _, attrs in graph.nodes(data=True)]
        assert roles.count("core") == 4
        assert roles.count("aggregation") == 8
        assert roles.count("edge") == 8
        assert roles.count("host") == 16
        assert graph.edge_count == 48

    def test_mesh_full_vs_partial(self):
        full = build_topology("mesh", {"node_count": 6, "connectivity": 1.0})
        partial = build_topology("mesh", {"node_count": 6, "connectivity": 0.2})
        assert full.edge_count == 15
        assert partial.edge_count < full.edge_count
        assert partial.edge_count >= 6  # the ring backbone survives

    def test_geometric_capacity_decays_with_distance(self):
        graph = build_topology("geometric", {"node_count": 40, "radius": 0.5})
        capacities = [attrs["capacity_gbps"] for _, _, attrs in graph.edges(data=True)]
        assert min(capacities) < max(capacities)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError, match="unknown topology family"):
            build_topology("torus")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            build_topology("ring", {"nodes": 5})

    def test_invalid_parameter_value_rejected(self):
        with pytest.raises(ValidationError):
            build_topology("fat-tree", {"k": 3})  # k must be even
        with pytest.raises(ValidationError):
            build_topology("mesh", {"connectivity": 1.5})

    def test_family_description_available(self):
        assert "fat-tree" in get_family("fat-tree").description or \
            "Clos" in get_family("fat-tree").description


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------
def _square_graph() -> PropertyGraph:
    graph = PropertyGraph(name="square", directed=False)
    for i in range(4):
        graph.add_node(f"s{i}", role="switch")
    for i in range(4):
        graph.add_edge(f"s{i}", f"s{(i + 1) % 4}", capacity_gbps=10, latency_ms=1.0,
                       bytes=1000, connections=10, packets=100)
    return graph


class TestEvents:
    def test_link_down_removes_and_remembers(self):
        graph, state = _square_graph(), EngineState()
        LinkDownEvent(at=1.0, source="s0", target="s1").apply(graph, state)
        assert not graph.has_edge("s0", "s1")
        assert state.removed_edges[("s0", "s1")]["capacity_gbps"] == 10

    def test_link_up_restores_remembered_attributes(self):
        graph, state = _square_graph(), EngineState()
        LinkDownEvent(at=1.0, source="s0", target="s1").apply(graph, state)
        LinkUpEvent(at=2.0, source="s0", target="s1").apply(graph, state)
        assert graph.edge_attributes("s0", "s1")["capacity_gbps"] == 10
        assert graph.edge_attributes("s0", "s1")["bytes"] == 1000

    def test_link_up_with_explicit_attributes(self):
        graph, state = _square_graph(), EngineState()
        LinkUpEvent(at=1.0, source="s0", target="s2",
                    attributes={"capacity_gbps": 99}).apply(graph, state)
        assert graph.edge_attributes("s0", "s2")["capacity_gbps"] == 99

    def test_capacity_degradation_single_link(self):
        graph, state = _square_graph(), EngineState()
        CapacityDegradationEvent(at=1.0, factor=0.5, source="s0",
                                 target="s1").apply(graph, state)
        assert graph.edge_attributes("s0", "s1")["capacity_gbps"] == 5
        assert graph.edge_attributes("s1", "s2")["capacity_gbps"] == 10

    def test_capacity_degradation_all_links(self):
        graph, state = _square_graph(), EngineState()
        CapacityDegradationEvent(at=1.0, factor=0.5).apply(graph, state)
        for _, _, attrs in graph.edges(data=True):
            assert attrs["capacity_gbps"] == 5

    def test_node_leave_then_join_restores_links(self):
        graph, state = _square_graph(), EngineState()
        NodeLeaveEvent(at=1.0, node="s0").apply(graph, state)
        assert not graph.has_node("s0")
        assert graph.edge_count == 2
        NodeJoinEvent(at=2.0, node="s0").apply(graph, state)
        assert graph.has_node("s0")
        assert graph.node_attributes("s0")["role"] == "switch"
        assert graph.edge_count == 4

    def test_node_join_brand_new_node_with_links(self):
        graph, state = _square_graph(), EngineState()
        NodeJoinEvent(at=1.0, node="s9", attributes={"role": "probe"},
                      links=[{"peer": "s0"}]).apply(graph, state)
        assert graph.has_edge("s9", "s0")
        assert graph.node_attributes("s9")["role"] == "probe"

    def test_traffic_surge_scales_counters_and_keeps_ints(self):
        graph, state = _square_graph(), EngineState()
        TrafficSurgeEvent(at=1.0, factor=2.5).apply(graph, state)
        attrs = graph.edge_attributes("s0", "s1")
        assert attrs["bytes"] == 2500 and isinstance(attrs["bytes"], int)
        assert attrs["capacity_gbps"] == 10  # capacity untouched

    def test_traffic_surge_scoped_to_a_node(self):
        graph, state = _square_graph(), EngineState()
        TrafficSurgeEvent(at=1.0, factor=2.0, node="s0").apply(graph, state)
        assert graph.edge_attributes("s0", "s1")["bytes"] == 2000
        assert graph.edge_attributes("s1", "s2")["bytes"] == 1000

    def test_events_are_idempotent_on_missing_targets(self):
        graph, state = _square_graph(), EngineState()
        notes = LinkDownEvent(at=1.0, source="s0", target="s2").apply(graph, state)
        assert "already absent" in notes[0]
        notes = NodeLeaveEvent(at=1.0, node="zz").apply(graph, state)
        assert "already absent" in notes[0]

    def test_event_dict_round_trip_for_every_kind(self):
        events = [
            LinkDownEvent(at=1.0, source="a", target="b"),
            LinkUpEvent(at=2.0, source="a", target="b", attributes={"capacity_gbps": 7}),
            CapacityDegradationEvent(at=3.0, factor=0.25, source="a"),
            NodeLeaveEvent(at=4.0, node="a"),
            NodeJoinEvent(at=5.0, node="c", attributes={"role": "r"},
                          links=[{"peer": "b"}]),
            TrafficSurgeEvent(at=6.0, factor=3.0, node="a", keys=("bytes",)),
            SrlgFailureEvent(at=7.0, group="conduit-1"),
            MaintenanceWindowEvent(at=8.0, end=9.0, node="a"),
            GravityTrafficEvent(at=10.0, factor=1.5, region="nw",
                                keys=("bytes",)),
        ]
        assert {event.kind for event in events} == set(event_kinds())
        for event in events:
            rebuilt = event_from_dict(event.to_dict())
            assert type(rebuilt) is type(event)
            assert rebuilt.to_dict() == event.to_dict()

    def test_event_validation(self):
        with pytest.raises(ValidationError):
            event_from_dict({"kind": "meteor_strike", "at": 1.0})
        with pytest.raises(ValidationError, match="unknown field"):
            event_from_dict({"kind": "link_down", "at": 1.0, "src": "a", "target": "b"})
        with pytest.raises(ValidationError):
            event_from_dict({"kind": "link_down", "at": -1.0, "source": "a", "target": "b"})
        with pytest.raises(ValidationError):
            LinkDownEvent(at=1.0).validate()
        with pytest.raises(ValidationError):
            CapacityDegradationEvent(at=1.0, factor=0).validate()


# ---------------------------------------------------------------------------
# scenario specs
# ---------------------------------------------------------------------------
class TestScenarioSpec:
    def test_json_round_trip_preserves_replay(self):
        spec = get_scenario("wan-fiber-cut")
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.to_dict() == spec.to_dict()
        assert replay_scenario(rebuilt).digests() == replay_scenario(spec).digests()

    def test_spec_file_round_trip(self, tmp_path):
        spec = get_scenario("ring-maintenance")
        path = str(tmp_path / "ring.json")
        spec.save(path)
        assert ScenarioSpec.load(path).to_dict() == spec.to_dict()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError, match="unknown topology family"):
            ScenarioSpec(name="bad", family="torus").validate()

    def test_event_kinds_reported(self):
        assert get_scenario("wan-fiber-cut").event_kinds() == {
            "link_down", "link_up", "node_leave", "node_join"}

    def test_sorted_events(self):
        spec = ScenarioSpec(name="s", family="ring", events=[
            LinkUpEvent(at=5.0, source="ring-0", target="ring-1"),
            LinkDownEvent(at=1.0, source="ring-0", target="ring-1"),
        ])
        assert [event.at for event in spec.sorted_events()] == [1.0, 5.0]


# ---------------------------------------------------------------------------
# the event engine
# ---------------------------------------------------------------------------
class TestEventEngine:
    def test_replay_is_deterministic_across_runs(self):
        # acceptance: a spec with >= 3 event kinds replays to identical
        # snapshot digests on two independent runs
        spec = get_scenario("fat-tree-failover")
        assert len(spec.event_kinds()) >= 3
        first = EventEngine(spec).replay()
        second = EventEngine(spec).replay()
        assert first.digests() == second.digests()
        assert len(set(first.digests())) > 1  # events actually change state

    def test_snapshot_per_distinct_event_time(self):
        spec = get_scenario("manet-churn")
        timeline = replay_scenario(spec)
        distinct_times = {event.at for event in spec.events}
        assert len(timeline.snapshots) == 1 + len(distinct_times)
        assert timeline.snapshots[0].diff_from_previous is None

    def test_diffs_track_structural_changes(self):
        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        down = timeline.snapshots[1].diff_from_previous
        assert down.missing_edges and not down.extra_edges
        leave = timeline.snapshots[2].diff_from_previous
        assert "pop-3" in leave.missing_nodes

    def test_link_restoration_returns_to_initial_state(self):
        timeline = replay_scenario(get_scenario("ring-maintenance"))
        # capacity halved at t=1 never recovers, so final != initial; but the
        # downed span must be back up with its (degraded) attributes
        final = timeline.final_graph
        assert final.has_edge("ring-0", "ring-1")
        assert final.edge_attributes("ring-0", "ring-1")["capacity_gbps"] == 5

    def test_graph_at_time(self):
        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        assert timeline.graph_at(0.5).edge_count == timeline.initial_graph.edge_count
        assert timeline.graph_at(3.0).node_count == 9  # pop-3 is gone at t in [2, 6)
        assert timeline.graph_at(100.0) is timeline.final_graph

    def test_graph_at_exact_snapshot_time_selects_that_snapshot(self):
        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        for snapshot in timeline.snapshots:
            assert timeline.graph_at(snapshot.time) is snapshot.graph
            assert timeline.snapshot_at(snapshot.time) is snapshot

    def test_graph_at_before_first_snapshot_raises(self):
        # regression: times before the initial snapshot used to silently
        # clamp to it, making a mistyped negative timestamp look valid
        timeline = replay_scenario(get_scenario("wan-fiber-cut"))
        with pytest.raises(ValueError, match="precedes the first snapshot"):
            timeline.graph_at(-0.1)
        with pytest.raises(ValueError, match="no snapshots"):
            ScenarioTimeline(scenario_name="empty").graph_at(0.0)

    def test_snapshot_digest_computed_once(self):
        # regression/perf: Snapshot.digest used to re-hash the whole graph on
        # every access; it is now computed once and memoized.  Mutating the
        # graph after the first access must not change the stored digest,
        # while a fresh graph_digest() call sees the mutation.
        timeline = replay_scenario(get_scenario("ring-maintenance"))
        snapshot = timeline.snapshots[1]
        first = snapshot.digest
        assert first == graph_digest(snapshot.graph)
        snapshot.graph.add_node("late-mutation")
        assert snapshot.digest == first            # cached value served
        assert graph_digest(snapshot.graph) != first   # the hash itself moved

    def test_snapshots_are_isolated_copies(self):
        timeline = replay_scenario(get_scenario("ring-maintenance"))
        timeline.snapshots[0].graph.add_node("intruder")
        assert not timeline.snapshots[1].graph.has_node("intruder")

    def test_snapshot_serialization_round_trip(self):
        # satellite: event-engine snapshots survive graph serialization
        for snapshot in replay_scenario(get_scenario("mesh-partition")).snapshots:
            rebuilt = graph_from_json(graph_to_json(snapshot.graph))
            assert graphs_equal(snapshot.graph, rebuilt)
            assert graph_digest(rebuilt) == snapshot.digest

    def test_digest_is_insertion_order_independent(self):
        left = PropertyGraph(directed=False)
        left.add_edge("a", "b", w=1)
        left.add_edge("a", "c", w=2)
        right = PropertyGraph(directed=False)
        right.add_edge("a", "c", w=2)
        right.add_edge("a", "b", w=1)
        assert graph_digest(left) == graph_digest(right)

    def test_timeline_summary_renders(self):
        summary = replay_scenario(get_scenario("star-hub-brownout")).summary()
        assert "Scenario timeline" in summary and "digest" in summary


# ---------------------------------------------------------------------------
# registry and suites
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_cover_every_family_and_event_kind(self):
        specs = builtin_scenarios()
        families = {spec.family for spec in specs}
        kinds = set().union(*(spec.event_kinds() for spec in specs))
        assert families == set(ALL_FAMILIES)
        assert kinds == set(event_kinds())

    def test_every_builtin_replays_and_mutates_state(self):
        for spec in builtin_scenarios():
            digests = replay_scenario(spec).digests()
            assert len(set(digests)) > 1, spec.name

    def test_get_scenario_returns_copies(self):
        get_scenario("manet-churn").events.clear()
        assert get_scenario("manet-churn").events

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            get_scenario("nope")

    def test_register_scenario_refuses_silent_overwrite(self):
        spec = ScenarioSpec(name="custom-ring", family="ring")
        try:
            register_scenario(spec)
            assert "custom-ring" in scenario_names()
            with pytest.raises(ValidationError, match="already registered"):
                register_scenario(spec)
            register_scenario(spec, replace=True)
        finally:
            from repro.scenarios import registry

            registry._REGISTRY.pop("custom-ring", None)

    def test_default_suite_spans_multiple_families(self):
        suite = default_suite()
        suite.validate()
        assert len(suite.families()) >= 3
        for spec in suite.scenarios:
            assert replay_scenario(spec).snapshots

    def test_suite_validation(self):
        spec = get_scenario("ring-maintenance")
        with pytest.raises(ValidationError, match="duplicate scenario"):
            ScenarioSuite(name="dup", scenarios=[spec, spec]).validate()
        with pytest.raises(ValidationError, match="at least one"):
            ScenarioSuite(name="empty").validate()


# ---------------------------------------------------------------------------
# application / benchmark / cost integrations
# ---------------------------------------------------------------------------
class TestIntegrations:
    def test_traffic_application_from_scenario_has_full_schema(self):
        application = TrafficAnalysisApplication.from_scenario("fat-tree-failover")
        for _, attrs in application.graph.nodes(data=True):
            assert "address" in attrs and "type" in attrs and "name" in attrs
        for _, _, attrs in application.graph.edges(data=True):
            assert attrs["bytes"] > 0 and attrs["connections"] > 0 and attrs["packets"] > 0

    def test_traffic_overlay_pins_benchmark_prefix(self):
        application = TrafficAnalysisApplication.from_scenario("star-hub-brownout")
        prefixes = {".".join(attrs["address"].split(".")[:2])
                    for _, attrs in application.graph.nodes(data=True)}
        assert "15.76" in prefixes

    def test_traffic_overlay_is_deterministic(self):
        first = TrafficAnalysisApplication.from_scenario("ring-maintenance")
        second = TrafficAnalysisApplication.from_scenario("ring-maintenance")
        assert graph_digest(first.graph) == graph_digest(second.graph)

    def test_traffic_application_at_time(self):
        before = TrafficAnalysisApplication.from_scenario("wan-fiber-cut", at_time=0.0)
        during = TrafficAnalysisApplication.from_scenario("wan-fiber-cut", at_time=3.0)
        assert during.graph.node_count == before.graph.node_count - 1

    def test_malt_application_from_scenario(self):
        application = MaltApplication.from_scenario("malt-chassis-drain")
        assert application.graph.has_node("ju1.a1.m1.s1c1")  # re-racked at t=4

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="malt"):
            TrafficAnalysisApplication.from_scenario("malt-chassis-drain")
        with pytest.raises(ValidationError, match="family"):
            MaltApplication.from_scenario("ring-maintenance")

    def test_benchmark_runner_scenario_sweep(self, small_benchmark_config):
        # acceptance: a >= 3-family scenario sweep completes end to end
        runner = BenchmarkRunner(small_benchmark_config)
        suite = default_suite()
        assert len(suite.families()) >= 3
        reports = runner.run_scenario_suite(
            suite, models=["gpt-4"], queries=traffic_queries()[:4])
        assert set(reports) == {spec.name for spec in suite.scenarios}
        for name, report in reports.items():
            assert report.application == f"scenario:{name}"
            records = report.logger.filtered(model="gpt-4", backend="networkx")
            assert len(records) == 4
            assert 0.0 <= report.summary()["gpt-4"]["networkx"] <= 1.0

    def test_benchmark_runner_malt_scenario(self):
        runner = BenchmarkRunner(BenchmarkConfig())
        suite = ScenarioSuite(name="malt", scenarios=[get_scenario("malt-chassis-drain")])
        report = runner.run_scenario_suite(suite, models=["gpt-4"])["malt-chassis-drain"]
        records = report.logger.filtered(model="gpt-4")
        assert records
        # a MALT-family scenario runs the MALT corpus, not the traffic one
        assert all(record.query_id.startswith("malt-") for record in records)

    def test_cost_scenario_sweep_across_families(self):
        points = CostAnalyzer(model="gpt-4").scenario_cost_sweep()
        assert len({point.family for point in points}) >= 3
        for point in points:
            assert point.codegen_cost_usd > 0
            assert point.graph_size > 0
            if point.strawman_within_limit:
                assert point.strawman_cost_usd > point.codegen_cost_usd

    def test_cost_scenario_sweep_handles_malt_scenarios(self):
        points = CostAnalyzer(model="gpt-4").scenario_cost_sweep(
            scenarios=builtin_scenarios())
        families = {point.family for point in points}
        assert "malt" in families
        assert len(points) == len(builtin_scenarios())

    def test_from_scenario_respects_subclasses(self):
        class CustomTraffic(TrafficAnalysisApplication):
            pass

        class CustomMalt(MaltApplication):
            pass

        assert type(CustomTraffic.from_scenario("ring-maintenance")) is CustomTraffic
        assert type(CustomMalt.from_scenario("malt-chassis-drain")) is CustomMalt


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestScenariosCli:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "fat-tree" in out and "wan-fiber-cut" in out

    def test_scenarios_describe(self, capsys):
        assert main(["scenarios", "describe", "manet-churn"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["family"] == "geometric"
        assert payload["events"]

    def test_scenarios_generate_family(self, capsys):
        # acceptance: `repro scenarios generate --family fat-tree`
        assert main(["scenarios", "generate", "--family", "fat-tree"]) == 0
        out = capsys.readouterr().out
        assert "family: fat-tree" in out and "nodes: 36" in out

    def test_scenarios_generate_json_is_a_valid_graph(self, capsys, tmp_path):
        path = str(tmp_path / "fat-tree.json")
        assert main(["scenarios", "generate", "--family", "fat-tree",
                     "--set", "k=6", "--json", path]) == 0
        graph = graph_from_json(open(path).read())
        assert isinstance(graph, PropertyGraph)
        assert graph.node_count > 0 and graph.edge_count > 0
        assert graph.graph_attributes["params"]["k"] == 6

    def test_scenarios_generate_replay(self, capsys):
        assert main(["scenarios", "generate", "--scenario", "ring-maintenance",
                     "--replay"]) == 0
        out = capsys.readouterr().out
        assert "Scenario timeline" in out and "link down" in out

    def test_scenarios_generate_from_spec_file(self, capsys, tmp_path):
        path = str(tmp_path / "spec.json")
        get_scenario("star-hub-brownout").save(path)
        assert main(["scenarios", "generate", "--spec", path, "--replay"]) == 0
        assert "star-hub-brownout" in capsys.readouterr().out

    def test_scenarios_without_action_shows_usage(self, capsys):
        assert main(["scenarios"]) == 2
        assert "usage" in capsys.readouterr().out

    def test_validation_errors_print_cleanly(self, capsys):
        assert main(["scenarios", "generate", "--family", "torus"]) == 1
        err = capsys.readouterr().err
        assert "error: unknown topology family" in err

    def test_missing_spec_file_prints_cleanly(self, capsys, tmp_path):
        assert main(["scenarios", "generate", "--spec",
                     str(tmp_path / "missing.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_file_prints_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["scenarios", "generate", "--spec", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_generate_scenario_honors_overrides(self, capsys):
        assert main(["scenarios", "generate", "--scenario", "ring-maintenance",
                     "--set", "node_count=20", "--seed", "99"]) == 0
        out = capsys.readouterr().out
        assert "seed: 99" in out and "nodes: 20" in out