"""Tests for the correlated-dynamics events: SRLGs, maintenance windows,
and gravity traffic matrices.

Covers the three new event kinds end to end — atomic SRLG failure with
partial-repair semantics, declarative window expansion with overlap
rejection, gravity re-shaping with the regional-hotspot variant — plus the
graph-aware validation pass (missing SRLG edges, zero-mass gravity), the
new built-in scenarios, the new temporal intents, and the CLI rendering.
"""

import pytest

from repro.benchmark import (
    BenchmarkConfig,
    BenchmarkRunner,
    temporal_queries_for,
    temporal_query_by_id,
)
from repro.cli import main
from repro.exec import ExecutorPolicy
from repro.exec.workers import clear_worker_contexts
from repro.graph import PropertyGraph
from repro.scenarios import (
    EngineState,
    GravityTrafficEvent,
    LinkUpEvent,
    MaintenanceWindowEvent,
    ScenarioSpec,
    SrlgFailureEvent,
    event_from_dict,
    expand_events,
    get_scenario,
    graph_srlgs,
    replay_scenario,
)
from repro.synthesis.intents import Intent
from repro.synthesis.reference import evaluate_temporal_reference
from repro.utils.validation import ValidationError

CORRELATED_SCENARIOS = ("wan-conduit-cut", "fattree-maintenance",
                        "wan-gravity-hotspot")


@pytest.fixture(autouse=True)
def _isolate_worker_contexts():
    clear_worker_contexts()
    yield
    clear_worker_contexts()


def _bundle_graph() -> PropertyGraph:
    """Two nodes-pairs bundled into one conduit plus one stand-alone link."""
    graph = PropertyGraph(name="bundle", directed=False)
    for node in "abcd":
        graph.add_node(node, role="switch", region="west", mass=2.0)
    graph.add_node("e", role="switch", region="east", mass=3.0)
    graph.add_edge("a", "b", capacity_gbps=10, latency_ms=1.0, bytes=100)
    graph.add_edge("c", "d", capacity_gbps=40, latency_ms=1.0, bytes=300)
    graph.add_edge("a", "e", capacity_gbps=10, latency_ms=2.0, bytes=600)
    graph.graph_attributes["srlgs"] = {"conduit-1": [["a", "b"], ["c", "d"]]}
    return graph


# ---------------------------------------------------------------------------
# SRLG failure
# ---------------------------------------------------------------------------
class TestSrlgFailure:
    def test_fails_the_whole_group_atomically(self):
        graph, state = _bundle_graph(), EngineState()
        notes = SrlgFailureEvent(at=1.0, group="conduit-1").apply(graph, state)
        assert "2 of 2 links cut" in notes[0]
        assert not graph.has_edge("a", "b") and not graph.has_edge("c", "d")
        assert graph.has_edge("a", "e")  # non-members untouched

    def test_partial_repair_restores_original_attributes(self):
        graph, state = _bundle_graph(), EngineState()
        SrlgFailureEvent(at=1.0, group="conduit-1").apply(graph, state)
        LinkUpEvent(at=2.0, source="c", target="d").apply(graph, state)
        assert graph.edge_attributes("c", "d")["capacity_gbps"] == 40
        assert graph.edge_attributes("c", "d")["bytes"] == 300
        assert not graph.has_edge("a", "b")  # the other span stays down

    def test_reversed_repair_restores_original_attributes(self):
        # on an undirected graph the SRLG's member orientation is invisible
        # to the spec author: a link_up written backwards must still find the
        # remembered attributes instead of silently installing defaults
        graph, state = _bundle_graph(), EngineState()
        SrlgFailureEvent(at=1.0, group="conduit-1").apply(graph, state)
        LinkUpEvent(at=2.0, source="d", target="c").apply(graph, state)
        assert graph.edge_attributes("c", "d")["capacity_gbps"] == 40
        assert graph.edge_attributes("c", "d")["bytes"] == 300

    def test_unknown_group_rejected_against_graph(self):
        event = SrlgFailureEvent(at=1.0, group="conduit-nope")
        with pytest.raises(ValidationError, match="unknown group"):
            event.validate_against(_bundle_graph())

    def test_group_with_missing_edge_rejected(self):
        graph = _bundle_graph()
        graph.graph_attributes["srlgs"]["conduit-1"].append(["a", "zz"])
        with pytest.raises(ValidationError, match="missing from the topology"):
            SrlgFailureEvent(at=1.0, group="conduit-1").validate_against(graph)

    def test_empty_group_name_rejected(self):
        with pytest.raises(ValidationError, match="non-empty 'group'"):
            SrlgFailureEvent(at=1.0).validate()

    def test_broken_spec_produces_no_timeline(self):
        # the validation pass runs before any snapshot: a broken SRLG
        # reference raises instead of replaying a half-mutated timeline
        spec = get_scenario("wan-conduit-cut")
        spec.events[0].group = "conduit-not-declared"
        with pytest.raises(ValidationError, match="unknown group"):
            replay_scenario(spec)


# ---------------------------------------------------------------------------
# maintenance windows
# ---------------------------------------------------------------------------
class TestMaintenanceWindow:
    def test_node_window_expands_to_leave_join_pair(self):
        window = MaintenanceWindowEvent(at=1.0, end=5.0, node="a")
        expanded = window.expand()
        assert [event.kind for event in expanded] == ["node_leave", "node_join"]
        assert [event.at for event in expanded] == [1.0, 5.0]

    def test_link_window_expands_to_down_up_pairs(self):
        window = MaintenanceWindowEvent(at=2.0, end=6.0, links=[
            {"source": "a", "target": "b"}, {"source": "c", "target": "d"}])
        expanded = window.expand()
        assert sorted(event.kind for event in expanded) == [
            "link_down", "link_down", "link_up", "link_up"]
        downs = [event for event in expanded if event.kind == "link_down"]
        ups = [event for event in expanded if event.kind == "link_up"]
        assert {event.at for event in downs} == {2.0}
        assert {event.at for event in ups} == {6.0}

    def test_drains_can_never_dangle(self):
        # every drain produced by expansion has a restore at the window end
        spec = get_scenario("fattree-maintenance")
        timeline = replay_scenario(spec)
        initial, final = timeline.initial_graph, timeline.final_graph
        assert final.node_count == initial.node_count
        assert final.edge_count == initial.edge_count

    def test_window_must_end_after_start(self):
        with pytest.raises(ValidationError, match="end after it starts"):
            MaintenanceWindowEvent(at=5.0, end=5.0, node="a").validate()
        with pytest.raises(ValidationError, match="requires an 'end'"):
            MaintenanceWindowEvent(at=5.0, node="a").validate()

    def test_window_needs_exactly_one_target_kind(self):
        with pytest.raises(ValidationError, match="exactly one"):
            MaintenanceWindowEvent(at=1.0, end=2.0).validate()
        with pytest.raises(ValidationError, match="exactly one"):
            MaintenanceWindowEvent(at=1.0, end=2.0, node="a",
                                   links=[{"source": "a", "target": "b"}]).validate()

    def test_overlapping_windows_on_same_target_rejected(self):
        events = [
            MaintenanceWindowEvent(at=1.0, end=5.0, node="a"),
            MaintenanceWindowEvent(at=4.0, end=8.0, node="a"),
        ]
        with pytest.raises(ValidationError, match="overlapping maintenance windows"):
            expand_events(events)

    def test_overlapping_link_windows_rejected_either_orientation(self):
        events = [
            MaintenanceWindowEvent(at=1.0, end=5.0,
                                   links=[{"source": "a", "target": "b"}]),
            MaintenanceWindowEvent(at=2.0, end=3.0,
                                   links=[{"source": "b", "target": "a"}]),
        ]
        with pytest.raises(ValidationError, match="overlapping maintenance windows"):
            expand_events(events)

    def test_window_and_manual_churn_on_same_target_rejected(self):
        # a window's guaranteed restore must not resurrect an entity that an
        # independent node_leave declared permanently churned out
        from repro.scenarios import NodeLeaveEvent

        events = [
            NodeLeaveEvent(at=2.0, node="pod1-agg1"),
            MaintenanceWindowEvent(at=3.0, end=6.0, node="pod1-agg1"),
        ]
        with pytest.raises(ValidationError, match="cannot be driven by both"):
            expand_events(events)

    def test_window_and_manual_link_events_on_same_target_rejected(self):
        from repro.scenarios import LinkDownEvent

        events = [
            MaintenanceWindowEvent(at=1.0, end=5.0,
                                   links=[{"source": "a", "target": "b"}]),
            LinkDownEvent(at=7.0, source="b", target="a"),
        ]
        with pytest.raises(ValidationError, match="cannot be driven by both"):
            expand_events(events)

    def test_window_and_srlg_failure_on_same_link_rejected(self):
        # a window's restore must not splice a span that an SRLG failure
        # declared cut with no repair scheduled
        spec = get_scenario("wan-conduit-cut")
        spec.events = [
            SrlgFailureEvent(at=2.0, group="conduit-se-sw"),
            MaintenanceWindowEvent(at=1.0, end=5.0, links=[
                {"source": "pop-5", "target": "pop-6"}]),
        ]
        with pytest.raises(ValidationError, match="cannot be driven by both"):
            replay_scenario(spec)

    def test_back_to_back_windows_allowed(self):
        events = [
            MaintenanceWindowEvent(at=1.0, end=5.0, node="a"),
            MaintenanceWindowEvent(at=5.0, end=8.0, node="a"),
        ]
        assert len(expand_events(events)) == 4

    def test_overlapping_windows_on_distinct_targets_allowed(self):
        # the built-in scenario drains a node and a link bundle concurrently
        timeline = replay_scenario(get_scenario("fattree-maintenance"))
        assert len(timeline.snapshots) == 6

    def test_direct_apply_refused(self):
        window = MaintenanceWindowEvent(at=1.0, end=2.0, node="a")
        with pytest.raises(RuntimeError, match="declarative"):
            window.apply(_bundle_graph(), EngineState())

    def test_window_on_missing_node_rejected_before_replay(self):
        # a typo'd drain target must fail the validation pass — not no-op at
        # the drain and then resurrect a phantom entity at the restore
        spec = get_scenario("fattree-maintenance")
        spec.events[0].node = "pod1-agg9"
        with pytest.raises(ValidationError, match="pod1-agg9"):
            replay_scenario(spec)

    def test_window_on_missing_link_rejected_before_replay(self):
        spec = get_scenario("fattree-maintenance")
        spec.events[1].links[0]["target"] = "core-99"
        with pytest.raises(ValidationError, match="missing from the"):
            replay_scenario(spec)


# ---------------------------------------------------------------------------
# gravity traffic
# ---------------------------------------------------------------------------
class TestGravityTraffic:
    def test_reshapes_by_mass_product_and_scales_total(self):
        graph, state = _bundle_graph(), EngineState()
        GravityTrafficEvent(at=1.0, factor=2.0, keys=("bytes",)).apply(graph, state)
        # weights: a-b = 4, c-d = 4, a-e = 6; prior total 1000, factor 2
        assert graph.edge_attributes("a", "b")["bytes"] == round(2000 * 4 / 14)
        assert graph.edge_attributes("c", "d")["bytes"] == round(2000 * 4 / 14)
        assert graph.edge_attributes("a", "e")["bytes"] == round(2000 * 6 / 14)

    def test_seeds_missing_counters_from_capacity(self):
        graph, state = _bundle_graph(), EngineState()
        for source, target, attrs in graph.edges(data=True):
            del attrs["bytes"]
        GravityTrafficEvent(at=1.0, factor=1.0, keys=("bytes",)).apply(graph, state)
        total = sum(attrs["bytes"] for _, _, attrs in graph.edges(data=True))
        # seeded baseline: 1M bytes per Gbps of capacity (10 + 40 + 10 Gbps)
        assert total == pytest.approx(60_000_000, abs=3)

    def test_regional_hotspot_leaves_other_regions_untouched(self):
        graph, state = _bundle_graph(), EngineState()
        before_cross = graph.edge_attributes("a", "e")["bytes"]
        GravityTrafficEvent(at=1.0, factor=3.0, region="west",
                            keys=("bytes",)).apply(graph, state)
        # only a-b and c-d are fully inside "west"; a-e crosses regions
        assert graph.edge_attributes("a", "e")["bytes"] == before_cross
        west_total = (graph.edge_attributes("a", "b")["bytes"]
                      + graph.edge_attributes("c", "d")["bytes"])
        assert west_total == pytest.approx(3 * 400, abs=2)

    def test_zero_mass_graph_rejected(self):
        graph = _bundle_graph()
        for node in graph.nodes():
            graph.node_attributes(node)["mass"] = 0
        event = GravityTrafficEvent(at=1.0)
        with pytest.raises(ValidationError, match="zero total mass"):
            event.validate_against(graph)

    def test_unknown_region_rejected(self):
        event = GravityTrafficEvent(at=1.0, region="atlantis")
        with pytest.raises(ValidationError, match="atlantis"):
            event.validate_against(_bundle_graph())

    def test_zero_mass_spec_produces_no_timeline(self):
        # fat-tree nodes carry no mass: a gravity event on that family must
        # fail the validation pass, not replay into a corrupted timeline
        spec = ScenarioSpec(name="bad-gravity", family="fat-tree",
                            events=[GravityTrafficEvent(at=1.0)])
        with pytest.raises(ValidationError, match="zero total mass"):
            replay_scenario(spec)

    def test_deterministic_across_replays(self):
        spec = get_scenario("wan-gravity-hotspot")
        assert replay_scenario(spec).digests() == replay_scenario(spec).digests()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------
class TestSerialization:
    @pytest.mark.parametrize("event", [
        SrlgFailureEvent(at=1.0, group="conduit-9"),
        MaintenanceWindowEvent(at=1.0, end=4.0, node="pop-1"),
        MaintenanceWindowEvent(at=2.0, end=3.0,
                               links=[{"source": "a", "target": "b"}]),
        GravityTrafficEvent(at=5.0, factor=2.5, region="nw", keys=("bytes",)),
        GravityTrafficEvent(at=6.0, mass_attribute="population",
                            region_attribute="metro"),
    ])
    def test_round_trip(self, event):
        rebuilt = event_from_dict(event.to_dict())
        assert type(rebuilt) is type(event)
        assert rebuilt.to_dict() == event.to_dict()

    def test_specs_round_trip_through_json(self):
        for name in CORRELATED_SCENARIOS:
            spec = get_scenario(name)
            rebuilt = ScenarioSpec.from_json(spec.to_json())
            assert rebuilt.to_dict() == spec.to_dict()
            assert replay_scenario(rebuilt).digests() == replay_scenario(spec).digests()

    def test_windows_stay_declarative_in_json(self):
        # the spec JSON keeps the single window event; expansion is replay-time
        spec = get_scenario("fattree-maintenance")
        kinds = [event["kind"] for event in spec.to_dict()["events"]]
        assert kinds.count("maintenance_window") == 2
        assert "link_down" not in kinds and "node_leave" not in kinds


# ---------------------------------------------------------------------------
# built-in scenarios, suites, SRLG declarations
# ---------------------------------------------------------------------------
class TestCorrelatedScenarios:
    def test_builders_declare_srlgs(self):
        from repro.scenarios import build_topology

        fat_tree = graph_srlgs(build_topology("fat-tree", seed=7))
        assert any(name.startswith("chassis-") for name in fat_tree)
        assert any(name.startswith("conduit-pod") for name in fat_tree)
        wan = graph_srlgs(build_topology("wan-backbone", seed=13))
        assert wan and all(name.startswith("conduit-") for name in wan)
        # every declared member is a real link of the built topology
        graph = build_topology("wan-backbone", seed=13)
        for members in wan.values():
            for source, target in members:
                assert graph.has_edge(source, target)

    def test_wan_nodes_carry_region_and_mass(self):
        from repro.scenarios import build_topology

        graph = build_topology("wan-backbone", seed=31)
        for _, attrs in graph.nodes(data=True):
            assert attrs["region"] in ("ne", "nw", "se", "sw")
            assert attrs["mass"] > 0

    def test_correlated_suite_replays(self):
        for name in CORRELATED_SCENARIOS:
            timeline = replay_scenario(get_scenario(name))
            assert len(set(timeline.digests())) > 1, name

    def test_conduit_cut_is_atomic_and_partially_repaired(self):
        timeline = replay_scenario(get_scenario("wan-conduit-cut"))
        assert timeline.snapshots[1].graph.edge_count == timeline.initial_graph.edge_count - 4
        assert timeline.snapshots[2].graph.edge_count == timeline.initial_graph.edge_count - 3
        assert timeline.final_graph.edge_count == timeline.initial_graph.edge_count


# ---------------------------------------------------------------------------
# temporal intents and goldens
# ---------------------------------------------------------------------------
class TestCorrelatedTemporalIntents:
    def test_failed_srlgs_at(self):
        timeline = replay_scenario(get_scenario("wan-conduit-cut"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-m5").intent)
        assert outcome.value == ["conduit-se-sw"]
        # after the first splice the group is no longer *fully* failed
        after_splice = evaluate_temporal_reference(
            timeline, Intent.create("failed_srlgs_at", at=3.5))
        assert after_splice.value == []

    def test_srlg_links_down_at_tracks_partial_repair(self):
        timeline = replay_scenario(get_scenario("wan-conduit-cut"))
        outcome = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h5").intent)
        assert len(outcome.value) == 3
        assert ["pop-5", "pop-6"] not in outcome.value  # spliced at t=3

    def test_srlg_links_down_at_unknown_group_raises(self):
        timeline = replay_scenario(get_scenario("wan-conduit-cut"))
        with pytest.raises(ValidationError, match="unknown SRLG"):
            evaluate_temporal_reference(
                timeline, Intent.create("srlg_links_down_at", at=2.0, group="x"))

    def test_drained_links_and_nodes_between(self):
        timeline = replay_scenario(get_scenario("fattree-maintenance"))
        links = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-m6").intent)
        # 2 drained uplinks + the 4 links of the drained chassis
        assert len(links.value) == 6
        nodes = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h6").intent)
        assert nodes.value == ["pod1-agg1"]

    def test_region_growth_names_the_hotspot(self):
        timeline = replay_scenario(get_scenario("wan-gravity-hotspot"))
        top = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-m7").intent)
        assert top.value == "nw"
        deltas = evaluate_temporal_reference(
            timeline, temporal_query_by_id("tq-h7").intent)
        assert deltas.value["nw"] > 0
        assert all(delta == 0 for bucket, delta in deltas.value.items()
                   if bucket != "nw")


# ---------------------------------------------------------------------------
# benchmark integration: acceptance byte-identity + CLI
# ---------------------------------------------------------------------------
class TestBenchmarkIntegration:
    def test_every_new_scenario_has_temporal_queries(self):
        for name in CORRELATED_SCENARIOS:
            queries = temporal_queries_for(name)
            assert len(queries) == 3, name

    def test_serial_and_parallel_sweeps_byte_identical(self):
        # acceptance: --temporal over the three new scenarios, serial vs
        # --jobs 2, byte-identical per-snapshot accuracy tables
        serial = BenchmarkRunner(BenchmarkConfig())
        parallel = BenchmarkRunner(BenchmarkConfig(),
                                   policy=ExecutorPolicy.processes(jobs=2))
        report_serial = serial.run_temporal_suite(
            scenarios=list(CORRELATED_SCENARIOS), models=["gpt-4", "bard"])
        report_parallel = parallel.run_temporal_suite(
            scenarios=list(CORRELATED_SCENARIOS), models=["gpt-4", "bard"])
        assert report_serial.render_summary() == report_parallel.render_summary()
        assert (report_serial.render_snapshot_tables()
                == report_parallel.render_snapshot_tables())
        assert (report_serial.logger.to_records()
                == report_parallel.logger.to_records())

    def test_accuracy_reflects_calibration_on_new_scenarios(self):
        report = BenchmarkRunner(BenchmarkConfig()).run_temporal_suite(
            scenarios=list(CORRELATED_SCENARIOS))
        assert len(report.logger) == 4 * 3 * len(CORRELATED_SCENARIOS)
        for record in report.logger.records:
            assert record.passed == record.details["intended_correct"]

    def test_cli_describe_shows_srlg_membership(self, capsys):
        # acceptance: `repro scenarios describe wan-conduit-cut`
        import json

        assert main(["scenarios", "describe", "wan-conduit-cut"]) == 0
        captured = capsys.readouterr()
        assert "Shared-risk link groups" in captured.err
        assert "conduit-se-sw" in captured.err
        assert "pop-5~pop-6" in captured.err
        # stdout stays pure spec JSON (`describe name > spec.json` contract)
        assert json.loads(captured.out)["name"] == "wan-conduit-cut"

    def test_cli_describe_shows_window_schedule(self, capsys):
        import json

        assert main(["scenarios", "describe", "fattree-maintenance"]) == 0
        captured = capsys.readouterr()
        assert "Maintenance windows" in captured.err
        assert "node pod1-agg1" in captured.err
        assert json.loads(captured.out)["family"] == "fat-tree"

    def test_cli_temporal_smoke_over_new_scenarios(self, capsys):
        exit_code = main(["benchmark", "--temporal", "--no-cache",
                          "--models", "gpt-4", "--scenarios",
                          "wan-conduit-cut", "fattree-maintenance",
                          "wan-gravity-hotspot", "--jobs", "2"])
        out = capsys.readouterr().out
        assert exit_code == 0
        for name in CORRELATED_SCENARIOS:
            assert f"Per-snapshot accuracy — {name}" in out
