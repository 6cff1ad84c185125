"""Structured topology families, declarative scenarios, and dynamic events.

The paper evaluates two fixed synthetic datasets; this subsystem grows the
scenario axis toward "as many scenarios as you can imagine":

* :mod:`repro.scenarios.topologies` — parametric generators for fat-tree/
  Clos, WAN backbone, ring, star, full/partial mesh, and geometric
  (MANET-style) families, plus wrappers over the seed random-traffic and
  MALT generators, all registered by name;
* :mod:`repro.scenarios.events` — timestamped dynamic events (link down/up,
  capacity degradation, node churn, traffic surge);
* :mod:`repro.scenarios.spec` — the declarative, JSON-round-trippable
  :class:`ScenarioSpec` naming a family, parameters, seed and timeline;
* :mod:`repro.scenarios.engine` — the event engine replaying a spec into
  digest-stamped graph snapshots with `repro.graph.diff` deltas;
* :mod:`repro.scenarios.registry` — named built-in scenarios;
* :mod:`repro.scenarios.overlay` — build benchmark applications from a
  scenario's state (traffic attribute overlay, MALT passthrough);
* :mod:`repro.scenarios.suite` — multi-scenario suites swept by the
  benchmark runner and the cost analyzer;
* :mod:`repro.scenarios.corpus` — the on-disk spec corpus (``scenarios/``)
  and its digest lockfile.
"""

from repro.scenarios.topologies import (
    TopologyFamily,
    build_topology,
    family_names,
    get_family,
    register_family,
)
from repro.scenarios.events import (
    CapacityDegradationEvent,
    EngineState,
    GravityTrafficEvent,
    LinkDownEvent,
    LinkUpEvent,
    MaintenanceWindowEvent,
    NodeJoinEvent,
    NodeLeaveEvent,
    ScenarioEvent,
    SrlgFailureEvent,
    TrafficSurgeEvent,
    event_from_dict,
    event_kinds,
    expand_events,
    graph_srlgs,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.engine import (
    EventEngine,
    ScenarioTimeline,
    Snapshot,
    graph_digest,
    replay_scenario,
)
from repro.scenarios.registry import (
    builtin_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.overlay import (
    annotate_traffic_attributes,
    application_from_scenario,
    malt_application_from_scenario,
    scenario_graph,
    traffic_application_from_scenario,
)
from repro.scenarios.suite import ScenarioSuite, default_suite
from repro.scenarios.corpus import (
    corpus_spec_paths,
    read_lockfile,
    verify_corpus,
    write_corpus,
)

__all__ = [
    "TopologyFamily",
    "build_topology",
    "family_names",
    "get_family",
    "register_family",
    "ScenarioEvent",
    "LinkDownEvent",
    "LinkUpEvent",
    "CapacityDegradationEvent",
    "NodeLeaveEvent",
    "NodeJoinEvent",
    "TrafficSurgeEvent",
    "SrlgFailureEvent",
    "MaintenanceWindowEvent",
    "GravityTrafficEvent",
    "EngineState",
    "event_from_dict",
    "event_kinds",
    "expand_events",
    "graph_srlgs",
    "ScenarioSpec",
    "EventEngine",
    "ScenarioTimeline",
    "Snapshot",
    "graph_digest",
    "replay_scenario",
    "builtin_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "annotate_traffic_attributes",
    "application_from_scenario",
    "malt_application_from_scenario",
    "scenario_graph",
    "traffic_application_from_scenario",
    "ScenarioSuite",
    "default_suite",
    "corpus_spec_paths",
    "read_lockfile",
    "verify_corpus",
    "write_corpus",
]
