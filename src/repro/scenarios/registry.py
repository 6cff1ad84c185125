"""Named scenario registry.

Ships a set of built-in scenarios — one per interesting failure story — and
lets callers register their own.  Each registration is kept as one read-only
:class:`ScenarioRecord` (the private spec, its dict form and that dict's
stable hash), built once when the spec is registered, so the warm answer
path resolves a name without copying or re-hashing anything.
:func:`get_scenario` returns deep copies so that a caller mutating a spec
(e.g. re-seeding it for a sweep) never corrupts the registry.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.scenarios.events import (
    CapacityDegradationEvent,
    GravityTrafficEvent,
    LinkDownEvent,
    LinkUpEvent,
    MaintenanceWindowEvent,
    NodeJoinEvent,
    NodeLeaveEvent,
    SrlgFailureEvent,
    TrafficSurgeEvent,
)
from repro.scenarios.spec import ScenarioSpec
from repro.utils.hashing import stable_hash
from repro.utils.validation import require


@dataclass(frozen=True)
class ScenarioRecord:
    """One registered scenario: the spec, its dict form and its hash.

    The three never change after :meth:`of` builds them, and nothing may
    edit them: a caller that wants to change a spec takes
    :func:`get_scenario`'s copy.  ``spec_dict`` is what temporal task
    payloads carry as ``spec``; ``spec_hash`` (``stable_hash(spec_dict)``)
    rides next to it and keys every per-scenario worker context.
    """

    spec: ScenarioSpec
    spec_dict: Dict[str, Any]
    spec_hash: int

    @classmethod
    def of(cls, spec: ScenarioSpec) -> "ScenarioRecord":
        """The record of a private deep copy of *spec*."""
        spec = copy.deepcopy(spec)
        spec_dict = spec.to_dict()
        return cls(spec=spec, spec_dict=spec_dict, spec_hash=stable_hash(spec_dict))


def _builtin_specs() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="fat-tree-failover",
            family="fat-tree",
            params={"k": 4, "hosts_per_edge": 1},
            seed=7,
            description="A core uplink fails in a k=4 fat-tree, the fabric "
                        "runs degraded, then the link is repaired.",
            events=[
                LinkDownEvent(at=1.0, source="pod0-agg0", target="core-0"),
                CapacityDegradationEvent(at=2.0, factor=0.5, source="pod0-agg0"),
                LinkUpEvent(at=5.0, source="pod0-agg0", target="core-0"),
            ],
        ),
        ScenarioSpec(
            name="wan-fiber-cut",
            family="wan-backbone",
            params={"pop_count": 10, "extra_links": 4},
            seed=13,
            description="A backbone fiber cut isolates a span, a POP goes "
                        "dark for maintenance and later rejoins.",
            events=[
                LinkDownEvent(at=1.0, source="pop-0", target="pop-1"),
                NodeLeaveEvent(at=2.0, node="pop-3"),
                NodeJoinEvent(at=6.0, node="pop-3"),
                LinkUpEvent(at=8.0, source="pop-0", target="pop-1"),
            ],
        ),
        ScenarioSpec(
            name="manet-churn",
            family="geometric",
            params={"node_count": 20, "radius": 0.4},
            seed=21,
            description="Mobile nodes churn out of and back into radio "
                        "range while the shared medium degrades.",
            events=[
                NodeLeaveEvent(at=1.0, node="mn-0"),
                CapacityDegradationEvent(at=2.0, factor=0.6),
                NodeLeaveEvent(at=3.0, node="mn-5"),
                NodeJoinEvent(at=4.0, node="mn-0"),
                NodeJoinEvent(at=7.0, node="mn-5"),
            ],
        ),
        ScenarioSpec(
            name="traffic-flashcrowd",
            family="random-traffic",
            params={"node_count": 30, "edge_count": 60},
            seed=7,
            description="A flash crowd quadruples traffic counters, a "
                        "congested link fails, then load drains away.",
            events=[
                TrafficSurgeEvent(at=1.0, factor=4.0),
                LinkDownEvent(at=2.0, source="n0", target="n1"),
                TrafficSurgeEvent(at=4.0, factor=0.25),
            ],
        ),
        ScenarioSpec(
            name="ring-maintenance",
            family="ring",
            params={"node_count": 12},
            seed=5,
            description="A metro ring span is taken out for maintenance at "
                        "reduced capacity, then restored.",
            events=[
                CapacityDegradationEvent(at=1.0, factor=0.5,
                                         source="ring-0", target="ring-1"),
                LinkDownEvent(at=2.0, source="ring-0", target="ring-1"),
                LinkUpEvent(at=6.0, source="ring-0", target="ring-1"),
            ],
        ),
        ScenarioSpec(
            name="mesh-partition",
            family="mesh",
            params={"node_count": 8, "connectivity": 0.6},
            seed=17,
            description="A partial mesh loses a router and a chord, then "
                        "the router rejoins with its original links.",
            events=[
                NodeLeaveEvent(at=1.0, node="m0"),
                LinkDownEvent(at=2.0, source="m1", target="m2"),
                NodeJoinEvent(at=5.0, node="m0"),
                LinkUpEvent(at=6.0, source="m1", target="m2"),
            ],
        ),
        ScenarioSpec(
            name="star-hub-brownout",
            family="star",
            params={"leaf_count": 10},
            seed=3,
            description="The hub browns out (all spokes degrade), one leaf "
                        "drops off entirely, then capacity recovers.",
            events=[
                CapacityDegradationEvent(at=1.0, factor=0.25, source="hub"),
                LinkDownEvent(at=2.0, source="hub", target="leaf-3"),
                CapacityDegradationEvent(at=5.0, factor=4.0, source="hub"),
                LinkUpEvent(at=6.0, source="hub", target="leaf-3"),
            ],
        ),
        ScenarioSpec(
            name="wan-conduit-cut",
            family="wan-backbone",
            params={"pop_count": 12, "extra_links": 6},
            seed=13,
            description="A backhoe cuts the se-sw conduit: every span in the "
                        "shared-risk group fails at once, one span is "
                        "spliced early, the rest come back later.",
            events=[
                SrlgFailureEvent(at=1.0, group="conduit-se-sw"),
                LinkUpEvent(at=3.0, source="pop-5", target="pop-6"),
                LinkUpEvent(at=6.0, source="pop-4", target="pop-6"),
                LinkUpEvent(at=6.0, source="pop-6", target="pop-11"),
                LinkUpEvent(at=6.0, source="pop-10", target="pop-11"),
            ],
        ),
        ScenarioSpec(
            name="fattree-maintenance",
            family="fat-tree",
            params={"k": 4, "hosts_per_edge": 1},
            seed=7,
            description="Scheduled maintenance: one aggregation chassis and "
                        "one pod's core uplinks are drained in overlapping "
                        "windows while the surviving chassis saturates, and "
                        "every drain is restored on schedule.",
            events=[
                MaintenanceWindowEvent(at=1.0, end=5.0, node="pod1-agg1"),
                MaintenanceWindowEvent(at=2.0, end=6.0, links=[
                    {"source": "pod0-agg0", "target": "core-0"},
                    {"source": "pod0-agg0", "target": "core-1"},
                ]),
                CapacityDegradationEvent(at=3.0, factor=0.5, source="pod1-agg0"),
            ],
        ),
        ScenarioSpec(
            name="wan-gravity-hotspot",
            family="wan-backbone",
            params={"pop_count": 12, "extra_links": 6},
            seed=31,
            description="Gravity-model traffic lands on the backbone, the "
                        "nw metro flash-crowds into a regional hotspot, "
                        "then load cools off globally.",
            events=[
                GravityTrafficEvent(at=1.0, factor=1.0),
                GravityTrafficEvent(at=3.0, factor=2.5, region="nw"),
                TrafficSurgeEvent(at=5.0, factor=0.8),
            ],
        ),
        ScenarioSpec(
            name="malt-chassis-drain",
            family="malt",
            params={},
            seed=11,
            description="A MALT packet switch is drained from its chassis "
                        "and later re-racked.",
            events=[
                NodeLeaveEvent(at=1.0, node="ju1.a1.m1.s1c1"),
                NodeJoinEvent(at=4.0, node="ju1.a1.m1.s1c1"),
            ],
        ),
    ]


_REGISTRY: Dict[str, ScenarioRecord] = {
    spec.name: ScenarioRecord.of(spec) for spec in _builtin_specs()}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register a scenario by name; refuses silent overwrites by default."""
    spec.validate()
    require(replace or spec.name not in _REGISTRY,
            f"scenario {spec.name!r} is already registered "
            f"(pass replace=True to overwrite)")
    _REGISTRY[spec.name] = ScenarioRecord.of(spec)
    return spec


def scenario_names() -> List[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


def scenario_record(name: str) -> ScenarioRecord:
    """The read-only record of a registered scenario (no copy is made)."""
    require(name in _REGISTRY,
            f"unknown scenario {name!r}; known scenarios: {scenario_names()}")
    return _REGISTRY[name]


def get_scenario(name: str) -> ScenarioSpec:
    """Fetch a deep copy of a registered scenario."""
    return copy.deepcopy(scenario_record(name).spec)


def builtin_scenarios() -> List[ScenarioSpec]:
    """Deep copies of every registered scenario, in name order."""
    return [get_scenario(name) for name in scenario_names()]
