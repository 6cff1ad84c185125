"""Synthetic MALT topology generation.

The generator builds a containment hierarchy (network -> datacenter -> pod ->
rack -> chassis -> packet switch -> port), a control plane (control points
``RK_CONTROLS`` packet switches) and a set of port-to-port
``RK_CONNECTED_TO`` links.  The default :func:`paper_scale_topology`
parameters land exactly on the paper's dataset size: 5,493 nodes and 6,424
directed edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.graph import PropertyGraph
from repro.malt.schema import EntityKind, RelationshipKind
from repro.utils.rng import DeterministicRng
from repro.utils.validation import require


@dataclass
class MaltTopologyConfig:
    """Parameters of the synthetic MALT topology.

    The defaults produce the paper-scale topology; tests use much smaller
    values (e.g. one datacenter with one pod).
    """

    datacenters: int = 2
    pods_per_datacenter: int = 4
    racks_per_pod: int = 8
    chassis_per_rack: int = 2
    switches_per_chassis: int = 4
    ports_per_switch: int = 9
    control_points: int = 170
    port_links: int = 590
    switch_capacities_gbps: tuple = (40, 100, 200, 400)
    vendors: tuple = ("vendor-a", "vendor-b", "vendor-c")
    port_speeds_gbps: tuple = (10, 25, 40, 100)
    seed: int = 11

    def validate(self) -> None:
        require(self.datacenters >= 1, "datacenters must be at least 1")
        require(self.pods_per_datacenter >= 1, "pods_per_datacenter must be at least 1")
        require(self.racks_per_pod >= 1, "racks_per_pod must be at least 1")
        require(self.chassis_per_rack >= 1, "chassis_per_rack must be at least 1")
        require(self.switches_per_chassis >= 1, "switches_per_chassis must be at least 1")
        require(self.ports_per_switch >= 1, "ports_per_switch must be at least 1")
        require(self.control_points >= 1, "control_points must be at least 1")
        require(self.port_links >= 0, "port_links must be non-negative")


def generate_malt_topology(config: Optional[MaltTopologyConfig] = None,
                           **overrides) -> PropertyGraph:
    """Generate a synthetic MALT topology as a directed property graph.

    Node attributes: ``type`` (entity kind), ``name``, plus kind-specific
    attributes (``capacity`` on chassis and packet switches, ``vendor`` on
    packet switches, ``speed_gbps``/``status`` on ports).  Edge attribute
    ``relationship`` holds the relationship kind.
    """
    if config is None:
        config = MaltTopologyConfig()
    if overrides:
        config = MaltTopologyConfig(**{**config.__dict__, **overrides})
    config.validate()

    rng = DeterministicRng(config.seed, "malt-topology")
    capacity_rng = rng.fork("capacity")
    vendor_rng = rng.fork("vendor")
    port_rng = rng.fork("ports")

    graph = PropertyGraph(name="malt-topology", directed=True)
    graph.graph_attributes["application"] = "malt"
    graph.graph_attributes["seed"] = config.seed

    def contains(parent: str, child: str) -> None:
        graph.add_edge(parent, child, relationship=RelationshipKind.CONTAINS.value)

    network_id = "wan"
    graph.add_node(network_id, type=EntityKind.NETWORK.value, name=network_id)

    all_switches: List[str] = []
    all_ports: List[str] = []

    for dc_index in range(1, config.datacenters + 1):
        dc_id = f"ju{dc_index}"
        graph.add_node(dc_id, type=EntityKind.DATACENTER.value, name=dc_id,
                       region=f"region-{(dc_index - 1) % 3 + 1}")
        contains(network_id, dc_id)
        for pod_index in range(1, config.pods_per_datacenter + 1):
            pod_id = f"{dc_id}.a{pod_index}"
            graph.add_node(pod_id, type=EntityKind.POD.value, name=pod_id)
            contains(dc_id, pod_id)
            for rack_index in range(1, config.racks_per_pod + 1):
                rack_id = f"{pod_id}.m{rack_index}"
                graph.add_node(rack_id, type=EntityKind.RACK.value, name=rack_id)
                contains(pod_id, rack_id)
                for chassis_index in range(1, config.chassis_per_rack + 1):
                    chassis_id = f"{rack_id}.c{chassis_index}"
                    chassis_capacity = 0
                    graph.add_node(chassis_id, type=EntityKind.CHASSIS.value,
                                   name=chassis_id, capacity=0)
                    contains(rack_id, chassis_id)
                    for switch_index in range(1, config.switches_per_chassis + 1):
                        switch_id = f"{rack_id}.s{switch_index}c{chassis_index}"
                        switch_capacity = capacity_rng.choice(
                            list(config.switch_capacities_gbps))
                        chassis_capacity += switch_capacity
                        graph.add_node(
                            switch_id,
                            type=EntityKind.PACKET_SWITCH.value,
                            name=switch_id,
                            capacity=switch_capacity,
                            vendor=vendor_rng.choice(list(config.vendors)),
                        )
                        contains(chassis_id, switch_id)
                        all_switches.append(switch_id)
                        for port_index in range(1, config.ports_per_switch + 1):
                            port_id = f"{switch_id}.p{port_index}"
                            graph.add_node(
                                port_id,
                                type=EntityKind.PORT.value,
                                name=port_id,
                                speed_gbps=port_rng.choice(list(config.port_speeds_gbps)),
                                status=port_rng.choice(["up", "up", "up", "down"]),
                            )
                            contains(switch_id, port_id)
                            all_ports.append(port_id)
                    graph.set_node_attribute(chassis_id, "capacity", chassis_capacity)

    # control plane: spread switches round-robin over the control points
    control_ids = []
    for cp_index in range(1, config.control_points + 1):
        cp_id = f"cp{cp_index}"
        graph.add_node(cp_id, type=EntityKind.CONTROL_POINT.value, name=cp_id,
                       software_version=f"v{1 + cp_index % 4}.{cp_index % 10}")
        control_ids.append(cp_id)
    for index, switch_id in enumerate(all_switches):
        cp_id = control_ids[index % len(control_ids)]
        graph.add_edge(cp_id, switch_id, relationship=RelationshipKind.CONTROLS.value)

    # data plane: deterministic pseudo-random port-to-port links
    link_rng = rng.fork("links")
    created = 0
    used_pairs = set()
    attempts = 0
    max_attempts = config.port_links * 50 + 100
    while created < config.port_links and attempts < max_attempts:
        attempts += 1
        source = link_rng.choice(all_ports)
        target = link_rng.choice(all_ports)
        if source == target or (source, target) in used_pairs:
            continue
        if source.rsplit(".", 1)[0] == target.rsplit(".", 1)[0]:
            continue  # never cable a switch to itself
        used_pairs.add((source, target))
        graph.add_edge(source, target, relationship=RelationshipKind.CONNECTED_TO.value)
        created += 1
    return graph


def paper_scale_topology(seed: int = 11) -> PropertyGraph:
    """The default topology matching the paper's dataset size.

    Returns a graph with exactly 5,493 nodes and 6,424 directed edges (the
    size the paper reports for the converted MALT example models).
    """
    return generate_malt_topology(MaltTopologyConfig(seed=seed))

