"""Entity and relationship schema of the MALT topology model."""

from __future__ import annotations

import enum
from typing import Dict, List, Tuple


class EntityKind(str, enum.Enum):
    """Entity kinds used in the synthetic MALT model.

    The names follow the ``EK_*`` convention of the MALT paper and its
    example models.
    """

    NETWORK = "EK_NETWORK"
    DATACENTER = "EK_DATACENTER"
    POD = "EK_POD"
    RACK = "EK_RACK"
    CHASSIS = "EK_CHASSIS"
    PACKET_SWITCH = "EK_PACKET_SWITCH"
    PORT = "EK_PORT"
    CONTROL_POINT = "EK_CONTROL_POINT"
    INTERFACE = "EK_INTERFACE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RelationshipKind(str, enum.Enum):
    """Relationship kinds (edge types) between MALT entities."""

    CONTAINS = "RK_CONTAINS"
    CONTROLS = "RK_CONTROLS"
    CONNECTED_TO = "RK_CONNECTED_TO"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: the parent -> child containment chain of the synthetic topology
CONTAINMENT_HIERARCHY: List[Tuple[EntityKind, EntityKind]] = [
    (EntityKind.NETWORK, EntityKind.DATACENTER),
    (EntityKind.DATACENTER, EntityKind.POD),
    (EntityKind.POD, EntityKind.RACK),
    (EntityKind.RACK, EntityKind.CHASSIS),
    (EntityKind.CHASSIS, EntityKind.PACKET_SWITCH),
    (EntityKind.PACKET_SWITCH, EntityKind.PORT),
]


#: human-readable description of each entity kind, used by the prompt generator
ENTITY_DESCRIPTIONS: Dict[EntityKind, str] = {
    EntityKind.NETWORK: "the whole WAN/network being modelled",
    EntityKind.DATACENTER: "a datacenter site",
    EntityKind.POD: "an aggregation block inside a datacenter",
    EntityKind.RACK: "a physical rack inside a pod",
    EntityKind.CHASSIS: "a switch chassis mounted in a rack; has a 'capacity' in Gbps",
    EntityKind.PACKET_SWITCH: "a packet switch (line card) inside a chassis; has a 'capacity' in Gbps and a 'vendor'",
    EntityKind.PORT: "a physical port on a packet switch; has 'speed_gbps' and 'status'",
    EntityKind.CONTROL_POINT: "a control-plane endpoint that controls one or more packet switches",
    EntityKind.INTERFACE: "a logical interface configured on a port",
}


#: description of each relationship kind
RELATIONSHIP_DESCRIPTIONS: Dict[RelationshipKind, str] = {
    RelationshipKind.CONTAINS: "the source entity physically or logically contains the target entity",
    RelationshipKind.CONTROLS: "the source control point manages the target packet switch",
    RelationshipKind.CONNECTED_TO: "the source port is cabled to the target port",
}


def describe_schema() -> str:
    """Render the schema description block used in MALT prompts."""
    lines = ["MALT entity kinds:"]
    for kind, description in ENTITY_DESCRIPTIONS.items():
        lines.append(f"  - {kind.value}: {description}")
    lines.append("MALT relationship kinds (directed edges, attribute 'relationship'):")
    for kind, description in RELATIONSHIP_DESCRIPTIONS.items():
        lines.append(f"  - {kind.value}: {description}")
    return "\n".join(lines)
