"""Network lifecycle management based on MALT
(Multi-Abstraction-Layer Topology representation).

MALT models a network as a graph of typed *entities* (packet switches,
chassis, ports, control points, ...) connected by typed *relationships*
(``contains``, ``controls``, ``connected_to``).  The paper converts the
public MALT example models into a directed graph with 5,493 nodes and 6,424
edges; that dataset is not redistributable here, so :mod:`repro.malt.generator`
builds a synthetic topology with the same entity kinds, relationship kinds,
hierarchical naming scheme, and the same node/edge scale, which is what the
nine lifecycle-management queries exercise.
"""

from repro.malt.schema import (
    EntityKind,
    RelationshipKind,
    CONTAINMENT_HIERARCHY,
)
from repro.malt.generator import MaltTopologyConfig, generate_malt_topology, paper_scale_topology
from repro.malt.application import MaltApplication

__all__ = [
    "EntityKind",
    "RelationshipKind",
    "CONTAINMENT_HIERARCHY",
    "MaltTopologyConfig",
    "generate_malt_topology",
    "paper_scale_topology",
    "MaltApplication",
]
