"""Serialization of :class:`~repro.graph.model.PropertyGraph`.

The format is a node-link dictionary / JSON document: the one the
*strawman* baseline pastes into the LLM prompt, so its size directly drives
the token-cost analysis of Figure 4.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.graph.model import PropertyGraph
from repro.utils.validation import require


FORMAT_VERSION = 1


def graph_to_dict(graph: PropertyGraph) -> Dict[str, Any]:
    """Convert a graph into a JSON-serializable node-link dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "directed": graph.directed,
        "graph_attributes": dict(graph.graph_attributes),
        "nodes": [
            {"id": node_id, "attributes": dict(attrs)}
            for node_id, attrs in graph.nodes(data=True)
        ],
        "edges": [
            {"source": source, "target": target, "attributes": dict(attrs)}
            for source, target, attrs in graph.edges(data=True)
        ],
    }


def graph_from_dict(payload: Dict[str, Any]) -> PropertyGraph:
    """Rebuild a graph from the dictionary produced by :func:`graph_to_dict`."""
    require(isinstance(payload, dict), "graph payload must be a dictionary")
    require("nodes" in payload and "edges" in payload,
            "graph payload must contain 'nodes' and 'edges'")
    graph = PropertyGraph(
        name=payload.get("name", "graph"),
        directed=payload.get("directed", True),
    )
    graph.graph_attributes.update(payload.get("graph_attributes", {}))
    for node in payload["nodes"]:
        require("id" in node, "every node entry must contain an 'id'")
        graph.add_node(node["id"], **node.get("attributes", {}))
    for edge in payload["edges"]:
        require("source" in edge and "target" in edge,
                "every edge entry must contain 'source' and 'target'")
        graph.add_edge(edge["source"], edge["target"], **edge.get("attributes", {}))
    return graph


def graph_to_json(graph: PropertyGraph, indent: Optional[int] = None) -> str:
    """Serialize a graph to a JSON string (the strawman prompt payload)."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=True, default=str)


def graph_from_json(text: str) -> PropertyGraph:
    """Parse a JSON string produced by :func:`graph_to_json`."""
    return graph_from_dict(json.loads(text))
