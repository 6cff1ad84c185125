"""Query intents and the natural-language intent parser.

An :class:`Intent` is the structured meaning of a benchmark query: an intent
name plus parameters.  The benchmark's query corpus carries explicit intents
(so evaluation never depends on parsing accuracy), while :func:`parse_query`
recovers the intent from free-form text for interactive use (the CLI and the
examples) and is tested against the corpus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.utils.validation import ValidationError


class IntentParseError(ValidationError):
    """Raised when a natural-language query cannot be mapped to an intent."""


@dataclass(frozen=True)
class Intent:
    """The structured meaning of one query."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def create(cls, intent_name: str, /, **params: Any) -> "Intent":
        """Build an intent; ``intent_name`` is positional-only so that intents
        may carry a parameter literally called ``name``."""
        return cls(name=intent_name, params=tuple(sorted(params.items())))

    def param(self, key: str, default: Any = None) -> Any:
        for name, value in self.params:
            if name == key:
                return value
        return default

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "params": dict(self.params)}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({rendered})"


#: every intent the synthesis engine knows about, grouped by application
KNOWN_INTENTS: Dict[str, List[str]] = {
    "traffic_analysis": [
        "count_nodes",
        "count_edges",
        "total_bytes",
        "label_nodes_by_prefix",
        "list_nodes_by_prefix",
        "max_bytes_edge",
        "count_nodes_of_type",
        "list_isolated_nodes",
        "color_by_prefix16",
        "top_k_talkers",
        "peer_count_per_node",
        "bytes_per_prefix16",
        "heavy_edges_above",
        "remove_light_edges",
        "avg_bytes_by_source_type",
        "reciprocal_pair_count",
        "cluster_nodes_by_total_bytes",
        "shortest_path_hops",
        "largest_weakly_connected_component",
        "heavy_hitter_outliers",
        "remove_highest_degree_node",
        "top_betweenness_node",
        "merge_nodes_by_prefix24",
        "redistribute_busiest_node_bytes",
    ],
    "malt": [
        "list_ports_of_switch",
        "count_entities_of_type",
        "switches_controlled_by",
        "top2_chassis_by_capacity",
        "port_count_per_chassis_in_rack",
        "capacity_per_datacenter",
        "remove_switch_and_rebalance",
        "down_port_fraction_per_datacenter",
        "add_switch_to_least_loaded_chassis",
    ],
}


#: temporal intent signatures: intent name -> accepted parameter names.
#: Temporal intents are evaluated over a replayed scenario timeline rather
#: than a single graph; ``at``/``since``/``until``/``start``/``end`` are
#: snapshot-time anchors (see ``repro.synthesis.reference``
#: ``TEMPORAL_TIME_PARAMS``).  The timeline-aware emitters and the temporal
#: fault injector both validate against these signatures.
TEMPORAL_INTENT_SIGNATURES: Dict[str, Tuple[str, ...]] = {
    # single-snapshot lookups
    "node_count_at": ("at",),
    "edge_count_at": ("at",),
    "isolated_nodes_at": ("at",),
    "capacity_drop_at": ("at", "attribute"),
    "degraded_links_at": ("at", "attribute"),
    # whole-timeline aggregations
    "snapshot_count": (),
    "peak_traffic_time": ("key",),
    # windowed deltas
    "failed_links_since": ("since", "until", "start", "end"),
    "restored_links_since": ("since", "until", "start", "end"),
    "churned_nodes_between": ("since", "until", "start", "end"),
    "traffic_change_between": ("since", "until", "start", "end", "key"),
    # correlated dynamics (SRLGs, maintenance drains, regional gravity)
    "failed_srlgs_at": ("at",),
    "srlg_links_down_at": ("at", "group"),
    "drained_links_between": ("since", "until", "start", "end"),
    "drained_nodes_between": ("since", "until", "start", "end"),
    "region_traffic_between": ("since", "until", "start", "end", "key"),
    "top_region_by_traffic_growth": ("since", "until", "start", "end", "key"),
    # MALT lifecycle over timelines
    "entity_count_at": ("at", "entity_type"),
    "entity_capacity_at": ("at", "entity_type"),
    "orphaned_ports_at": ("at",),
}


def temporal_window(intent: Intent) -> Tuple[Any, Any]:
    """The (start, end) values an interval intent references, or ``None``.

    ``since``/``start`` anchor the window start and ``until``/``end`` the
    window end; ``since``/``until`` take precedence.  This is the single
    source of that precedence — the temporal reference semantics and both
    timeline-aware emitters all resolve windows through it, so they can
    never disagree about which snapshot pair a window compares.
    """
    start = intent.param("since", intent.param("start"))
    end = intent.param("until", intent.param("end"))
    return start, end


def _number(text: str) -> Any:
    value = float(text)
    return int(value) if value == int(value) else value


# Each rule: (regex, builder).  Rules are tried in order; the first match wins.
_RULES: List[Tuple[re.Pattern, Callable[[re.Match], Intent]]] = [
    # -- traffic analysis: easy ------------------------------------------
    (re.compile(r"how many (nodes|endpoints)", re.I),
     lambda m: Intent.create("count_nodes")),
    (re.compile(r"how many (edges|communication pairs|links)", re.I),
     lambda m: Intent.create("count_edges")),
    (re.compile(r"total (number of )?bytes.*(all edges|whole graph|across)", re.I),
     lambda m: Intent.create("total_bytes")),
    (re.compile(r"add a label (\w+):(\w+) to nodes with address prefix ([\d.]+)", re.I),
     lambda m: Intent.create("label_nodes_by_prefix", key=m.group(1), value=m.group(2),
                             prefix=m.group(3).rstrip("."))),
    (re.compile(r"list the addresses of (all )?nodes with address prefix ([\d.]+)", re.I),
     lambda m: Intent.create("list_nodes_by_prefix", prefix=m.group(2).rstrip("."))),
    (re.compile(r"which edge carries the most bytes", re.I),
     lambda m: Intent.create("max_bytes_edge")),
    (re.compile(r"how many (\w+) nodes", re.I),
     lambda m: Intent.create("count_nodes_of_type", type_name=m.group(1).lower())),
    (re.compile(r"(isolated|no incoming or outgoing)", re.I),
     lambda m: Intent.create("list_isolated_nodes")),
    # -- traffic analysis: medium ----------------------------------------
    (re.compile(r"assign a (unique )?color.*?/16", re.I),
     lambda m: Intent.create("color_by_prefix16")),
    (re.compile(r"top (\d+) nodes by total outgoing bytes", re.I),
     lambda m: Intent.create("top_k_talkers", k=int(m.group(1)))),
    (re.compile(r"number of distinct peers", re.I),
     lambda m: Intent.create("peer_count_per_node")),
    (re.compile(r"total bytes sent (by|per).*?/16", re.I),
     lambda m: Intent.create("bytes_per_prefix16")),
    (re.compile(r"edges carrying more than (\d+) bytes", re.I),
     lambda m: Intent.create("heavy_edges_above", threshold=int(m.group(1)))),
    (re.compile(r"remove all edges with fewer than (\d+) bytes", re.I),
     lambda m: Intent.create("remove_light_edges", threshold=int(m.group(1)))),
    (re.compile(r"average bytes per edge grouped by", re.I),
     lambda m: Intent.create("avg_bytes_by_source_type")),
    (re.compile(r"communicate in both directions", re.I),
     lambda m: Intent.create("reciprocal_pair_count")),
    # -- traffic analysis: hard ------------------------------------------
    (re.compile(r"cluster them into (\d+) groups", re.I),
     lambda m: Intent.create("cluster_nodes_by_total_bytes", clusters=int(m.group(1)))),
    (re.compile(r"number of hops.*between node (\w+) and node (\w+)", re.I),
     lambda m: Intent.create("shortest_path_hops", source=m.group(1), target=m.group(2))),
    (re.compile(r"largest (weakly )?connected component", re.I),
     lambda m: Intent.create("largest_weakly_connected_component")),
    (re.compile(r"exceed the mean by more than two standard deviations", re.I),
     lambda m: Intent.create("heavy_hitter_outliers")),
    (re.compile(r"remove the node with the highest (total )?degree", re.I),
     lambda m: Intent.create("remove_highest_degree_node")),
    (re.compile(r"highest betweenness centrality", re.I),
     lambda m: Intent.create("top_betweenness_node")),
    (re.compile(r"merge all nodes sharing the same /24 prefix", re.I),
     lambda m: Intent.create("merge_nodes_by_prefix24")),
    (re.compile(r"redistribute the total outgoing bytes of the busiest node", re.I),
     lambda m: Intent.create("redistribute_busiest_node_bytes")),
    # -- MALT --------------------------------------------------------------
    (re.compile(r"list all ports that are contained by packet switch ([\w.\-]+)", re.I),
     lambda m: Intent.create("list_ports_of_switch", switch=m.group(1).rstrip("."))),
    (re.compile(r"how many packet switches", re.I),
     lambda m: Intent.create("count_entities_of_type", entity_type="EK_PACKET_SWITCH")),
    (re.compile(r"how many (chassis|ports|racks|pods|datacenters)", re.I),
     lambda m: Intent.create("count_entities_of_type",
                             entity_type="EK_" + m.group(1).upper().rstrip("S")
                             if m.group(1).lower() != "chassis" else "EK_CHASSIS")),
    (re.compile(r"packet switches controlled by control point ([\w.\-]+)", re.I),
     lambda m: Intent.create("switches_controlled_by", control_point=m.group(1).rstrip("."))),
    (re.compile(r"first and the second largest chassis by capacity", re.I),
     lambda m: Intent.create("top2_chassis_by_capacity")),
    (re.compile(r"number of ports.*each chassis of rack ([\w.\-]+)", re.I),
     lambda m: Intent.create("port_count_per_chassis_in_rack", rack=m.group(1).rstrip("."))),
    (re.compile(r"total packet switch capacity in each datacenter", re.I),
     lambda m: Intent.create("capacity_per_datacenter")),
    (re.compile(r"remove packet switch ([\w.\-]+?) from its chassis", re.I),
     lambda m: Intent.create("remove_switch_and_rebalance", switch=m.group(1).rstrip("."))),
    (re.compile(r"fraction of ports that are down", re.I),
     lambda m: Intent.create("down_port_fraction_per_datacenter")),
    (re.compile(r"add a new packet switch named '([\w.\-]+)' with capacity (\d+)", re.I),
     lambda m: Intent.create("add_switch_to_least_loaded_chassis",
                             name=m.group(1), capacity=_number(m.group(2)))),
]


def parse_query(query: str) -> Intent:
    """Map a natural-language query to its :class:`Intent`.

    Raises :class:`IntentParseError` when no rule matches; the simulated LLM
    treats that the same way a hosted model treats a query it does not
    understand (it produces faulty code).
    """
    for pattern, builder in _RULES:
        match = pattern.search(query)
        if match:
            return builder(match)
    raise IntentParseError(f"could not derive an intent from query: {query!r}")
