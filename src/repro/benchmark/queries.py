"""The NeMoEval query corpus.

24 traffic-analysis queries (8 easy / 8 medium / 8 hard) and 9 MALT queries
(3 / 3 / 3), mirroring the paper's benchmark composition (Table 1 shows one
example per cell; the released benchmark contains the full lists).  Every
query carries:

* ``complexity`` — the paper's three levels;
* ``difficulty_rank`` — the query's rank *within* its complexity bucket
  (0 = easiest), which the calibrated reliability model uses to decide which
  queries a given model answers correctly;
* ``intent`` — the structured meaning used by the golden-answer selector and
  by the simulated LLMs' synthesizer.  The natural-language text and the
  intent are kept consistent (a test asserts that the intent parser recovers
  the intent from the text).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.synthesis.intents import Intent
from repro.synthesis.reference import TEMPORAL_TIME_PARAMS as TIME_PARAMS

COMPLEXITY_LEVELS = ("easy", "medium", "hard")


@dataclass(frozen=True)
class BenchmarkQuery:
    """One benchmark query."""

    query_id: str
    application: str          # "traffic_analysis" or "malt"
    text: str
    complexity: str           # "easy", "medium", "hard"
    difficulty_rank: int      # 0-based rank inside the complexity bucket
    intent: Intent

    def metadata(self, bucket_size: int) -> Dict[str, object]:
        """The structured metadata handed to the pipeline/LLM for this query."""
        return {
            "query_id": self.query_id,
            "query": self.text,
            "application": self.application,
            "complexity": self.complexity,
            "difficulty_rank": self.difficulty_rank,
            "bucket_size": bucket_size,
            "intent": self.intent.as_dict(),
        }


def _q(query_id: str, application: str, text: str, complexity: str, rank: int,
       intent_name: str, **params) -> BenchmarkQuery:
    return BenchmarkQuery(
        query_id=query_id,
        application=application,
        text=text,
        complexity=complexity,
        difficulty_rank=rank,
        intent=Intent.create(intent_name, **params),
    )


# ---------------------------------------------------------------------------
# traffic analysis (24 queries)
# ---------------------------------------------------------------------------
_TRAFFIC: List[BenchmarkQuery] = [
    # -- easy ------------------------------------------------------------
    _q("ta-e1", "traffic_analysis",
       "How many nodes are in the communication graph?",
       "easy", 0, "count_nodes"),
    _q("ta-e2", "traffic_analysis",
       "How many edges are in the communication graph?",
       "easy", 1, "count_edges"),
    _q("ta-e3", "traffic_analysis",
       "What is the total number of bytes transferred across all edges?",
       "easy", 2, "total_bytes"),
    _q("ta-e4", "traffic_analysis",
       "List the addresses of all nodes with address prefix 15.76.",
       "easy", 3, "list_nodes_by_prefix", prefix="15.76"),
    _q("ta-e5", "traffic_analysis",
       "Which edge carries the most bytes? Return the source and target addresses.",
       "easy", 4, "max_bytes_edge"),
    _q("ta-e6", "traffic_analysis",
       "How many router nodes are in the graph?",
       "easy", 5, "count_nodes_of_type", type_name="router"),
    _q("ta-e7", "traffic_analysis",
       "Add a label app:production to nodes with address prefix 15.76",
       "easy", 6, "label_nodes_by_prefix", key="app", value="production", prefix="15.76"),
    _q("ta-e8", "traffic_analysis",
       "List nodes that are isolated, with no incoming or outgoing communication.",
       "easy", 7, "list_isolated_nodes"),
    # -- medium ----------------------------------------------------------
    _q("ta-m1", "traffic_analysis",
       "Find the top 3 nodes by total outgoing bytes and return their addresses.",
       "medium", 0, "top_k_talkers", k=3),
    _q("ta-m2", "traffic_analysis",
       "List edges carrying more than 500000 bytes as source and destination address pairs.",
       "medium", 1, "heavy_edges_above", threshold=500000),
    _q("ta-m3", "traffic_analysis",
       "Compute the average bytes per edge grouped by the source node's device type.",
       "medium", 2, "avg_bytes_by_source_type"),
    _q("ta-m4", "traffic_analysis",
       "Remove all edges with fewer than 1000 bytes from the graph.",
       "medium", 3, "remove_light_edges", threshold=1000),
    _q("ta-m5", "traffic_analysis",
       "Assign a unique color for each /16 IP address prefix. Use color values "
       "'color-0', 'color-1', ... assigned in sorted order of the prefixes.",
       "medium", 4, "color_by_prefix16"),
    _q("ta-m6", "traffic_analysis",
       "Compute the total bytes sent by nodes in each /16 prefix.",
       "medium", 5, "bytes_per_prefix16"),
    _q("ta-m7", "traffic_analysis",
       "For each node, compute the number of distinct peers it communicates with.",
       "medium", 6, "peer_count_per_node"),
    _q("ta-m8", "traffic_analysis",
       "Count how many node pairs communicate in both directions.",
       "medium", 7, "reciprocal_pair_count"),
    # -- hard ------------------------------------------------------------
    _q("ta-h1", "traffic_analysis",
       "Calculate the total byte weight on each node and cluster them into 5 groups "
       "using equal-width bins; return the group index per node address.",
       "hard", 0, "cluster_nodes_by_total_bytes", clusters=5),
    _q("ta-h2", "traffic_analysis",
       "What is the required number of hops for data transmission between node n0 and node n5?",
       "hard", 1, "shortest_path_hops", source="n0", target="n5"),
    _q("ta-h3", "traffic_analysis",
       "Find the size of the largest weakly connected component of the communication graph.",
       "hard", 2, "largest_weakly_connected_component"),
    _q("ta-h4", "traffic_analysis",
       "Identify nodes whose total outgoing bytes exceed the mean by more than two "
       "standard deviations; return their addresses.",
       "hard", 3, "heavy_hitter_outliers"),
    _q("ta-h5", "traffic_analysis",
       "Remove the node with the highest total degree from the graph and return the "
       "number of remaining edges.",
       "hard", 4, "remove_highest_degree_node"),
    _q("ta-h6", "traffic_analysis",
       "Which node has the highest betweenness centrality? Return its address.",
       "hard", 5, "top_betweenness_node"),
    _q("ta-h7", "traffic_analysis",
       "Merge all nodes sharing the same /24 prefix into aggregate nodes, summing edge weights.",
       "hard", 6, "merge_nodes_by_prefix24"),
    _q("ta-h8", "traffic_analysis",
       "Evenly redistribute the total outgoing bytes of the busiest node across its outgoing edges.",
       "hard", 7, "redistribute_busiest_node_bytes"),
]


# ---------------------------------------------------------------------------
# MALT network lifecycle management (9 queries)
# ---------------------------------------------------------------------------
_MALT: List[BenchmarkQuery] = [
    # -- easy ------------------------------------------------------------
    _q("malt-e1", "malt",
       "List all ports that are contained by packet switch ju1.a1.m1.s2c1.",
       "easy", 0, "list_ports_of_switch", switch="ju1.a1.m1.s2c1"),
    _q("malt-e2", "malt",
       "How many packet switches are in the topology?",
       "easy", 1, "count_entities_of_type", entity_type="EK_PACKET_SWITCH"),
    _q("malt-e3", "malt",
       "List all packet switches controlled by control point cp1.",
       "easy", 2, "switches_controlled_by", control_point="cp1"),
    # -- medium ----------------------------------------------------------
    _q("malt-m1", "malt",
       "Find the first and the second largest chassis by capacity.",
       "medium", 0, "top2_chassis_by_capacity"),
    _q("malt-m2", "malt",
       "Compute the number of ports contained in each chassis of rack ju1.a1.m1.",
       "medium", 1, "port_count_per_chassis_in_rack", rack="ju1.a1.m1"),
    _q("malt-m3", "malt",
       "Compute the total packet switch capacity in each datacenter.",
       "medium", 2, "capacity_per_datacenter"),
    # -- hard ------------------------------------------------------------
    _q("malt-h1", "malt",
       "Remove packet switch ju1.a1.m1.s1c1 from its chassis and redistribute its "
       "capacity equally across the remaining switches in that chassis.",
       "hard", 0, "remove_switch_and_rebalance", switch="ju1.a1.m1.s1c1"),
    _q("malt-h2", "malt",
       "For each datacenter, compute the fraction of ports that are down.",
       "hard", 1, "down_port_fraction_per_datacenter"),
    _q("malt-h3", "malt",
       "Add a new packet switch named 'new-switch-1' with capacity 100 to the chassis "
       "with the lowest total capacity and update that chassis capacity.",
       "hard", 2, "add_switch_to_least_loaded_chassis", name="new-switch-1", capacity=100),
]


# ---------------------------------------------------------------------------
# temporal queries (24, over the built-in scenario corpus)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TemporalQuery:
    """One temporal benchmark query, asked against a scenario's timeline.

    Unlike a :class:`BenchmarkQuery`, which evaluates on a single static
    graph, a temporal query's *text* references scenario dynamics ("which
    links failed since t=2?") and its golden answer is a function of the
    whole replayed :class:`~repro.scenarios.engine.ScenarioTimeline`.
    """

    query_id: str
    scenario: str             # registered scenario name the query runs against
    text: str
    complexity: str           # "easy", "medium", "hard"
    difficulty_rank: int      # 0-based rank inside the complexity bucket
    intent: Intent

    @property
    def anchor_time(self) -> Optional[float]:
        """The latest snapshot time the query references (None = whole
        timeline; such queries anchor at the final snapshot)."""
        times = [float(value) for key, value in self.intent.params
                 if key in TIME_PARAMS and value is not None]
        return max(times) if times else None

    def metadata(self, bucket_size: int) -> Dict[str, object]:
        """The structured metadata handed to the calibrated reliability model."""
        return {
            "query_id": self.query_id,
            "query": self.text,
            "application": "traffic_analysis",
            "scenario": self.scenario,
            "complexity": self.complexity,
            "difficulty_rank": self.difficulty_rank,
            "bucket_size": bucket_size,
            "intent": self.intent.as_dict(),
        }


def _tq(query_id: str, scenario: str, text: str, complexity: str, rank: int,
        intent_name: str, **params) -> TemporalQuery:
    return TemporalQuery(
        query_id=query_id,
        scenario=scenario,
        text=text,
        complexity=complexity,
        difficulty_rank=rank,
        intent=Intent.create(intent_name, **params),
    )


_TEMPORAL: List[TemporalQuery] = [
    # -- easy: single-snapshot lookups ------------------------------------
    _tq("tq-e1", "fat-tree-failover",
        "How many links does the fabric have at t=1, right after the core "
        "uplink fails?",
        "easy", 0, "edge_count_at", at=1.0),
    _tq("tq-e2", "wan-fiber-cut",
        "How many POPs are reachable in the backbone at t=4, while pop-3 is "
        "dark for maintenance?",
        "easy", 1, "node_count_at", at=4.0),
    _tq("tq-e3", "manet-churn",
        "How many distinct network states did the churn scenario pass "
        "through, counting the initial state?",
        "easy", 2, "snapshot_count"),
    _tq("tq-e4", "traffic-flashcrowd",
        "At which time did the network carry the most total bytes?",
        "easy", 3, "peak_traffic_time", key="bytes"),
    # -- medium: windowed deltas ------------------------------------------
    _tq("tq-m1", "fat-tree-failover",
        "Which links failed between t=0.5 and t=2?",
        "medium", 0, "failed_links_since", since=0.5, until=2.0),
    _tq("tq-m2", "wan-fiber-cut",
        "Which POPs churned out of or into the backbone between t=1 and t=3?",
        "medium", 1, "churned_nodes_between", start=1.0, end=3.0),
    _tq("tq-m3", "manet-churn",
        "Which mobile nodes departed or rejoined between t=0 and t=3.5?",
        "medium", 2, "churned_nodes_between", start=0.0, end=3.5),
    _tq("tq-m4", "traffic-flashcrowd",
        "Which links have failed since t=1, when the flash crowd peaked?",
        "medium", 3, "failed_links_since", since=1.0),
    # -- easy: correlated-dynamics scenarios ------------------------------
    _tq("tq-e5", "wan-conduit-cut",
        "How many backbone spans are up at t=2, while the cut conduit is "
        "still out?",
        "easy", 4, "edge_count_at", at=2.0),
    _tq("tq-e6", "fattree-maintenance",
        "How many switches and hosts are in the fabric at t=3, during the "
        "chassis maintenance window?",
        "easy", 5, "node_count_at", at=3.0),
    _tq("tq-e7", "wan-gravity-hotspot",
        "At which time did the backbone carry the most total bytes?",
        "easy", 6, "peak_traffic_time", key="bytes"),
    # -- medium: correlated-dynamics scenarios ----------------------------
    _tq("tq-m5", "wan-conduit-cut",
        "Which shared-risk link groups are fully failed at t=2?",
        "medium", 4, "failed_srlgs_at", at=2.0),
    _tq("tq-m6", "fattree-maintenance",
        "Which links were drained for maintenance and restored between t=0 "
        "and t=8?",
        "medium", 5, "drained_links_between", start=0.0, end=8.0),
    _tq("tq-m7", "wan-gravity-hotspot",
        "Which region's traffic grew the most between t=1 and t=3, while "
        "the hotspot built up?",
        "medium", 6, "top_region_by_traffic_growth", start=1.0, end=3.0,
        key="bytes"),
    # -- hard: cross-snapshot aggregations --------------------------------
    _tq("tq-h1", "fat-tree-failover",
        "Which links are running degraded at t=2, below their original "
        "capacity?",
        "hard", 0, "degraded_links_at", at=2.0),
    _tq("tq-h2", "wan-fiber-cut",
        "Which backbone spans were restored between t=1.5 and t=8?",
        "hard", 1, "restored_links_since", since=1.5, until=8.0),
    _tq("tq-h3", "manet-churn",
        "How much aggregate link capacity (Gbps) has the network lost at "
        "t=3 relative to the initial state?",
        "hard", 2, "capacity_drop_at", at=3.0),
    _tq("tq-h4", "traffic-flashcrowd",
        "By how many bytes did total traffic change between t=0 and t=1?",
        "hard", 3, "traffic_change_between", start=0.0, end=1.0, key="bytes"),
    # -- MALT lifecycle over timelines (malt-chassis-drain) ----------------
    _tq("tq-malt-e1", "malt-chassis-drain",
        "How many packet switches are racked in the topology at t=2, while "
        "ju1.a1.m1.s1c1 is drained?",
        "easy", 7, "entity_count_at", entity_type="EK_PACKET_SWITCH", at=2.0),
    _tq("tq-malt-m1", "malt-chassis-drain",
        "What is the total capacity of the packet switches still racked at "
        "t=2, during the drain?",
        "medium", 7, "entity_capacity_at", entity_type="EK_PACKET_SWITCH",
        at=2.0),
    _tq("tq-malt-h1", "malt-chassis-drain",
        "Which ports are orphaned at t=2, left without a containing switch "
        "while their chassis slot is drained?",
        "hard", 7, "orphaned_ports_at", at=2.0),
    # -- hard: correlated-dynamics scenarios ------------------------------
    _tq("tq-h5", "wan-conduit-cut",
        "Which spans of the cut se-sw conduit are still down at t=4, after "
        "the first splice?",
        "hard", 4, "srlg_links_down_at", at=4.0, group="conduit-se-sw"),
    _tq("tq-h6", "fattree-maintenance",
        "Which switches were drained for maintenance and re-racked between "
        "t=0 and t=8?",
        "hard", 5, "drained_nodes_between", start=0.0, end=8.0),
    _tq("tq-h7", "wan-gravity-hotspot",
        "By how many bytes did each region's traffic change between t=1 "
        "and t=3?",
        "hard", 6, "region_traffic_between", start=1.0, end=3.0, key="bytes"),
]


def temporal_queries() -> List[TemporalQuery]:
    """The temporal queries over the scenario corpus (8 scenarios, all
    complexity buckets, including the MALT lifecycle family)."""
    return list(_TEMPORAL)


def temporal_scenario_names() -> List[str]:
    """Scenario names referenced by the temporal corpus, sorted."""
    return sorted({query.scenario for query in _TEMPORAL})


def temporal_queries_for(scenario: str) -> List[TemporalQuery]:
    """The temporal queries asked against one scenario."""
    return [query for query in _TEMPORAL if query.scenario == scenario]


def temporal_query_by_id(query_id: str) -> TemporalQuery:
    """Look up one temporal query by its id (e.g. ``"tq-m1"``)."""
    for query in _TEMPORAL:
        if query.query_id == query_id:
            return query
    raise KeyError(f"unknown temporal query id {query_id!r}")


def temporal_bucket_size(complexity: str) -> int:
    """Number of temporal queries in one complexity bucket."""
    return sum(1 for query in _TEMPORAL if query.complexity == complexity)


def traffic_queries() -> List[BenchmarkQuery]:
    """The 24 traffic-analysis queries."""
    return list(_TRAFFIC)


def malt_queries() -> List[BenchmarkQuery]:
    """The 9 MALT lifecycle-management queries."""
    return list(_MALT)


def queries_for(application: str) -> List[BenchmarkQuery]:
    """All queries of one application."""
    if application == "traffic_analysis":
        return traffic_queries()
    if application == "malt":
        return malt_queries()
    raise KeyError(f"unknown application {application!r}")


def query_by_id(query_id: str) -> BenchmarkQuery:
    """Look up one query by its id (e.g. ``"ta-m5"``)."""
    for query in _TRAFFIC + _MALT:
        if query.query_id == query_id:
            return query
    raise KeyError(f"unknown query id {query_id!r}")


def bucket_size(application: str, complexity: str) -> int:
    """Number of queries in one complexity bucket of one application."""
    return sum(1 for query in queries_for(application) if query.complexity == complexity)
