"""Scenario-generation throughput — seconds per build per family.

Not a paper artifact: this bench tracks the performance trajectory of the
`repro.scenarios` topology generators.  Each family is built at a
representative size and timed, best of :data:`ATTEMPTS` attempts so
scheduler noise on a shared runner cannot move the number on its own.  The
results are written to ``benchmarks/results/scenarios_throughput.json`` as
a metrics snapshot: gauge ``scenarios.build.<family>.seconds`` (what
``repro obs gate`` compares, at 3x) plus the graph size and the elements
built per second, which are informational.

CI keeps the committed file as the baseline and gates the fresh one on it::

    git show HEAD:benchmarks/results/scenarios_throughput.json > base.json
    PYTHONPATH=src python -m pytest benchmarks/bench_scenarios_throughput.py -q
    PYTHONPATH=src python -m repro.cli.main obs gate base.json \\
        benchmarks/results/scenarios_throughput.json
"""

import json
import time

from helpers import RESULTS_DIR
from repro.scenarios import build_topology, family_names

#: representative parameter overrides so every family builds a non-trivial graph
FAMILY_SIZES = {
    "fat-tree": {"k": 8, "hosts_per_edge": 4},
    "wan-backbone": {"pop_count": 60, "extra_links": 40},
    "ring": {"node_count": 200},
    "star": {"leaf_count": 200},
    "mesh": {"node_count": 40, "connectivity": 0.5},
    "geometric": {"node_count": 120, "radius": 0.25},
    "random-traffic": {"node_count": 150, "edge_count": 300},
    "malt": {"racks_per_pod": 4, "ports_per_switch": 6},
}

ROUNDS = 3

#: independent timings per family; the fastest one is recorded
ATTEMPTS = 3


def _measure(family: str, params: dict) -> dict:
    graph = build_topology(family, params, seed=7)  # warm-up + size probe
    size = graph.node_count + graph.edge_count
    elapsed = float("inf")
    for _ in range(ATTEMPTS):
        start = time.perf_counter()
        for round_index in range(ROUNDS):
            build_topology(family, params, seed=7 + round_index)
        elapsed = min(elapsed, time.perf_counter() - start)
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "seconds_per_build": elapsed / ROUNDS,
        "elements_per_second": round(size * ROUNDS / elapsed, 1),
    }


def _snapshot(results: dict) -> dict:
    gauges = {}
    for family, stats in results.items():
        gauges[f"scenarios.build.{family}.seconds"] = stats["seconds_per_build"]
        gauges[f"scenarios.size.{family}.nodes"] = stats["nodes"]
        gauges[f"scenarios.size.{family}.edges"] = stats["edges"]
        gauges[f"scenarios.rate.{family}.elements_per_second"] = \
            stats["elements_per_second"]
    return {"counters": {}, "gauges": gauges, "histograms": {}}


def test_scenarios_throughput(benchmark):
    assert set(FAMILY_SIZES) == set(family_names())
    benchmark.pedantic(lambda: build_topology("fat-tree", FAMILY_SIZES["fat-tree"]),
                       rounds=1, iterations=1)

    results = {family: _measure(family, params)
               for family, params in sorted(FAMILY_SIZES.items())}

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "scenarios_throughput.json"
    path.write_text(json.dumps(_snapshot(results), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

    for family, stats in results.items():
        assert stats["nodes"] > 0 and stats["edges"] > 0, family
        # generation must stay comfortably interactive
        assert stats["elements_per_second"] > 1_000, (family, stats)
