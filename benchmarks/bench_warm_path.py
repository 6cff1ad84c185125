"""Warm answer path — per-stage milliseconds per query, per temporal backend.

Not a paper artifact: this bench tracks what one *warm* temporal answer
costs, the way ``repro serve`` answers it (serial in-process
``repro.api.answer_queries``, worker contexts kept across calls), on the
``direct`` backend and both codegen backends, split into the stages of the
answer path, read from the ``span.<name>.seconds`` histograms of
``repro.obs`` as the change of their ``sum`` over the timed loop.  Every
stage is reported per request (its total time over the run divided by the
number of requests), not per call:

* ``request`` — everything outside the cell worker: the whole call minus
  ``exec.task`` (scenario lookup, query resolution, task build, dispatch);
* ``namespace`` — ``temporal.namespace`` (``timeline_namespace``);
* ``validate_compile`` — ``sandbox.validate`` plus ``sandbox.compile``
  (only cache misses reach them on a tree that caches code);
* ``exec`` — ``sandbox.exec``: the sandbox from the moment it holds a code
  object to the returned outcome;
* ``evaluate`` — ``benchmark.evaluate`` (``evaluate_temporal``);
* ``total`` — the whole ``answer_queries`` call, on the bench's own clock.

It also records the namespace cost curve on the ``fat-tree-failover``
timeline for fat-tree ``k`` = 4..24: the per-request ``timeline_namespace``
cost and, on trees that share a frozen namespace, the one-off
``freeze_timeline`` cost.

Results go to ``benchmarks/results/warm_path.json`` under a label, next to
the entries already there, each with its host record (``nproc``, Python).
To compare two checkouts on one host, run the script once per checkout::

    PYTHONPATH=<other-checkout>/src python benchmarks/bench_warm_path.py --label before
    PYTHONPATH=src python benchmarks/bench_warm_path.py --label after

A checkout whose answer path has no stage spans cannot be the ``before``
side: its stages would read zero.  ``python -m pytest
benchmarks/bench_warm_path.py`` runs a short smoke version and stores it
under the ``smoke`` label.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import RESULTS_DIR  # noqa: E402

RESULTS_PATH = RESULTS_DIR / "warm_path.json"
#: backends whose warm answers are staged; the namespace curve covers the
#: codegen ones
STAGE_BACKENDS = ("direct", "networkx", "frames")
BACKENDS = ("networkx", "frames")
FAT_TREE_KS = (4, 8, 12, 16, 20, 24)
#: timed passes over the temporal corpus per backend
ROUNDS = 20
#: timed repeats per namespace-curve point
REPEATS = 7


def span_totals() -> Counter:
    """Per span name, its seconds so far in this process, and its calls
    under ``<name>.calls``, read from the default metrics registry; the
    difference of two readings is what ran between them."""
    from repro.obs import default_registry
    from repro.obs.trace import SPAN_HISTOGRAM_PREFIX

    totals: Counter = Counter()
    for name, histogram in default_registry().snapshot()["histograms"].items():
        if name.startswith(SPAN_HISTOGRAM_PREFIX):
            stage = name[len(SPAN_HISTOGRAM_PREFIX):-len(".seconds")]
            totals[stage] = histogram["sum"]
            totals[stage + ".calls"] = histogram["count"]
    return totals


def host_record() -> Dict[str, Any]:
    import repro

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "repro_version": repro.__version__}


def _requests(backend: str):
    from repro.api import QuerySpec
    from repro.benchmark.queries import temporal_queries_for, temporal_scenario_names

    return [QuerySpec(scenario=scenario, query=query.query_id, backend=backend)
            for scenario in temporal_scenario_names()
            for query in temporal_queries_for(scenario)]


def warm_stage_costs(rounds: int) -> Dict[str, Dict[str, float]]:
    """Per backend: mean ms per warm query of every stage."""
    from repro.api import answer_queries
    from repro.exec import ExecutorPolicy, clear_worker_contexts

    costs = {}
    for backend in STAGE_BACKENDS:
        requests = _requests(backend)
        policy = ExecutorPolicy.serial(keep_contexts=True)
        clear_worker_contexts()
        try:
            for request in requests:  # warm-up: build every context once
                answer_queries([request], policy=policy)
            before = span_totals()
            total = 0.0
            for _ in range(rounds):
                for request in requests:
                    start = time.perf_counter()
                    answer_queries([request], policy=policy)
                    total += time.perf_counter() - start
            spent = span_totals() - before
        finally:
            clear_worker_contexts()
        queries = rounds * len(requests)
        seconds = {"request": total - spent["exec.task"],
                   "namespace": spent["temporal.namespace"],
                   "validate_compile": spent["sandbox.validate"] + spent["sandbox.compile"],
                   "exec": spent["sandbox.exec"],
                   "evaluate": spent["benchmark.evaluate"],
                   "total": total}
        costs[backend] = {stage: round(1000.0 * value / queries, 4)
                          for stage, value in seconds.items()}
        costs[backend]["queries"] = queries
    return costs


def _median_ms(action: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        action()
        samples.append(1000.0 * (time.perf_counter() - start))
    return round(statistics.median(samples), 4)


def namespace_curve(ks: Sequence[int], repeats: int) -> List[Dict[str, Any]]:
    """Namespace cost against fat-tree size, per backend."""
    from repro.scenarios.engine import replay_scenario, timeline_to_dict
    from repro.scenarios.registry import get_scenario
    from repro.synthesis import temporal

    base = get_scenario("fat-tree-failover")
    freeze = getattr(temporal, "freeze_timeline", None)
    curve = []
    for k in ks:
        spec = dataclasses.replace(base, params={**base.params, "k": k})
        timeline = replay_scenario(spec)
        parsed = temporal.parse_timeline_payload(timeline_to_dict(timeline))
        final = timeline.snapshots[-1].graph
        point = {"k": k, "nodes": final.node_count, "edges": final.edge_count,
                 "snapshots": len(parsed)}
        for backend in BACKENDS:
            if freeze is None:  # a tree that rebuilds the namespace per request
                shared, build_ms = parsed, None
            else:
                build_ms = _median_ms(partial(freeze, parsed, backend), repeats)
                shared = freeze(parsed, backend)
            point[backend] = {
                "build_ms": build_ms,
                "per_request_ms": _median_ms(
                    partial(temporal.timeline_namespace, shared, backend), repeats),
            }
        curve.append(point)
    return curve


def measure(rounds: int, ks: Sequence[int], repeats: int) -> Dict[str, Any]:
    return {"host": host_record(),
            "stages_ms_per_query": warm_stage_costs(rounds),
            "namespace_curve": namespace_curve(ks, repeats)}


def store(label: str, entry: Dict[str, Any], path: Path = RESULTS_PATH) -> Dict[str, Any]:
    """Write *entry* under *label*, keeping every other label's entry."""
    document = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    document[label] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return document


def test_warm_path(benchmark):
    entry = measure(rounds=2, ks=FAT_TREE_KS, repeats=3)
    benchmark.pedantic(lambda: warm_stage_costs(1), rounds=1, iterations=1)
    store("smoke", entry)

    for backend, stages in entry["stages_ms_per_query"].items():
        assert stages["total"] > 0, backend
        assert 0 < stages["request"] < stages["total"], (backend, stages)
        assert stages["namespace"] < stages["total"], (backend, stages)
    largest = entry["namespace_curve"][-1]
    for backend in BACKENDS:
        # the per-request view must not pay for the graph conversion
        cost = largest[backend]
        assert cost["per_request_ms"] * 10 < cost["build_ms"], (backend, cost)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="after",
                        help="key of this run in warm_path.json (default: after)")
    args = parser.parse_args(argv)
    entry = measure(ROUNDS, FAT_TREE_KS, REPEATS)
    store(args.label, entry)
    print(json.dumps({args.label: entry}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
