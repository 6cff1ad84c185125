"""Static benchmark cell — per-stage milliseconds per cell, per backend.

Not a paper artifact: this bench tracks what one cold *static* accuracy-grid
cell (one Table 2-5 cell) costs, run the way the grid runs it: one
application and one runner per application per pass, and
``BenchmarkRunner.run_query`` for every (backend, query, model) cell of it.
Each cell is split into the stages of the static answer path, read from
the ``span.<name>.seconds`` histograms of ``repro.obs`` as the change of
their ``sum`` over the cells:

* ``prompt`` — ``prompt.build`` (application context, graph summary, tokens);
* ``view`` — ``graph.view`` (a networkx view is a new conversion, or the
  view an earlier cell left as new);
* ``execute`` — ``sandbox.execute``, or ``sql.execute`` over the SQL
  statements;
* ``round_trip`` — ``graph.round_trip``, reading the updated graph back (a
  ``from_*`` conversion, or the shared unwritten graph when the cell wrote
  nothing);
* ``golden`` — ``benchmark.golden`` (the runner keeps the reference answer
  per (query, graph), so each pass computes it in the cells of its first
  backend, ``sql``, and the other backends' cells hit);
* ``diff`` — ``graph.diff``;
* ``total`` — the whole ``run_query`` call, on the bench's own clock.

It also counts the calls of ``graph.to_networkx``, ``graph.to_frames`` and
``graph.compute_stats`` per application and pass.

Results go to ``benchmarks/results/static_cell.json`` under a label, next
to the entries already there, each with its host record (``nproc``,
Python).  To compare two checkouts on one host, run the script once per
checkout::

    PYTHONPATH=<other-checkout>/src python benchmarks/bench_static_cell.py --label before
    PYTHONPATH=src python benchmarks/bench_static_cell.py --label after

A checkout whose answer path has no stage spans cannot be the ``before``
side: its stages would read zero.  ``python -m pytest
benchmarks/bench_static_cell.py`` runs a one-pass smoke version and stores
it under the ``smoke`` label.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_warm_path import host_record, span_totals, store  # noqa: E402
from helpers import RESULTS_DIR  # noqa: E402

RESULTS_PATH = RESULTS_DIR / "static_cell.json"
APPLICATIONS = ("traffic_analysis", "malt")
BACKENDS = ("sql", "pandas", "networkx")
#: timed passes over every application's grid
ROUNDS = 3
#: each stage's spans
STAGE_SPANS = {"prompt": ("prompt.build",), "view": ("graph.view",),
               "execute": ("sandbox.execute", "sql.execute"),
               "round_trip": ("graph.round_trip",), "golden": ("benchmark.golden",),
               "diff": ("graph.diff",)}
#: application-module builders counted per application and pass
COUNTED = ("to_networkx", "to_frames", "compute_stats")


def _grid_pass(application_name: str, spent: Dict[str, Counter]) -> None:
    """Run every static cell of one application once, adding each backend's
    span totals, ``total`` seconds and ``cells`` to its counter."""
    from repro.benchmark import BenchmarkConfig, BenchmarkRunner
    from repro.benchmark.queries import queries_for

    config = BenchmarkConfig()
    application = (config.malt_application() if application_name == "malt"
                   else config.traffic_application())
    runner = BenchmarkRunner(config)
    for backend in BACKENDS:
        before = span_totals()
        backend_spent = spent[backend]
        for query in queries_for(application_name):
            for model in config.models:
                start = time.perf_counter()
                runner.run_query(application, query, model, backend)
                backend_spent["total"] += time.perf_counter() - start
                backend_spent["cells"] += 1
        backend_spent.update(span_totals() - before)


def static_cell_costs(rounds: int) -> Dict[str, Any]:
    """Per application and backend: mean ms per cell of every stage, plus
    the per-pass builder counts of each application."""
    costs: Dict[str, Any] = {}
    for application_name in APPLICATIONS:
        spent = {backend: Counter() for backend in BACKENDS}
        for _ in range(rounds):
            _grid_pass(application_name, spent)
        per_backend = {}
        for backend, totals in spent.items():
            cells = totals["cells"]
            seconds = {stage: sum(totals[name] for name in names)
                       for stage, names in STAGE_SPANS.items()}
            seconds["total"] = totals["total"]
            per_backend[backend] = {stage: round(1000.0 * value / cells, 4)
                                    for stage, value in seconds.items()}
            per_backend[backend]["cells"] = cells
        per_backend["builds_per_pass"] = {
            builder: sum(totals[f"graph.{builder}.calls"] for totals in spent.values())
            / rounds
            for builder in COUNTED}
        costs[application_name] = per_backend
    return costs


def measure(rounds: int) -> Dict[str, Any]:
    return {"host": host_record(), "rounds": rounds,
            "stages_ms_per_cell": static_cell_costs(rounds)}


def test_static_cell():
    entry = measure(rounds=1)
    store("smoke", entry, RESULTS_PATH)

    for application_name in APPLICATIONS:
        costs = entry["stages_ms_per_cell"][application_name]
        for backend in BACKENDS:
            stages = costs[backend]
            assert stages["total"] > 0, (application_name, backend)
            assert stages["view"] < stages["total"], (application_name, backend, stages)
        # the summary and the frames are built once per graph, not once per
        # cell
        builds = costs["builds_per_pass"]
        assert builds["compute_stats"] == builds["to_frames"] == 1, builds
    # a networkx view that a cell wrote nothing to goes to the next cell
    malt = entry["stages_ms_per_cell"]["malt"]
    assert malt["builds_per_pass"]["to_networkx"] < malt["networkx"]["cells"], malt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="after",
                        help="key of this run in static_cell.json (default: after)")
    args = parser.parse_args(argv)
    entry = measure(ROUNDS)
    store(args.label, entry, RESULTS_PATH)
    print(json.dumps({args.label: entry}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
