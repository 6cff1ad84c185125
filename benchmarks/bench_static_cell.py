"""Static benchmark cell — per-stage milliseconds per cell, per backend.

Not a paper artifact: this bench tracks what one cold *static* accuracy-grid
cell (one Table 2-5 cell) costs, run the way the grid runs it: one
application and one runner per application per pass, and
``BenchmarkRunner.run_query`` for every (backend, query, model) cell of it.
Each cell is split into the stages of the static answer path:

* ``prompt`` — ``build_prompt`` (application context, graph summary, tokens);
* ``view`` — ``networkx_view`` / ``frame_view`` / ``sql_view`` (a networkx
  view is a new conversion, or the view an earlier cell left as new);
* ``execute`` — ``ExecutionSandbox.execute``, or ``Database.execute`` per
  SQL statement;
* ``round_trip`` — reading the updated graph back from the backend's state
  (``read_networkx_view`` / ``read_frame_view`` / ``read_sql_view``: a
  ``from_*`` conversion, or the shared unwritten graph when the cell wrote
  nothing);
* ``golden`` — ``GoldenAnswerSelector.golden_for`` (the reference answer:
  the runner keeps it per (query, graph), so each pass computes it in the
  cells of its first backend, ``sql``, and the other backends' cells hit);
* ``diff`` — ``diff_graphs`` in the evaluator;
* ``total`` — the whole ``run_query`` call.

It also counts, per application and pass, how often the application module
called each view builder (``to_networkx``, ``to_frames``,
``to_sql_database``) and ``compute_stats``.

Results go to ``benchmarks/results/static_cell.json`` under a label, next
to the entries already there, each with its host record (``nproc``,
Python).  To compare two checkouts on one host, run the script once per
checkout::

    PYTHONPATH=<other-checkout>/src python benchmarks/bench_static_cell.py --label before
    PYTHONPATH=src python benchmarks/bench_static_cell.py --label after

``python -m pytest benchmarks/bench_static_cell.py`` runs a one-pass smoke
version and stores it under the ``smoke`` label.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_warm_path import StageTimer, host_record, store  # noqa: E402
from helpers import RESULTS_DIR  # noqa: E402

RESULTS_PATH = RESULTS_DIR / "static_cell.json"
APPLICATIONS = ("traffic_analysis", "malt")
BACKENDS = ("sql", "pandas", "networkx")
#: timed passes over every application's grid
ROUNDS = 3
STAGES = ("prompt", "view", "execute", "round_trip", "golden", "diff", "total")
#: application-module builders counted per application and pass
COUNTED = ("to_networkx", "to_frames", "to_sql_database", "compute_stats")


class StaticStageTimer(StageTimer):
    """The warm-path stage timer, wrapping the static answer path's stages,
    that also counts calls of the application module's builders."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: Dict[str, int] = defaultdict(int)

    def _count(self, owner: Any, attribute: str) -> None:
        original = getattr(owner, attribute)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[attribute] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attribute, vars(owner).get(attribute)))
        setattr(owner, attribute, counted)

    def _time(self, owner: Any, attribute: str, stage: str) -> None:
        self._wrap(owner, attribute, stage, getattr(owner, attribute))

    def install(self) -> "StaticStageTimer":
        from repro.benchmark import evaluator
        from repro.benchmark.goldens import GoldenAnswerSelector
        from repro.core import application, pipeline
        from repro.sandbox.executor import ExecutionSandbox
        from repro.sqlengine import Database

        self._time(pipeline, "build_prompt", "prompt")
        for view in ("networkx_view", "frame_view", "sql_view"):
            self._time(application.NetworkApplication, view, "view")
        self._time(ExecutionSandbox, "execute", "execute")
        self._time(Database, "execute", "execute")
        for read_back in ("read_networkx_view", "read_frame_view", "read_sql_view"):
            self._time(application.NetworkApplication, read_back, "round_trip")
        self._time(GoldenAnswerSelector, "golden_for", "golden")
        self._time(evaluator, "diff_graphs", "diff")
        for builder in COUNTED:
            self._count(application, builder)
        return self


def _grid_pass(application_name: str, timers: Dict[str, StaticStageTimer]) -> None:
    """Run every static cell of one application once, timing each backend's
    cells into its own timer."""
    from repro.benchmark import BenchmarkConfig, BenchmarkRunner
    from repro.benchmark.queries import queries_for

    config = BenchmarkConfig()
    application = (config.malt_application() if application_name == "malt"
                   else config.traffic_application())
    runner = BenchmarkRunner(config)
    for backend in BACKENDS:
        timer = timers[backend].install()
        try:
            for query in queries_for(application_name):
                for model in config.models:
                    start = time.perf_counter()
                    runner.run_query(application, query, model, backend)
                    timer.seconds["total"] += time.perf_counter() - start
                    timer.calls["cells"] += 1
        finally:
            timer.remove()


def static_cell_costs(rounds: int) -> Dict[str, Any]:
    """Per application and backend: mean ms per cell of every stage, plus
    the per-pass builder counts of each application."""
    costs: Dict[str, Any] = {}
    for application_name in APPLICATIONS:
        timers = {backend: StaticStageTimer() for backend in BACKENDS}
        for _ in range(rounds):
            _grid_pass(application_name, timers)
        per_backend = {}
        for backend, timer in timers.items():
            cells = timer.calls["cells"]
            per_backend[backend] = {
                stage: round(1000.0 * timer.seconds.get(stage, 0.0) / cells, 4)
                for stage in STAGES}
            per_backend[backend]["cells"] = cells
        per_backend["builds_per_pass"] = {
            builder: sum(timer.calls[builder] for timer in timers.values()) / rounds
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
        # cell, and the SQL view is made from the frames
        builds = costs["builds_per_pass"]
        assert builds["compute_stats"] == builds["to_frames"] == 1, builds
        assert builds["to_sql_database"] == 0, builds
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
