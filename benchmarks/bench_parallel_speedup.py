"""Parallel-sweep speedup — serial vs 2/4-worker wall time, fixed suite.

Not a paper artifact: this bench tracks the performance trajectory of the
``repro.exec`` fabric.  The workload is fixed — the default scenario suite,
every model, the NetworkX backend — and is swept three ways through the
process pool (serial, 2 workers, 4 workers), writing wall times and
speedups as JSON to ``benchmarks/results/parallel_speedup.json``.

Every cell is cpu-bound (the simulated LLMs answer instantly), so wall-time
gains require real cores; no speedup is asserted and ``host_cpu_count`` is
recorded alongside.  Determinism is asserted: every worker count must
produce the same accuracy tables.
"""

import json
import os
import time

from helpers import RESULTS_DIR
from repro.benchmark.runner import BenchmarkRunner
from repro.exec import ExecutorPolicy

JOB_COUNTS = (1, 2, 4)


def _sweep(jobs: int):
    """Run the fixed suite once; returns (wall_seconds, rendered_tables)."""
    # this bench tracks the *process pool* specifically (jobs=1 resolves serial)
    runner = BenchmarkRunner(policy=ExecutorPolicy(mode="processes", jobs=jobs))
    start = time.perf_counter()
    reports = runner.run_scenario_suite()
    wall = time.perf_counter() - start
    tables = "\n".join(reports[name].render_summary() for name in sorted(reports))
    cells = len(runner.last_run_report.results)
    return wall, tables, cells


def test_parallel_speedup(benchmark):
    benchmark.pedantic(lambda: _sweep(2), rounds=1, iterations=1)

    walls = {}
    tables = {}
    cells = 0
    for jobs in JOB_COUNTS:
        walls[jobs], tables[jobs], cells = _sweep(jobs)
    # the determinism contract: identical tables at every job count
    assert tables[1] == tables[2] == tables[4]

    results = {
        "suite": "default",
        "backend": "networkx",
        "host_cpu_count": os.cpu_count(),
        "cells": cells,
        "serial_wall_s": round(walls[1], 4),
        "workers_2_wall_s": round(walls[2], 4),
        "workers_4_wall_s": round(walls[4], 4),
        "speedup_2": round(walls[1] / walls[2], 3),
        "speedup_4": round(walls[1] / walls[4], 3),
    }

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "parallel_speedup.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
