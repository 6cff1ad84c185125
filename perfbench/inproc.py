"""Child process of the in-process workload (sweep-tables).

Started by ``run.py`` with ``PYTHONPATH`` pointing at the program's
sources.  It sets up (imports and first-touch construction), prints
``READY``, then — unless ``--setup-only`` — runs the timed phase and prints
one JSON line with the raw samples.  With ``--trace-out`` the per-layer
wrappers are installed before set-up and the recorded spans are written
there at the end; without it no wrapper exists in the process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402
from perfbench.expected import check_sweep, load_expected, sweep_records  # noqa: E402

SWEEP_APPLICATIONS = ("traffic_analysis", "malt")


def run_sweep(seconds: float) -> Dict[str, Any]:
    """Cold serial Table 2-5 grids, whole grids only, while time is left.

    A grid is the two ``run_application`` sweeps ``BenchmarkRunner.run_all``
    makes, called one by one so each sweep's per-cell times can be read
    from its run report; each grid gets a fresh runner.
    """
    from repro.benchmark.runner import BenchmarkRunner

    expected = load_expected("sweep-tables")
    cell_s: List[float] = []
    grid_s: List[float] = []
    failures: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while not grid_s or time.perf_counter() < deadline:
        runner = BenchmarkRunner()
        started = time.perf_counter()
        reports = []
        for application in SWEEP_APPLICATIONS:
            reports.append(runner.run_application(application))
            cell_s.extend(result.duration_s for result in runner.last_run_report.results)
        grid_s.append(time.perf_counter() - started)
        failures.extend(check_sweep(expected, sweep_records(reports)))
    return {"latencies_s": cell_s, "wall_s": sum(grid_s), "grids_s": grid_s,
            "completed": len(cell_s), "attempted": len(cell_s), "failures": failures}


def spread_over_cpus(period_s: float = 0.05) -> None:
    """Move the (serial) main thread round-robin over every allowed CPU.

    CPUs of a shared host slow down independently of each other, for
    seconds at a time; a single busy thread left on one CPU takes that
    CPU's slow spells in full, where rotating takes the average of all.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    main_thread = threading.main_thread().native_id

    def rotate() -> None:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(main_thread, {cpu})
            time.sleep(period_s)

    threading.Thread(target=rotate, name="cpu-rotation", daemon=True).start()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    spread_over_cpus()

    recorder = installation = None
    if args.trace_out:
        recorder = layers.Recorder()
        installation = layers.install(recorder)
    from repro.benchmark.runner import BenchmarkRunner

    BenchmarkRunner()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    result = run_sweep(args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if installation is not None:
        installation.remove()
        Path(args.trace_out).write_text(json.dumps(recorder.document()), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
