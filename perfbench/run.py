"""The repository benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-direct --seed 1 --seconds 10 --trace 0

``--workload all`` (the default) runs every workload in turn.  With
``--trace 0`` the run measures the end-to-end metrics with no tracing in
any process; with ``--trace 1`` it makes one untraced and one traced run
and reports the per-layer metrics instead.  Every answer is checked against
``perfbench/expected/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the full result
document, with the host record and every raw sample, is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.client import call, closed_loop, free_port  # noqa: E402
from perfbench.expected import AnswerChecker, expected_path, load_expected  # noqa: E402
from perfbench.mix import distinct_requests, request_stream  # noqa: E402
from perfbench.stats import min_samples, percentile  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
#: the server's request-time histogram in ``GET /metrics``
SERVER_REQUEST_HISTOGRAM = "span.serve.request.seconds"

#: set-ups per timed run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: a child that has not finished by then is killed (the run fails)
CHILD_LIMIT_S = 150.0
READY_LIMIT_S = 60.0

#: end-to-end metric -> unit, in report order
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed operation)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def log_file(name: str):
    (WORK / "logs").mkdir(parents=True, exist_ok=True)
    return open(WORK / "logs" / f"{name}.log", "ab")


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------
class Server:
    """A ``repro serve`` child on a port picked before it spawns."""

    def __init__(self, trace_out: Optional[Path] = None) -> None:
        self.port = free_port(HOST)
        args = ["serve", "--host", HOST, "--port", str(self.port)]
        command = ([sys.executable, str(HERE / "serve_boot.py"), str(trace_out), *args]
                   if trace_out else [sys.executable, "-m", "repro.cli.main", *args])
        with log_file("serve") as log:
            self.process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                                            stdout=log, stderr=subprocess.STDOUT)

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_LIMIT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise BenchmarkError(f"server exited with {self.process.returncode} "
                                     f"(see {WORK / 'logs' / 'serve.log'})")
            try:
                if call(HOST, self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.005)
        raise BenchmarkError("server did not answer /healthz in time")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in the server's /proc status")

    def request_buckets(self) -> Dict[str, int]:
        """Bucket counts of the server's own request-time histogram."""
        metrics = call(HOST, self.port, "GET", "/metrics")[1]
        return metrics["histograms"].get(SERVER_REQUEST_HISTOGRAM, {}).get("buckets", {})

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def run_serve(workload: Workload, seed: int, seconds: float, repeats: int,
              trace_out: Optional[Path]) -> Dict[str, Any]:
    expected = load_expected(workload.name)
    checker = AnswerChecker(expected)
    warm = distinct_requests(expected["candidates"], expected["backends"])
    setups: List[float] = []
    failures: List[Dict[str, Any]] = []
    server = None
    try:
        for _ in range(repeats):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(trace_out)
            server.wait_ready()
            for request in warm:
                failure = checker.check(request, *call(HOST, server.port, "POST",
                                                       "/query", request))
                if failure:
                    failures.append(failure)
            setups.append(time.perf_counter() - started)
        before = server.request_buckets()
        latencies, timed_failures, answered, wall = closed_loop(
            HOST, server.port, request_stream(expected["candidates"],
                                              expected["backends"], seed),
            workload.clients, seconds, min_samples(0.95), checker.check)
        return {
            "setup_s": setups,
            "latencies_s": latencies,
            "wall_s": wall,
            "completed": answered,
            "attempted": len(warm) * repeats + len(latencies),
            "failures": failures + timed_failures,
            "peak_rss_mb": server.peak_rss_mb(),
            "server_p50_ms": 1000.0 * layers.histogram_quantile(
                before, server.request_buckets(), 0.5),
        }
    finally:
        if server is not None:
            server.stop()


# ---------------------------------------------------------------------------
# the in-process workload
# ---------------------------------------------------------------------------
def run_inproc(workload: Workload, seed: int, seconds: float, repeats: int,
               trace_out: Optional[Path]) -> Dict[str, Any]:
    setups: List[float] = []
    result: Dict[str, Any] = {}
    for index in range(repeats):
        timed = index == repeats - 1
        # the grid is the paper's fixed grid: no input depends on the seed
        command = [sys.executable, str(HERE / "inproc.py"), "--seconds", str(seconds)]
        if not timed:
            command.append("--setup-only")
        if trace_out:
            command += ["--trace-out", str(trace_out)]
        with log_file(workload.name) as log:
            started = time.perf_counter()
            process = subprocess.Popen(command, cwd=ROOT, env=child_env(), text=True,
                                       stdout=subprocess.PIPE, stderr=log)
        watchdog = threading.Timer(CHILD_LIMIT_S, process.kill)
        watchdog.start()
        try:
            ready = process.stdout.readline()
            setups.append(time.perf_counter() - started)
            output = process.stdout.read()
            process.wait()
        finally:
            watchdog.cancel()
            process.stdout.close()
        if ready.strip() != "READY" or process.returncode != 0:
            raise BenchmarkError(f"{workload.name} child failed (exit "
                                 f"{process.returncode}; see {WORK / 'logs'})")
        if timed:
            result = json.loads(output.strip().splitlines()[-1])
    result["setup_s"] = setups
    return result


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    latencies = result["latencies_s"]
    p50, p95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
    if p50 is None or p95 is None:
        raise BenchmarkError(f"only {len(latencies)} samples: too few for a p95 "
                             f"with ten samples beyond it")
    rate = result["completed"] / result["wall_s"]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "throughput_qps": rate,
        "latency_p50_ms": p50 * 1000.0,
        "latency_p95_ms": p95 * 1000.0,
        "cells_per_s": rate,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def error_rate(result: Dict[str, Any]) -> float:
    return len(result["failures"]) / result["attempted"]


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    run = run_serve if workload.kind == "serve" else run_inproc
    if not trace:
        result = run(workload, seed, seconds, SETUP_REPEATS, None)
        metrics = end_to_end(result)
        units = END_TO_END_UNITS
        raw = {"untraced": result}
    else:
        untraced = run(workload, seed, seconds, 1, None)
        trace_out = WORK / "traces" / f"{workload.name}-seed{seed}.json"
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        traced = run(workload, seed, seconds, 1, trace_out)
        result = {"attempted": untraced["attempted"] + traced["attempted"],
                  "failures": untraced["failures"] + traced["failures"]}
        base, slow = end_to_end(untraced), end_to_end(traced)
        metrics = layers.layer_metrics(
            json.loads(trace_out.read_text(encoding="utf-8")),
            serve_p50_ms=traced.get("server_p50_ms", 0.0),
            client_p50_ms=slow["latency_p50_ms"],
            overhead_pct=(base["throughput_qps"] / slow["throughput_qps"] - 1) * 100.0,
            error_rate=error_rate(result))
        units = layers.PER_LAYER_UNITS
        raw = {"untraced": untraced, "traced": traced, "trace_file": str(trace_out)}
    return {
        "workload": workload.name,
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "error_rate": error_rate(result),
        "failures": result["failures"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "raw": raw,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": git_commit(), "loadavg_1m": os.getloadavg()[0]}


def print_table(report: Dict[str, Any]) -> None:
    print(f"== {report['workload']}: attempted {report['attempted']}, "
          f"failed {report['failed']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
    for failure in report["failures"][:20]:
        print(f"  FAILED status={failure['status']} {failure['message']} "
              f"request={failure['request']}")


def preflight() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    for name in WORKLOADS:
        if not expected_path(name).is_file():
            raise BenchmarkError(f"missing expected answers {expected_path(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        preflight()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        host = host_record()
        reports = [run_workload(WORKLOADS[name], args.seed, args.seconds,
                                bool(args.trace)) for name in names]
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    for report in reports:
        print_table(report)
        document = {**report, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "host": host}
        path = results / f"{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{report['workload']}/{name}": metric
                   for report in reports for name, metric in report["metrics"].items()}
    print(json.dumps({"correct": all(report["correct"] for report in reports),
                      "attempted": sum(report["attempted"] for report in reports),
                      "failed": sum(report["failed"] for report in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
