"""``repro`` — run queries, the benchmark, and the cost analysis.

Sub-commands:

* ``ask``       — answer one natural-language query against a synthetic
                  network and show the generated code and the result;
* ``benchmark`` — run the NeMoEval accuracy benchmark (Tables 2-5);
* ``cost``      — run the cost/scalability analysis (Figure 4);
* ``improve``   — run the pass@k / self-debug case study (Table 6);
* ``queries``   — list the benchmark query corpus (Table 1);
* ``scenarios`` — list/describe/generate structured topology families and
                  dynamic-event scenarios (``repro.scenarios``);
* ``serve``     — run the concurrent query-answering HTTP daemon
                  (``repro.serve``);
* ``loadtest``  — replay a Zipf-weighted query mix against a server and
                  report p50/p95/p99 latency and throughput;
* ``obs``       — analyze recorded telemetry: bottleneck/critical-path
                  reports from traces, run-ledger management,
                  noise-banded regression diffs between runs, and the CI
                  gate against committed baselines.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.benchmark import BenchmarkConfig, BenchmarkRunner
from repro.benchmark.errors import ERROR_TYPE_LABELS
from repro.benchmark.queries import malt_queries, traffic_queries
from repro.cost import CostAnalyzer
from repro.exec import DEFAULT_CACHE_DIR, ExecutorPolicy, ResultCache
from repro.llm import available_models
from repro.llm.calibration import TEMPORAL_BACKENDS
from repro.obs import (
    DEFAULT_LEDGER_DIR,
    RunLedger,
    diff_metrics,
    enable_tracing,
    metrics_document,
    sample_now,
    write_metrics,
    write_trace,
)
from repro.obs.analyze import (
    gate_metrics,
    render_latency_table,
    render_report,
    spans_from_trace,
)
from repro.techniques import ImprovementCaseStudy
from repro.utils.tables import format_table
from repro.utils.validation import ValidationError, require

logger = logging.getLogger(__name__)

LOG_LEVELS = ("debug", "info", "warning", "error")


def _configure_logging(level_name: str) -> None:
    """Route diagnostics through :mod:`logging` to stderr.

    Tables, JSON specs, and results stay on stdout; everything narrating the
    run (fabric telemetry, "wrote X to Y" notes, debug detail) goes through
    loggers so ``repro ... > out.txt`` captures only the data.
    """
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        # an unknown $REPRO_LOG_LEVEL must not take the CLI down
        level = logging.INFO
    # force= rebinds the handler to the *current* sys.stderr, so repeated
    # main() calls (tests, embedding) follow stream redirection correctly
    logging.basicConfig(
        level=level, stream=sys.stderr, force=True,
        format="%(levelname)s %(name)s: %(message)s")


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared execution-fabric knobs of the sweep commands."""
    group = parser.add_argument_group("execution fabric")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="default 1 runs the sweep serially in-process; N > 1 "
                            "runs it on a pool of N worker processes (results "
                            "are byte-identical at any job count; the pool costs "
                            "more than it saves on a short sweep: 0.90x at 2 "
                            "workers on a 2-core host)")
    group.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
                       help="content-keyed result cache directory "
                            f"(default {DEFAULT_CACHE_DIR})")
    group.add_argument("--no-cache", action="store_true",
                       help="recompute every cell, bypassing the result cache")


def _cache_from_args(args: argparse.Namespace) -> Optional[ResultCache]:
    """Resolve the --cache-dir/--no-cache knobs."""
    return None if args.no_cache else ResultCache(args.cache_dir)


def _execution_policy(args: argparse.Namespace) -> ExecutorPolicy:
    require(args.jobs >= 1, f"--jobs must be at least 1, got {args.jobs}")
    return ExecutorPolicy(jobs=args.jobs, cache=_cache_from_args(args))


def _add_observability_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared tracing/metrics knobs of the sweep commands."""
    group = parser.add_argument_group("observability")
    group.add_argument("--trace", dest="trace_path", default=None, metavar="OUT.json",
                       help="write a Chrome trace-event file of the sweep "
                            "(load it at chrome://tracing or ui.perfetto.dev); "
                            "spans from every worker process are merged")
    group.add_argument("--metrics-out", dest="metrics_path", default=None,
                       metavar="OUT.json",
                       help="write the metrics snapshot (counters, gauges, "
                            "latency histograms with p50/p95/p99) as JSON")
    group.add_argument("--ledger", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="record this run (metrics snapshot + metadata) "
                            "as an append-only ledger entry; compare runs "
                            "later with 'obs diff' (default: on)")
    group.add_argument("--ledger-dir", default=DEFAULT_LEDGER_DIR, metavar="DIR",
                       help=f"run-ledger directory (default {DEFAULT_LEDGER_DIR})")


def _ledger_meta(args: argparse.Namespace, wall_time_s: float,
                 exit_code: Optional[int]) -> dict:
    """The run metadata recorded next to a ledger entry's metrics snapshot."""
    meta = {
        "version": __version__,
        "host_cores": os.cpu_count(),
        "wall_time_s": round(wall_time_s, 6),
        "exit_code": exit_code,
    }
    for knob in ("jobs", "no_cache", "application", "models", "model",
                 "scenarios", "temporal", "temporal_backends", "sizes"):
        if getattr(args, knob, None) is not None:
            meta[knob] = getattr(args, knob)
    return meta


def _finish_observability(args: argparse.Namespace,
                          wall_time_s: float = 0.0,
                          exit_code: Optional[int] = None) -> None:
    """Export whatever the sweep recorded; runs even if the sweep failed.

    A sweep command takes its one resource reading here: peak RSS is a
    high-water mark and CPU time only grows, so a reading at the end covers
    the whole run.  The writers log the destination themselves at INFO
    level.  A failed sweep still writes its ledger entry — the entry's
    ``exit_code`` says how the run ended, and a trace that stops at the
    failing span is exactly what you want to look at.
    """
    if hasattr(args, "metrics_path"):
        sample_now()
    if getattr(args, "trace_path", None):
        write_trace(args.trace_path)
    if getattr(args, "metrics_path", None):
        write_metrics(args.metrics_path)
    if getattr(args, "ledger", False):
        RunLedger(args.ledger_dir).record(
            command=args.command,
            metrics=metrics_document(),
            meta=_ledger_meta(args, wall_time_s, exit_code),
            argv=list(getattr(args, "raw_argv", [])))


def _print_fabric(run_report) -> None:
    """One telemetry line for the sweep's most recent fabric dispatch."""
    if run_report is None:
        return
    logger.info("fabric: %d cells, jobs=%d, cache hits %d/%d, wall %.2fs",
                len(run_report.results), run_report.jobs, run_report.cache_hits,
                len(run_report.results), run_report.wall_time_s)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Natural-language network management via LLM-generated code "
                    "(HotNets 2023 reproduction).")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--log-level", choices=LOG_LEVELS,
                        default=os.environ.get("REPRO_LOG_LEVEL", "info").lower(),
                        help="diagnostic verbosity on stderr (default: "
                             "$REPRO_LOG_LEVEL or info)")
    subparsers = parser.add_subparsers(dest="command")

    ask = subparsers.add_parser("ask", help="answer one natural-language query")
    ask.add_argument("query", help="the natural-language request")
    ask.add_argument("--application", choices=["traffic", "malt"], default="traffic")
    ask.add_argument("--backend", choices=["networkx", "pandas", "sql", "strawman"],
                     default="networkx")
    ask.add_argument("--model", choices=available_models(), default="gpt-4")
    ask.add_argument("--nodes", type=int, default=40)
    ask.add_argument("--edges", type=int, default=40)

    bench = subparsers.add_parser("benchmark", help="run the NeMoEval benchmark")
    bench.add_argument("--application", choices=["traffic", "malt", "all"], default="all")
    bench.add_argument("--models", nargs="*", default=None)
    bench.add_argument("--temporal", action="store_true",
                       help="run the temporal query corpus over replayed "
                            "scenario timelines instead of the static benchmark")
    bench.add_argument("--scenarios", nargs="*", default=None,
                       help="restrict --temporal to these scenario names")
    bench.add_argument("--backend", dest="temporal_backends", action="append",
                       choices=list(TEMPORAL_BACKENDS), default=None,
                       metavar="BACKEND",
                       help="answering backend for --temporal (repeatable): "
                            "'direct' answers straight from the timeline, "
                            "'frames'/'networkx' run timeline-aware codegen "
                            "through the sandbox; the direct path is always "
                            "included as the baseline column")
    bench.add_argument("--small-malt", action="store_true",
                       help="use a small MALT topology instead of the paper-scale one")
    bench.add_argument("--json", dest="json_path", default=None,
                       help="write the full result log to this JSON file")
    _add_execution_arguments(bench)
    _add_observability_arguments(bench)

    cost = subparsers.add_parser("cost", help="run the cost/scalability analysis")
    cost.add_argument("--model", choices=available_models(), default="gpt-4")
    cost.add_argument("--sizes", nargs="*", type=int,
                      default=[40, 80, 120, 160, 200, 300, 400])
    _add_execution_arguments(cost)
    _add_observability_arguments(cost)

    improve = subparsers.add_parser("improve", help="run the pass@k / self-debug case study")
    improve.add_argument("--model", choices=available_models(), default="bard")
    improve.add_argument("--backend", default="networkx")
    improve.add_argument("--application", choices=["traffic", "malt"], default="malt")
    improve.add_argument("--k", type=int, default=5)

    subparsers.add_parser("queries", help="list the benchmark query corpus")

    scenarios = subparsers.add_parser(
        "scenarios", help="structured topology families and dynamic scenarios")
    scenario_sub = scenarios.add_subparsers(dest="scenario_action")
    scenario_sub.add_parser("list", help="list topology families and scenarios")
    describe = scenario_sub.add_parser("describe", help="show one scenario spec")
    describe.add_argument("name", help="registered scenario name")
    generate = scenario_sub.add_parser(
        "generate", help="build a topology or replay a scenario")
    source = generate.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="topology family name (e.g. fat-tree)")
    source.add_argument("--scenario", help="registered scenario name")
    source.add_argument("--spec", help="path to a scenario spec JSON file")
    generate.add_argument("--seed", type=int, default=None,
                          help="override the scenario/family seed (default 7)")
    generate.add_argument("--set", dest="params", action="append", default=[],
                          metavar="KEY=VALUE", help="override a family parameter")
    generate.add_argument("--replay", action="store_true",
                          help="replay the event timeline and show snapshots")
    generate.add_argument("--json", dest="json_path", default=None,
                          help="write the generated graph to this JSON file")
    lock = scenario_sub.add_parser(
        "lock", help="export the built-in scenario corpus and its digest lockfile")
    lock.add_argument("--dir", dest="corpus_dir", default="scenarios",
                      help="corpus directory (default ./scenarios)")
    lock.add_argument("--check", action="store_true",
                      help="verify the on-disk corpus against freshly replayed "
                           "digests instead of rewriting it")

    analyze = subparsers.add_parser(
        "analyze",
        help="run the invariant checker (determinism / obs-inertness / "
             "template safety) over the source tree")
    analyze.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or package roots to check "
                              "(default: the installed repro package)")
    analyze.add_argument("--rules", default=None, metavar="ID[,ID...]",
                         help="comma-separated rule ids to run "
                              "(default: every registered rule)")
    analyze.add_argument("--format", dest="report_format",
                         choices=("human", "json"), default="human",
                         help="report format (json is what CI archives)")
    analyze.add_argument("--fix-suggestions", action="store_true",
                         help="include a fix hint under each finding "
                              "(human format; JSON always carries them)")
    analyze.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    analyze.add_argument("--effects", action="store_true",
                         help="run only the interprocedural effect-contract "
                              "rules (call-graph effect inference)")
    analyze.add_argument("--explain", default=None, metavar="FUNCTION",
                         help="print the inferred effects of FUNCTION "
                              "(module:function, e.g. repro.benchmark.tasks:"
                              "run_benchmark_cell) with the call chain "
                              "carrying each effect, then exit")
    analyze.add_argument("--baseline", default=None, metavar="PATH",
                         help="ratchet mode: fail on warnings not recorded "
                              "in this baseline JSON, and on baseline "
                              "entries that no longer fire")
    analyze.add_argument("--write-baseline", default=None, metavar="PATH",
                         help="freeze the current warning findings into a "
                              "baseline JSON at PATH")

    serve = subparsers.add_parser(
        "serve", help="run the concurrent query-answering HTTP daemon")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="bind port; 0 lets the OS pick (default 8642)")
    serve.add_argument("--model", choices=available_models(), default="gpt-4",
                       help="default model when a request names none")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="concurrent answer threads (default 4; clients "
                            "beyond this queue, they do not fail)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="content-keyed result cache directory "
                            "(default: no caching; answers are recomputed "
                            "but contexts stay warm across requests)")

    loadtest = subparsers.add_parser(
        "loadtest", help="replay a Zipf query mix against a server and "
                         "report latency percentiles and throughput")
    loadtest.add_argument("--host", default=None,
                          help="target server host (default: spawn an "
                               "in-process server for the run)")
    loadtest.add_argument("--port", type=int, default=8642,
                          help="target server port (with --host; default 8642)")
    loadtest.add_argument("--duration", type=float, default=10.0, metavar="S",
                          help="run length in seconds (default 10)")
    loadtest.add_argument("--qps", type=float, default=5.0,
                          help="target request rate, open-loop (default 5)")
    loadtest.add_argument("--zipf", type=float, default=1.1, metavar="S",
                          help="Zipf exponent of the query popularity "
                               "distribution (default 1.1)")
    loadtest.add_argument("--seed", type=int, default=7,
                          help="RNG seed of the request schedule (default 7)")
    loadtest.add_argument("--scenarios", nargs="*", default=None,
                          help="restrict the mix to these scenarios "
                               "(default: the whole temporal corpus)")
    loadtest.add_argument("--model", choices=available_models(), default="gpt-4")
    loadtest.add_argument("--backend", choices=list(TEMPORAL_BACKENDS),
                          default="direct",
                          help="temporal answering backend (default direct)")
    loadtest.add_argument("--json", dest="json_path", default=None,
                          metavar="OUT.json",
                          help="write the report as a metrics snapshot (what "
                               "'repro obs gate' reads) to this JSON file")

    obs = subparsers.add_parser(
        "obs", help="analyze recorded telemetry: reports, run ledger, diffs")
    obs_sub = obs.add_subparsers(dest="obs_action")
    report = obs_sub.add_parser(
        "report", help="bottleneck / critical-path / resource report")
    report.add_argument("--trace", dest="trace_in", default=None, metavar="TRACE.json",
                        help="exported Chrome trace to analyze (self-time "
                             "bottlenecks + critical path)")
    report.add_argument("--metrics", dest="metrics_in", default=None,
                        metavar="METRICS.json",
                        help="exported metrics snapshot (resource gauges + "
                             "span latency percentiles)")
    report.add_argument("--top", type=int, default=10,
                        help="rows in the bottleneck table (default 10)")
    diff = obs_sub.add_parser(
        "diff", help="regression verdict between two runs (nonzero exit on "
                     "regression)")
    diff.add_argument("base", nargs="?", default=None,
                      help="baseline: a ledger entry id/prefix, 'latest'/'prev', "
                           "or a metrics/ledger JSON path (default: prev)")
    diff.add_argument("current", nargs="?", default=None,
                      help="candidate run, same forms (default: latest)")
    gate = obs_sub.add_parser(
        "gate", help="CI verdict of a run against a committed baseline under "
                     "the per-prefix gate bands (nonzero exit on regression)")
    gate.add_argument("base", help="baseline, same forms as 'obs diff'")
    gate.add_argument("current", help="candidate run, same forms")
    for command in (diff, gate):
        command.add_argument("--ledger-dir", default=DEFAULT_LEDGER_DIR,
                             metavar="DIR",
                             help=f"ledger to resolve entry ids in "
                                  f"(default {DEFAULT_LEDGER_DIR})")
    ledger = obs_sub.add_parser("ledger", help="list/show recorded runs")
    ledger_sub = ledger.add_subparsers(dest="ledger_action")
    ledger_list = ledger_sub.add_parser("list", help="list recorded runs")
    ledger_list.add_argument("--dir", dest="ledger_dir",
                             default=DEFAULT_LEDGER_DIR, metavar="DIR")
    ledger_show = ledger_sub.add_parser("show", help="print one run record")
    ledger_show.add_argument("entry", help="entry id, unique prefix, "
                                           "'latest', or 'prev'")
    ledger_show.add_argument("--dir", dest="ledger_dir",
                             default=DEFAULT_LEDGER_DIR, metavar="DIR")
    return parser


# ---------------------------------------------------------------------------
# sub-command handlers
# ---------------------------------------------------------------------------
def _cmd_ask(args: argparse.Namespace) -> int:
    from repro.api import ask

    result = ask(args.query, application=args.application, backend=args.backend,
                 model=args.model, nodes=args.nodes, edges=args.edges)
    print(f"# model: {args.model}   backend: {args.backend}")
    if result.code:
        print("# generated code:")
        print(result.code)
    if result.succeeded:
        print("# result:")
        print(result.result_value)
    else:
        print(f"# failed at stage {result.error_stage}: {result.error_message}")
    print(f"# cost: ${result.cost_usd:.4f}")
    return 0 if result.succeeded else 1


def _cmd_benchmark(args: argparse.Namespace) -> int:
    if args.temporal:
        return _cmd_benchmark_temporal(args)
    require(not args.temporal_backends,
            "--backend selects the temporal answering path; pass --temporal")
    config = BenchmarkConfig()
    if args.small_malt:
        from repro.malt import MaltTopologyConfig

        config.malt_config = MaltTopologyConfig(
            datacenters=1, pods_per_datacenter=2, racks_per_pod=2, chassis_per_rack=2,
            switches_per_chassis=4, ports_per_switch=3, control_points=4, port_links=6)
    runner = BenchmarkRunner(config, policy=_execution_policy(args))
    applications = {"traffic": ["traffic_analysis"], "malt": ["malt"],
                    "all": ["traffic_analysis", "malt"]}[args.application]
    for application in applications:
        report = runner.run_application(application, models=args.models)
        _print_fabric(runner.last_run_report)
        print(report.render_summary())
        print()
        print(report.render_breakdown())
        print()
        error_counts = report.error_type_counts(backend="networkx")
        rows = [[ERROR_TYPE_LABELS.get(key, key), count]
                for key, count in sorted(error_counts.items())]
        print(format_table(["error type (NetworkX failures)", "count"], rows))
        print()
        if args.json_path:
            report.logger.save(args.json_path)
            logger.info("wrote result log to %s", args.json_path)
    return 0


def _cmd_benchmark_temporal(args: argparse.Namespace) -> int:
    """``repro benchmark --temporal`` — timelines, goldens, accuracy tables."""
    # the direct path always runs as the baseline column so a codegen sweep
    # reports its accuracy *alongside* the strawman-like behaviour; repeated
    # --backend flags dedupe (order-preserving)
    requested = dict.fromkeys(args.temporal_backends or [])
    backends = ["direct"] + [b for b in requested if b != "direct"]
    runner = BenchmarkRunner(BenchmarkConfig(), policy=_execution_policy(args))
    report = runner.run_temporal_suite(scenarios=args.scenarios,
                                       models=args.models, backends=backends)
    _print_fabric(runner.last_run_report)
    print(report.render_summary())
    if len(backends) > 1:
        print()
        print(report.render_backend_summary())
    print()
    print(report.render_snapshot_tables())
    if args.json_path:
        report.logger.save(args.json_path)
        logger.info("wrote result log to %s", args.json_path)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    analyzer = CostAnalyzer(model=args.model, policy=_execution_policy(args))
    cdfs = analyzer.cost_cdf()
    rows = []
    for backend, cdf in cdfs.items():
        rows.append([backend, cdf.mean, cdf.max])
    print(format_table(["approach", "mean cost ($)", "max cost ($)"], rows,
                       title="Per-query cost at 80 nodes+edges", float_format="{:.4f}"))
    print()
    sweep = analyzer.scalability_sweep(graph_sizes=args.sizes)
    _print_fabric(analyzer.last_run_report)
    rows = []
    for point in sweep.points:
        strawman = ("exceeds token limit" if point.strawman_cost_usd is None
                    else f"{point.strawman_cost_usd:.4f}")
        rows.append([point.graph_size, f"{point.codegen_cost_usd:.4f}", strawman])
    print(format_table(["graph size (nodes+edges)", "code-gen cost ($)", "strawman cost ($)"],
                       rows, title="Cost vs graph size"))
    limit = sweep.strawman_limit_size()
    if limit is not None:
        print(f"\nThe strawman exceeds the {args.model} token window at size {limit}.")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — run the daemon until interrupted."""
    import asyncio

    from repro.serve import ReproService, ServiceConfig

    require(args.workers >= 1, f"--workers must be at least 1, got {args.workers}")
    service = ReproService(ServiceConfig(
        host=args.host, port=args.port, model=args.model, workers=args.workers,
        cache=None if args.cache_dir is None else ResultCache(args.cache_dir)))

    async def _run() -> None:
        await service.start()
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        logger.info("interrupted; server stopped")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """``repro loadtest`` — drive a server, print the report, gate on failures."""
    from repro.serve import ServiceConfig
    from repro.serve.loadtest import LoadTestConfig, run_loadtest

    config = LoadTestConfig(
        host=args.host, port=args.port, duration_s=args.duration, qps=args.qps,
        zipf_exponent=args.zipf, seed=args.seed, scenarios=args.scenarios,
        model=args.model, backend=args.backend,
        service=ServiceConfig(port=0, model=args.model))
    report = run_loadtest(config)
    print(report.render())
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(report.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        logger.info("wrote load-test report to %s", args.json_path)
    return 0 if report.failed == 0 else 1


def _cmd_improve(args: argparse.Namespace) -> int:
    from repro.malt import MaltTopologyConfig

    config = BenchmarkConfig(malt_config=MaltTopologyConfig(
        datacenters=1, pods_per_datacenter=2, racks_per_pod=2, chassis_per_rack=2,
        switches_per_chassis=4, ports_per_switch=3, control_points=4, port_links=6))
    study = ImprovementCaseStudy(config, k=args.k)
    application = "malt" if args.application == "malt" else "traffic_analysis"
    overall = study.overall_accuracy_with_techniques(application, args.model, args.backend)
    rows = [[key, value] for key, value in overall.items()]
    print(format_table(["technique", "accuracy"], rows,
                       title=f"{args.model} + {args.backend} on {application}"))
    return 0


def _cmd_queries(_: argparse.Namespace) -> int:
    from repro.benchmark.queries import temporal_queries

    rows = []
    for query in traffic_queries() + malt_queries():
        rows.append([query.query_id, query.application, query.complexity, query.text])
    for temporal in temporal_queries():
        rows.append([temporal.query_id, f"scenario:{temporal.scenario}",
                     temporal.complexity, temporal.text])
    print(format_table(["id", "application", "complexity", "query"], rows,
                       title="NeMoEval query corpus"))
    return 0


def _parse_param_overrides(pairs: List[str]) -> dict:
    """Parse ``--set key=value`` overrides, coercing values via JSON."""
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _print_describe_extras(spec) -> None:
    """Correlated-dynamics context for ``scenarios describe``: the SRLG
    membership declared on the built topology, and the drain/restore schedule
    of every maintenance window in the timeline.

    Rendered to stderr so stdout stays pure spec JSON — ``repro scenarios
    describe name > spec.json`` must keep producing a loadable spec file.
    """
    from repro.scenarios import MaintenanceWindowEvent, graph_srlgs

    srlgs = graph_srlgs(spec.build_topology())
    if srlgs:
        rows = [[name, len(members),
                 ", ".join(f"{source}~{target}" for source, target in members)]
                for name, members in sorted(srlgs.items())]
        print(file=sys.stderr)
        print(format_table(["srlg", "links", "members"], rows,
                           title=f"Shared-risk link groups — {spec.name}"),
              file=sys.stderr)
    windows = [event for event in spec.sorted_events()
               if isinstance(event, MaintenanceWindowEvent)]
    if windows:
        rows = []
        for window in windows:
            if window.node is not None:
                target = f"node {window.node}"
            else:
                target = ", ".join(f"{link['source']}~{link['target']}"
                                   for link in window.links)
            rows.append([window.at, window.end, round(window.end - window.at, 6),
                         target])
        print(file=sys.stderr)
        print(format_table(["drain at", "restore at", "duration", "drained"], rows,
                           title=f"Maintenance windows — {spec.name}"),
              file=sys.stderr)


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import (ScenarioSpec, family_names, get_family,
                                 get_scenario, replay_scenario, scenario_names)
    from repro.graph.serialization import graph_to_json

    if args.scenario_action == "list":
        rows = [[name, get_family(name).description] for name in family_names()]
        print(format_table(["family", "description"], rows, title="Topology families"))
        print()
        rows = [[spec.name, spec.family, len(spec.events), spec.description]
                for spec in (get_scenario(name) for name in scenario_names())]
        print(format_table(["scenario", "family", "events", "description"], rows,
                           title="Registered scenarios"))
        return 0

    if args.scenario_action == "describe":
        spec = get_scenario(args.name)
        print(spec.to_json())
        _print_describe_extras(spec)
        return 0

    if args.scenario_action == "lock":
        from repro.scenarios.corpus import verify_corpus, write_corpus

        if args.check:
            problems = verify_corpus(args.corpus_dir)
            for problem in problems:
                print(f"MISMATCH {problem}", file=sys.stderr)
            if not problems:
                print(f"corpus at {args.corpus_dir} matches its lockfile")
            return 1 if problems else 0
        lock = write_corpus(args.corpus_dir)
        print(f"wrote {len(lock['scenarios'])} scenario specs and "
              f"digests.lock.json to {args.corpus_dir}")
        return 0

    if args.scenario_action == "generate":
        overrides = _parse_param_overrides(args.params)
        if args.family:
            spec = ScenarioSpec(name=f"cli-{args.family}", family=args.family)
        elif args.scenario:
            spec = get_scenario(args.scenario)
        else:
            spec = ScenarioSpec.load(args.spec)
        spec.params.update(overrides)
        if args.seed is not None:
            spec.seed = args.seed
        if args.replay and spec.events:
            timeline = replay_scenario(spec)
            print(timeline.summary())
            graph = timeline.final_graph
        else:
            graph = spec.build_topology()
            print(f"# scenario: {spec.name}   family: {spec.family}   seed: {spec.seed}")
            print(f"# nodes: {graph.node_count}   edges: {graph.edge_count}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(graph_to_json(graph, indent=2) + "\n")
            logger.info("wrote graph to %s", args.json_path)
        return 0

    print("usage: repro scenarios {list,describe,generate,lock} ...")
    return 2


# ---------------------------------------------------------------------------
# obs: telemetry analysis
# ---------------------------------------------------------------------------
def _load_metrics_source(token: str, ledger_dir: str):
    """Resolve one ``obs diff``/``obs gate`` operand to ``(label, metrics
    document)``.

    A token ending in ``.json`` loads that file (both raw metrics snapshots
    and whole ledger entry files work); anything else resolves through the
    ledger (entry id, unique prefix, ``latest``, ``prev``).
    """
    path = Path(token)
    if path.suffix == ".json":
        document = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" in document and "counters" not in document:
            return str(path), document["metrics"]     # a ledger entry file
        return str(path), document
    entry = RunLedger(ledger_dir).find(token)
    return f"{entry['id']} ({entry['command']})", entry["metrics"]


def _cmd_obs_report(args: argparse.Namespace) -> int:
    require(args.trace_in or args.metrics_in,
            "nothing to report on: pass --trace and/or --metrics")
    require(args.top >= 1, f"--top must be at least 1, got {args.top}")
    metrics = None
    if args.metrics_in:
        metrics = json.loads(Path(args.metrics_in).read_text(encoding="utf-8"))
    if args.trace_in:
        document = json.loads(Path(args.trace_in).read_text(encoding="utf-8"))
        print(render_report(spans_from_trace(document), metrics, top=args.top))
    else:
        print(render_latency_table(metrics, top=args.top))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """``obs diff`` (same-host runs) and ``obs gate`` (committed baseline)."""
    base_label, base_doc = _load_metrics_source(
        args.base or "prev", args.ledger_dir)
    current_label, current_doc = _load_metrics_source(
        args.current or "latest", args.ledger_dir)
    if args.obs_action == "gate":
        diff = gate_metrics(base_doc, current_doc)
    else:
        diff = diff_metrics(base_doc, current_doc)
    print(f"base:    {base_label}")
    print(f"current: {current_label}")
    print()
    print(diff.render())
    for entry in diff.regressions():
        limit = f" (limit {entry.band.limit:g}x)" if entry.band else ""
        print(f"FAIL {entry.name}: {entry.detail}{limit}", file=sys.stderr)
    return 0 if diff.ok else 1


def _cmd_obs_ledger(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger_dir)
    if args.ledger_action == "list":
        rows = []
        for entry in ledger.entries():
            meta = entry.get("meta", {})
            rows.append([
                entry["id"],
                time.strftime("%Y-%m-%d %H:%M:%S",
                              time.localtime(entry.get("recorded_at", 0))),
                entry.get("command", "?"),
                meta.get("jobs", "-"),
                meta.get("wall_time_s", "-"),
                meta.get("exit_code", "-"),
            ])
        print(format_table(
            ["id", "recorded", "command", "jobs", "wall (s)", "exit"], rows,
            title=f"Run ledger — {ledger.directory} ({len(rows)} entries)"))
        return 0
    if args.ledger_action == "show":
        print(json.dumps(ledger.find(args.entry), indent=2, sort_keys=True))
        return 0
    print("usage: repro obs ledger {list,show} ...")
    return 2


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Run the invariant checker; exit 1 on any error-severity finding."""
    from repro import analysis

    rule_ids = None
    if args.rules:
        rule_ids = [part.strip() for part in args.rules.split(",") if part.strip()]
    if args.effects:
        if rule_ids is not None:
            raise ValidationError("--effects already selects the effect "
                                  "rules; drop --rules or --effects")
        rule_ids = analysis.effect_rule_ids()
    rules = analysis.get_rules(rule_ids)

    if args.list_rules:
        for checker_rule in rules:
            print(f"{checker_rule.id:28s} [{checker_rule.severity}] "
                  f"{checker_rule.description}")
        return 0

    if args.paths:
        roots = [Path(path) for path in args.paths]
    else:
        import repro
        roots = [Path(repro.__file__).parent]
    for root in roots:
        if not root.exists():
            raise ValidationError(f"no such file or directory: {root}")

    if args.explain:
        blocks = [analysis.render_explain(analysis.project_for_root(root),
                                          args.explain)
                  for root in roots]
        print("\n\n".join(blocks))
        return 0

    findings = []
    for root in roots:
        findings.extend(analysis.analyze_tree(root, rules=rules))
    findings.sort(key=lambda finding: finding.sort_key())

    if args.report_format == "json":
        print(analysis.render_json(findings, rules))
    else:
        print(analysis.render_human(findings, rules,
                                    show_suggestions=args.fix_suggestions))

    if args.write_baseline:
        entries = analysis.write_baseline(Path(args.write_baseline), findings)
        print(f"baseline: froze {sum(entries.values())} warning(s) across "
              f"{len(entries)} rule/path pair(s) into {args.write_baseline}",
              file=sys.stderr)

    exit_code = 1 if analysis.has_errors(findings) else 0
    if args.baseline:
        recorded = analysis.load_baseline(Path(args.baseline))
        new, stale = analysis.compare_baseline(findings, recorded)
        for line in new:
            print(f"baseline: NEW {line}", file=sys.stderr)
        for line in stale:
            print(f"baseline: STALE {line}", file=sys.stderr)
        if new or stale:
            exit_code = 1
        else:
            print(f"baseline: ok ({sum(recorded.values())} recorded "
                  f"warning(s) unchanged)", file=sys.stderr)
    return exit_code


def _cmd_obs(args: argparse.Namespace) -> int:
    if args.obs_action == "report":
        return _cmd_obs_report(args)
    if args.obs_action in ("diff", "gate"):
        return _cmd_obs_diff(args)
    if args.obs_action == "ledger":
        return _cmd_obs_ledger(args)
    print("usage: repro obs {report,diff,gate,ledger} ...")
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = list(argv) if argv is not None else list(sys.argv[1:])
    handlers = {
        "analyze": _cmd_analyze,
        "ask": _cmd_ask,
        "benchmark": _cmd_benchmark,
        "cost": _cmd_cost,
        "improve": _cmd_improve,
        "loadtest": _cmd_loadtest,
        "obs": _cmd_obs,
        "queries": _cmd_queries,
        "scenarios": _cmd_scenarios,
        "serve": _cmd_serve,
    }
    if args.command is None:
        parser.print_help()
        return 2
    _configure_logging(args.log_level)
    started = time.perf_counter()
    if getattr(args, "trace_path", None):
        enable_tracing()
    exit_code: Optional[int] = None
    try:
        exit_code = handlers[args.command](args)
        return exit_code
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as error:
        # user-facing failure verdict, not a diagnostic — always printed,
        # independent of the configured log level
        print(f"error: {error}", file=sys.stderr)
        exit_code = 1
        return 1
    finally:
        # a failed sweep still exports what it recorded — a trace that ends
        # at the failing span is exactly what you want to look at
        _finish_observability(args, wall_time_s=time.perf_counter() - started,
                              exit_code=exit_code)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
