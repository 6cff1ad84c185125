"""CI observability smoke: validate exported trace and metrics JSON.

``repro benchmark --trace OUT.json --metrics-out OUT.json`` promises
two machine-readable artifacts:

* a Chrome trace-event document (loadable at ``chrome://tracing`` or
  ui.perfetto.dev) whose complete ("X") events carry numeric, non-negative
  timestamps/durations and whose every process lane is named by a
  ``process_name`` metadata event;
* a metrics snapshot whose counters are non-negative integers and whose
  histograms carry a consistent count/sum/min/max and the streaming
  p50/p95/p99 quantiles.

This checker enforces both shapes so the CI smoke run catches an export
regression (a renamed field, a string timestamp, a lane without a name)
before anyone tries to load the file in a viewer.  Span coverage is
asserted with ``--expect PREFIX``: the trace must contain at least one X
event whose name is the prefix or continues it after a dot (``synthesis.``
matches ``synthesis.emit``; ``sandbox.exec`` does not match
``sandbox.execute``), which is how CI pins "synthesis, sandbox, and fabric
spans all made it into the merged trace".

The span-parsing pieces (:data:`X_EVENT_FIELDS`,
:func:`metadata_process_name`) are imported from
:mod:`repro.obs.analyze` — the same helpers ``repro obs report`` analyzes
traces with — so the checker and the analyzer cannot disagree about what a
well-formed span looks like.

Run from the repository root::

    PYTHONPATH=src python benchmarks/check_trace_schema.py \
        --trace trace.json --metrics metrics.json \
        --expect synthesis. --expect sandbox.execute --expect exec.task
"""

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

from repro.obs.analyze import X_EVENT_FIELDS, metadata_process_name

#: every histogram snapshot must carry these fields
HISTOGRAM_FIELDS = ("count", "sum", "min", "max", "mean",
                    "p50", "p95", "p99", "buckets")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_trace(document: Any, expect: List[str] = ()) -> List[str]:
    """Problems with a Chrome trace-event document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"trace document is {type(document).__name__}, expected object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["trace document has no traceEvents list"]

    named_pids = set()
    span_pids = set()
    span_names = []
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase == "M":
            if event.get("name") == "process_name":
                if metadata_process_name(event) is None:
                    problems.append(f"{where}: process_name without a name arg")
                named_pids.add(event.get("pid"))
            continue
        if phase != "X":
            problems.append(f"{where}: unexpected phase {phase!r}")
            continue
        missing = [key for key in X_EVENT_FIELDS if key not in event]
        if missing:
            problems.append(f"{where}: missing {', '.join(missing)}")
            continue
        if not isinstance(event["name"], str) or not event["name"]:
            problems.append(f"{where}: name is not a non-empty string")
        for key in ("ts", "dur"):
            if not _is_number(event[key]) or event[key] < 0:
                problems.append(f"{where}: {key}={event[key]!r} is not a "
                                f"non-negative number")
        for key in ("pid", "tid"):
            if not isinstance(event[key], int) or event[key] < 0:
                problems.append(f"{where}: {key}={event[key]!r} is not a "
                                f"non-negative integer")
        span_pids.add(event.get("pid"))
        span_names.append(event.get("name"))

    for pid in sorted(pid for pid in span_pids if pid not in named_pids):
        problems.append(f"process lane pid={pid} has no process_name metadata")
    for prefix in expect:
        dotted = prefix.rstrip(".") + "."
        if not any(isinstance(name, str) and (name == prefix or name.startswith(dotted))
                   for name in span_names):
            problems.append(f"no span named {prefix}* in the trace "
                            f"(have: {', '.join(sorted(set(span_names))) or 'none'})")
    return problems


def _validate_histogram(name: str, histogram: Any) -> List[str]:
    problems: List[str] = []
    where = f"histograms[{name!r}]"
    if not isinstance(histogram, dict):
        return [f"{where}: not an object"]
    missing = [key for key in HISTOGRAM_FIELDS if key not in histogram]
    if missing:
        return [f"{where}: missing {', '.join(missing)}"]
    count = histogram["count"]
    if not isinstance(count, int) or count < 0:
        problems.append(f"{where}: count={count!r} is not a non-negative integer")
    for key in ("sum", "min", "max", "mean", "p50", "p95", "p99"):
        if not _is_number(histogram[key]):
            problems.append(f"{where}: {key}={histogram[key]!r} is not a number")
    if not problems and count > 0:
        if not histogram["min"] <= histogram["mean"] <= histogram["max"]:
            problems.append(f"{where}: mean outside [min, max]")
        if not histogram["p50"] <= histogram["p95"] <= histogram["p99"]:
            problems.append(f"{where}: quantiles are not monotonic")
    buckets = histogram["buckets"]
    if not isinstance(buckets, dict):
        problems.append(f"{where}: buckets is not an object")
    elif count > 0 and sum(buckets.values()) != count:
        problems.append(f"{where}: bucket counts sum to {sum(buckets.values())}"
                        f", count says {count}")
    return problems


def validate_metrics(document: Any) -> List[str]:
    """Problems with a metrics snapshot document (empty list = valid)."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return [f"metrics document is {type(document).__name__}, expected object"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(document.get(section), dict):
            problems.append(f"metrics document has no {section} object")
    if problems:
        return problems
    for name, value in sorted(document["counters"].items()):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            problems.append(f"counters[{name!r}]={value!r} is not a "
                            f"non-negative integer")
    for name, value in sorted(document["gauges"].items()):
        if not _is_number(value):
            problems.append(f"gauges[{name!r}]={value!r} is not a number")
    for name, histogram in sorted(document["histograms"].items()):
        problems.extend(_validate_histogram(name, histogram))
    return problems


def _load(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="validate exported trace/metrics JSON artifacts")
    parser.add_argument("--trace", type=Path, default=None,
                        help="Chrome trace-event JSON to validate")
    parser.add_argument("--metrics", type=Path, default=None,
                        help="metrics snapshot JSON to validate")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="PREFIX",
                        help="require at least one trace span whose name "
                             "starts with PREFIX (repeatable)")
    args = parser.parse_args(argv)
    if args.trace is None and args.metrics is None:
        parser.error("nothing to check: pass --trace and/or --metrics")
    if args.expect and args.trace is None:
        parser.error("--expect requires --trace")

    problems: List[str] = []
    checked: Dict[str, int] = {}
    for label, path, validate in (
            ("trace", args.trace, lambda doc: validate_trace(doc, args.expect)),
            ("metrics", args.metrics, validate_metrics)):
        if path is None:
            continue
        try:
            document = _load(path)
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"cannot load {label} file {path}: {error}")
            continue
        found = validate(document)
        problems.extend(f"{label}: {problem}" for problem in found)
        if label == "trace":
            checked["trace events"] = len(document.get("traceEvents", []))
        else:
            checked["histograms"] = len(document.get("histograms", {}))

    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)
    if not problems:
        summary = ", ".join(f"{count} {label}" for label, count in checked.items())
        print(f"observability artifacts are valid ({summary})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
