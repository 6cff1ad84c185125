"""Regenerate the expected answers under ``perfbench/expected/``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py

Answers come from a serial, in-process ``repro.api.answer_queries`` run, one
request per call (as the server answers them); the sweep-tables record is
the verdict projection of a serial ``BenchmarkRunner().run_all()`` grid.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.expected import canonical, digest, expected_path, request_key, sweep_records  # noqa: E402
from perfbench.mix import distinct_requests  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def answer_documents(candidates, backends):
    from repro.api import QuerySpec, answer_queries
    from repro.exec import ExecutorPolicy

    policy = ExecutorPolicy(mode="serial", keep_contexts=True)
    answers = {}
    for request in distinct_requests(candidates, backends):
        answer = answer_queries([QuerySpec(
            scenario=request["scenario"], query=request["query"],
            backend=request["backend"])], policy=policy)[0]
        answers[request_key(request)] = json.loads(canonical(answer.to_document()))
    return answers


def main() -> int:
    from repro.benchmark.queries import temporal_queries_for, temporal_scenario_names
    from repro.benchmark.runner import BenchmarkRunner

    corpus = [[scenario, query.query_id] for scenario in temporal_scenario_names()
              for query in temporal_queries_for(scenario)]
    for workload in WORKLOADS.values():
        if workload.name == "sweep-tables":
            rows = sweep_records(BenchmarkRunner().run_all().values())
            document = {"cells": len(rows), "digest": digest(rows), "records": rows}
        else:
            document = {
                "candidates": corpus,
                "backends": list(workload.backends),
                "answers": answer_documents(corpus, workload.backends),
            }
        document = {"workload": workload.name, **document}
        path = expected_path(workload.name)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
