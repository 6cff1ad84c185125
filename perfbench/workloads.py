"""The benchmark's workload definitions (data only; drivers live in run.py)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``serve`` drives a ``repro serve`` child over HTTP; ``inproc`` runs a
    #: benchmark child process that calls the library directly
    kind: str
    why: str
    #: answering backends the mix draws from (uniformly, per request)
    backends: Tuple[str, ...] = ()
    #: closed-loop client threads (serve workloads)
    clients: int = 1


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="serve-direct", kind="serve", backends=("direct",), clients=2,
        why="warm HTTP answers on the direct backend: time goes to HTTP, the "
            "thread-pool hop, answer_queries and run_tasks; namespace and "
            "sandbox do no work"),
    Workload(
        name="serve-codegen", kind="serve", backends=("networkx", "frames"),
        clients=1,
        why="warm HTTP answers through codegen: namespace build, validate, "
            "compile and the sandbox thread dominate; serve overhead is small"),
    Workload(
        name="sweep-tables", kind="inproc",
        why="cold serial Table 2-5 grid (492 cells): prompt context, tokenizer, "
            "view rebuilds, sqlengine and diff_graphs, which serving never runs"),
)}
