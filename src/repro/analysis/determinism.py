"""Determinism rules for fabric-worker and digest-path modules.

The execution fabric promises that a sweep run serially and a sweep run with
``--jobs N`` produce byte-identical artifacts.  That promise rests on worker
code being a pure function of its payload and on every serialization that
feeds a digest being canonical.  These rules flag the classic ways that
promise quietly breaks: filesystem enumeration order, set iteration order,
wall-clock reads, the process-global RNG, per-process object identity, and
non-canonical JSON.

The first six of those are intrinsic seeds of the effect engine
(:mod:`repro.analysis.effects`), which tags each seed with the rule that
reports it; those rules share one check that reports a file's tagged seeds,
so the per-file and the transitive checks read one scan.  Only
``det-json-sort-keys`` walks the AST here: no effect corresponds to it.

Scope is intentionally narrow — the modules that run inside workers or feed
``Task.digest()`` / cache keys — so that, e.g., the CLI printing a timestamp
is not a finding but a worker reading one is.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis import astutil, effects
from repro.analysis.framework import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
    rule,
)

#: modules that run inside sweep workers or feed digests/cache keys;
#: ``api.py`` hosts the facade's worker (``run_api_cell``), ``serve/``
#: answers concurrent requests through it, and ``obs/`` rides along inside
#: workers (spans/metrics merge into result envelopes), so all inherit the
#: contract
DETERMINISM_SCOPE = (
    "exec/",
    "api.py",
    "benchmark/tasks.py",
    "cost/tasks.py",
    "scenarios/engine.py",
    "graph/",
    "serve/",
    "obs/",
)

#: canonical-JSON scope: everywhere a ``json.dumps`` lands in an artifact a
#: reproduced run is diffed against (result logs, strawman answers, digest
#: material), not just the worker modules
JSON_SCOPE = DETERMINISM_SCOPE + (
    "benchmark/logger.py",
    "synthesis/engine.py",
    "techniques/",
)

#: the rules that report the effect engine's intrinsic seeds, one per seed
#: kind: id -> (severity, description, suggestion)
SEED_RULES = {
    "det-unsorted-listing": (
        SEVERITY_ERROR,
        "directory enumeration whose order reaches the caller unsorted",
        "wrap the enumeration in sorted(...) so iteration order does not "
        "depend on the filesystem"),
    "det-set-iteration": (
        SEVERITY_ERROR,
        "iteration over a set expression (hash order is per-process)",
        "iterate sorted(...) over the set, or keep insertion order with a "
        "dict/list"),
    "det-wallclock": (
        SEVERITY_ERROR,
        "wall-clock read in worker/digest code",
        "workers must be pure functions of their payload; pass timestamps in "
        "via the payload, or use time.perf_counter() for telemetry-only "
        "durations"),
    "det-unseeded-random": (
        SEVERITY_ERROR,
        "use of the process-global random generator",
        "derive a seeded random.Random(...) instance from payload material "
        "instead of the module-level functions"),
    "det-object-identity": (
        SEVERITY_ERROR,
        "id()/hash() in code whose values may reach payloads or digests",
        "use stable keys (addresses, names, content digests via hashlib) "
        "instead of per-process object identity"),
    "det-env-read": (
        SEVERITY_WARNING,
        "environment read in worker/digest code (machine-dependent)",
        "resolve environment configuration in the parent process and pass it "
        "through the payload, so two machines running the same sweep agree "
        "byte-for-byte"),
}


def check_seeds(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    """Report the file's seeds tagged with *rule_*'s id, once per site.

    ``os.environ.get(...)`` seeds twice at one site (the call and the
    ``os.environ`` attribute), so sites are deduplicated by (line, col).
    """
    project = effects.project_for(ctx)
    sites: Set[Tuple[int, int]] = set()
    for node in project.graph.functions_in(ctx.relpath):
        for seed in project.seeds.get(node.qualname, ()):
            if seed.rule == rule_.id and (seed.lineno, seed.col) not in sites:
                sites.add((seed.lineno, seed.col))
                yield ctx.finding(
                    rule_, None,
                    f"{seed.description} in worker/digest scope: serial and "
                    f"--jobs N runs, or two machines, may disagree",
                    line=seed.lineno, col=seed.col)


for _rule_id, (_severity, _description, _suggestion) in SEED_RULES.items():
    rule(_rule_id, severity=_severity, scope=DETERMINISM_SCOPE,
         description=_description, suggestion=_suggestion)(check_seeds)


@rule("det-json-sort-keys", severity=SEVERITY_ERROR, scope=JSON_SCOPE,
      description="json.dumps without sort_keys=True in a digest/artifact path",
      suggestion="pass sort_keys=True so the serialization is canonical "
                 "regardless of dict build order")
def check_json_sort_keys(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    bare_dumps = astutil.from_imports(ctx.tree, "json") & {"dumps"}
    for call in astutil.walk_calls(ctx.tree):
        dotted = astutil.dotted_name(call.func)
        is_dumps = dotted == "json.dumps" or (
            isinstance(call.func, ast.Name) and call.func.id in bare_dumps)
        if not is_dumps:
            continue
        if any(kw.arg is None for kw in call.keywords):
            continue  # **kwargs splat: cannot decide statically
        sort_kw = next((kw for kw in call.keywords if kw.arg == "sort_keys"), None)
        if sort_kw is None or (isinstance(sort_kw.value, ast.Constant)
                               and sort_kw.value.value is not True):
            yield ctx.finding(
                rule_, call,
                "json.dumps(...) without sort_keys=True emits keys in dict "
                "build order; two processes building the same mapping "
                "differently produce different bytes")
