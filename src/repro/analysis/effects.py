"""Interprocedural effect inference and the layered effect-contract rules.

Every project function gets a set of *effects* — labels from a small
lattice — seeded from intrinsic calls in its body and propagated
transitively to callers over the :mod:`repro.analysis.callgraph` until
fixpoint:

``nondeterministic``
    wall-clock reads, the process-global RNG, unsorted directory
    enumeration, set iteration, ``id()``/``hash()``
``env-read``
    ``os.environ`` / ``os.getenv``
``fs-write``
    ``open(..., "w")``, ``os.makedirs``, ``shutil.rmtree``,
    ``Path.write_text`` and friends
``network``
    sockets, ``asyncio.open_connection``/``start_server``, urllib
``blocking-io``
    ``time.sleep``, subprocess spawns, ``input()``
``global-mutation``
    writes to module-level names (rebinds under ``global``, item stores,
    mutating method calls), each recorded with whether a ``with <lock>:``
    was in scope; and changes to process-wide state (``redirect_stdout``/
    ``redirect_stderr``, assignments to ``sys.stdout``/``sys.stderr``,
    ``os.chdir``, ``os.environ`` stores), which no lock makes safe

Each function keeps every intrinsic :class:`Seed` it contains, and each
``(function, effect)`` pair keeps a *witness* — the first seed or the call
edge the effect arrived through — so a finding can print the exact call
chain that carries the effect (``repro analyze --explain``).

The contracts enforced on top (one rule each):

=========================  =================================================
layer                      forbidden effect
=========================  =================================================
fabric workers             transitively ``nondeterministic``
                           (``effect-worker-purity``, error) and
                           ``env-read`` (``effect-worker-env``, warning)
``repro.obs``              transitively ``fs-write`` outside the exporter
                           files (``effect-obs-write``, error)
``serve/`` coroutines      transitively ``blocking-io``
                           (``effect-async-blocking``, error); handing the
                           callable to ``run_in_executor`` is exempt
                           because no call edge is created for it
thread-reachable code      unlocked module-global writes
                           (``effect-thread-shared-state``, error)
any code                   process-wide state changes (same rule)
=========================  =================================================

The per-file determinism rules (:mod:`repro.analysis.determinism`) report
these same seeds — each nondeterministic and env-read seed is tagged with
the ``det-*`` rule id that reports it — so one seed scan serves both, and a
pattern added here tightens the per-file and the transitive checks at once.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis import astutil, callgraph
from repro.analysis.callgraph import (
    MODULE_FUNCTION,
    CallGraph,
    FunctionNode,
    ModuleInfo,
    walk_owned,
)
from repro.analysis.framework import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
    all_rules,
    rule,
)

# ---------------------------------------------------------------------------
# the effect lattice
# ---------------------------------------------------------------------------
NONDETERMINISTIC = "nondeterministic"
ENV_READ = "env-read"
FS_WRITE = "fs-write"
NETWORK = "network"
BLOCKING_IO = "blocking-io"
GLOBAL_MUTATION = "global-mutation"

# ---------------------------------------------------------------------------
# intrinsic seed tables
# ---------------------------------------------------------------------------
#: directory-enumeration calls whose result order is filesystem-dependent
LISTING_CALLS = {"listdir", "scandir", "iterdir", "glob", "rglob"}

#: wall-clock reads (monotonic clocks used for telemetry durations are fine)
WALLCLOCK_CALLS = {
    "time.time", "time.time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today", "datetime.date.today",
}

#: process-global RNG entry points (a seeded ``random.Random`` is fine)
GLOBAL_RANDOM_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular",
}

#: fully-qualified filesystem mutators
FS_WRITE_CALLS = {
    "os.fdopen", "os.makedirs", "os.mkdir", "os.remove", "os.unlink",
    "os.rename", "os.replace", "os.rmdir", "os.symlink", "os.link",
    "os.truncate", "os.utime",
    "shutil.rmtree", "shutil.copy", "shutil.copy2", "shutil.copyfile",
    "shutil.copytree", "shutil.move",
}

#: method suffixes that write regardless of receiver (pathlib idiom);
#: never ``.replace``/``.rename`` — those collide with ``str`` methods
FS_WRITE_METHODS = {"write_text", "write_bytes", "mkdir", "touch", "rmtree"}

NETWORK_CALL_PREFIXES = ("socket.", "urllib.", "http.client.")
NETWORK_CALLS = {"asyncio.open_connection", "asyncio.start_server"}

#: calls that block the calling thread (poison inside an event loop)
BLOCKING_CALLS = {"time.sleep", "os.system", "input"}

#: container/deque methods that mutate their receiver in place
MUTATING_METHODS = {
    "append", "appendleft", "add", "update", "setdefault", "pop",
    "popleft", "popitem", "clear", "extend", "extendleft", "remove",
    "discard", "insert", "sort", "reverse",
}

#: process-wide state every thread reads without a lock (each ``print``,
#: each relative path, each environment lookup), so changing it from one
#: thread changes it for all: calls, assignment targets, item stores
PROCESS_STATE_CALLS = {
    "contextlib.redirect_stdout", "contextlib.redirect_stderr", "os.chdir",
}
PROCESS_STATE_ATTRIBUTES = {"sys.stdout", "sys.stderr"}
PROCESS_STATE_MAPPINGS = {"os.environ"}

#: files allowed to keep ``fs-write`` inside ``repro.obs``: the exporters
#: (trace/metrics snapshots) and the append-only run ledger
OBS_EXPORTER_FILES = ("obs/export.py", "obs/ledger.py")


# ---------------------------------------------------------------------------
# analysis results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Seed:
    """One intrinsic effect site in a function body."""

    effect: str
    lineno: int
    col: int
    description: str
    #: the ``det-*`` rule reporting it per file (None: fs-write, network,
    #: blocking-io)
    rule: Optional[str] = None


@dataclass(frozen=True)
class Witness:
    """Why a function carries an effect: its seed, or the carrying call."""

    kind: str  # "seed" | "call"
    lineno: int
    detail: str  # seed description, or the callee qualname


@dataclass(frozen=True)
class MutationSite:
    """One write to a module-level name inside a function body."""

    name: str
    lineno: int
    col: int
    locked: bool
    kind: str  # "rebind" | "item" | "attr" | "mutate" | "process"

    def describe(self) -> str:
        verbs = {
            "rebind": "rebinds module global",
            "item": "stores an item into module global",
            "attr": "sets an attribute on module global",
            "mutate": "mutates module global",
            "process": "changes process-wide state with",
        }
        return f"{verbs[self.kind]} '{self.name}'"


@dataclass
class EffectProject:
    """The fully-propagated effect analysis of one project tree."""

    root: Path
    graph: CallGraph
    effects: Dict[str, Set[str]] = field(default_factory=dict)
    #: every intrinsic seed of each function, in (line, col, effect) order
    seeds: Dict[str, List[Seed]] = field(default_factory=dict)
    witnesses: Dict[Tuple[str, str], Witness] = field(default_factory=dict)
    mutation_sites: Dict[str, List[MutationSite]] = field(default_factory=dict)
    #: thread-reachability BFS tree: fn -> (calling fn, call line) | None for roots
    thread_pred: Dict[str, Optional[Tuple[str, int]]] = field(default_factory=dict)

    def effects_of(self, qualname: str) -> Set[str]:
        return self.effects.get(qualname, set())

    def thread_chain(self, qualname: str) -> List[str]:
        """Root-first call chain by which a thread reaches *qualname*."""
        chain = [qualname]
        current = qualname
        while True:
            pred = self.thread_pred.get(current)
            if pred is None:
                break
            current = pred[0]
            chain.append(current)
        chain.reverse()
        return chain

    def effect_chain(self, qualname: str,
                     effect: str) -> List[Tuple[str, int, str]]:
        """The witness chain carrying *effect* into *qualname*.

        Returns ``[(function, line, step)]`` ending at the seed; ``step``
        is either ``"calls <callee>"`` or the seed description.
        """
        chain: List[Tuple[str, int, str]] = []
        current = qualname
        seen: Set[str] = set()
        while current not in seen:
            seen.add(current)
            witness = self.witnesses.get((current, effect))
            if witness is None:
                break
            if witness.kind == "seed":
                chain.append((current, witness.lineno, witness.detail))
                break
            chain.append((current, witness.lineno,
                          f"calls {witness.detail}"))
            current = witness.detail
        return chain


def short_name(qualname: str) -> str:
    """The function part of ``module:qual`` (``Cls.m`` stays qualified)."""
    return qualname.rsplit(":", 1)[-1]


def chain_text(project: EffectProject, qualname: str, effect: str) -> str:
    """Compact one-line rendering of an effect chain for finding messages."""
    chain = project.effect_chain(qualname, effect)
    if not chain:
        return short_name(qualname)
    hops = " -> ".join(short_name(step[0]) for step in chain)
    last_fn, last_line, last_step = chain[-1]
    relpath = project.graph.functions[last_fn].relpath \
        if last_fn in project.graph.functions else "?"
    if last_step.startswith("calls "):
        return f"{hops} -> {last_step[len('calls '):]}"
    return f"{hops}: {last_step} ({relpath}:{last_line})"


# ---------------------------------------------------------------------------
# seed extraction
# ---------------------------------------------------------------------------
def normalized_call_target(info: ModuleInfo, func: ast.AST) -> Optional[str]:
    """Alias-normalized dotted name of a call's callee expression."""
    if isinstance(func, ast.Name):
        name = func.id
        if name in info.import_objects:
            module, obj = info.import_objects[name]
            return f"{module}.{obj}"
        return name
    if isinstance(func, ast.Attribute):
        dotted = astutil.dotted_name(func)
        if dotted is None:
            return f"?.{func.attr}"
        head, _, rest = dotted.partition(".")
        if rest and head in info.import_modules:
            return f"{info.import_modules[head]}.{rest}"
        if rest and head in info.import_objects:
            module, obj = info.import_objects[head]
            return f"{module}.{obj}.{rest}"
        return dotted
    return None


def _sorted_wrapped_ids(nodes: Sequence[ast.AST]) -> Set[int]:
    """ids of AST nodes anywhere inside the first argument of ``sorted(...)``.

    The whole subtree counts, not just the direct argument:
    ``sorted(p.stem for p in d.glob("*"))`` neutralizes the enumeration
    order exactly as well as ``sorted(d.glob("*"))`` does.
    """
    wrapped: Set[int] = set()
    for node in nodes:
        if isinstance(node, ast.Call) \
                and astutil.call_name(node) == "sorted" and node.args:
            for sub in ast.walk(node.args[0]):
                wrapped.add(id(sub))
    return wrapped


def _open_mode_writes(call: ast.Call) -> bool:
    """Does this ``open(...)``-style call request a writable mode?"""
    mode: Optional[ast.AST] = None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None and len(call.args) >= 2:
        mode = call.args[1]
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return True  # non-constant mode: assume the worst


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) \
            and astutil.call_name(node) in ("set", "frozenset"):
        return True
    return False


def _call_seeds(info: ModuleInfo, call: ast.Call, wrapped: Set[int]
                ) -> Iterator[Tuple[str, Optional[str], str]]:
    """Yield ``(effect, det-* rule, description)`` seeds for one call."""
    dotted = normalized_call_target(info, call.func)
    if dotted is None:
        return
    last = dotted.rsplit(".", 1)[-1]
    if dotted in WALLCLOCK_CALLS:
        yield NONDETERMINISTIC, "det-wallclock", f"wall-clock read {dotted}()"
    if dotted.startswith("random.") and last in GLOBAL_RANDOM_FUNCS:
        yield (NONDETERMINISTIC, "det-unseeded-random",
               f"process-global RNG draw {dotted}()")
    if last in LISTING_CALLS and id(call) not in wrapped:
        yield (NONDETERMINISTIC, "det-unsorted-listing",
               f"unsorted directory enumeration {last}()")
    if isinstance(call.func, ast.Name) and call.func.id in ("id", "hash"):
        yield (NONDETERMINISTIC, "det-object-identity",
               f"per-process identity {call.func.id}()")
    if dotted == "os.getenv" or dotted.startswith("os.environ."):
        yield ENV_READ, "det-env-read", f"environment read {dotted}()"
    if dotted in ("open", "io.open", "os.fdopen") and _open_mode_writes(call):
        yield FS_WRITE, None, f"{dotted}() with a writable mode"
    if dotted in FS_WRITE_CALLS and dotted != "os.fdopen":
        yield FS_WRITE, None, f"filesystem mutation {dotted}()"
    if "." in dotted and last in FS_WRITE_METHODS:
        yield FS_WRITE, None, f"filesystem mutation .{last}()"
    if dotted in NETWORK_CALLS \
            or dotted.startswith(NETWORK_CALL_PREFIXES):
        yield NETWORK, None, f"network operation {dotted}()"
    if dotted in BLOCKING_CALLS or dotted.startswith("subprocess."):
        yield BLOCKING_IO, None, f"blocking call {dotted}()"


def _function_seeds(info: ModuleInfo, owner: FunctionNode) -> List[Seed]:
    """All intrinsic seeds of *owner*, in walk order."""
    nodes = list(walk_owned(info, owner))
    wrapped = _sorted_wrapped_ids(nodes)

    seeds: List[Seed] = []

    def note(effect: str, rule_id: Optional[str], node: ast.AST,
             description: str) -> None:
        seeds.append(Seed(effect, node.lineno, node.col_offset, description,
                          rule_id))

    def flag_set_iteration(iterable: ast.AST) -> None:
        if _is_set_expression(iterable) and id(iterable) not in wrapped:
            note(NONDETERMINISTIC, "det-set-iteration", iterable,
                 "iteration over a set expression (hash order)")

    for node in nodes:
        if isinstance(node, ast.Call):
            for effect, rule_id, description in _call_seeds(info, node,
                                                            wrapped):
                note(effect, rule_id, node, description)
        elif isinstance(node, ast.Attribute) and node.attr == "environ" \
                and astutil.dotted_name(node) == "os.environ":
            note(ENV_READ, "det-env-read", node, "environment read os.environ")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and info.import_objects.get(node.id) == ("os", "environ"):
            note(ENV_READ, "det-env-read", node, "environment read os.environ")
        if isinstance(node, (ast.For, ast.AsyncFor)):
            flag_set_iteration(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for generator in node.generators:
                flag_set_iteration(generator.iter)
        elif isinstance(node, ast.Call) \
                and astutil.call_name(node) in ("list", "tuple") and node.args:
            flag_set_iteration(node.args[0])
    return seeds


# ---------------------------------------------------------------------------
# global-mutation scanning
# ---------------------------------------------------------------------------
def _is_lock_expression(node: ast.AST) -> bool:
    dotted = astutil.dotted_name(node) or (
        node.id if isinstance(node, ast.Name) else None)
    if dotted is None and isinstance(node, ast.Call):
        return _is_lock_expression(node.func)
    return dotted is not None and "lock" in dotted.lower()


class _MutationScanner(ast.NodeVisitor):
    """Collect module-global write sites, tracking ``with <lock>:`` depth."""

    def __init__(self, info: ModuleInfo, global_decls: Set[str],
                 local_binds: Set[str]) -> None:
        self.info = info
        self.module_globals = info.global_names
        self.global_decls = global_decls
        self.local_binds = local_binds
        self.lock_depth = 0
        self.sites: List[MutationSite] = []

    # -- lock scoping ---------------------------------------------------
    def _visit_with(self, node: ast.AST) -> None:
        locked = any(_is_lock_expression(item.context_expr)
                     for item in node.items)
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # -- write sites ----------------------------------------------------
    def _site(self, name: str, node: ast.AST, kind: str) -> None:
        self.sites.append(MutationSite(
            name=name, lineno=node.lineno, col=node.col_offset,
            locked=self.lock_depth > 0 and kind != "process", kind=kind))

    def _process_state(self, node: ast.AST, names: Set[str]) -> Optional[str]:
        dotted = normalized_call_target(self.info, node)
        return dotted if dotted in names else None

    def _is_global_receiver(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name) and node.id in self.module_globals \
                and node.id not in self.local_binds:
            return node.id
        return None

    def _scan_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._site(target.id, target, "rebind")
        elif isinstance(target, ast.Subscript):
            name = self._is_global_receiver(target.value)
            if name is not None:
                self._site(name, target, "item")
            name = self._process_state(target.value, PROCESS_STATE_MAPPINGS)
            if name is not None:
                self._site(name, target, "process")
        elif isinstance(target, ast.Attribute):
            name = self._is_global_receiver(target.value)
            if name is not None:
                self._site(name, target, "attr")
            name = self._process_state(target, PROCESS_STATE_ATTRIBUTES)
            if name is not None:
                self._site(name, target, "process")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element)
        elif isinstance(target, ast.Starred):
            self._scan_target(target.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._scan_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._scan_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._scan_target(node.target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            name = self._is_global_receiver(node.func.value)
            if name is not None:
                self._site(name, node, "mutate")
            name = self._process_state(node.func.value, PROCESS_STATE_MAPPINGS)
            if name is not None:
                self._site(name, node, "process")
        name = self._process_state(node.func, PROCESS_STATE_CALLS)
        if name is not None:
            self._site(name, node, "process")
        self.generic_visit(node)


def _scan_mutations(info: ModuleInfo,
                    owner: FunctionNode) -> List[MutationSite]:
    if owner.name == MODULE_FUNCTION:
        return []  # module-level assignments are definitions, not races
    global_decls: Set[str] = set()
    local_binds: Set[str] = set()
    for node in ast.walk(owner.node):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
        elif isinstance(node, ast.arg):
            local_binds.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            local_binds.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            if node is not owner.node:
                local_binds.add(node.name)
    local_binds -= global_decls
    scanner = _MutationScanner(info, global_decls, local_binds)
    body = owner.node.body if hasattr(owner.node, "body") else []
    for statement in body:
        scanner.visit(statement)
    return scanner.sites


# ---------------------------------------------------------------------------
# fixpoint propagation
# ---------------------------------------------------------------------------
def analyze_project(root: Path,
                    single_relpath: Optional[str] = None) -> EffectProject:
    """Build the call graph, seed effects, and propagate to fixpoint."""
    graph = callgraph.build_call_graph(root, single_relpath=single_relpath)
    project = EffectProject(root=Path(root), graph=graph)

    for qualname in sorted(graph.functions):
        owner = graph.functions[qualname]
        info = graph.modules[owner.module]
        effects: Set[str] = set()
        seeds = sorted(_function_seeds(info, owner),
                       key=lambda seed: (seed.lineno, seed.col, seed.effect))
        if seeds:
            project.seeds[qualname] = seeds
        for seed in seeds:
            if seed.effect not in effects:
                effects.add(seed.effect)
                project.witnesses[(qualname, seed.effect)] = Witness(
                    kind="seed", lineno=seed.lineno, detail=seed.description)
        sites = _scan_mutations(info, owner)
        if sites:
            project.mutation_sites[qualname] = sites
            if GLOBAL_MUTATION not in effects:
                first = sites[0]
                effects.add(GLOBAL_MUTATION)
                project.witnesses[(qualname, GLOBAL_MUTATION)] = Witness(
                    kind="seed", lineno=first.lineno,
                    detail=first.describe())
        project.effects[qualname] = effects

    callers = graph.callers_of()
    worklist = deque(sorted(
        qualname for qualname, effects in project.effects.items() if effects))
    while worklist:
        callee = worklist.popleft()
        for caller, site in callers.get(callee, ()):
            caller_effects = project.effects.setdefault(caller, set())
            changed = False
            for effect in sorted(project.effects[callee]):
                if effect not in caller_effects:
                    caller_effects.add(effect)
                    project.witnesses[(caller, effect)] = Witness(
                        kind="call", lineno=site.lineno, detail=callee)
                    changed = True
            if changed:
                worklist.append(caller)

    # thread-reachability BFS (deterministic: sorted roots, call order)
    queue = deque()
    for thread_root in graph.thread_roots:
        if thread_root not in project.thread_pred:
            project.thread_pred[thread_root] = None
            queue.append(thread_root)
    while queue:
        current = queue.popleft()
        node = graph.functions.get(current)
        if node is None:
            continue
        for site in node.calls:
            if site.target in graph.functions \
                    and site.target not in project.thread_pred:
                project.thread_pred[site.target] = (current, site.lineno)
                queue.append(site.target)
    return project


# ---------------------------------------------------------------------------
# project cache (one build per tree per process)
# ---------------------------------------------------------------------------
_PROJECT_CACHE: Dict[Tuple[str, Optional[str]], EffectProject] = {}


def project_for_root(root: Path,
                     single_relpath: Optional[str] = None) -> EffectProject:
    key = (str(Path(root).resolve()), single_relpath)
    if key not in _PROJECT_CACHE:
        _PROJECT_CACHE[key] = analyze_project(Path(root), single_relpath)
    return _PROJECT_CACHE[key]


def project_for(ctx: FileContext) -> EffectProject:
    """The effect project containing *ctx*'s file (cached per tree)."""
    root, single = callgraph.project_root_for(ctx.path, ctx.relpath)
    return project_for_root(root, single)


def clear_effect_cache() -> None:
    """Drop memoized projects (tests that rewrite files on disk)."""
    _PROJECT_CACHE.clear()


# ---------------------------------------------------------------------------
# explain rendering (repro analyze --explain)
# ---------------------------------------------------------------------------
def resolve_function_spec(project: EffectProject, spec: str) -> List[str]:
    """Resolve a user-supplied function spec to graph qualnames.

    Accepts an exact ``module:qual`` name, a ``:``-suffix (``tasks:run``),
    or a bare function name; returns every match, sorted.
    """
    if spec in project.graph.functions:
        return [spec]
    matches = set()
    for qualname in project.graph.functions:
        module, _, qual = qualname.partition(":")
        if qual == spec or qualname.endswith(f".{spec}") \
                or (":" in spec and qualname.endswith(spec)):
            matches.add(qualname)
    return sorted(matches)


def render_explain(project: EffectProject, spec: str) -> str:
    """Human-readable effect chains for every function matching *spec*."""
    matches = resolve_function_spec(project, spec)
    if not matches:
        return (f"no function matches {spec!r} "
                f"(expected module:function, e.g. "
                f"repro.benchmark.tasks:run_benchmark_cell)")
    blocks: List[str] = []
    for qualname in matches:
        node = project.graph.functions[qualname]
        effects = sorted(project.effects_of(qualname))
        header = f"{qualname}  ({node.relpath}:{node.lineno})"
        lines = [header]
        if not effects:
            lines.append("  no inferred effects")
        for effect in effects:
            lines.append(f"  {effect}:")
            for step_fn, step_line, step in project.effect_chain(
                    qualname, effect):
                step_rel = project.graph.functions[step_fn].relpath \
                    if step_fn in project.graph.functions else "?"
                lines.append(f"    {short_name(step_fn)} "
                             f"({step_rel}:{step_line}) {step}")
        if qualname in project.thread_pred:
            chain = " -> ".join(
                short_name(hop) for hop in project.thread_chain(qualname))
            lines.append(f"  thread-reachable via: {chain}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# the contract rules
# ---------------------------------------------------------------------------
def effect_rule_ids() -> List[str]:
    """Ids of the interprocedural rules (the ``--effects`` selection)."""
    return [rule_.id for rule_ in all_rules() if rule_.id.startswith("effect-")]


def _worker_findings(rule_: Rule, ctx: FileContext, effect: str,
                     consequence: str) -> Iterator[Finding]:
    project = project_for(ctx)
    for qualname in project.graph.worker_roots:
        node = project.graph.functions[qualname]
        if node.relpath != ctx.relpath:
            continue
        if effect not in project.effects_of(qualname):
            continue
        witness = project.witnesses[(qualname, effect)]
        yield ctx.finding(
            rule_, None,
            f"fabric worker {short_name(qualname)}() is transitively "
            f"{effect} via {chain_text(project, qualname, effect)}; "
            f"{consequence}",
            line=witness.lineno, col=0)


@rule("effect-worker-purity", severity=SEVERITY_ERROR,
      description="fabric worker transitively nondeterministic "
                  "(call-graph effect inference)",
      suggestion="workers must be pure functions of their payload; move the "
                 "nondeterministic read into the parent process and pass its "
                 "value through the payload (repro analyze --explain "
                 "<module:function> prints the carrying chain)")
def check_worker_purity(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    yield from _worker_findings(
        rule_, ctx, NONDETERMINISTIC,
        "serial and --jobs N sweeps may produce different bytes")


@rule("effect-worker-env", severity=SEVERITY_WARNING,
      description="fabric worker transitively reads the environment",
      suggestion="resolve environment configuration in the parent process "
                 "and pass it through the payload so two machines agree "
                 "byte-for-byte")
def check_worker_env(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    yield from _worker_findings(
        rule_, ctx, ENV_READ,
        "results now depend on the invoking machine, not the payload")


@rule("effect-obs-write", severity=SEVERITY_ERROR, scope=("obs/",),
      description="repro.obs function transitively writes the filesystem "
                  "outside the exporter files",
      suggestion="observability must be inert: route all file output "
                 "through obs/export.py (or the ledger), invoked explicitly "
                 "from the CLI layer")
def check_obs_write(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    if ctx.relpath in OBS_EXPORTER_FILES:
        return
    project = project_for(ctx)
    for node in project.graph.functions_in(ctx.relpath):
        if FS_WRITE not in project.effects_of(node.qualname):
            continue
        witness = project.witnesses[(node.qualname, FS_WRITE)]
        yield ctx.finding(
            rule_, None,
            f"{short_name(node.qualname)}() transitively writes the "
            f"filesystem via "
            f"{chain_text(project, node.qualname, FS_WRITE)}; repro.obs "
            f"must be inert outside its exporters",
            line=witness.lineno, col=0)


@rule("effect-async-blocking", severity=SEVERITY_ERROR, scope=("serve/",),
      description="async def in serve/ transitively performs blocking I/O",
      suggestion="a blocking call inside a coroutine stalls every "
                 "connection on the event loop; dispatch the blocking "
                 "callable through loop.run_in_executor(...) instead of "
                 "calling it")
def check_async_blocking(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    project = project_for(ctx)
    for node in project.graph.functions_in(ctx.relpath):
        if not node.is_async:
            continue
        if BLOCKING_IO not in project.effects_of(node.qualname):
            continue
        witness = project.witnesses[(node.qualname, BLOCKING_IO)]
        yield ctx.finding(
            rule_, None,
            f"coroutine {short_name(node.qualname)}() transitively blocks "
            f"the event loop via "
            f"{chain_text(project, node.qualname, BLOCKING_IO)}",
            line=witness.lineno, col=0)


@rule("effect-thread-shared-state", severity=SEVERITY_ERROR,
      description="module global written without a lock from a "
                  "thread-reachable function, or process-wide state changed",
      suggestion="take a module-level threading.Lock() (with _LOCK: ...) "
                 "around every write to state shared across answer-thread "
                 "/ ServerThread paths, or confine the state to one thread; "
                 "pass streams, directories and settings explicitly instead "
                 "of swapping sys.stdout, the cwd or os.environ")
def check_thread_shared_state(rule_: Rule,
                              ctx: FileContext) -> Iterator[Finding]:
    """Process-wide state changes are flagged even where the call graph
    finds no thread chain: method calls through attributes often stay
    unresolved, and every library function may run on a serve thread."""
    project = project_for(ctx)
    for node in project.graph.functions_in(ctx.relpath):
        reachable = node.qualname in project.thread_pred
        for site in project.mutation_sites.get(node.qualname, ()):
            if site.locked or not (reachable or site.kind == "process"):
                continue
            message = f"{short_name(node.qualname)}() {site.describe()}"
            if site.kind == "process":
                message += ", which every thread sees at once"
            else:
                message += " without a lock in scope"
            if reachable:
                chain = " -> ".join(
                    short_name(hop)
                    for hop in project.thread_chain(node.qualname))
                message += (f", and is reachable from a thread entry point "
                            f"({chain})")
            yield ctx.finding(rule_, None, message,
                              line=site.lineno, col=site.col)
