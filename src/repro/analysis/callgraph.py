"""Project-wide call graph: module-qualified function resolution over imports.

The effect-analysis engine (:mod:`repro.analysis.effects`) needs to answer
"who can this function call?" across the whole package, not one file at a
time.  This module builds that graph statically:

* every module-level function, every method of a module-level class, and a
  ``<module>`` pseudo-function per file (import-time statements) becomes a
  :class:`FunctionNode` with a stable qualified name ``module:qualname``
  (``repro.exec.workers:run_task``,
  ``repro.serve.service:ReproService._dispatch``);
* calls are resolved through import aliases (``import a.b as c``,
  ``from a.b import f as g``), through re-export chains (``from repro.obs
  import span`` resolves into ``repro.obs.trace:span``), through ``self.``/
  ``cls.`` receivers within a class, through *typed receivers*, and — for
  the remaining dynamic dispatch — through a conservative unique-method
  heuristic: ``x.golden_for(...)`` binds to
  ``TemporalGoldenSelector.golden_for`` only when exactly one project class
  defines that method name and the name is not a builtin-container method;
* a receiver ``self.x`` (in its class) or ``x`` (in its function) is typed
  when every store to it (``= None`` aside) is ``Cls(...)`` or
  ``x or Cls(...)`` for one project class, or ``x`` is a parameter
  annotated ``Cls``/``Optional[Cls]``; ``x.method(...)`` binds to
  ``Cls.method`` when the class defines it;
* **worker roots** (functions referenced by ``"module:function"`` fabric
  worker strings) and **thread roots** (functions handed to
  ``Thread(target=...)``, ``pool.submit(...)``, ``loop.run_in_executor``,
  or ``asyncio.start_server`` callbacks) are discovered while linking, so
  the concurrency rules know where reachability starts.

Nested functions and lambdas are attributed to their enclosing top-level
function: a call inside ``lambda: build()`` counts as a call by the function
that created the lambda.  That deliberately over-approximates "the callee
may run whenever the caller runs", which is exactly the contract
``worker_context(key, builder)`` gives its builder.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import astutil
from repro.analysis.framework import iter_tree

#: a fabric worker reference: ``package.module:function``
WORKER_REF_RE = re.compile(r"^[A-Za-z_][\w.]*:[A-Za-z_]\w*$")

#: the per-file pseudo-function holding import-time statements
MODULE_FUNCTION = "<module>"

#: method names never resolved by the unique-method heuristic: they collide
#: with builtin container/str/file/concurrency APIs, so a lone project class
#: defining one must not capture every ``x.name(...)`` call in the tree
COMMON_METHOD_NAMES = frozenset({
    "add", "append", "clear", "close", "copy", "count", "decode", "discard",
    "encode", "endswith", "extend", "flush", "format", "get", "index",
    "insert", "items", "join", "keys", "lower", "partition", "pop", "popitem",
    "read", "readline", "readlines", "remove", "replace", "reverse", "rpartition",
    "rsplit",
    "rstrip", "seek", "set", "setdefault", "sort", "split", "splitlines",
    "startswith", "strip", "tell", "title", "update", "upper", "values",
    "wait", "write",
    "acquire", "release", "cancel", "done", "result", "shutdown", "submit",
    "is_set", "start", "stop", "run",
})


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its source location."""

    target: str
    lineno: int
    col: int


@dataclass
class FunctionNode:
    """One project function (or method, or module pseudo-function)."""

    qualname: str
    module: str
    relpath: str
    name: str
    lineno: int
    is_async: bool = False
    cls: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)
    #: the AST subtree of this function (module AST for ``<module>``)
    node: Optional[ast.AST] = None


@dataclass
class ModuleInfo:
    """Per-module symbol tables used during linking."""

    name: str
    relpath: str
    path: Path
    tree: ast.AST
    #: local alias -> module dotted path (``import a.b as c``)
    import_modules: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, object) (``from a.b import f as g``)
    import_objects: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level function/method local-quals (``f``, ``Cls.m``)
    functions: Dict[str, str] = field(default_factory=dict)
    #: module-level class name -> its method names
    classes: Dict[str, Set[str]] = field(default_factory=dict)
    #: every module-level assigned name (the shared-state candidates)
    global_names: Set[str] = field(default_factory=set)
    #: ids of the def nodes registered as functions of their own
    function_nodes: Set[int] = field(default_factory=set)
    #: module-level class name -> typed ``self.<attr>`` -> ``module:Cls``
    attr_types: Dict[str, Dict[str, str]] = field(default_factory=dict)


class CallGraph:
    """The linked project: functions, edges, and concurrency roots."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionNode] = {}
        #: method bare name -> qualnames defining it (unique-method lookup)
        self.methods_by_name: Dict[str, List[str]] = {}
        #: fabric worker entry points ("module:function" references)
        self.worker_roots: List[str] = []
        #: functions handed to threads / pools / event-loop callbacks
        self.thread_roots: List[str] = []

    # ------------------------------------------------------------------
    def functions_in(self, relpath: str) -> List[FunctionNode]:
        """Functions defined in one file, in definition order."""
        nodes = [node for node in self.functions.values()
                 if node.relpath == relpath]
        return sorted(nodes, key=lambda node: (node.lineno, node.qualname))

    def callers_of(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """Reverse adjacency: callee -> [(caller, site), ...]."""
        reverse: Dict[str, List[Tuple[str, CallSite]]] = {}
        for qualname in sorted(self.functions):
            for site in self.functions[qualname].calls:
                reverse.setdefault(site.target, []).append((qualname, site))
        return reverse

    # ------------------------------------------------------------------
    def _definition(self, module: str,
                    name: str) -> Optional[Tuple[ModuleInfo, str]]:
        """Follow ``module:name`` through re-export chains to its definition."""
        seen: Set[Tuple[str, str]] = set()
        while (module, name) not in seen:
            seen.add((module, name))
            info = self.modules.get(module)
            if info is None:
                return None
            if name in info.functions or name in info.classes:
                return info, name
            if name not in info.import_objects:
                return None
            module, name = info.import_objects[name]
        return None

    def resolve_object(self, module: str, name: str) -> Optional[str]:
        """Resolve ``module:name`` through re-export chains to a qualname."""
        found = self._definition(module, name)
        if found is None:
            return None
        info, name = found
        if name in info.functions:
            return f"{info.name}:{info.functions[name]}"
        # calling a class constructs it: bind to __init__ when defined
        if "__init__" in info.classes[name]:
            return f"{info.name}:{name}.__init__"
        return None

    def resolve_class(self, module: str, name: str) -> Optional[str]:
        """Resolve ``module:name`` to a project class ``module:Cls``."""
        found = self._definition(module, name)
        if found is None or found[1] not in found[0].classes:
            return None
        return f"{found[0].name}:{found[1]}"

    def resolve_worker_ref(self, reference: str) -> Optional[str]:
        """Resolve a ``module:function`` worker string to a graph qualname."""
        module, _, function_name = reference.partition(":")
        if f"{module}:{function_name}" in self.functions:
            return f"{module}:{function_name}"
        return self.resolve_object(module, function_name)


# ---------------------------------------------------------------------------
# project discovery
# ---------------------------------------------------------------------------
def module_name_for(root: Path, relpath: str) -> str:
    """Dotted module path of *relpath* under *root*.

    The root directory's own name joins the path only when the root is
    itself a package (has ``__init__.py``): scanning ``src/repro`` yields
    ``repro.exec.workers``, while scanning ``src`` (or a loose fixture
    directory) yields the same name from the path parts alone — so
    ``"module:function"`` worker references resolve either way.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    package = root.name if root.is_dir() \
        and (root / "__init__.py").exists() else None
    if package:
        parts = [package] + parts
    return ".".join(parts) if parts else (package or relpath)


def _collect_imports(info: ModuleInfo, known_modules: Set[str]) -> None:
    """Fill the alias tables (flow-insensitive: function-local imports count)."""
    package_parts = info.name.split(".")
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.import_modules[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    info.import_modules.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # relative import: resolve against this module's package
                base = package_parts[:-node.level] if node.level <= len(package_parts) else []
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if not module:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if f"{module}.{alias.name}" in known_modules:
                    info.import_modules[local] = f"{module}.{alias.name}"
                else:
                    info.import_objects[local] = (module, alias.name)


def _collect_definitions(graph: CallGraph, info: ModuleInfo) -> None:
    module_body = info.tree.body if isinstance(info.tree, ast.Module) else []
    for node in module_body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _add_function(graph, info, node, cls=None)
        elif isinstance(node, ast.ClassDef):
            methods: Set[str] = set()
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.add(child.name)
                    _add_function(graph, info, child, cls=node.name)
            info.classes[node.name] = methods
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    info.global_names.add(target.id)
    # the import-time pseudo-function
    pseudo = FunctionNode(
        qualname=f"{info.name}:{MODULE_FUNCTION}", module=info.name,
        relpath=info.relpath, name=MODULE_FUNCTION, lineno=1, node=info.tree)
    graph.functions[pseudo.qualname] = pseudo


def _add_function(graph: CallGraph, info: ModuleInfo,
                  node: ast.AST, cls: Optional[str]) -> None:
    local_qual = f"{cls}.{node.name}" if cls else node.name
    qualname = f"{info.name}:{local_qual}"
    if qualname in graph.functions:
        # a redefinition (``@x.setter``): the earlier body stays with <module>
        info.function_nodes.discard(id(graph.functions[qualname].node))
    info.function_nodes.add(id(node))
    info.functions[local_qual] = local_qual
    if cls is None:
        info.functions[node.name] = node.name
    graph.functions[qualname] = FunctionNode(
        qualname=qualname, module=info.name, relpath=info.relpath,
        name=node.name, lineno=node.lineno,
        is_async=isinstance(node, ast.AsyncFunctionDef), cls=cls, node=node)
    if cls is not None:
        graph.methods_by_name.setdefault(node.name, []).append(qualname)


# ---------------------------------------------------------------------------
# call linking
# ---------------------------------------------------------------------------
def walk_owned(info: ModuleInfo, owner: FunctionNode) -> Iterator[ast.AST]:
    """Walk the nodes *owned* by a function (or module pseudo-function).

    For a module, stop at the defs registered as functions of their own
    (those nodes belong to the defs themselves); any other def — under a
    module-level ``if``/``try``, a method of a nested class, a shadowed
    redefinition — stays with the module.  For a function, descend
    everywhere: nested defs and lambdas run at the enclosing function's
    behest.  Every node of a module is owned by exactly one function.
    """
    if owner.name == MODULE_FUNCTION:
        stack = list(ast.iter_child_nodes(owner.node))
        while stack:
            node = stack.pop()
            if id(node) in info.function_nodes:
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))
    else:
        nodes = ast.walk(owner.node)
        next(nodes)
        yield from nodes


def _function_ref_target(graph: CallGraph, info: ModuleInfo,
                         owner: FunctionNode, node: ast.AST) -> Optional[str]:
    """Resolve a *function reference* expression (not a call) to a qualname."""
    if isinstance(node, ast.Name):
        return _resolve_name_call(graph, info, node.id)
    if isinstance(node, ast.Attribute):
        dotted = astutil.dotted_name(node)
        if dotted and owner.cls is not None:
            head, _, attr = dotted.partition(".")
            if head in ("self", "cls") and attr and "." not in attr:
                if attr in info.classes.get(owner.cls, ()):
                    return f"{info.name}:{owner.cls}.{attr}"
        if dotted:
            return _resolve_dotted_call(graph, info, dotted)
    return None


def _resolve_name_call(graph: CallGraph, info: ModuleInfo,
                       name: str) -> Optional[str]:
    if name in info.functions and "." not in info.functions[name]:
        return f"{info.name}:{name}"
    if name in info.classes:
        return graph.resolve_object(info.name, name)
    if name in info.import_objects:
        module, object_name = info.import_objects[name]
        return graph.resolve_object(module, object_name)
    return None


def _resolve_dotted_call(graph: CallGraph, info: ModuleInfo,
                         dotted: str) -> Optional[str]:
    """Resolve ``alias.attr[.attr]`` through the module alias tables."""
    head, _, rest = dotted.partition(".")
    if not rest:
        return _resolve_name_call(graph, info, head)
    if head in info.import_modules:
        full = info.import_modules[head] + "." + rest
    elif head in info.classes:
        # ClassName.method(...) within the defining module
        attr = rest.split(".")[0]
        if attr in info.classes[head]:
            return f"{info.name}:{head}.{attr}"
        return None
    else:
        return None
    # longest known-module prefix wins; the remainder is the object path
    parts = full.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:cut])
        if module in graph.modules:
            remainder = parts[cut:]
            if len(remainder) == 1:
                return graph.resolve_object(module, remainder[0])
            if len(remainder) == 2:
                target = f"{module}:{remainder[0]}.{remainder[1]}"
                return target if target in graph.functions else None
            return None
    return None


def _unique_method_target(graph: CallGraph, method: str) -> Optional[str]:
    if method in COMMON_METHOD_NAMES or method.startswith("__"):
        return None
    candidates = graph.methods_by_name.get(method, ())
    if len(candidates) == 1:
        return candidates[0]
    return None


# ---------------------------------------------------------------------------
# receiver typing
# ---------------------------------------------------------------------------
def _class_of(graph: CallGraph, info: ModuleInfo,
              expr: ast.AST) -> Optional[str]:
    """The project class (``module:Cls``) an annotation or callee names."""
    if isinstance(expr, ast.Subscript) \
            and astutil.dotted_name(expr.value) in ("Optional", "typing.Optional"):
        return _class_of(graph, info, expr.slice)
    dotted = astutil.dotted_name(expr)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if not rest:
        return graph.resolve_class(info.name, head)
    if head not in info.import_modules:
        return None
    module, _, name = f"{info.import_modules[head]}.{rest}".rpartition(".")
    return graph.resolve_class(module, name)


def _constructed_class(graph: CallGraph, info: ModuleInfo,
                       value: ast.AST) -> Optional[str]:
    """The class ``Cls(...)`` or ``x or Cls(...)`` constructs, if any."""
    if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
        value = value.values[-1]
    if isinstance(value, ast.Call):
        return _class_of(graph, info, value.func)
    return None


def _store_key(node: ast.AST, attributes: bool) -> Optional[str]:
    """``self.x`` (*attributes*) or ``x`` if *node* stores to one, else None."""
    if not isinstance(getattr(node, "ctx", None), ast.Store):
        return None
    if attributes:
        is_self = isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) and node.value.id == "self"
        return astutil.dotted_name(node) if is_self else None
    return node.id if isinstance(node, ast.Name) else None


def _store_types(graph: CallGraph, info: ModuleInfo, nodes: List[ast.AST],
                 attributes: bool,
                 types: Dict[str, Optional[str]]) -> Dict[str, str]:
    """Receivers whose every store (``= None`` aside) builds one class.

    *types* holds the bindings known beforehand (annotated parameters).
    """
    assigned = {id(node.targets[0]): node.value for node in nodes
                if isinstance(node, ast.Assign) and len(node.targets) == 1}
    for node in nodes:
        key = _store_key(node, attributes)
        value = assigned.get(id(node))
        if key is None or (isinstance(value, ast.Constant)
                           and value.value is None):
            continue
        cls = _constructed_class(graph, info, value)
        types[key] = cls if types.get(key, cls) == cls else None
    return {key: cls for key, cls in types.items() if cls is not None}


def _collect_attribute_types(graph: CallGraph, info: ModuleInfo) -> None:
    module_body = info.tree.body if isinstance(info.tree, ast.Module) else []
    for node in module_body:
        if isinstance(node, ast.ClassDef):
            info.attr_types[node.name] = _store_types(
                graph, info, list(ast.walk(node)), True, {})


def _receiver_types(graph: CallGraph, info: ModuleInfo, owner: FunctionNode,
                    nodes: List[ast.AST]) -> Dict[str, str]:
    """Typed receivers in *owner*: its class's ``self.x`` and its locals."""
    params: Dict[str, Optional[str]] = {}
    if isinstance(owner.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = owner.node.args
        for arg in arguments.posonlyargs + arguments.args + arguments.kwonlyargs:
            if arg.annotation is not None:
                params[arg.arg] = _class_of(graph, info, arg.annotation)
    return {**info.attr_types.get(owner.cls, {}),
            **_store_types(graph, info, nodes, False, params)}


# ---------------------------------------------------------------------------
# call linking
# ---------------------------------------------------------------------------
def _link_function(graph: CallGraph, info: ModuleInfo,
                   owner: FunctionNode) -> None:
    nodes = list(walk_owned(info, owner))
    receiver_types = _receiver_types(graph, info, owner, nodes)
    for node in nodes:
        if isinstance(node, ast.Call):
            _link_call(graph, info, owner, node, receiver_types)


def _link_call(graph: CallGraph, info: ModuleInfo, owner: FunctionNode,
               call: ast.Call, receiver_types: Dict[str, str]) -> None:
    func = call.func
    target: Optional[str] = None

    if isinstance(func, ast.Name):
        target = _resolve_name_call(graph, info, func.id)
    elif isinstance(func, ast.Attribute):
        dotted = astutil.dotted_name(func)
        head = dotted.split(".")[0] if dotted is not None else None
        if head in ("self", "cls") and owner.cls is not None \
                and dotted.count(".") == 1 \
                and func.attr in info.classes.get(owner.cls, ()):
            target = f"{info.name}:{owner.cls}.{func.attr}"
        elif head is not None and head not in ("self", "cls"):
            target = _resolve_dotted_call(graph, info, dotted)
        if target is None and head not in info.import_modules \
                and head not in info.classes:
            # unknown receiver: a typed one, else dynamic dispatch
            cls = receiver_types.get(astutil.dotted_name(func.value) or "")
            module, _, name = (cls or "").partition(":")
            if cls and func.attr in graph.modules[module].classes[name]:
                target = f"{cls}.{func.attr}"
            else:
                target = _unique_method_target(graph, func.attr)

    if target is not None:
        owner.calls.append(CallSite(target=target, lineno=call.lineno,
                                    col=call.col_offset))

    _detect_roots(graph, info, owner, call)


#: (callable-name, argument-index) pairs whose argument is run on another
#: thread or the event loop: Thread(target=...), pool.submit(f, ...),
#: loop.run_in_executor(pool, f, ...), asyncio.start_server(cb, ...)
_THREAD_DISPATCHERS = {
    "submit": 0,
    "run_in_executor": 1,
    "start_server": 0,
}


def _detect_roots(graph: CallGraph, info: ModuleInfo, owner: FunctionNode,
                  call: ast.Call) -> None:
    name = astutil.call_name(call)
    candidates: List[ast.AST] = []
    if name == "Thread":
        for keyword in call.keywords:
            if keyword.arg == "target":
                candidates.append(keyword.value)
    elif name in _THREAD_DISPATCHERS:
        index = _THREAD_DISPATCHERS[name]
        if len(call.args) > index:
            candidates.append(call.args[index])
    for candidate in candidates:
        target = _function_ref_target(graph, info, owner, candidate)
        if target is not None and target not in graph.thread_roots:
            graph.thread_roots.append(target)


def _detect_worker_roots(graph: CallGraph) -> None:
    references: Set[str] = set()
    for module_name in sorted(graph.modules):
        for node in ast.walk(graph.modules[module_name].tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and WORKER_REF_RE.match(node.value):
                references.add(node.value)
    for reference in sorted(references):
        target = graph.resolve_worker_ref(reference)
        if target is not None and target not in graph.worker_roots:
            graph.worker_roots.append(target)
            # fabric workers also run on serve's answer threads, each of
            # which runs a serial run_tasks in this process
            if target not in graph.thread_roots:
                graph.thread_roots.append(target)


# ---------------------------------------------------------------------------
# the entry point
# ---------------------------------------------------------------------------
def build_call_graph(root: Path,
                     single_relpath: Optional[str] = None) -> CallGraph:
    """Parse and link every python file under *root* into a :class:`CallGraph`.

    *single_relpath* overrides the scope path when *root* is one file (the
    fixture tests analyze a lone file under a synthetic relpath).
    """
    root = Path(root)
    graph = CallGraph()
    parsed: List[ModuleInfo] = []
    for path, relpath in iter_tree(root):
        if single_relpath is not None:
            relpath = single_relpath
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
        except SyntaxError:
            continue  # analyze_file reports the parse error separately
        info = ModuleInfo(name=module_name_for(root, relpath)
                          if root.is_dir() else path.stem,
                          relpath=relpath, path=path, tree=tree)
        graph.modules[info.name] = info
        parsed.append(info)

    known_modules = set(graph.modules)
    for info in parsed:
        _collect_imports(info, known_modules)
        _collect_definitions(graph, info)
    for info in parsed:
        _collect_attribute_types(graph, info)
    for info in parsed:
        for local_qual in sorted(set(info.functions.values())):
            owner = graph.functions.get(f"{info.name}:{local_qual}")
            if owner is not None and not owner.calls:
                _link_function(graph, info, owner)
        _link_function(graph, info,
                       graph.functions[f"{info.name}:{MODULE_FUNCTION}"])
    _detect_worker_roots(graph)
    graph.thread_roots.sort()
    graph.worker_roots.sort()
    return graph


def project_root_for(path: Path, relpath: str) -> Tuple[Path, Optional[str]]:
    """Derive the project root from a file and its scope path.

    When the file's real path ends with its scope path the project is the
    tree above it (``.../src/repro`` for ``exec/workers.py``); otherwise the
    file stands alone (fixtures analyzed under synthetic scope paths) and
    the scope path is carried through for rule matching.
    """
    path = Path(path).resolve()
    posix = path.as_posix()
    if posix.endswith("/" + relpath):
        return Path(posix[:-(len(relpath) + 1)]), None
    return path, relpath
