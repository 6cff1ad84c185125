"""Static (AST-level) safety policy for LLM-generated code."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.utils import DICT_MUTATORS
from repro.utils.validation import ValidationError


class PolicyViolation(ValidationError):
    """Raised when generated code violates the sandbox policy."""


@dataclass(frozen=True)
class PolicyFinding:
    """One policy violation, anchored to its source location.

    ``line`` is 1-based and ``col`` 0-based, matching :mod:`ast`; both the
    sandbox rejection message and ``repro analyze`` render them, so a
    violation in generated code and a violation in a checked-in template
    point at the same place.
    """

    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


#: modules that generated code is allowed to import
DEFAULT_ALLOWED_IMPORTS: FrozenSet[str] = frozenset({
    "networkx", "math", "statistics", "collections", "itertools", "functools",
    "json", "re", "ipaddress", "heapq", "operator", "random", "numpy",
})

#: call names that are never allowed, even if reachable some other way
DEFAULT_FORBIDDEN_CALLS: FrozenSet[str] = frozenset({
    "eval", "exec", "compile", "open", "input", "__import__", "globals",
    "locals", "vars", "exit", "quit", "breakpoint", "help", "memoryview",
})

#: attribute names that indicate an escape attempt
DEFAULT_FORBIDDEN_ATTRIBUTES: FrozenSet[str] = frozenset({
    "__globals__", "__builtins__", "__subclasses__", "__bases__", "__mro__",
    "__code__", "__closure__", "__getattribute__", "__reduce__", "__reduce_ex__",
    "__class__", "__dict__", "__loader__", "__spec__", "__base__",
    # a networkx view's dicts record writes through their own methods
    "__setitem__", "__delitem__", "__ior__", "__init__",
})


@dataclass(frozen=True)
class SandboxPolicy:
    """Configurable limits applied to generated code.

    Frozen, so a policy is a value: the sandbox's code cache keys compiled
    programs on the policy object itself.
    """

    allowed_imports: FrozenSet[str] = DEFAULT_ALLOWED_IMPORTS
    forbidden_calls: FrozenSet[str] = DEFAULT_FORBIDDEN_CALLS
    forbidden_attributes: FrozenSet[str] = DEFAULT_FORBIDDEN_ATTRIBUTES
    max_source_lines: int = 400
    max_seconds: float = 10.0


#: builtins whose second argument names an attribute of the first
_ATTRIBUTE_BUILTINS = frozenset({"getattr", "setattr", "hasattr"})


class PolicyVisitor(ast.NodeVisitor):
    """Collect policy violations over the whole AST (not just the first).

    Also reused by :mod:`repro.analysis` to statically vet the checked-in
    emitter templates, so violations carry structured locations
    (:class:`PolicyFinding`) rather than bare strings.
    """

    def __init__(self, policy: SandboxPolicy) -> None:
        self.policy = policy
        self.violations: List[PolicyFinding] = []

    def _record(self, node: ast.AST, message: str) -> None:
        self.violations.append(PolicyFinding(
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root not in self.policy.allowed_imports:
                self._record(node, f"import of module {alias.name!r} is not allowed")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root not in self.policy.allowed_imports:
            self._record(node, f"import from module {node.module!r} is not allowed")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node)
        if name in self.policy.forbidden_calls:
            self._record(node, f"call to {name!r} is not allowed")
        if (isinstance(node.func, ast.Name) and name in _ATTRIBUTE_BUILTINS
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)):
            # getattr(x, "name") reaches the same attribute as x.name
            self._check_attribute(node, node.args[0], node.args[1].value)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_attribute(node, node.value, node.attr)
        self.generic_visit(node)

    def _check_attribute(self, node: ast.AST, owner: ast.AST, attr: str) -> None:
        if attr in self.policy.forbidden_attributes:
            self._record(node, f"access to attribute {attr!r} is not allowed")
        elif (isinstance(owner, ast.Name) and owner.id == "dict"
              and attr in DICT_MUTATORS):
            # dict.update(d, ...) would write to d behind its own methods
            self._record(node, f"access to dict.{attr} is not allowed")

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in ("__builtins__",):
            self._record(node, "access to __builtins__ is not allowed")
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._record(node, "the 'global' statement is not allowed")


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def validate_source(source: str, policy: Optional[SandboxPolicy] = None) -> None:
    """Validate *source* against *policy*, raising :class:`PolicyViolation`.

    A :class:`SyntaxError` raised here propagates to the caller unchanged so
    the benchmark's error classifier can distinguish "syntax error" from
    "policy violation".
    """
    policy = policy or SandboxPolicy()
    lines = source.splitlines()
    if len(lines) > policy.max_source_lines:
        raise PolicyViolation(
            f"generated code has {len(lines)} lines; the policy allows "
            f"{policy.max_source_lines}")
    tree = ast.parse(source)
    visitor = PolicyVisitor(policy)
    visitor.visit(tree)
    if visitor.violations:
        raise PolicyViolation("; ".join(str(v) for v in visitor.violations))
