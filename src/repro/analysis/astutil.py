"""Small AST helpers shared by the rule modules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set


def call_name(node: ast.Call) -> Optional[str]:
    """The bare name a call resolves through (``f`` for ``a.b.f(...)``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an attribute chain like ``time.time`` (None if not a chain)."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def from_imports(tree: ast.AST, module: str) -> Set[str]:
    """Local names bound by ``from <module> import ...`` statements."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def subscript_key(node: ast.Subscript) -> Optional[str]:
    """The constant string key of ``x["key"]`` (None otherwise)."""
    sl = node.slice
    if isinstance(sl, getattr(ast, "Index", ())):  # pragma: no cover - py<3.9
        sl = sl.value
    if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
        return sl.value
    return None


def assigned_names(tree: ast.AST) -> Set[str]:
    """Every name the module binds anywhere (assignment, def, import, ...).

    This is deliberately flow-insensitive: a name bound anywhere in the
    program counts as defined everywhere, which keeps the undefined-name
    check free of use-before-def false positives at the cost of missing
    ordering bugs (the sandbox catches those dynamically).
    """
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            bound.update(node.names)
    return bound


def loaded_names(tree: ast.AST) -> Dict[str, ast.Name]:
    """First ``Load``-context occurrence of each name in the module."""
    loads: Dict[str, ast.Name] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.setdefault(node.id, node)
    return loads
