"""Core machinery of the invariant checker: rules, findings, suppressions.

The checker is deliberately boring infrastructure: a registry of
:class:`Rule` objects, a per-file driver that parses once and hands the same
:class:`FileContext` to every applicable rule, and a tree driver that walks a
package in sorted order (the checker must itself be deterministic).  The
interesting logic lives in the rule modules
(:mod:`repro.analysis.determinism`, :mod:`repro.analysis.obs_inertness`,
:mod:`repro.analysis.templates`) and in the effect engine
(:mod:`repro.analysis.effects`), whose per-function seeds the effect
contracts and most determinism rules report.  A rule's check receives one
file but may consult that engine's cached whole-project analysis.

Suppressions use an explicit, greppable marker::

    recorded_at = time.time()  # repro: allow[det-wallclock]

A marker on the finding line or on the line directly above it silences that
rule for that line only — there is no file-level or block-level escape
hatch, so every accepted violation stays visible at its site.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.utils.validation import ValidationError

#: finding severities, in increasing order of gravity
SEVERITY_WARNING = "warning"
SEVERITY_ERROR = "error"
SEVERITIES = (SEVERITY_WARNING, SEVERITY_ERROR)

#: suppression marker: ``# repro: allow[rule-id]`` or ``allow[a, b]``
_ALLOW_PATTERN = re.compile(r"#\s*repro:\s*allow\[([a-z0-9_,\s\-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    suggestion: Optional[str] = None

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suggestion:
            payload["suggestion"] = self.suggestion
        return payload


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file.

    ``relpath`` is the scope path — the file's posix path relative to the
    scanned package root (e.g. ``exec/cache.py``) — which rule scopes match
    against.  ``display_path`` is what findings print.
    """

    path: Path
    relpath: str
    display_path: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    def finding(self, rule: "Rule", node: Optional[ast.AST], message: str,
                suggestion: Optional[str] = None, line: Optional[int] = None,
                col: Optional[int] = None) -> Finding:
        """Build a finding anchored at *node* (or an explicit line/col)."""
        return Finding(
            rule_id=rule.id,
            severity=rule.severity,
            path=self.display_path,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0),
            message=message,
            suggestion=suggestion or rule.suggestion,
        )


@dataclass(frozen=True)
class Rule:
    """One registered invariant check."""

    id: str
    severity: str
    description: str
    check: Callable[["Rule", FileContext], Iterable[Finding]]
    scope: Optional[Tuple[str, ...]] = None
    suggestion: Optional[str] = None

    def applies(self, relpath: str) -> bool:
        if self.scope is None:
            return True
        return any(relpath == prefix or relpath.startswith(prefix)
                   for prefix in self.scope)


_REGISTRY: Dict[str, Rule] = {}


def rule(rule_id: str, *, severity: str, description: str,
         scope: Optional[Sequence[str]] = None,
         suggestion: Optional[str] = None) -> Callable:
    """Decorator registering a check function as a :class:`Rule`.

    The decorated function receives ``(rule, context)`` and yields
    :class:`Finding` objects; suppression filtering happens in the driver.
    """
    if severity not in SEVERITIES:
        raise ValueError(f"unknown severity {severity!r}")

    def decorator(fn: Callable[[Rule, FileContext], Iterable[Finding]]) -> Callable:
        if rule_id in _REGISTRY:
            raise ValueError(f"rule {rule_id!r} registered twice")
        _REGISTRY[rule_id] = Rule(
            id=rule_id, severity=severity, description=description,
            check=fn, scope=tuple(scope) if scope is not None else None,
            suggestion=suggestion)
        return fn
    return decorator


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id (stable report order)."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def get_rules(rule_ids: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve a rule-id selection, or all rules when *rule_ids* is None."""
    if rule_ids is None:
        return all_rules()
    selected = []
    for rule_id in rule_ids:
        if rule_id not in _REGISTRY:
            known = ", ".join(sorted(_REGISTRY))
            raise ValidationError(f"unknown rule {rule_id!r} (known rules: {known})")
        selected.append(_REGISTRY[rule_id])
    return sorted(selected, key=lambda r: r.id)


# ---------------------------------------------------------------------------
# suppression handling
# ---------------------------------------------------------------------------
def suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids allowed on that line."""
    allowed: Dict[int, Set[str]] = {}
    for index, text in enumerate(lines, start=1):
        match = _ALLOW_PATTERN.search(text)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            allowed[index] = ids
    return allowed


def _is_suppressed(finding: Finding, allowed: Dict[int, Set[str]]) -> bool:
    for line in (finding.line, finding.line - 1):
        ids = allowed.get(line)
        if ids and finding.rule_id in ids:
            return True
    return False


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------
def load_context(path: Path, relpath: Optional[str] = None) -> FileContext:
    """Parse *path* into a :class:`FileContext` (raises on syntax errors)."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    try:
        display = str(path.relative_to(Path.cwd()))
    except ValueError:
        display = str(path)
    return FileContext(
        path=path,
        relpath=relpath if relpath is not None else path.name,
        display_path=display,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def analyze_file(path: Path, rules: Optional[Sequence[Rule]] = None,
                 relpath: Optional[str] = None) -> List[Finding]:
    """Run every applicable rule over one file, honouring suppressions."""
    active = list(rules) if rules is not None else all_rules()
    try:
        context = load_context(path, relpath=relpath)
    except SyntaxError as error:
        return [Finding(
            rule_id="parse-error", severity=SEVERITY_ERROR, path=str(path),
            line=error.lineno or 1, col=error.offset or 0,
            message=f"file does not parse: {error.msg}")]
    allowed = suppressions(context.lines)
    findings: List[Finding] = []
    for active_rule in active:
        if not active_rule.applies(context.relpath):
            continue
        for finding in active_rule.check(active_rule, context):
            if not _is_suppressed(finding, allowed):
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def iter_tree(root: Path) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, relpath)`` for every python file under *root*, sorted."""
    root = Path(root)
    if root.is_file():
        yield root, root.name
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path, path.relative_to(root).as_posix()


def analyze_tree(root: Path, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run the checker over a whole package tree."""
    findings: List[Finding] = []
    for path, relpath in iter_tree(root):
        findings.extend(analyze_file(path, rules=rules, relpath=relpath))
    return sorted(findings, key=Finding.sort_key)


def has_errors(findings: Iterable[Finding]) -> bool:
    return any(f.severity == SEVERITY_ERROR for f in findings)
