"""Invariant-aware static analysis (``repro analyze``).

The repo's three load-bearing contracts — serial-vs-``--jobs N``
byte-identity, obs-layer inertness over digests and cache keys, and
sandbox-policy safety of generated code — are enforced dynamically by
tests.  This package proves them at lint time instead: an AST-based rule
registry with per-rule severity, ``# repro: allow[rule-id]`` suppressions,
and four rule families (determinism, obs-inertness, template safety, and
the interprocedural effect contracts built on a project-wide call graph —
``repro analyze --effects``).  One engine scans for intrinsic patterns: the
effect engine's per-function seeds feed both the effect contracts and the
per-file determinism rules.  See DESIGN.md §4.8 and §4.10.
"""

from repro.analysis.framework import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
    all_rules,
    analyze_file,
    analyze_tree,
    get_rules,
    has_errors,
    load_context,
)
from repro.analysis.reporters import render_human, render_json, summarize
from repro.analysis.effects import (
    clear_effect_cache,
    effect_rule_ids,
    project_for_root,
    render_explain,
)
from repro.analysis.baseline import (
    baseline_entries,
    compare_baseline,
    load_baseline,
    write_baseline,
)

# importing the rule modules registers their rules (effects, imported
# above, registers the effect contracts; determinism registers the det-*
# rules, which read the effect engine's seeds)
from repro.analysis import determinism as _determinism  # noqa: F401
from repro.analysis import obs_inertness as _obs_inertness  # noqa: F401
from repro.analysis import templates as _templates  # noqa: F401

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_file",
    "analyze_tree",
    "get_rules",
    "has_errors",
    "load_context",
    "render_human",
    "render_json",
    "summarize",
    "clear_effect_cache",
    "effect_rule_ids",
    "project_for_root",
    "render_explain",
    "baseline_entries",
    "compare_baseline",
    "load_baseline",
    "write_baseline",
]
