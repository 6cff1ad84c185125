"""Tests for repro.analysis: the invariant-aware static checker."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    all_rules,
    analyze_file,
    get_rules,
    has_errors,
    render_human,
    render_json,
)
from repro.analysis.effects import clear_effect_cache
from repro.analysis.framework import suppressions
from repro.analysis.templates import clear_template_cache
from repro.utils.validation import ValidationError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
PACKAGE_ROOT = Path(repro.__file__).parent

#: relpath each rule's fixtures are analyzed under, chosen to land inside
#: the rule's scope (None -> default, any path matches)
FIXTURE_RELPATH = {
    "det-unsorted-listing": "exec/{name}",
    "det-set-iteration": "exec/{name}",
    "det-wallclock": "exec/{name}",
    "det-unseeded-random": "exec/{name}",
    "det-object-identity": "exec/{name}",
    "det-env-read": "exec/{name}",
    "det-json-sort-keys": "exec/{name}",
    "obs-layering": "obs/{name}",
    "effect-obs-write": "obs/{name}",
    "effect-async-blocking": "serve/{name}",
}


def fixture_pair(rule_id):
    stem = rule_id.replace("-", "_")
    return FIXTURES / f"{stem}_bad.py", FIXTURES / f"{stem}_good.py"


def relpath_for(rule_id, path):
    template = FIXTURE_RELPATH.get(rule_id, "{name}")
    return template.format(name=path.name)


def run_rule(rule_id, path):
    clear_template_cache()
    clear_effect_cache()
    rules = get_rules([rule_id])
    return analyze_file(path, rules=rules,
                        relpath=relpath_for(rule_id, path))


class TestFixtureCorpus:
    """The meta-test: every rule fires on its bad fixture, never on its good one."""

    @pytest.mark.parametrize("rule_id", [rule.id for rule in all_rules()])
    def test_rule_fires_on_bad_fixture(self, rule_id):
        bad, _ = fixture_pair(rule_id)
        assert bad.exists(), f"missing bad fixture for {rule_id}"
        findings = run_rule(rule_id, bad)
        assert findings, f"rule {rule_id} produced no findings on {bad.name}"
        assert all(f.rule_id == rule_id for f in findings)

    @pytest.mark.parametrize("rule_id", [rule.id for rule in all_rules()])
    def test_rule_quiet_on_good_fixture(self, rule_id):
        _, good = fixture_pair(rule_id)
        assert good.exists(), f"missing good fixture for {rule_id}"
        findings = run_rule(rule_id, good)
        assert findings == [], (
            f"rule {rule_id} false-positived on {good.name}: {findings}")

    def test_every_rule_has_a_fixture_pair(self):
        for rule in all_rules():
            bad, good = fixture_pair(rule.id)
            assert bad.exists() and good.exists()

    def test_live_tree_is_clean(self, live_tree_findings):
        findings = live_tree_findings
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule_id}: {f.message}" for f in findings)


#: every det-* finding on each bad fixture, as (rule, line, col): the
#: findings of the flat per-file walkers these rules replaced
PINNED_DET_FINDINGS = {
    "det_env_read_bad.py": [
        ("det-env-read", 7, 11), ("det-env-read", 8, 16)],
    "det_json_sort_keys_bad.py": [("det-json-sort-keys", 8, 11)],
    "det_object_identity_bad.py": [
        ("det-object-identity", 5, 24), ("det-object-identity", 5, 44)],
    "det_set_iteration_bad.py": [
        ("det-set-iteration", 5, 27), ("det-set-iteration", 10, 16)],
    "det_unseeded_random_bad.py": [("det-unseeded-random", 7, 11)],
    "det_unsorted_listing_bad.py": [
        ("det-unsorted-listing", 8, 29), ("det-unsorted-listing", 12, 16)],
    "det_wallclock_bad.py": [
        ("det-wallclock", 8, 44), ("det-wallclock", 9, 19)],
}


def det_findings(path, relpath):
    clear_effect_cache()
    rules = [rule for rule in all_rules() if rule.id.startswith("det-")]
    findings = analyze_file(path, rules=rules, relpath=relpath)
    return sorted((f.rule_id, f.line, f.col) for f in findings)


class TestDeterminismFindings:
    @pytest.mark.parametrize("name", sorted(PINNED_DET_FINDINGS))
    def test_bad_fixture_findings_are_pinned(self, name):
        assert det_findings(FIXTURES / name, f"exec/{name}") \
            == PINNED_DET_FINDINGS[name]

    def test_import_alias_spellings_are_caught(self, tmp_path):
        path = tmp_path / "worker.py"
        path.write_text(
            "import time as t\n"
            "import random as rnd\n"
            "from os import environ\n"
            "\n"
            "def run(x):\n"
            "    stamp = t.time()\n"
            "    pick = rnd.choice(x)\n"
            "    mode = environ.get('X')\n"
            "    return stamp, pick, mode\n")
        assert [(rule, line) for rule, line, _ in
                det_findings(path, "exec/worker.py")] == [
            ("det-env-read", 8), ("det-unseeded-random", 7),
            ("det-wallclock", 6)]

    def test_defs_outside_the_call_graph_are_scanned(self, tmp_path):
        # a def under a module-level if, and a property getter shadowed by
        # its setter, are not functions of their own in the call graph
        path = tmp_path / "worker.py"
        path.write_text(
            "import sys, time\n"
            "if sys.platform:\n"
            "    def stamp():\n"
            "        return time.time()\n"
            "class Clock:\n"
            "    @property\n"
            "    def now(self):\n"
            "        return time.time()\n"
            "    @now.setter\n"
            "    def now(self, value):\n"
            "        self.value = value\n")
        assert det_findings(path, "exec/worker.py") == [
            ("det-wallclock", 4, 15), ("det-wallclock", 8, 15)]


class TestFramework:
    def test_rule_registry_is_sorted_and_nonempty(self):
        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert len(ids) >= 12

    def test_severities_cover_both_levels(self):
        severities = {rule.severity for rule in all_rules()}
        assert severities == {SEVERITY_ERROR, SEVERITY_WARNING}

    def test_get_rules_rejects_unknown_id(self):
        with pytest.raises(ValidationError, match="unknown rule"):
            get_rules(["no-such-rule"])

    def test_suppression_marker_parsing(self):
        lines = [
            "x = 1",
            "y = time.time()  # repro: allow[det-wallclock]",
            "# repro: allow[det-wallclock, det-env-read]",
            "z = os.environ",
        ]
        allowed = suppressions(lines)
        assert allowed[2] == {"det-wallclock"}
        assert allowed[3] == {"det-wallclock", "det-env-read"}
        assert 1 not in allowed

    def test_suppression_silences_finding(self, tmp_path):
        source = (
            "import time\n"
            "def run(payload):\n"
            "    return time.time()  # repro: allow[det-wallclock]\n"
        )
        path = tmp_path / "worker.py"
        path.write_text(source)
        findings = analyze_file(path, rules=get_rules(["det-wallclock"]),
                                relpath="exec/worker.py")
        assert findings == []

    def test_unsuppressed_finding_survives(self, tmp_path):
        path = tmp_path / "worker.py"
        path.write_text("import time\n\ndef run(p):\n    return time.time()\n")
        findings = analyze_file(path, rules=get_rules(["det-wallclock"]),
                                relpath="exec/worker.py")
        assert len(findings) == 1
        assert findings[0].line == 4
        assert findings[0].severity == SEVERITY_ERROR

    def test_scope_excludes_out_of_scope_files(self, tmp_path):
        path = tmp_path / "cli_helper.py"
        path.write_text("import time\nNOW = time.time()\n")
        findings = analyze_file(path, rules=get_rules(["det-wallclock"]),
                                relpath="cli/helper.py")
        assert findings == []

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = analyze_file(path, relpath="exec/broken.py")
        assert len(findings) == 1
        assert findings[0].rule_id == "parse-error"
        assert findings[0].severity == SEVERITY_ERROR


class TestReporters:
    def _findings(self):
        bad, _ = fixture_pair("det-wallclock")
        return run_rule("det-wallclock", bad)

    def test_human_report_lists_location_and_rule(self):
        findings = self._findings()
        text = render_human(findings, get_rules(["det-wallclock"]))
        assert "det_wallclock_bad.py" in text
        assert "[error] det-wallclock" in text
        assert "error(s)" in text

    def test_human_report_fix_suggestions(self):
        findings = self._findings()
        text = render_human(findings, get_rules(["det-wallclock"]),
                            show_suggestions=True)
        assert "fix:" in text
        assert "pure functions of their payload" in text

    def test_json_report_schema(self):
        findings = self._findings()
        document = json.loads(render_json(findings, all_rules()))
        assert document["summary"]["errors"] == len(findings)
        assert document["summary"]["total"] == len(findings)
        entry = document["findings"][0]
        assert {"rule", "severity", "path", "line", "col",
                "message", "suggestion"} >= set(entry)
        assert entry["rule"] == "det-wallclock"
        assert len(document["rules"]) == len(all_rules())

    def test_has_errors_distinguishes_warnings(self):
        bad, _ = fixture_pair("det-env-read")
        warnings_only = run_rule("det-env-read", bad)
        assert warnings_only
        assert not has_errors(warnings_only)
        assert has_errors(self._findings())

    def test_clean_report_says_clean(self):
        text = render_human([], all_rules())
        assert "clean" in text


class TestTemplateValidation:
    """Every checked-in emitter template passes static validation."""

    @pytest.mark.parametrize("emitter", ["networkx_emitter", "frames_emitter",
                                         "sql_emitter"])
    def test_emitter_templates_render_and_pass(self, emitter):
        from repro.analysis.framework import load_context
        from repro.analysis.templates import load_template_module

        clear_template_cache()
        ctx = load_context(PACKAGE_ROOT / "synthesis" / f"{emitter}.py")
        module = load_template_module(ctx)
        assert module.errors == []
        assert len(module.rendered) >= 15
        template_rules = get_rules(["template-policy", "template-sql",
                                    "template-undefined-name"])
        findings = analyze_file(PACKAGE_ROOT / "synthesis" / f"{emitter}.py",
                                rules=template_rules,
                                relpath=f"synthesis/{emitter}.py")
        assert findings == []

    def test_template_counts_cover_both_kinds(self):
        from repro.analysis.framework import load_context
        from repro.analysis.templates import load_template_module

        clear_template_cache()
        ctx = load_context(PACKAGE_ROOT / "synthesis" / "networkx_emitter.py")
        module = load_template_module(ctx)
        kinds = {t.kind for t in module.rendered}
        assert kinds == {"static", "temporal"}

    def test_temporal_namespace_derived_from_synthesis(self):
        from repro.analysis.templates import _temporal_namespace_names

        assert _temporal_namespace_names() == {"snapshots", "deltas"}


class TestAnalyzeCli:
    def test_analyze_clean_tree_exits_zero(self, capsys, live_effect_cache):
        from repro.cli.main import main

        clear_template_cache()
        assert main(["analyze", str(PACKAGE_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_json_output(self, capsys, live_effect_cache):
        from repro.cli.main import main

        clear_template_cache()
        assert main(["analyze", "--format", "json", str(PACKAGE_ROOT)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 0

    def test_analyze_bad_file_exits_nonzero(self, capsys, tmp_path):
        from repro.cli.main import main

        bad, _ = fixture_pair("template-policy")
        clear_template_cache()
        assert main(["analyze", "--rules", "template-policy", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "template-policy" in out

    def test_analyze_rules_filter_and_list(self, capsys):
        from repro.cli.main import main

        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_analyze_unknown_rule_fails(self, capsys):
        from repro.cli.main import main

        assert main(["analyze", "--rules", "bogus"]) == 1
        assert "unknown rule" in capsys.readouterr().err


class TestFixedFindings:
    """Regression tests for the true positives the checker surfaced."""

    def test_benchmark_log_save_is_canonical(self, tmp_path):
        # det-json-sort-keys: benchmark/logger.py save() now sorts keys
        from repro.benchmark.evaluator import EvaluationRecord
        from repro.benchmark.logger import ResultsLogger

        results = ResultsLogger()
        results.log(EvaluationRecord(
            query_id="q1", model="gpt-4", backend="networkx",
            complexity="easy", passed=True))
        path = results.save(tmp_path / "log.json")
        keys = list(json.loads(path.read_text())[0])
        assert keys == sorted(keys)

    def test_answer_directly_is_canonical_json(self):
        # det-json-sort-keys: synthesis/engine.py answer_directly now sorts keys
        from repro.synthesis.engine import CodeSynthesisEngine
        from repro.traffic import TrafficAnalysisApplication

        app = TrafficAnalysisApplication()
        answer = CodeSynthesisEngine().answer_directly(
            "How many nodes are in the communication graph?", app.graph)
        payload = json.loads(answer)
        assert list(payload) == sorted(payload)
