"""Tests for the interprocedural effect engine (callgraph/effects/baseline)."""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    analyze_file,
    baseline_entries,
    compare_baseline,
    get_rules,
    load_baseline,
    write_baseline,
)
from repro.analysis.framework import Finding
from repro.analysis import callgraph, effects
from repro.analysis.effects import clear_effect_cache
from repro.utils.validation import ValidationError

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
PACKAGE_ROOT = Path(repro.__file__).parent


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_effect_cache()
    yield
    clear_effect_cache()


def fixture_project(name):
    return effects.analyze_project(FIXTURES / name, single_relpath=name)


class TestCallGraph:
    def test_worker_roots_are_the_fabric_workers(self, live_project):
        graph = live_project.graph
        assert graph.worker_roots == [
            "repro.api:run_api_cell",
            "repro.benchmark.tasks:run_benchmark_cell",
            "repro.benchmark.tasks:run_temporal_cell",
            "repro.cost.tasks:run_scalability_point",
            "repro.cost.tasks:run_scenario_cost_point",
        ]

    def test_thread_roots_cover_executor_and_serve_paths(self, live_project):
        graph = live_project.graph
        assert "repro.exec.workers:run_chunk" in graph.thread_roots
        assert "repro.exec.workers:run_task" in graph.thread_roots
        assert "repro.serve.service:ServerThread._run" in graph.thread_roots
        assert ("repro.serve.service:ReproService._handle_connection"
                in graph.thread_roots)
        # the off-loop executor dispatch target counts as a thread entry
        assert ("repro.serve.service:ReproService._answer_documents"
                in graph.thread_roots)

    def test_direct_and_imported_calls_resolve(self, tmp_path):
        (tmp_path / "helpers.py").write_text(
            "def helper():\n    return 1\n")
        (tmp_path / "main.py").write_text(
            "from helpers import helper as h\n"
            "def caller():\n    return h()\n")
        graph = callgraph.build_call_graph(tmp_path)
        caller = graph.functions["main:caller"]
        assert [site.target for site in caller.calls] == ["helpers:helper"]

    def test_module_alias_calls_resolve(self, tmp_path):
        (tmp_path / "util.py").write_text("def f():\n    return 1\n")
        (tmp_path / "main.py").write_text(
            "import util as u\n"
            "def caller():\n    return u.f()\n")
        graph = callgraph.build_call_graph(tmp_path)
        caller = graph.functions["main:caller"]
        assert [site.target for site in caller.calls] == ["util:f"]

    def test_self_method_calls_resolve(self, tmp_path):
        (tmp_path / "svc.py").write_text(
            "class Service:\n"
            "    def outer(self):\n"
            "        return self.inner()\n"
            "    def inner(self):\n"
            "        return 1\n")
        graph = callgraph.build_call_graph(tmp_path)
        outer = graph.functions["svc:Service.outer"]
        assert [site.target for site in outer.calls] == ["svc:Service.inner"]

    def test_nested_defs_attribute_to_enclosing_function(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "def build():\n"
            "    def stamp():\n"
            "        return time.time()\n"
            "    return stamp\n")
        project = effects.analyze_project(tmp_path)
        assert effects.NONDETERMINISTIC in project.effects["mod:build"]

    def test_unresolvable_dynamic_dispatch_is_conservative(self, tmp_path):
        # two classes define the same method name: no edge may be guessed
        (tmp_path / "mod.py").write_text(
            "class A:\n"
            "    def compute_thing(self):\n        return 1\n"
            "class B:\n"
            "    def compute_thing(self):\n        return 2\n"
            "def caller(x):\n    return x.compute_thing()\n")
        graph = callgraph.build_call_graph(tmp_path)
        assert graph.functions["mod:caller"].calls == []

    def test_typed_receivers_resolve(self, tmp_path):
        # ``run`` is defined twice, so the unique-method heuristic binds
        # nothing; the receiver's class decides
        (tmp_path / "engines.py").write_text(
            "class Sandbox:\n"
            "    def run(self):\n        return 1\n"
            "class Database:\n"
            "    def run(self):\n        return 2\n")
        (tmp_path / "main.py").write_text(
            "from typing import Optional\n"
            "import engines\n"
            "from engines import Sandbox\n"
            "class Pipeline:\n"
            "    def __init__(self, sandbox=None):\n"
            "        self.sandbox = sandbox or Sandbox()\n"
            "        self.db = None\n"
            "        self.db = engines.Database()\n"
            "        self.other = Sandbox()\n"
            "        self.other = engines.Database()\n"
            "    def attr(self):\n        return self.sandbox.run()\n"
            "    def attr_after_none(self):\n        return self.db.run()\n"
            "    def attr_conflicting(self):\n"
            "        return self.other.run()\n"
            "def param(box: Optional[Sandbox] = None):\n"
            "    return box.run()\n"
            "def local(box=None):\n"
            "    box = box or engines.Database()\n"
            "    return box.run()\n"
            "def rebound(items):\n"
            "    box = Sandbox()\n"
            "    for box in items:\n"
            "        pass\n"
            "    return box.run()\n")
        graph = callgraph.build_call_graph(tmp_path)

        def targets(name):
            return [site.target for site in graph.functions[name].calls
                    if site.target.endswith(".run")]

        assert targets("main:Pipeline.attr") == ["engines:Sandbox.run"]
        assert targets("main:Pipeline.attr_after_none") \
            == ["engines:Database.run"]
        assert targets("main:Pipeline.attr_conflicting") == []
        assert targets("main:param") == ["engines:Sandbox.run"]
        assert targets("main:local") == ["engines:Database.run"]
        assert targets("main:rebound") == []

    def test_string_partition_does_not_link_to_the_rng(self, live_project):
        callers = live_project.graph.callers_of()[
            "repro.utils.rng:DeterministicRng.partition"]
        assert [caller for caller, _ in callers] \
            == ["repro.traffic.generator:generate_flow_log"] * 3

    def test_sandbox_execute_is_reached_from_the_api_worker(
            self, live_project):
        execute = "repro.sandbox.executor:ExecutionSandbox.execute"
        callers = [caller for caller, _ in
                   live_project.graph.callers_of()[execute]]
        assert "repro.core.pipeline:NetworkManagementPipeline._execute_python" \
            in callers
        assert "repro.synthesis.temporal:run_temporal_program" in callers
        # thread_chain is the shortest chain from any thread root; the api
        # worker reaches the sandbox through the temporal benchmark worker
        chain = live_project.thread_chain(execute)
        assert chain[0] in live_project.graph.thread_roots
        assert chain[-2:] == ["repro.synthesis.temporal:run_temporal_program",
                              execute]
        assert "repro.benchmark.tasks:run_temporal_cell" in chain
        api_calls = [site.target for site in live_project.graph.functions[
            "repro.api:run_api_cell"].calls]
        assert chain[0] in api_calls

    def test_worker_ref_string_detection(self):
        project = fixture_project("effect_worker_purity_bad.py")
        assert project.graph.worker_roots == [
            "effect_worker_purity_bad:run_cell"]


class TestEffectInference:
    def test_three_deep_chain_reaches_the_worker(self):
        project = fixture_project("effect_worker_purity_bad.py")
        worker = "effect_worker_purity_bad:run_cell"
        assert effects.NONDETERMINISTIC in project.effects[worker]
        chain = project.effect_chain(worker, effects.NONDETERMINISTIC)
        hops = [step[0].split(":")[1] for step in chain]
        assert hops == ["run_cell", "_evaluate", "_stamp"]
        assert "wall-clock read time.time()" in chain[-1][2]

    def test_explain_renders_the_carrying_chain(self):
        project = fixture_project("effect_worker_purity_bad.py")
        text = effects.render_explain(project, "run_cell")
        assert "nondeterministic:" in text
        for hop in ("run_cell", "_evaluate", "_stamp"):
            assert hop in text
        assert "wall-clock read time.time()" in text

    def test_explain_unknown_function(self):
        project = fixture_project("effect_worker_purity_good.py")
        assert "no function matches" in effects.render_explain(
            project, "nope:nope")

    def test_good_worker_chain_is_pure(self):
        project = fixture_project("effect_worker_purity_good.py")
        worker = "effect_worker_purity_good:run_cell"
        assert effects.NONDETERMINISTIC not in project.effects[worker]

    def test_sorted_wrapping_neutralizes_listing_anywhere_in_subtree(
            self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "def ids(directory):\n"
            "    return sorted(p.stem for p in directory.glob('*.json'))\n")
        project = effects.analyze_project(tmp_path)
        assert effects.NONDETERMINISTIC not in project.effects["mod:ids"]

    def test_run_in_executor_dispatch_creates_no_edge(self):
        project = fixture_project("effect_async_blocking_good.py")
        coroutine = "effect_async_blocking_good:handle_query"
        assert effects.BLOCKING_IO not in project.effects[coroutine]
        # ...but the dispatched callable becomes a thread root
        assert ("effect_async_blocking_good:_answer"
                in project.graph.thread_roots)

    def test_locked_write_sites_are_marked(self):
        project = fixture_project("effect_thread_shared_state_good.py")
        sites = project.mutation_sites[
            "effect_thread_shared_state_good:_publish"]
        assert [site.locked for site in sites] == [True]

    def test_unlocked_write_sites_are_marked(self):
        project = fixture_project("effect_thread_shared_state_bad.py")
        sites = project.mutation_sites[
            "effect_thread_shared_state_bad:_publish"]
        assert [site.locked for site in sites] == [False]
        chain = project.thread_chain("effect_thread_shared_state_bad:_publish")
        assert [hop.split(":")[1] for hop in chain] == [
            "_collect", "_publish"]


class TestProcessStateSeeds:
    """Changes to process-wide state seed ``global-mutation`` and are never
    excused by a lock: every thread reads that state without one."""

    @pytest.mark.parametrize("body, name", [
        ("with contextlib.redirect_stdout(buffer): pass",
         "contextlib.redirect_stdout"),
        ("with redirect_stderr(buffer): pass", "contextlib.redirect_stderr"),
        ("sys.stdout = buffer", "sys.stdout"),
        ("sys.stderr = buffer", "sys.stderr"),
        ("os.chdir('/tmp')", "os.chdir"),
        ("os.environ['MODE'] = 'fast'", "os.environ"),
        ("os.environ.update(MODE='fast')", "os.environ"),
    ])
    def test_each_form_is_an_unlocked_process_site(self, tmp_path, body, name):
        module = tmp_path / "swap.py"
        module.write_text(
            "import contextlib\nimport os\nimport sys\nimport threading\n"
            "from contextlib import redirect_stderr\n"
            "_LOCK = threading.Lock()\n"
            "def swap(buffer):\n"
            "    with _LOCK:\n"
            f"        {body}\n")
        project = effects.analyze_project(module, single_relpath="swap.py")
        (site,) = project.mutation_sites["swap:swap"]
        assert (site.name, site.kind, site.locked) == (name, "process", False)
        assert effects.GLOBAL_MUTATION in project.effects_of("swap:swap")

    def test_reading_process_state_is_not_a_change(self, tmp_path):
        module = tmp_path / "read.py"
        module.write_text("import sys\n"
                          "def write(text):\n"
                          "    sys.stdout.write(text)\n"
                          "    print(text, file=sys.stderr)\n")
        project = effects.analyze_project(module, single_relpath="read.py")
        assert "read:write" not in project.mutation_sites

    def test_stdout_swap_fixture_names_the_redirect(self):
        project = fixture_project("effect_stdout_swap_bad.py")
        sites = project.mutation_sites[
            "effect_stdout_swap_bad:ExecutionSandbox.execute"]
        assert [(site.name, site.kind) for site in sites] == [
            ("contextlib.redirect_stdout", "process")]
        assert not fixture_project("effect_stdout_swap_good.py").mutation_sites


class TestEffectRules:
    def run(self, rule_id, name, relpath=None):
        clear_effect_cache()
        return analyze_file(FIXTURES / name, rules=get_rules([rule_id]),
                            relpath=relpath or name)

    def test_finding_message_carries_the_chain(self):
        findings = self.run("effect-worker-purity",
                            "effect_worker_purity_bad.py")
        assert len(findings) == 1
        message = findings[0].message
        assert "run_cell -> _evaluate -> _stamp" in message
        assert "wall-clock read time.time()" in message

    def test_worker_env_is_warning_severity(self):
        findings = self.run("effect-worker-env", "effect_worker_env_bad.py")
        assert [f.severity for f in findings] == [SEVERITY_WARNING]

    def test_async_blocking_names_the_blocking_call(self):
        findings = self.run("effect-async-blocking",
                            "effect_async_blocking_bad.py",
                            relpath="serve/effect_async_blocking_bad.py")
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_thread_shared_state_names_root_and_global(self):
        findings = self.run("effect-thread-shared-state",
                            "effect_thread_shared_state_bad.py")
        assert len(findings) == 1
        assert "_RESULTS" in findings[0].message
        assert "_collect -> _publish" in findings[0].message

    def test_thread_reachable_stdout_swap_is_an_error(self):
        findings = self.run("effect-thread-shared-state",
                            "effect_stdout_swap_bad.py")
        assert len(findings) == 1
        assert findings[0].severity == SEVERITY_ERROR
        assert "contextlib.redirect_stdout" in findings[0].message
        assert "every thread sees" in findings[0].message
        assert self.run("effect-thread-shared-state",
                        "effect_stdout_swap_good.py") == []

    def test_process_state_change_needs_no_thread_chain(self, tmp_path):
        # the call graph leaves many method calls unresolved, so a swap is
        # flagged even where no thread entry point is found to reach it
        (tmp_path / "cli.py").write_text(
            "import os\n"
            "def enter(path):\n"
            "    os.chdir(path)\n")
        clear_effect_cache()
        findings = analyze_file(tmp_path / "cli.py",
                                rules=get_rules(["effect-thread-shared-state"]),
                                relpath="cli.py")
        assert [finding.line for finding in findings] == [3]
        assert "os.chdir" in findings[0].message
        assert "thread entry point" not in findings[0].message

    def test_obs_write_exempts_exporter_files(self):
        clear_effect_cache()
        findings = analyze_file(
            FIXTURES / "effect_obs_write_bad.py",
            rules=get_rules(["effect-obs-write"]),
            relpath="obs/export.py")
        assert findings == []

    def test_effect_finding_is_suppressible(self, tmp_path):
        (tmp_path / "worker.py").write_text(
            "import time\n"
            "W = 'worker:run'\n"
            "def run(payload):\n"
            "    # the finding anchors where the effect enters the worker\n"
            "    return _stamp(payload)  # repro: allow[effect-worker-purity]\n"
            "def _stamp(p):\n"
            "    return time.time()\n")
        clear_effect_cache()
        findings = analyze_file(tmp_path / "worker.py",
                                rules=get_rules(["effect-worker-purity"]),
                                relpath="worker.py")
        assert findings == []

    def test_effect_rule_ids_match_registry(self):
        rules = get_rules(effects.effect_rule_ids())
        assert [r.id for r in rules] == effects.effect_rule_ids()


class TestBaseline:
    def _warning(self, path="src/x.py", rule_id="det-env-read", line=1):
        return Finding(rule_id=rule_id, severity=SEVERITY_WARNING,
                       path=path, line=line, col=0, message="m")

    def _error(self):
        return Finding(rule_id="det-wallclock", severity=SEVERITY_ERROR,
                       path="src/x.py", line=9, col=0, message="m")

    def test_entries_aggregate_warnings_only(self):
        findings = [self._warning(line=1), self._warning(line=2),
                    self._error()]
        assert baseline_entries(findings) == {"det-env-read|src/x.py": 2}

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [self._warning()])
        assert load_baseline(path) == {"det-env-read|src/x.py": 1}
        payload = json.loads(path.read_text())
        assert payload["version"] == 1

    def test_new_warning_fails_the_ratchet(self):
        new, stale = compare_baseline(
            [self._warning(), self._warning(path="src/y.py")],
            {"det-env-read|src/x.py": 1})
        assert len(new) == 1 and "src/y.py" in new[0]
        assert stale == []

    def test_count_increase_fails_the_ratchet(self):
        new, stale = compare_baseline(
            [self._warning(line=1), self._warning(line=2)],
            {"det-env-read|src/x.py": 1})
        assert len(new) == 1 and "1 new det-env-read" in new[0]
        assert stale == []

    def test_stale_entry_forces_ratchet_down(self):
        new, stale = compare_baseline([], {"det-env-read|src/x.py": 1})
        assert new == []
        assert len(stale) == 1
        assert "regenerate" in stale[0]

    def test_exact_match_passes(self):
        new, stale = compare_baseline(
            [self._warning()], {"det-env-read|src/x.py": 1})
        assert (new, stale) == ([], [])

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_baseline(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ValidationError, match="entries"):
            load_baseline(bad)
        bad.write_text('{"entries": {"k": -1}}')
        with pytest.raises(ValidationError, match="positive"):
            load_baseline(bad)


class TestEffectsCli:
    def test_effects_selection_runs_clean_on_live_tree(self, capsys, live_effect_cache):
        from repro.cli.main import main

        assert main(["analyze", "--effects", str(PACKAGE_ROOT)]) == 0
        assert "clean (5 rules)" in capsys.readouterr().out

    def test_effects_conflicts_with_rules(self, capsys):
        from repro.cli.main import main

        assert main(["analyze", "--effects", "--rules", "det-wallclock"]) == 1
        assert "--effects" in capsys.readouterr().err

    def test_explain_prints_chain_for_live_worker(self, capsys, live_effect_cache):
        from repro.cli.main import main

        assert main(["analyze", "--explain",
                     "repro.benchmark.tasks:run_benchmark_cell",
                     str(PACKAGE_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "repro.benchmark.tasks:run_benchmark_cell" in out
        assert "global-mutation" in out
        assert "calls repro.exec.workers:worker_context" in out
        assert "thread-reachable via" in out

    def test_baseline_cli_round_trip(self, capsys, tmp_path, live_effect_cache):
        from repro.cli.main import main

        baseline = tmp_path / "analysis_baseline.json"
        assert main(["analyze", "--write-baseline", str(baseline),
                     str(PACKAGE_ROOT)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--baseline", str(baseline),
                     str(PACKAGE_ROOT)]) == 0
        assert "baseline: ok" in capsys.readouterr().err

    def test_baseline_cli_flags_new_warning(self, capsys, tmp_path):
        from repro.cli.main import main

        baseline = tmp_path / "analysis_baseline.json"
        write_baseline(baseline, [])
        # named api.py so its relpath lands inside the determinism scope
        source = tmp_path / "api.py"
        source.write_text("import os\nJOBS = os.getenv('J')\n")
        # det-env-read is warning severity: without the ratchet this passes
        clear_effect_cache()
        assert main(["analyze", "--rules", "det-env-read",
                     str(source)]) == 0
        capsys.readouterr()
        clear_effect_cache()
        assert main(["analyze", "--rules", "det-env-read",
                     "--baseline", str(baseline), str(source)]) == 1
        assert "baseline: NEW" in capsys.readouterr().err


class TestLiveTreeContracts:
    """The live tree satisfies every effect contract (regression lock)."""

    def test_no_unlocked_thread_reachable_writes(self, live_project):
        project = live_project
        offenders = []
        for qualname, sites in sorted(project.mutation_sites.items()):
            if qualname not in project.thread_pred:
                continue
            offenders.extend(
                f"{qualname}:{site.lineno} {site.describe()}"
                for site in sites if not site.locked)
        # the two obs install points are serialized under _install_lock
        assert offenders == []

    def test_workers_are_transitively_deterministic(self, live_project):
        project = live_project
        for worker in project.graph.worker_roots:
            assert effects.NONDETERMINISTIC not in project.effects[worker], \
                project.effect_chain(worker, effects.NONDETERMINISTIC)
            assert effects.ENV_READ not in project.effects[worker], \
                project.effect_chain(worker, effects.ENV_READ)

    def test_serve_coroutines_never_block(self, live_project):
        project = live_project
        for node in project.graph.functions.values():
            if not node.is_async or not node.relpath.startswith("serve/"):
                continue
            assert effects.BLOCKING_IO not in project.effects[node.qualname], \
                project.effect_chain(node.qualname, effects.BLOCKING_IO)
