"""Tests for the execution sandbox (policy checks and restricted execution)."""

import sys
import threading

import pytest

from repro.sandbox import (
    ExecutionSandbox,
    PolicyViolation,
    SandboxPolicy,
    validate_source,
)
from repro.sandbox.policy import DEFAULT_ALLOWED_IMPORTS


class TestPolicy:
    def test_allows_whitelisted_imports(self):
        validate_source("import networkx as nx\nimport math\n")

    def test_rejects_os_import(self):
        with pytest.raises(PolicyViolation):
            validate_source("import os")

    def test_rejects_from_import_of_forbidden_module(self):
        with pytest.raises(PolicyViolation):
            validate_source("from subprocess import run")

    def test_rejects_forbidden_calls(self):
        for snippet in ("open('/etc/passwd')", "eval('1+1')", "exec('x=1')",
                        "__import__('os')"):
            with pytest.raises(PolicyViolation):
                validate_source(snippet)

    def test_rejects_dunder_escape_attempts(self):
        with pytest.raises(PolicyViolation):
            validate_source("().__class__.__bases__")
        with pytest.raises(PolicyViolation):
            validate_source("x = __builtins__")

    @pytest.mark.parametrize("snippet", [
        "dict.update(G.graph, note=1)", "dict.pop(G.graph, 'name')", "f = dict.setdefault",
        "dict.__setitem__(G._adj['a'], 'b', {})", "G.graph.__init__(note=1)",
        "G.graph.__delitem__('name')", "G.graph.__ior__({'note': 1})",
    ])
    def test_rejects_writes_behind_a_dicts_own_methods(self, snippet):
        with pytest.raises(PolicyViolation):
            validate_source(snippet)

    @pytest.mark.parametrize("snippet", [
        "getattr(dict, 'update')(G.graph, note=1)", "f = getattr(dict, 'setdefault')",
        "getattr(G, '__class__')", "type(G.graph).__base__",
        "setattr(G, '__dict__', {})", "hasattr(G.graph, '__init__')",
    ])
    def test_rejects_attribute_names_spelled_as_strings(self, snippet):
        with pytest.raises(PolicyViolation):
            validate_source(snippet)

    def test_allows_getattr_of_ordinary_names(self):
        validate_source("class Box:\n    name = 1\nobj = Box()\n"
                        "value = getattr(obj, 'name')\nhasattr(obj, 'size')\n"
                        "setattr(obj, 'size', 2)\nkeys = getattr(dict, 'keys')\n"
                        "attr = 'update'\ngetattr(obj, attr, None)\n")

    def test_allows_reading_dict_methods(self):
        validate_source("d = dict.fromkeys('ab')\nkeys = dict.keys(d)\nd.update(c=1)\n"
                        "d['a'] = 2\ndel d['b']\nd |= {'e': 5}\n")

    def test_rejects_global_statement(self):
        with pytest.raises(PolicyViolation):
            validate_source("def f():\n    global x\n    x = 1\n")

    def test_rejects_overlong_source(self):
        policy = SandboxPolicy(max_source_lines=3)
        with pytest.raises(PolicyViolation):
            validate_source("x = 1\n" * 10, policy)

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            validate_source("def broken(:")

    def test_violation_messages_carry_line_and_column(self):
        with pytest.raises(PolicyViolation, match=r"line 2, col 0: import of "
                                                  r"module 'os'"):
            validate_source("x = 1\nimport os\n")

    def test_multiple_violations_each_located(self):
        source = "import os\nresult = open('x')\n"
        with pytest.raises(PolicyViolation) as excinfo:
            validate_source(source)
        message = str(excinfo.value)
        assert "line 1, col 0" in message
        assert "line 2, col 9" in message

    def test_policy_visitor_collects_structured_findings(self):
        import ast

        from repro.sandbox import PolicyVisitor, SandboxPolicy

        visitor = PolicyVisitor(SandboxPolicy())
        visitor.visit(ast.parse("import os\nx = eval('1')\n"))
        assert [(v.line, v.col) for v in visitor.violations] == [(1, 0), (2, 4)]
        assert "eval" in visitor.violations[1].message

    def test_with_extra_imports(self):
        policy = SandboxPolicy(allowed_imports=DEFAULT_ALLOWED_IMPORTS | {"scipy"})
        validate_source("import scipy", policy)
        with pytest.raises(PolicyViolation):
            validate_source("import scipy")


class TestExecutionSandbox:
    def test_captures_result_variable(self):
        outcome = ExecutionSandbox().execute("result = 2 + 3", {})
        assert outcome.success
        assert outcome.result == 5

    def test_namespace_objects_are_usable(self):
        outcome = ExecutionSandbox().execute("result = sum(values)", {"values": [1, 2, 3]})
        assert outcome.result == 6

    def test_namespace_mutations_visible(self):
        outcome = ExecutionSandbox().execute("data['x'] = 1", {"data": {}})
        assert outcome.namespace["data"] == {"x": 1}

    def test_stdout_captured(self):
        outcome = ExecutionSandbox().execute("print('hello')\nresult = 1", {})
        assert "hello" in outcome.stdout

    def test_print_keywords_and_file_none_land_in_the_buffer(self):
        outcome = ExecutionSandbox().execute(
            "print('a', 'b', sep='-', end='!')\nprint('c', file=None)", {})
        assert outcome.stdout == "a-b!c\n"

    def test_concurrent_executions_capture_only_their_own_output(self):
        """Six programs print, meet at a barrier while all six run, and
        print again: each buffer holds only its own lines, and the
        process-wide stdout is never swapped."""
        stdout_before = sys.stdout
        barrier = threading.Barrier(6, timeout=10)
        source = "print(token)\nbarrier.wait()\nprint(token)\n"
        outputs = {}

        def run(index):
            for round_index in range(3):
                token = f"t{index}-{round_index}"
                outcome = ExecutionSandbox().execute(
                    source, {"token": token, "barrier": barrier})
                outputs[token] = outcome.stdout

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(outputs) == 18
        assert {token: text for token, text in outputs.items()
                if text != f"{token}\n{token}\n"} == {}
        assert sys.stdout is stdout_before

    def test_stdout_is_untouched_after_a_timeout(self):
        """A program still running after its timeout (blocked, then
        catching the exception that stops it) keeps printing into its own
        buffer, not into a swapped process-wide stdout."""
        stdout_before = sys.stdout
        release, finished = threading.Event(), threading.Event()
        outcome = ExecutionSandbox(SandboxPolicy(max_seconds=0.05)).execute(
            "print('early')\ntry:\n    release.wait()\nexcept:\n    pass\n"
            "print('late')\nfinished.set()\n",
            {"release": release, "finished": finished})
        try:
            assert outcome.error_type == "SandboxTimeout"
            assert outcome.still_running
            assert outcome.stdout == "early\n"
            assert sys.stdout is stdout_before
        finally:
            release.set()
            assert finished.wait(timeout=10)
        assert sys.stdout is stdout_before

    def test_syntax_error_reported(self):
        outcome = ExecutionSandbox().execute("for x in (:", {})
        assert outcome.failed
        assert outcome.error_type == "SyntaxError"
        assert "line" in outcome.error_message

    def test_runtime_error_reported(self):
        outcome = ExecutionSandbox().execute("result = {}['missing']", {})
        assert outcome.failed
        assert outcome.error_type == "KeyError"

    def test_policy_violation_reported(self):
        outcome = ExecutionSandbox().execute("import os\nresult = 1", {})
        assert outcome.failed
        assert outcome.error_type == "PolicyViolation"

    def test_import_of_allowed_module_works(self):
        outcome = ExecutionSandbox().execute(
            "import math\nresult = math.sqrt(16)", {})
        assert outcome.result == 4

    def test_runtime_import_block_without_static_validation(self):
        # even with static validation disabled, the restricted __import__ blocks it
        outcome = ExecutionSandbox().execute("import os\nresult = 1", {}, validate=False)
        assert outcome.failed
        assert outcome.error_type == "PolicyViolation"

    def test_timeout_enforced(self):
        policy = SandboxPolicy(max_seconds=0.2)
        outcome = ExecutionSandbox(policy).execute("while True:\n    pass\n", {})
        assert outcome.failed
        assert outcome.error_type == "SandboxTimeout"

    @pytest.mark.parametrize("code", [
        "while True:\n    pass\n",
        "while True:\n    try:\n        pass\n    except Exception:\n        pass\n",
    ], ids=["loop", "loop-catching-exception"])
    def test_timed_out_thread_is_stopped(self, code):
        threads = threading.active_count()
        outcome = ExecutionSandbox(SandboxPolicy(max_seconds=0.1)).execute(code, {})
        assert outcome.error_type == "SandboxTimeout"
        assert not outcome.still_running
        assert threading.active_count() == threads

    def test_networkx_code_runs(self):
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_edge("a", "b", bytes=10)
        outcome = ExecutionSandbox().execute(
            "result = sum(d['bytes'] for _, _, d in G.edges(data=True))", {"G": graph})
        assert outcome.result == 10

    def test_describe_error(self):
        outcome = ExecutionSandbox().execute("result = 1/0", {})
        assert "ZeroDivisionError" in outcome.describe_error()
        ok = ExecutionSandbox().execute("result = 1", {})
        assert ok.describe_error() == ""

    def test_custom_result_variable(self):
        sandbox = ExecutionSandbox(result_variable="answer")
        outcome = sandbox.execute("answer = 7", {})
        assert outcome.result == 7

    def test_each_execution_gets_its_own_builtins(self):
        # a program run without static validation can edit its builtins;
        # the edit must not reach the next program
        sandbox = ExecutionSandbox()
        first = sandbox.execute(
            "table = __builtins__\ntable['len'] = None\ntable['leak'] = 1\n"
            "result = table", {}, validate=False)
        second = sandbox.execute("result = (__builtins__, len([1, 2]))", {},
                                 validate=False)
        assert first.success and second.success
        table, length = second.result
        assert table is not first.result
        assert "leak" not in table
        assert length == 2


class TestCodeCache:
    def test_rejections_are_cached_and_reported_alike(self, monkeypatch):
        from repro.exec import clear_worker_contexts
        from repro.sandbox import executor

        calls = []
        real_validate = executor.validate_source

        def counting(source, policy=None):
            calls.append(source)
            return real_validate(source, policy)

        monkeypatch.setattr(executor, "validate_source", counting)
        clear_worker_contexts()
        try:
            sandbox = ExecutionSandbox()
            for source in ("import os", "for x in (:", "result = 1"):
                first = sandbox.execute(source, {}, cache_code=True)
                second = sandbox.execute(source, {}, cache_code=True)
                assert first.describe_error() == second.describe_error()
                assert first.traceback_text == second.traceback_text
            assert len(calls) == 3
            # a different policy is a different verdict
            relaxed = ExecutionSandbox(
                SandboxPolicy(allowed_imports=DEFAULT_ALLOWED_IMPORTS | {"os"}))
            assert relaxed.execute("import os", {}, cache_code=True).success
            assert len(calls) == 4
        finally:
            clear_worker_contexts()

    def test_equal_policies_share_one_verdict(self, monkeypatch):
        from repro.exec import clear_worker_contexts
        from repro.sandbox import executor

        calls = []
        real_validate = executor.validate_source

        def counting(source, policy=None):
            calls.append(policy.max_source_lines)
            return real_validate(source, policy)

        monkeypatch.setattr(executor, "validate_source", counting)
        clear_worker_contexts()
        try:
            source = "a = 1\nb = 2\nresult = a + b"
            # two distinct but equal policy objects: one cached verdict
            for policy in (SandboxPolicy(), SandboxPolicy()):
                assert ExecutionSandbox(policy).execute(
                    source, {}, cache_code=True).result == 3
            assert calls == [400]
            # a different line limit is a different verdict
            tight = ExecutionSandbox(SandboxPolicy(max_source_lines=2))
            outcome = tight.execute(source, {}, cache_code=True)
            assert outcome.error_type == "PolicyViolation"
            assert calls == [400, 2]
        finally:
            clear_worker_contexts()

    def test_code_is_not_cached_unless_asked(self, monkeypatch):
        from repro.exec import clear_worker_contexts
        from repro.exec.workers import _CONTEXT_CACHE
        from repro.sandbox import executor

        calls = []
        real_validate = executor.validate_source

        def counting(source, policy=None):
            calls.append(source)
            return real_validate(source, policy)

        monkeypatch.setattr(executor, "validate_source", counting)
        clear_worker_contexts()
        try:
            sandbox = ExecutionSandbox()
            for value in range(5):
                assert sandbox.execute(f"result = {value}", {}).result == value
            assert sandbox.execute("result = 0", {}).success
            assert len(calls) == 6
            assert not _CONTEXT_CACHE
        finally:
            clear_worker_contexts()

    def test_ast_building_is_serialized_across_threads(self, monkeypatch):
        """Concurrent ``ast.parse`` can fail on CPython 3.11 (``SystemError:
        AST constructor recursion depth mismatch``); the sandbox lets one
        thread build an AST at a time."""
        import ast
        import threading
        import time

        from repro.exec import clear_worker_contexts

        real_parse = ast.parse
        state = {"inside": 0, "peak": 0}
        guard = threading.Lock()

        def probe(*args, **kwargs):
            with guard:
                state["inside"] += 1
                state["peak"] = max(state["peak"], state["inside"])
            try:
                time.sleep(0.01)  # widen the window a race would need
                return real_parse(*args, **kwargs)
            finally:
                with guard:
                    state["inside"] -= 1

        monkeypatch.setattr(ast, "parse", probe)
        clear_worker_contexts()
        outcomes = []

        def validate(index):
            for round_index in range(3):
                source = f"result = {index} * 100 + {round_index}"
                outcomes.append(ExecutionSandbox().execute(source, {}))

        try:
            threads = [threading.Thread(target=validate, args=(index,))
                       for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            clear_worker_contexts()
        assert not any(thread.is_alive() for thread in threads)
        assert len(outcomes) == 12 and all(outcome.success for outcome in outcomes)
        assert state["peak"] == 1
