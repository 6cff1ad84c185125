"""Restricted execution of LLM-generated code."""

from __future__ import annotations

import builtins
import io
import threading
import time
import traceback
from dataclasses import dataclass, field
from types import CodeType
from typing import Any, Dict, Optional, Union

from repro.exec.workers import worker_context
from repro.obs import default_registry, span
from repro.sandbox.policy import PolicyViolation, SandboxPolicy, validate_source


class SandboxTimeout(RuntimeError):
    """Raised (and captured) when generated code exceeds the time budget."""


class _Stop(BaseException):
    """Raised inside a program's thread once it has run out of time; not an
    ``Exception``, so that ``except Exception`` cannot swallow it."""


#: how long a timed-out program's thread gets to stop before it is left
_STOP_GRACE_SECONDS = 0.5


#: builtins exposed to generated code — enough for data manipulation, nothing
#: that touches the filesystem, processes, or the interpreter internals.
_SAFE_BUILTIN_NAMES = (
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate", "filter",
    "float", "format", "frozenset", "getattr", "hasattr", "hash", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max", "min",
    "next", "object", "pow", "print", "range", "repr", "reversed", "round",
    "set", "setattr", "slice", "sorted", "str", "sum", "tuple", "type", "zip",
    "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
    "AttributeError", "ZeroDivisionError", "StopIteration", "RuntimeError",
    "ArithmeticError", "LookupError", "NotImplementedError", "True", "False",
    "None",
)


#: built once; every execution gets its own copy (see :func:`_safe_builtins`)
_SAFE_BUILTINS: Dict[str, Any] = {name: getattr(builtins, name)
                                  for name in _SAFE_BUILTIN_NAMES
                                  if hasattr(builtins, name)}


def _safe_builtins() -> Dict[str, Any]:
    """A fresh copy of the builtins table, so a program that edits its
    builtins cannot affect the next one.  A controlled ``__import__`` that
    honours the sandbox policy and a ``print`` bound to the execution's own
    buffer are installed per execution in :meth:`ExecutionSandbox._execute`."""
    return dict(_SAFE_BUILTINS)


def _print_to(buffer: io.StringIO):
    """``print`` writing to *buffer* when no other file is named.

    The process-wide ``sys.stdout`` is never swapped: concurrent executions
    (``repro serve``'s answer threads) would capture each other's output, and
    a runaway program would keep the swap after its timeout.
    """
    def _print(*values, sep=None, end=None, file=None, flush=False):
        print(*values, sep=sep, end=end, flush=flush,
              file=buffer if file is None else file)
    return _print


#: serializes ``ast.parse``/``compile``: CPython 3.11 can raise ``SystemError:
#: AST constructor recursion depth mismatch`` when threads build ASTs at once
_AST_LOCK = threading.Lock()


def _checked_code(source: str, policy: SandboxPolicy,
                  validate: bool) -> Union[CodeType, SyntaxError, PolicyViolation]:
    """Validate and compile *source*: the code object, or the rejection."""
    with _AST_LOCK:
        try:
            if validate:
                with span("sandbox.validate"):
                    validate_source(source, policy)
            with span("sandbox.compile"):
                return compile(source, "<generated-code>", "exec")
        except (SyntaxError, PolicyViolation) as exc:
            # cached and reported many times: keep no frames alive
            return exc.with_traceback(None)


@dataclass
class ExecutionOutcome:
    """Everything captured from one sandboxed execution."""

    success: bool
    result: Any = None
    namespace: Dict[str, Any] = field(default_factory=dict)
    stdout: str = ""
    error_type: Optional[str] = None
    error_message: Optional[str] = None
    traceback_text: Optional[str] = None
    duration_seconds: float = 0.0
    #: the program timed out and its thread did not stop: it may still
    #: change the namespace
    still_running: bool = False

    @property
    def failed(self) -> bool:
        return not self.success

    def describe_error(self) -> str:
        if self.success:
            return ""
        return f"{self.error_type}: {self.error_message}"


class ExecutionSandbox:
    """Run generated Python in a restricted namespace with a time budget.

    Parameters
    ----------
    policy:
        The static and dynamic limits to enforce.
    result_variable:
        Name of the variable the generated code is asked to leave its answer
        in (the prompt instructs the LLM to assign to ``result``).
    """

    def __init__(self, policy: Optional[SandboxPolicy] = None,
                 result_variable: str = "result") -> None:
        self.policy = policy or SandboxPolicy()
        self.result_variable = result_variable

    # ------------------------------------------------------------------
    def _restricted_import(self, name: str, globals=None, locals=None,
                           fromlist=(), level=0):
        root = name.split(".")[0]
        if root not in self.policy.allowed_imports:
            raise PolicyViolation(f"import of module {name!r} is not allowed")
        return __import__(name, globals, locals, fromlist, level)

    def execute(self, source: str, namespace: Optional[Dict[str, Any]] = None,
                validate: bool = True, cache_code: bool = False) -> ExecutionOutcome:
        """Execute *source* and capture its outcome.

        The provided *namespace* (graph objects, frames, databases, helper
        libraries) is copied into the execution globals; the same dictionary
        is returned in the outcome so callers can inspect mutations.

        With *cache_code*, the code object (or the rejection) is kept in a
        :func:`~repro.exec.workers.worker_context` entry keyed by (source,
        *validate*, policy), so it lives as long as the fabric's other
        memos.  Fabric workers whose programs come from a finite template
        table set it; callers that write parsed values into the source
        (freeform ``ask``, sampling) leave it off, or every distinct query
        would stay cached.
        """
        attrs: Dict[str, Any] = {"source_bytes": len(source)}
        with span("sandbox.execute", attrs=attrs):
            outcome = self._execute(source, namespace, validate, cache_code)
            if outcome.failed:
                attrs["error"] = outcome.error_type
        registry = default_registry()
        registry.counter("sandbox.runs").inc()
        if outcome.failed:
            registry.counter("sandbox.failures").inc()
        return outcome

    def _execute(self, source: str, namespace: Optional[Dict[str, Any]],
                 validate: bool, cache_code: bool) -> ExecutionOutcome:
        start = time.perf_counter()
        exec_globals: Dict[str, Any] = dict(namespace or {})
        builtin_table = _safe_builtins()
        stdout_buffer = io.StringIO()
        builtin_table["__import__"] = self._restricted_import
        builtin_table["print"] = _print_to(stdout_buffer)
        exec_globals["__builtins__"] = builtin_table

        policy = self.policy
        if cache_code:
            # the verdict depends only on (source, validate, policy)
            compiled = worker_context(
                ("sandbox-code", source, validate, policy),
                lambda: _checked_code(source, policy, validate))
        else:
            compiled = _checked_code(source, policy, validate)
        if not isinstance(compiled, CodeType):
            return self._failure(compiled, stdout_buffer, exec_globals, start)
        with span("sandbox.exec"):
            return self._run_code(compiled, exec_globals, stdout_buffer, start)

    def _run_code(self, compiled: CodeType, exec_globals: Dict[str, Any],
                  stdout_buffer: io.StringIO, start: float) -> ExecutionOutcome:
        """Run *compiled* on a helper thread within the time budget."""
        error_holder: Dict[str, BaseException] = {}

        def _run() -> None:
            try:
                exec(compiled, exec_globals)  # noqa: S102 - sandboxed by policy
            except BaseException as exc:  # noqa: BLE001 - captured and reported
                error_holder["error"] = exc

        worker = threading.Thread(target=_run, daemon=True)
        worker.start()
        worker.join(self.policy.max_seconds)
        if worker.is_alive():
            # raised at the thread's next bytecode, and again while it runs:
            # a callback that ignores exceptions (a gc callback, ``__del__``)
            # can swallow one.  A long C call or a handler that catches
            # every one keeps the thread running.  (ctypes is imported here
            # only: it adds about 0.4 MB to every process that loads it.)
            import ctypes

            deadline = time.monotonic() + _STOP_GRACE_SECONDS
            while worker.is_alive() and time.monotonic() < deadline:
                ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(worker.ident),
                                                           ctypes.py_object(_Stop))
                worker.join(0.01)
            timeout = SandboxTimeout(
                f"generated code exceeded the {self.policy.max_seconds:.1f}s time budget")
            outcome = self._failure(timeout, stdout_buffer, exec_globals, start)
            outcome.still_running = worker.is_alive()
            return outcome
        if "error" in error_holder:
            return self._failure(error_holder["error"], stdout_buffer, exec_globals, start)

        duration = time.perf_counter() - start
        exec_globals.pop("__builtins__", None)
        return ExecutionOutcome(
            success=True,
            result=exec_globals.get(self.result_variable),
            namespace=exec_globals,
            stdout=stdout_buffer.getvalue(),
            duration_seconds=duration,
        )

    # ------------------------------------------------------------------
    def _failure(self, exc: BaseException, stdout_buffer: io.StringIO,
                 exec_globals: Dict[str, Any], start: float) -> ExecutionOutcome:
        duration = time.perf_counter() - start
        exec_globals.pop("__builtins__", None)
        if isinstance(exc, SyntaxError):
            message = f"{exc.msg} (line {exc.lineno})"
        else:
            message = str(exc)
        return ExecutionOutcome(
            success=False,
            namespace=exec_globals,
            stdout=stdout_buffer.getvalue(),
            error_type=type(exc).__name__,
            error_message=message,
            traceback_text="".join(traceback.format_exception_only(type(exc), exc)),
            duration_seconds=duration,
        )
