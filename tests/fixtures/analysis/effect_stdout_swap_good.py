"""Good: each program gets a ``print`` bound to its own buffer in its own
builtins table; the process-wide ``sys.stdout`` is never touched."""

import builtins
import io
import threading


def _print_to(buffer):
    def _print(*values, sep=None, end=None, file=None, flush=False):
        print(*values, sep=sep, end=end, flush=flush,
              file=buffer if file is None else file)
    return _print


class ExecutionSandbox:
    def __init__(self, max_seconds=10.0):
        self.max_seconds = max_seconds

    def execute_all(self, pool, programs):
        """Run *programs* concurrently, as a thread pool or a server does."""
        return [pool.submit(self.execute, code, {}) for code in programs]

    def execute(self, code, namespace):
        stdout_buffer = io.StringIO()
        error_holder = {}
        namespace["__builtins__"] = dict(vars(builtins),
                                         print=_print_to(stdout_buffer))

        def _run():
            try:
                exec(code, namespace)
            except BaseException as exc:
                error_holder["error"] = exc

        worker = threading.Thread(target=_run, daemon=True)
        worker.start()
        worker.join(self.max_seconds)
        return stdout_buffer.getvalue(), error_holder.get("error")

