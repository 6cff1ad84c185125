"""Bad: the sandbox captures a program's output by swapping the process-wide
``sys.stdout``.  Programs run concurrently on a thread pool, so each one
prints into whichever buffer was swapped in last, and a program still
running after its timeout keeps the swap."""

import contextlib
import io
import threading


class ExecutionSandbox:
    def __init__(self, max_seconds=10.0):
        self.max_seconds = max_seconds

    def execute_all(self, pool, programs):
        """Run *programs* concurrently, as a thread pool or a server does."""
        return [pool.submit(self.execute, code, {}) for code in programs]

    def execute(self, code, namespace):
        stdout_buffer = io.StringIO()
        error_holder = {}

        def _run():
            try:
                with contextlib.redirect_stdout(stdout_buffer):
                    exec(code, namespace)
            except BaseException as exc:
                error_holder["error"] = exc

        worker = threading.Thread(target=_run, daemon=True)
        worker.start()
        worker.join(self.max_seconds)
        return stdout_buffer.getvalue(), error_holder.get("error")

