"""Start ``repro serve`` with the per-layer wrappers installed.

Used only by the traced run; timed runs start the plain ``repro serve``.
Usage: ``serve_boot.py TRACE_OUT serve --port N ...`` — everything after
TRACE_OUT is handed to the ``repro`` command line unchanged.  The spans are
written to TRACE_OUT when the server stops (on SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers  # noqa: E402


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    recorder = layers.Recorder()
    installation = layers.install(recorder)
    from repro.cli.main import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        installation.remove()
        Path(trace_out).write_text(json.dumps(recorder.document()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
