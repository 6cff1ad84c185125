"""``python -m repro``: the ``repro`` command line, without installing it."""

import sys

from repro.cli.main import main

sys.exit(main())
