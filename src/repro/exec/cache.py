"""The content-keyed on-disk result cache.

Entries are keyed by :meth:`repro.exec.task.Task.digest` — a SHA-256 over
the fabric version, task key, worker reference, and canonical payload — so a
cache hit is only possible for the *same computation*.  Any change to a task
(a re-seeded scenario, a different model list, a renamed cell) changes the
digest and misses naturally; stale entries are simply never read again.

Each entry is one :mod:`pickle` (results are arbitrary Python objects:
evaluation records, cost points), and a lookup only reads it.  The cache is
safe for concurrent writers because entries are immutable once written and
writes go through a same-directory temporary file followed by an atomic
``os.replace``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator, Tuple

from repro.obs import default_registry


#: default cache location (repo-local, covered by .gitignore)
DEFAULT_CACHE_DIR = ".repro-cache"


class ResultCache:
    """A directory of pickled task results keyed by content digest."""

    def __init__(self, root=DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def entry_path(self, digest: str) -> Path:
        # two-level fan-out keeps directories small on big sweeps
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Tuple[bool, Any]:
        """Look up a digest; returns ``(hit, value)``."""
        try:
            with open(self.entry_path(digest), "rb") as handle:
                entry = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # missing, torn, or unreadable entries — including entries whose
            # result class has since moved or been renamed — are all misses
            default_registry().counter("cache.misses").inc()
            return False, None
        default_registry().counter("cache.hits").inc()
        return True, entry["value"]

    def put(self, digest: str, key: str, value: Any) -> None:
        """Store one result atomically (last writer wins, entries identical)."""
        path = self.entry_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"digest": digest, "key": key, "value": value}
        descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        default_registry().counter("cache.stores").inc()

    # ------------------------------------------------------------------
    def entries(self) -> Iterator[Path]:
        if not self.root.exists():
            return iter(())
        return iter(sorted(self.root.glob("*/*.pkl")))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
