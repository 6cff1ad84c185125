"""The content-keyed on-disk result cache.

Entries are keyed by :meth:`repro.exec.task.Task.digest` — a SHA-256 over
the fabric version, task key, worker reference, and canonical payload — so a
cache hit is only possible for the *same computation*.  Any change to a task
(a re-seeded scenario, a different model list, a renamed cell) changes the
digest and misses naturally; stale entries are simply never read again.

Values are stored with :mod:`pickle` (results are arbitrary Python objects:
evaluation records, cost points).  The cache is safe for concurrent writers
because entries are immutable once written and writes go through a
same-directory temporary file followed by an atomic ``os.replace``.

With ``max_entries`` set the cache enforces a cross-run LRU bound: every hit
refreshes its entry's mtime, and every store evicts the stalest entries once
the directory exceeds the limit — so a long-lived cache directory swept by
many differing configurations stops growing without bound.
"""

from __future__ import annotations

import itertools
import logging
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Optional, Tuple

from repro.obs import default_registry

logger = logging.getLogger(__name__)


#: default cache location (repo-local, covered by .gitignore)
DEFAULT_CACHE_DIR = ".repro-cache"

#: per-process store counter: combined with the wall clock it stamps every
#: entry with a monotonic store sequence, so LRU eviction can order a burst
#: of stores that lands inside one filesystem-timestamp granule
_STORE_COUNTER = itertools.count(1)


def _store_sequence() -> Tuple[int, int]:
    # recency metadata only — ordered LRU bookkeeping that never feeds
    # digests, payloads, or cached values
    return (time.time_ns(), next(_STORE_COUNTER))  # repro: allow[det-wallclock]


class ResultCache:
    """A directory of pickled task results keyed by content digest."""

    def __init__(self, root=DEFAULT_CACHE_DIR,
                 max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # approximate entry count, maintained so a bounded cache only pays
        # for a directory scan when the bound is actually exceeded (None =
        # not yet counted; lazily initialized on the first store)
        self._approx_count: Optional[int] = None

    # ------------------------------------------------------------------
    def entry_path(self, digest: str) -> Path:
        # two-level fan-out keeps directories small on big sweeps
        return self.root / digest[:2] / f"{digest}.pkl"

    def get(self, digest: str) -> Tuple[bool, Any]:
        """Look up a digest; returns ``(hit, value)``."""
        path = self.entry_path(digest)
        try:
            with open(path, "rb") as handle:
                # entries are two stacked pickles: a tiny store-sequence
                # header, then the entry dict
                pickle.load(handle)
                entry = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            # missing, torn, or unreadable entries — including entries whose
            # result class has since moved or been renamed — are all misses
            self.misses += 1
            default_registry().counter("cache.misses").inc()
            return False, None
        self.hits += 1
        default_registry().counter("cache.hits").inc()
        try:
            os.utime(path)  # refresh recency so LRU eviction spares hot entries
        except OSError:
            pass  # a concurrent evictor removed the entry; the hit stands
        return True, entry["value"]

    def put(self, digest: str, key: str, value: Any) -> None:
        """Store one result atomically (last writer wins, entries identical).

        The store sequence is written as a separate fixed-small pickle ahead
        of the entry so LRU eviction can rank tied entries without loading
        their (arbitrarily large) result values.
        """
        path = self.entry_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"digest": digest, "key": key, "value": value}
        descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        existed = path.exists()
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(_store_sequence(), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        default_registry().counter("cache.stores").inc()
        if self.max_entries is None:
            return
        if self._approx_count is None:
            self._approx_count = len(self)
        elif not existed:
            self._approx_count += 1
        if self._approx_count > self.max_entries:
            self.evict_excess()

    def evict_excess(self) -> int:
        """Delete least-recently-used entries beyond ``max_entries``.

        Recency is the entry file's ``st_mtime_ns`` (stores and hits both
        touch it).  On coarse-granularity filesystems a burst of stores can
        tie even at nanosecond resolution, and a path tie-break would turn
        eviction effectively alphabetical — so ties are broken by the store
        sequence stamped into each entry's header at :meth:`put` time (the
        path stays as the final tie-break so concurrent evictors agree on
        the victim order).  A hit refreshes the mtime but not the stamped
        sequence, so within one timestamp granule a just-hit old entry still
        orders by its original store time — the window of that imprecision
        is bounded by the filesystem's timestamp granularity.  Returns how
        many entries were removed.
        """
        if self.max_entries is None:
            return 0
        entries = list(self.entries())
        excess = len(entries) - self.max_entries
        if excess <= 0:
            self._approx_count = len(entries)
            return 0

        stats = []
        tie_counts: dict = {}
        for path in entries:
            try:
                mtime_ns = path.stat().st_mtime_ns
            except OSError:
                mtime_ns = 0  # vanished underneath us: oldest
            stats.append((mtime_ns, path))
            tie_counts[mtime_ns] = tie_counts.get(mtime_ns, 0) + 1

        def stored_sequence(path: Path) -> Tuple[int, int]:
            try:
                # only the tiny header pickle is read
                with open(path, "rb") as handle:
                    header = pickle.load(handle)
                if isinstance(header, (tuple, list)) and len(header) == 2:
                    return tuple(header)
                return (0, 0)  # not a store-sequence header: oldest in its group
            except (OSError, pickle.PickleError, EOFError, AttributeError,
                    ImportError):
                return (0, 0)  # unreadable: oldest within its tie group

        def recency(item):
            mtime_ns, path = item
            # only tied groups pay for reading the entry's store sequence
            sequence = (stored_sequence(path) if tie_counts[mtime_ns] > 1
                        else (0, 0))
            return (mtime_ns, sequence, str(path))

        removed = 0
        for _, path in sorted(stats, key=recency)[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_count = len(entries) - removed
        if removed:
            default_registry().counter("cache.evictions").inc(removed)
            logger.debug("evicted %d cache entr%s from %s (bound %d)",
                         removed, "y" if removed == 1 else "ies", self.root,
                         self.max_entries)
        return removed

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
        self._approx_count = 0
        return removed


def resolve_cache(cache) -> Optional[ResultCache]:
    """Coerce ``None`` / path-like / :class:`ResultCache` into a cache or None."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
