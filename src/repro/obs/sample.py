"""Resource readings: RSS and CPU time as max-merge gauges, stdlib only.

Latency histograms say where the time went; this module says what it cost
in memory and CPU.  :func:`sample_now` takes one reading — peak RSS and
cumulative CPU seconds via :func:`resource.getrusage` — and folds it into
the default registry's gauges:

* ``resource.max_rss_bytes`` — the process's peak resident set;
* ``resource.cpu_seconds``   — user + system CPU consumed so far;
* ``resource.samples``       — a counter of readings taken.

``ru_maxrss`` is already the kernel's high-water mark and CPU time only
grows, so one reading at the end of a process's work sees everything a
periodic one would.  Each pool worker takes one reading per task into its
isolated capture registry, the sweep command takes one in the parent when
it finishes, and because gauges merge by ``max`` (see
:class:`repro.obs.metrics.Gauge`) the merged gauge answers "how large did
the biggest process get".  Readings obey the observability inertness
contract — gauges are telemetry, excluded from digests, cache keys, and
every rendered table.
"""

from __future__ import annotations

import sys
from typing import Optional

from repro.obs.metrics import MetricsRegistry, default_registry

try:                                    # unix-only in CPython; gate for others
    import resource as _resource
except ImportError:                     # pragma: no cover - non-unix platform
    _resource = None

GAUGE_MAX_RSS = "resource.max_rss_bytes"
GAUGE_CPU_SECONDS = "resource.cpu_seconds"
COUNTER_SAMPLES = "resource.samples"


def sample_now(registry: Optional[MetricsRegistry] = None) -> None:
    """Take one reading and fold it into *registry* (default: process default).

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS; where
    :mod:`resource` is unavailable both values read 0.0.  Gauges are updated
    through ``merge`` (keep-the-max), so repeated samples ratchet upward and
    a late small reading cannot erase an earlier peak.
    """
    registry = registry if registry is not None else default_registry()
    rss = cpu = 0.0
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        rss = float(usage.ru_maxrss) * (1.0 if sys.platform == "darwin" else 1024.0)
        cpu = float(usage.ru_utime) + float(usage.ru_stime)
    registry.gauge(GAUGE_MAX_RSS).merge(rss)
    registry.gauge(GAUGE_CPU_SECONDS).merge(cpu)
    registry.counter(COUNTER_SAMPLES).inc()
