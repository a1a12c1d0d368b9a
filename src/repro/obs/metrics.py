"""The process-wide metrics registry: counters, timers, histograms.

One :data:`metrics` registry serves the whole process.  It starts
**disabled** — every instrument call is a no-op whose cost is one
attribute check — so instrumented hot paths (step evaluation, index
catch-up, row-level saves) pay nothing until someone turns observation
on.  ``benchmarks/bench_obs_overhead.py`` asserts the no-op default
stays under 3% on the bench_e9 hot query shapes.

Instrument names are dotted strings; the catalog lives in
``docs/ARCHITECTURE.md`` (Observability section).  Reason-coded events
append the reason as a suffix (``index.rebuilds.backlog``), so a
snapshot shows both the total and the per-reason split.

The registry is guarded by one lock; instruments are cheap enough that
contention is irrelevant at the library's current single-writer scale.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> registry = MetricsRegistry(enabled=True)
    >>> registry.incr("index.rebuilds")
    >>> registry.observe("journal.coalesce.fold_ratio", 4.0)
    >>> registry.snapshot()["counters"]["index.rebuilds"]
    1
"""

from __future__ import annotations

import math
import threading
import time


class _Dist:
    """Running distribution: count, total, min, max, log2 buckets."""

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        # bucket key b holds values in [2**b, 2**(b+1)); None holds <= 0.
        self.buckets: dict[int | None, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        key = math.floor(math.log2(value)) if value > 0 else None
        self.buckets[key] = self.buckets.get(key, 0) + 1

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum if self.count else 0.0,
            "mean": (self.total / self.count) if self.count else 0.0,
            "buckets": {
                ("le0" if key is None else str(key)): n
                for key, n in sorted(
                    self.buckets.items(),
                    key=lambda item: (-1_000 if item[0] is None else item[0]),
                )
            },
        }


class _Timer:
    """Context manager recording one wall-time observation on exit."""

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self._registry.record_ns(self._name, time.perf_counter_ns() - self._start)


class MetricsRegistry:
    """Counters, gauges, timers, and histograms behind one enable switch.

    All instruments auto-create on first use.  ``incr`` feeds counters,
    ``gauge`` sets a gauge (the last value wins — a level such as a
    cache's resident size), ``observe`` feeds histograms (arbitrary
    float values — row counts, fold ratios), and ``record_ns``/``time``
    feed timers (durations, kept in nanoseconds).  :meth:`snapshot`
    returns the whole census as plain JSON-shaped data; :meth:`reset`
    zeroes everything but keeps the enabled state.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, _Dist] = {}
        self._histograms: dict[str, _Dist] = {}

    # -- switches ---------------------------------------------------------------

    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._histograms.clear()

    # -- instruments ------------------------------------------------------------

    def incr(self, name: str, n: int = 1, reason: str | None = None) -> None:
        """Add ``n`` to counter ``name`` (no-op while disabled).  With a
        ``reason``, the reason-suffixed counter ``name.reason`` is bumped
        too, so snapshots carry the per-reason split next to the total."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
            if reason is not None:
                coded = f"{name}.{reason}"
                self._counters[coded] = self._counters.get(coded, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            dist = self._histograms.get(name)
            if dist is None:
                dist = self._histograms[name] = _Dist()
            dist.add(value)

    def record_ns(self, name: str, ns: int) -> None:
        """Record one timer observation, in nanoseconds (no-op while
        disabled)."""
        if not self.enabled:
            return
        with self._lock:
            dist = self._timers.get(name)
            if dist is None:
                dist = self._timers[name] = _Dist()
            dist.add(ns)

    def time(self, name: str) -> _Timer:
        """``with metrics.time("storage.save"):`` — wall-time the block.
        The timer always measures; recording is dropped while disabled
        (two clock reads are cheaper than branching at both ends)."""
        return _Timer(self, name)

    # -- reading ----------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """JSON-shaped census of every instrument."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: dist.to_dict()
                    for name, dist in sorted(self._timers.items())
                },
                "histograms": {
                    name: dist.to_dict()
                    for name, dist in sorted(self._histograms.items())
                },
            }


#: The process-wide registry every instrumented layer reports to.
#: Disabled (no-op) by default; ``repro.obs.enable()`` flips it on.
metrics = MetricsRegistry(enabled=False)


__all__ = ["MetricsRegistry", "metrics"]
