"""Helpers shared by the workloads: statistics, answer digests, host and
store facts, and the per-operation bookkeeping every workload reports."""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import sqlite3
import statistics
import sys
import threading
import time
import traceback

#: The probe's CPU time on the reference machine (a 2-vCPU VM running
#: Python 3.11 at its full speed); normalised times read as if measured
#: there.
PROBE_REFERENCE_MS = 5.0


class Probe:
    """A fixed piece of work that never touches the library, timed in
    the calling thread's CPU time right after every timed operation.

    Other tenants of a shared host slow the whole machine down, often by
    half and for tens of seconds, so two runs of the same code can read
    very differently.  The probe (rows turned into a linked dict graph
    and sorted, plus an integer loop: the kind of work the library does)
    slows down with it.  :meth:`normalise` rescales each operation's
    time by the median of the probes run around it, to what it would
    read on a machine running the probe in :data:`PROBE_REFERENCE_MS`.
    The probe never releases the interpreter lock and is timed in CPU
    time, so another client thread of the same process does not slow it
    down.  One probe belongs to one thread.
    """

    ROWS = 4000
    #: Probes on each side of an operation that set its machine speed.
    WINDOW = 4

    def __init__(self) -> None:
        self._rows = [(i, i // 3, f'{{"n": "{i % 97}"}}')
                      for i in range(self.ROWS)]
        self.samples_ms: list[float] = []

    def run(self, n: int = 1) -> int:
        """Run the probe ``n`` times; returns the mark of the first run,
        which :meth:`normalise` takes with the operation just timed."""
        mark = len(self.samples_ms)
        for _ in range(n):
            t0 = time.thread_time()
            nodes = {}
            for a, b, c in self._rows:
                nodes[a] = {"parent": b, "attrs": c, "children": []}
            for a, node in nodes.items():
                parent = nodes.get(node["parent"])
                if parent is not None and parent is not node:
                    parent["children"].append(a)
            sorted(nodes, key=lambda k: (nodes[k]["attrs"], -k))
            total = 0
            for i in range(20_000):
                total += i * i % 7
            self.samples_ms.append((time.thread_time() - t0) * 1e3)
        return mark

    def normalise(self, samples) -> list[float]:
        """``(measured, mark)`` samples rescaled to the reference speed."""
        out = []
        for value, mark in samples:
            window = self.samples_ms[max(0, mark - self.WINDOW):
                                     mark + self.WINDOW + 1]
            out.append(value * PROBE_REFERENCE_MS / median(window))
        return out

    def summary(self) -> dict:
        return {"median_ms": median(self.samples_ms),
                "reference_ms": PROBE_REFERENCE_MS,
                "samples": len(self.samples_ms)}


def end_to_end(setup, main, side, probe: Probe, side_percentile: int = 50):
    """The end-to-end metrics, normalised and as measured.

    ``setup`` holds one list per setup repetition of ``(seconds, mark)``
    pieces; ``main`` and ``side`` are ``(milliseconds, mark)`` samples
    taken on the thread that owns ``probe``.  ``side_ms`` is the
    ``side_percentile`` of the side samples."""
    def side_stat(values):
        if side_percentile == 50:
            return median(values)
        return percentile(values, side_percentile)

    rss = peak_rss_mb()
    normalised = {
        "setup_s": median([sum(probe.normalise(pieces))
                           for pieces in setup]),
        "main_op_p50_ms": median(probe.normalise(main)),
        "side_ms": side_stat(probe.normalise(side)),
        "peak_rss_mb": rss,
    }
    measured = {
        "setup_s": median([sum(v for v, _ in pieces) for pieces in setup]),
        "main_op_p50_ms": median([v for v, _ in main]),
        "side_ms": side_stat([v for v, _ in side]),
        "peak_rss_mb": rss,
    }
    return normalised, measured


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> dict:
    """Median plus the highest of p90/p99 that has at least ten samples
    beyond it, with the sample count, as the report format asks."""
    out = {"n": len(values), "p50": median(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = percentile(values, q)
            break
    return out


def zipf_schedule(items, s: float, n: int, rng) -> list:
    """``n`` picks from ``items`` in exact Zipf proportions (rank ``k``
    weighs ``k ** -s``; largest remainders round), shuffled by ``rng``.
    Exact proportions keep the request mix, and so the latency mix, the
    same from seed to seed; only the order changes."""
    weights = [(k + 1) ** -s for k in range(len(items))]
    total = sum(weights)
    quotas = [w / total * n for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(items)),
                          key=lambda k: counts[k] - quotas[k])
    for k in by_remainder[: n - sum(counts)]:
        counts[k] += 1
    picks = [item for item, c in zip(items, counts) for _ in range(c)]
    rng.shuffle(picks)
    return picks


def settle() -> None:
    """Collect, then exempt everything built so far from the cyclic
    garbage collector, so the timed phase does not pay for traversing
    the benchmark's own setup objects."""
    gc.collect()
    gc.freeze()


def answer_rows(value) -> tuple:
    """An XPath result flattened to comparable tuples: one row per
    element in result order (the row shape ``collection()`` results
    use), or one row for a scalar."""
    if not isinstance(value, list):
        return (("value", type(value).__name__, value),)
    return tuple(("element", node.elem_id, node.hierarchy, node.tag,
                  node.start, node.end, tuple(sorted(node.attributes.items())))
                 for node in value)


def digest(obj) -> str:
    return hashlib.blake2b(repr(obj).encode("utf-8"),
                           digest_size=16).hexdigest()


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_facts() -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": sys.platform,
    }


def checkpoint(path: str) -> dict:
    """Fold the WAL into the database file and report its size next to
    sqlite's default page cache."""
    conn = sqlite3.connect(path)
    try:
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        (cache_size,) = conn.execute("PRAGMA cache_size").fetchone()
        (page_size,) = conn.execute("PRAGMA page_size").fetchone()
    finally:
        conn.close()
    # A negative cache_size is a size in KiB, a positive one in pages.
    cache_bytes = (-cache_size * 1024 if cache_size < 0
                   else cache_size * page_size)
    return {"store_bytes": os.path.getsize(path),
            "page_cache_bytes": cache_bytes}


def remove_store(path) -> None:
    """Delete a sqlite database file with its WAL and shared-memory
    files."""
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.unlink(f"{path}{suffix}")
        except FileNotFoundError:
            pass


def plan_cache_limit():
    from repro.xpath import engine

    return getattr(engine, "PLAN_CACHE_LIMIT", None)


class Ops:
    """Thread-safe tally of attempted and failed operations.  A failure
    is an exception or a wrong answer; the first few are printed to
    stderr with their traceback or detail."""

    REPORTED = 5

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, reason: str, detail: str = "") -> None:
        with self._lock:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
            report = self.failed <= self.REPORTED
        if report:
            print(f"perfbench: {reason}: {detail or traceback.format_exc()}",
                  file=sys.stderr)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_op_ratio": (self.failed / self.attempted
                                if self.attempted else 0.0),
            "failure_reasons": dict(self.reasons),
        }

