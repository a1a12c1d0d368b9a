"""In-memory span recording around the library's public layer calls.

The traced run (``--trace 1``) wraps one public function per layer
boundary (see :data:`SPANS`) with a timing wrapper installed from here;
the library itself is not modified.  A span is recorded only inside an
operation that was opened with ``Recorder.operation(traced=True)``, so
the traced run can interleave traced and untraced operations and
report what the wrappers cost.

Each span records its name, start, end, parent span and operation id;
its self time is its duration minus the time its child spans cover
(spans nest strictly within one thread).  The spans are written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
from contextlib import contextmanager
from time import perf_counter_ns

#: span name -> (module, attribute path) of every function it wraps.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "service.read_session": (
        ("repro.service.service", "DocumentService.read_session"),),
    "storage.load": (("repro.storage.sqlite_backend", "SqliteStore.load"),),
    "storage.decode": (("repro.storage.sqlite_backend", "decode_document"),),
    "core.build": (("repro.core.goddag", "GoddagBuilder.build"),),
    "core.invariants": (
        ("repro.core.goddag", "GoddagDocument.check_invariants"),),
    "index.refresh": (("repro.index.manager", "IndexManager.refresh"),),
    "xpath.evaluate": (("repro.xpath.engine", "ExtendedXPath.evaluate"),),
    "xpath.plan": (("repro.xpath.planner", "Planner.plan"),),
    "service.write_session": (
        ("repro.service.service", "DocumentService.write_session"),),
    "service.publish": (("repro.service.service", "WriteSession.publish"),),
    "storage.resave": (
        ("repro.storage.sqlite_backend", "SqliteStore.resave_with_index"),),
    "editing.edit": (("repro.editing.editor", "Editor.insert_markup"),
                     ("repro.editing.editor", "Editor.set_attribute")),
    "collection.query": (("repro.collection.corpus", "Corpus.query"),),
    "collection.explain": (("repro.collection.corpus", "Corpus.explain"),),
    "collection.visit": (("repro.collection.fanout", "snapshot_load"),),
    "collection.add": (("repro.collection.corpus", "Corpus.add"),
                       ("repro.collection.corpus", "Corpus.add_streams")),
    "sacx.parse": (("repro.sacx.parser", "SACXParser.parse"),),
    "index.payload": (("repro.index.manager", "IndexManager.payload"),),
    "storage.save_indexed": (
        ("repro.storage.store", "GoddagStore.save_indexed"),),
    "streaming.stream_save": (("repro.streaming.ingest", "stream_save"),),
    "streaming.chunk_write": tuple(
        ("repro.storage.sqlite_backend", f"StreamIngestSession.{name}")
        for name in ("add_elements", "append_text", "append_paths",
                     "append_terms")),
    "streaming.finalize": (
        ("repro.storage.sqlite_backend", "StreamIngestSession.finalize"),),
}

class Recorder:
    """Spans of traced operations, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.loads = 0
        self.rows_decoded = 0
        self._loads_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    @contextmanager
    def operation(self, traced: bool):
        """Attribute the spans opened in this block (on this thread) to
        one fresh operation id, or record none when not ``traced``."""
        local = self._local
        local.op = next(self._ops) if traced else None
        local.stack = []
        try:
            yield
        finally:
            local.op = None

    def _wrap(self, name: str, fn):
        local = self._local
        spans = self.spans
        ids = self._ids
        observe_load = name == "storage.load"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = getattr(local, "op", None)
            if op is None:
                return fn(*args, **kwargs)
            stack = local.stack
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((op, frame[0], parent, name, start, end,
                              end - start - frame[1]))
            if observe_load:
                rows = result.element_count()
                with self._loads_lock:
                    self.loads += 1
                    self.rows_decoded += rows
            return result

        return wrapper

    def install(self) -> None:
        for name, targets in SPANS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_metrics(self, traced_ops: int) -> dict[str, float]:
        """``<span>.calls_per_op`` and ``<span>.self_ms_per_op`` for
        every span in :data:`SPANS`, over ``traced_ops`` operations."""
        calls = dict.fromkeys(SPANS, 0)
        self_ns = dict.fromkeys(SPANS, 0)
        for _op, _id, _parent, name, _start, _end, own in self.spans:
            calls[name] += 1
            self_ns[name] += own
        ops = max(traced_ops, 1)
        out = {}
        for name in SPANS:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.self_ms_per_op"] = self_ns[name] / 1e6 / ops
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end, own in self.spans:
                handle.write(json.dumps({
                    "op": op, "span": span_id, "parent": parent,
                    "name": name, "start_ns": start, "end_ns": end,
                    "self_ns": own,
                }) + "\n")


def registry_counts(snapshot: dict, ops: int) -> dict[str, float]:
    """The per-operation counts read from a ``repro.obs`` metrics
    snapshot taken over the traced run."""
    counters = snapshot.get("counters", {})
    timers = snapshot.get("timers", {})
    ops = max(ops, 1)

    def timer_ms(name: str) -> float:
        return timers.get(name, {}).get("total", 0.0) / 1e6

    publishes = counters.get("service.publishes", 0)
    rows = sum(counters.get(f"storage.{kind}", 0)
               for kind in ("rows_upserted", "rows_deleted",
                            "rows_rewritten"))
    return {
        "storage.rows_written_per_publish":
            rows / publishes if publishes else 0.0,
        "index.rebuilds_per_op": counters.get("index.rebuilds", 0) / ops,
        "service.lock_wait_ms_per_op": timer_ms("service.lock_wait") / ops,
        "storage.pool_wait_ms_per_op": timer_ms("storage.pool.wait") / ops,
        "storage.busy_retries_per_op":
            counters.get("storage.busy_retries", 0) / ops,
    }


def plan_cache_counts() -> tuple[int, int]:
    from repro.xpath import plan_cache_stats

    counts = plan_cache_stats()["counts"]
    return counts.get("plan_cache.hits", 0), counts.get("plan_cache.misses", 0)
