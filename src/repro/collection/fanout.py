"""Per-document fan-out for cross-document queries.

One routed query visits many documents; this module evaluates the
per-document expression against each of them in one of two execution
modes — ``serial`` or ``process`` — and guarantees the merged answer is
**byte-identical** across both:

* every visit reads under the service's snapshot discipline (stamp →
  read → stamp, retried when a writer publishes in between), so a
  result row set is always internally consistent with the generation
  it reports;
* a per-document expression of the
  :class:`~repro.xpath.shapes.DescendantTagShape` family (``//tag``,
  ``//h:tag``, one optional ``[@a='v']``) is answered from the
  member's stored element rows by
  :meth:`~repro.streaming.lazy.LazyDocument.shape_rows` — no decode, no
  document build.  Every other visit loads the member
  (:func:`snapshot_load`) and evaluates it with the classic engine,
  reason-coded on the ``collection.visit`` fallback metric:
  ``unsupported-shape``, ``root-tag`` (the shared root is not an
  element row), ``no-index`` or ``unstamped`` (only a non-empty index
  stamp names a generation);
* node results are flattened to plain comparable tuples
  (:func:`node_rows`) — picklable for the process pool and
  order-stable, since the evaluator already emits document order;
* chunks are reassembled in the caller's document-name order whatever
  order the workers finished in.

Process workers re-open the store read-only from the database *path*
(one cached connection per worker process — never a connection
inherited across ``fork``, which SQLite forbids).  When a process pool
cannot be used (no ``fork``/spawn support, pickling trouble, a broken
pool), the fan-out runs serially and reports itself on the
``collection.fanout`` fallback metric rather than failing the query; a
broken pool is handed back to its owner to discard, so the next query
gets a fresh one.  (There is no thread mode: visits hold the GIL, and
threads never beat serial execution on the corpus-search workload.)
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

from ..core.node import Element
from ..errors import ServiceError
from ..obs import fallback as _obs_fallback
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SqliteStore
from ..storage.store import GoddagStore
from ..streaming.lazy import LazyDocument
from ..xpath.axes import AttributeNode, DocumentNode
from ..xpath.engine import ExtendedXPath
from ..xpath.shapes import DescendantTagShape, descendant_tag_shape

_SNAPSHOT_ATTEMPTS = 8

#: One read-only store connection per (worker process, database path).
#: Keyed by pid so a connection is never reused across a fork — each
#: worker opens its own on first use.
_process_stores: dict[tuple[int, str], SqliteStore] = {}


def snapshot_load(backend: SqliteStore, name: str):
    """``(document, generation)`` under the service's snapshot
    discipline: the generation stamp is probed before and after the
    load, and the load retried when a writer published in between."""
    store = GoddagStore.over(backend)
    for _ in range(_SNAPSHOT_ATTEMPTS):
        before = backend.index_stamp(name)
        document = store.load(name)
        if backend.index_stamp(name) == before:
            return document, before
    raise ServiceError(
        f"document {name!r} kept being republished while opening "
        f"a snapshot ({_SNAPSHOT_ATTEMPTS} attempts)"
    )


def snapshot_rows(backend: SqliteStore, name: str,
                  shape: DescendantTagShape) -> tuple[str, tuple] | None:
    """``(generation, rows)`` for ``shape`` served from the member's
    element rows under the discipline of :func:`snapshot_load`, or
    ``None`` — reported on the ``collection.visit`` fallback metric —
    when the member has to be loaded instead."""
    for _ in range(_SNAPSHOT_ATTEMPTS):
        before = backend.index_stamp(name)
        if not before:
            reason = "no-index" if before is None else "unstamped"
        else:
            lazy = LazyDocument(backend, name)
            reason = lazy.row_fallback(shape)
        if reason is not None:
            _obs_fallback("collection.visit", reason, detail=name)
            return None
        rows = lazy.shape_rows(shape)
        if backend.index_stamp(name) == before:
            return before, rows
    raise ServiceError(
        f"document {name!r} kept being republished while reading "
        f"its rows ({_SNAPSHOT_ATTEMPTS} attempts)"
    )


def node_rows(value) -> tuple:
    """Flatten an XPath result into comparable, picklable row tuples.

    Node-sets become one row per node in the order the evaluator
    produced (document order); scalar results become a single
    ``("value", ...)`` row.  The encoding is total over every node kind
    the evaluator can emit, so two evaluations agree exactly when their
    rows agree.
    """
    if not isinstance(value, list):
        return (("value", type(value).__name__, value),)
    rows = []
    for node in value:
        if isinstance(node, AttributeNode):
            rows.append(("attribute", node.owner.elem_id, node.name,
                         node.value))
        elif isinstance(node, DocumentNode):
            rows.append(("document",))
        elif isinstance(node, Element):
            rows.append((
                "element", node.elem_id, node.hierarchy, node.tag,
                node.start, node.end,
                tuple(sorted(node.attributes.items())),
            ))
        else:  # Leaf
            rows.append(("leaf", node.start, node.end))
    return tuple(rows)


def evaluate_documents(
    backend: SqliteStore, names: list[str], expression: str
) -> list[tuple[str, str | None, tuple]]:
    """Evaluate ``expression`` per document over one borrowed
    connection; returns ``(name, generation, rows)`` triples.

    Row-servable shapes are answered by :func:`snapshot_rows`; every
    other visit loads the member and runs the classic unindexed engine
    (``index=False``): the answers are identical by the index contract,
    and a cold per-document manager build would dominate a one-shot
    visit.
    """
    query = ExtendedXPath(expression)
    shape = descendant_tag_shape(query.ast)
    out = []
    for name in names:
        served = None
        if shape is None:
            _obs_fallback("collection.visit", "unsupported-shape",
                          detail=name)
        else:
            served = snapshot_rows(backend, name, shape)
        if served is None:
            metrics.incr("collection.visits.loaded")
            document, generation = snapshot_load(backend, name)
            value = query.evaluate(document, index=False)
            served = generation, node_rows(value)
        else:
            metrics.incr("collection.visits.row_served")
        out.append((name, *served))
    return out


def _worker_chunk(
    path: str, names: list[str], expression: str
) -> list[tuple[str, str | None, tuple]]:
    """Process-pool entry point: evaluate one chunk against a
    per-worker read-only connection (module-level so it pickles)."""
    key = (os.getpid(), path)
    backend = _process_stores.get(key)
    if backend is None:
        backend = _process_stores[key] = SqliteStore(path, wal=True)
    return evaluate_documents(backend, names, expression)


def run_fanout(pool, names: list[str], expression: str, *,
               mode: str = "serial", workers: int | None = None,
               process_pool=None, discard_pool=None
               ) -> list[tuple[str, str | None, tuple]]:
    """Fan ``expression`` out over ``names`` and merge the answers back
    in the caller's name order (the stable ``(doc, document-order)``
    contract — identical whatever mode ran).

    ``pool`` is the corpus's :class:`SqliteConnectionPool`; ``mode`` is
    ``"serial"`` or ``"process"``; ``process_pool`` is a reusable
    executor owned by the caller, and ``discard_pool`` (when given) is
    called once that executor is found broken, so the owner can drop it.
    """
    if mode not in ("serial", "process"):
        raise ServiceError(
            f"unknown fan-out mode {mode!r}: use 'serial' or 'process'"
        )
    if workers is None:
        workers = min(4, len(os.sched_getaffinity(0)) or 1)
    if mode == "process" and workers > 1 and len(names) > 1:
        if process_pool is None:
            _obs_fallback("collection.fanout", "process-unavailable",
                          "no process pool could be created")
        else:
            chunks = [names[i::workers] for i in range(workers)
                      if names[i::workers]]
            try:
                with metrics.time("collection.fanout.process"):
                    results = list(process_pool.map(
                        _worker_chunk,
                        [pool.path] * len(chunks),
                        chunks,
                        [expression] * len(chunks),
                    ))
                return _merge(names, results)
            except (BrokenProcessPool, OSError, ImportError) as exc:
                _obs_fallback("collection.fanout", "process-unavailable",
                              str(exc))
                if isinstance(exc, BrokenProcessPool) and discard_pool:
                    discard_pool()
    with metrics.time("collection.fanout.serial"):
        with pool.connection() as backend:
            return evaluate_documents(backend, names, expression)


def _merge(names: list[str], results) -> list:
    by_name = {
        entry[0]: entry for chunk in results for entry in chunk
    }
    return [by_name[name] for name in names]


__all__ = [
    "evaluate_documents", "node_rows", "run_fanout", "snapshot_load",
    "snapshot_rows",
]
