"""The concurrent document service: many readers, one writer per document.

:class:`DocumentService` is the session layer over a WAL-mode
:class:`~repro.storage.GoddagStore`: a process serving one shared
database file to many threads, each of which works through short-lived
*sessions* instead of sharing mutable library objects.

The concurrency contract (the full version lives in
docs/ARCHITECTURE.md, "Service layer & concurrency contract"):

* **Readers at one generation share one frozen snapshot; writers get a
  private one.**  :meth:`read_session` probes the stored index stamp
  (the document's *generation*) and serves the
  :class:`~repro.core.goddag.GoddagDocument` and
  :class:`~repro.index.manager.IndexManager` cached for exactly that
  stamp; on a miss it materializes them (load, invariant check, index
  build), freezes the document and caches the pair.  A frozen document
  refuses every mutation with the typed
  :class:`~repro.errors.ReadOnlySnapshotError`, and each of its lazy
  caches (and its manager's) fills once, so concurrent readers cannot
  disturb each other.  The cache is an LRU bounded by the total element count of
  the documents it holds (:data:`SNAPSHOT_CACHE_ELEMENTS`); a publish
  writes a new stamp, so the next open misses by construction.  Every
  write session still materializes its own mutable document and
  manager.  Beyond the snapshots, the cross-thread structures are the
  locked compiled-plan cache and the database file itself (WAL mode:
  readers on other connections proceed while a writer commits).
* **Read sessions are snapshot-isolated.**  A read session answers at
  the generation it opened on and its snapshot never changes
  afterwards — a writer publishing a new version does not disturb open
  readers.  Staleness is observable, not imposed:
  :meth:`ReadSession.is_current` / :meth:`ReadSession.require_current`
  surface a newer published generation as the typed
  :class:`~repro.errors.SnapshotSupersededError`; re-open to see it.
* **Write sessions serialize per document.**  :meth:`write_session`
  holds the document's write lock (in-process; acquisition waits are
  timed on ``service.lock_wait`` and bounded by the typed
  :class:`~repro.errors.WriteLockTimeoutError`), applies tracked edits
  through an :class:`~repro.editing.Editor`, and publishes atomically
  via the stamped :meth:`~repro.storage.GoddagStore.save_indexed` —
  row-level element and index patches under in-transaction stamp
  re-verification.  A second writer racing the publish from another
  service instance or process surfaces as the typed
  :class:`~repro.errors.WriteConflictError`; nothing is written.
* **Database work is pooled and bounded.**  Sessions borrow a
  connection from a :class:`~repro.storage.SqliteConnectionPool` only
  while they touch the database (snapshot load, stamp probe, publish)
  and return it immediately, so ``pool_size`` bounds concurrent
  database work, not session count.  SQLITE_BUSY is retried with
  bounded backoff at the storage layer and surfaces as the typed
  :class:`~repro.errors.StoreBusyError` past the budget.

Observability: session opens/closes land on the
``service.read_sessions.*`` / ``service.write_sessions.*`` counters,
snapshot-cache lookups on ``service.snapshots.hits`` /
``service.snapshots.misses``, removals on
``service.snapshots.evictions`` (by reason: ``budget``, ``stale``,
``delete``) and the cached element total on the
``service.snapshots.elements`` gauge,
publishes on ``service.publishes``, detected conflicts on
``service.conflicts``, superseded-snapshot checks on
``service.snapshot_checks`` / ``service.snapshots.superseded``, write
lock waits on the ``service.lock_wait`` timer, and the pool reports
``storage.pool.in_use`` / ``storage.pool.wait`` / ``storage.busy_*``
(see :mod:`repro.obs`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

from ..core.goddag import GoddagDocument
from ..core.node import Node
from ..editing import Editor
from ..errors import (
    ServiceError,
    SnapshotSupersededError,
    WriteLockTimeoutError,
)
from ..index.manager import IndexManager
from ..obs.metrics import metrics
from ..storage.sqlite_backend import SqliteConnectionPool, SqliteStore
from ..storage.store import GoddagStore
from ..xpath.engine import ExtendedXPath
from ..xpath.evaluator import XPathValue

#: Bounded attempts to read a (document, generation) pair that did not
#: change mid-load; each publish between the two stamp probes retries.
_SNAPSHOT_ATTEMPTS = 8

#: Budget of the read-snapshot cache, in elements: the frozen documents
#: it holds total at most this many ``element_count()`` (about 1 KB of
#: Python objects per element, document and index together).  Sized on
#: the perfbench edition-read workload (24 manuscripts of 1.5k-6k
#: elements, Zipf reads): 30k elements served 54-63% of the opens from
#: the cache for +6% peak RSS, where 20k served 48% and 40k cost up to
#: +20% RSS.  A budget counted in documents would let a few large
#: manuscripts grow the footprint without bound.
SNAPSHOT_CACHE_ELEMENTS = 30_000


class _SnapshotCache:
    """Frozen read snapshots: at most one (generation, document,
    manager) entry per document name, LRU-evicted to keep the total
    element count within :data:`SNAPSHOT_CACHE_ELEMENTS`.

    An entry serves only the generation it was loaded at.  A lookup at
    another generation drops it (generation stamps are never reused, so
    it can never hit again).  Only non-empty stamps are cached: ``None``
    (no stored index) and ``""`` (an index written outside a session)
    do not name a generation.  A snapshot larger than the whole budget
    is served uncached.  One lock guards the map and the element total.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[
            str, tuple[str, GoddagDocument, IndexManager, int]
        ] = OrderedDict()
        self._elements = 0
        self._lock = threading.Lock()

    def get(self, name: str, generation: str | None
            ) -> tuple[GoddagDocument, IndexManager] | None:
        """The cached pair for ``name`` at ``generation``, or ``None``."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry[0] != generation:
                self._drop(name, "stale")
                entry = None
            if entry is not None:
                self._entries.move_to_end(name)
        metrics.incr(
            "service.snapshots.hits" if entry is not None
            else "service.snapshots.misses"
        )
        return None if entry is None else (entry[1], entry[2])

    def put(self, name: str, generation: str | None,
            document: GoddagDocument, manager: IndexManager
            ) -> tuple[GoddagDocument, IndexManager]:
        """Cache a frozen pair; returns the pair readers should use (an
        equal-generation entry another thread cached first wins)."""
        size = document.element_count()
        if not generation or size > SNAPSHOT_CACHE_ELEMENTS:
            return document, manager
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None and entry[0] == generation:
                self._entries.move_to_end(name)
                return entry[1], entry[2]
            if entry is not None:
                self._drop(name, "stale")
            self._entries[name] = (generation, document, manager, size)
            self._elements += size
            while self._elements > SNAPSHOT_CACHE_ELEMENTS:
                self._drop(next(iter(self._entries)), "budget")
            metrics.gauge("service.snapshots.elements", self._elements)
        return document, manager

    def evict(self, name: str) -> None:
        with self._lock:
            if name in self._entries:
                self._drop(name, "delete")
                metrics.gauge("service.snapshots.elements", self._elements)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._elements = 0
            metrics.gauge("service.snapshots.elements", 0)

    def _drop(self, name: str, reason: str) -> None:
        self._elements -= self._entries.pop(name)[3]
        metrics.incr("service.snapshots.evictions", reason=reason)


class _Session:
    """State shared by read and write sessions: one snapshot document,
    its index manager, one generation mark.

    A session object is **not** thread-safe — it belongs to the thread
    that opened it (the service itself is thread-safe and cheap to open
    sessions on).  Closing is idempotent; a closed session refuses
    further queries with :class:`~repro.errors.ServiceError`.
    """

    def __init__(self, service: "DocumentService", name: str,
                 document: GoddagDocument, manager: IndexManager,
                 generation: str | None) -> None:
        self._service = service
        self.name = name
        self.document = document
        self.manager = manager
        #: The stored index stamp this session's snapshot corresponds
        #: to (``None`` when the document was stored without an index).
        self.generation = generation
        self._open = True

    def _check_open(self) -> None:
        if not self._open:
            raise ServiceError(
                f"session on {self.name!r} is closed"
            )

    def query(self, expression: str, context: Node | None = None,
              variables: dict | None = None) -> XPathValue:
        """Evaluate an Extended XPath expression against this session's
        snapshot (index-served through the session's own manager; the
        compiled plan comes from the process-wide locked plan cache)."""
        self._check_open()
        return ExtendedXPath(expression).evaluate(
            self.document, context, variables
        )

    def is_current(self) -> bool:
        """True while no writer has published a newer generation."""
        self._check_open()
        metrics.incr("service.snapshot_checks")
        return self._service._generation(self.name) == self.generation

    def require_current(self) -> None:
        """Raise :class:`~repro.errors.SnapshotSupersededError` when a
        newer generation is stored.  The snapshot itself stays fully
        queryable either way — supersession is advice to re-open, not
        an invalidation."""
        self._check_open()
        metrics.incr("service.snapshot_checks")
        current = self._service._generation(self.name)
        if current != self.generation:
            metrics.incr("service.snapshots.superseded")
            raise SnapshotSupersededError(
                f"document {self.name!r} was republished after this "
                "session opened; re-open to see the new version",
                name=self.name, snapshot=self.generation or "",
                current=current or "",
            )

    def close(self) -> None:
        self._open = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReadSession(_Session):
    """A snapshot-isolated read view of one stored document.

    Readers at one generation share one frozen snapshot: the
    :attr:`document` and its :class:`~repro.index.manager.IndexManager`
    are cached by the service and handed to every read session opened
    while the stored generation is unchanged.  The document refuses
    mutation with :class:`~repro.errors.ReadOnlySnapshotError` — edit
    through a write session, which gets a private copy.  A read session
    keeps answering at its :attr:`generation` no matter how many
    writers publish after it opened.
    """

    def close(self) -> None:
        if self._open:
            metrics.incr("service.read_sessions.closed")
        super().close()


class WriteSession(_Session):
    """The single writer of one document, edits tracked, publish stamped.

    Holds the service's per-document write lock from open to close.
    Edits go through :attr:`editor` (an
    :class:`~repro.editing.Editor` over the session's private
    document, so every mutation lands in the delta journal); a clean
    ``with`` exit publishes via :meth:`publish` — the stamped,
    row-level :meth:`~repro.storage.GoddagStore.save_indexed` — while
    an exception discards the session without writing anything.
    """

    def __init__(self, service: "DocumentService", name: str,
                 document: GoddagDocument, manager: IndexManager,
                 generation: str | None, lock: threading.Lock,
                 prevalidate: bool = True) -> None:
        super().__init__(service, name, document, manager, generation)
        self._lock = lock
        self.editor = Editor(document, prevalidate=prevalidate)
        self.published = False

    def publish(self) -> str | None:
        """Persist the session's edits as one new stored generation.

        Atomic (one transaction brings document rows and index rows in
        step, with in-transaction stamp re-verification) and row-level
        (the delta journal's coalesced write set — an attribute-only
        session writes O(1) rows).  On success :attr:`generation`
        becomes the newly stored stamp and the session may keep
        editing toward another publish.  A racing writer from outside
        this service raises
        :class:`~repro.errors.WriteConflictError`; a database that
        stays locked past the bounded retries raises
        :class:`~repro.errors.StoreBusyError`.  Either way nothing was
        written and the session stays open.
        """
        self._check_open()
        with self._service._pool.connection() as backend:
            store = GoddagStore.over(backend)
            with metrics.time("service.publish"):
                store.save_indexed(
                    self.document, self.name, self.manager,
                    strict_stamp=True,
                )
            self.generation = backend.index_stamp(self.name)
        metrics.incr("service.publishes")
        self.published = True
        return self.generation

    def close(self) -> None:
        """Release the write lock without publishing (idempotent)."""
        if self._open:
            metrics.incr("service.write_sessions.closed")
            self._lock.release()
        super().close()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        try:
            if exc_type is None:
                self.publish()
        finally:
            self.close()


class DocumentService:
    """A thread-safe session layer over one WAL-mode document store.

        service = DocumentService("editions.db", pool_size=8)
        service.create(document, "hamlet")

        with service.read_session("hamlet") as session:   # any thread
            lines = session.query("//line")               # snapshot

        with service.write_session("hamlet") as session:  # one writer
            session.editor.insert_markup("physical", "seg", 10, 60)
            # publishes atomically on clean exit

    See the module docstring for the concurrency contract.  The
    ``location`` must be a database *file* (WAL mode and connection
    pooling are per-file by construction; ``:memory:`` is rejected at
    the pool).
    """

    def __init__(self, location: str | Path, *, pool_size: int = 8,
                 busy_timeout_ms: int = 5000,
                 lock_timeout_s: float = 30.0,
                 pool_timeout_s: float = 30.0) -> None:
        self.location = str(location)
        self.lock_timeout_s = lock_timeout_s
        self._pool = SqliteConnectionPool(
            self.location, pool_size, wal=True,
            busy_timeout_ms=busy_timeout_ms,
            acquire_timeout_s=pool_timeout_s,
        )
        self._write_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        self._corpus = None
        self._corpus_guard = threading.Lock()
        self._snapshots = _SnapshotCache()

    # -- plumbing ---------------------------------------------------------------

    @property
    def pool(self) -> SqliteConnectionPool:
        """The underlying connection pool (occupancy via ``pool.in_use``)."""
        return self._pool

    @property
    def corpus(self):
        """The collection-scale view over this service's store: a
        :class:`~repro.collection.Corpus` sharing the service's
        connection pool, so cross-document queries
        (``collection()//sp``) run against exactly the documents the
        sessions serve — including their routing summary, which every
        publish maintains as a delta."""
        with self._corpus_guard:
            if self._corpus is None:
                from ..collection import Corpus

                self._corpus = Corpus.over(self._pool)
            return self._corpus

    def collection_query(self, expression: str, *, routing: bool = True,
                         mode: str = "serial",
                         workers: int | None = None):
        """Run a cross-document ``collection()...`` query over every
        stored document (see :meth:`repro.collection.Corpus.query`)."""
        return self.corpus.query(
            expression, routing=routing, mode=mode, workers=workers
        )

    def _write_lock(self, name: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._write_locks.get(name)
            if lock is None:
                lock = self._write_locks[name] = threading.Lock()
            return lock

    def _generation(self, name: str) -> str | None:
        with self._pool.connection() as backend:
            return backend.index_stamp(name)

    def _snapshot(
        self, backend: SqliteStore, name: str
    ) -> tuple[GoddagDocument, str | None]:
        """A (document, generation) pair that is internally consistent:
        the stamp is re-probed after the load and the load retried when
        a writer published in between (publishes are one transaction,
        so equal stamps bracket an untouched row set)."""
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

    # -- document administration -------------------------------------------------

    def create(self, document: GoddagDocument, name: str,
               overwrite: bool = False) -> str | None:
        """Store and index ``document`` under ``name``; returns the new
        generation stamp.  ``overwrite=True`` replaces an existing
        document wholesale (take the write lock first — via
        :meth:`write_session` — if writers may be active on it)."""
        manager = document.index_manager
        if manager is None or manager.document is not document:
            manager = IndexManager(document)
        with self._pool.connection() as backend:
            GoddagStore.over(backend).save_indexed(
                document, name, manager, overwrite=overwrite
            )
            return backend.index_stamp(name)

    def delete(self, name: str) -> None:
        """Delete a stored document (under its write lock, so an active
        write session finishes first)."""
        lock = self._write_lock(name)
        if not lock.acquire(timeout=self.lock_timeout_s):
            raise WriteLockTimeoutError(
                f"write lock on {name!r} not released within "
                f"{self.lock_timeout_s:.1f}s"
            )
        try:
            with self._pool.connection() as backend:
                GoddagStore.over(backend).delete(name)
            self._snapshots.evict(name)
        finally:
            lock.release()

    def names(self) -> list[str]:
        with self._pool.connection() as backend:
            return backend.names()

    def has(self, name: str) -> bool:
        with self._pool.connection() as backend:
            return backend.has(name)

    # -- sessions ---------------------------------------------------------------

    def read_session(self, name: str) -> ReadSession:
        """Open a snapshot-isolated read session (see :class:`ReadSession`).

        One stamp probe finds the stored generation; a snapshot cached
        at that generation is served as is.  Otherwise the document is
        loaded (invariants checked), indexed, frozen and cached.  The
        database connection is borrowed only for the probe and the
        load; the returned session holds no pooled resources, so any
        number of read sessions may be open at once.
        """
        with self._pool.connection() as backend:
            generation = backend.index_stamp(name)
            cached = self._snapshots.get(name, generation)
            if cached is None:
                document, generation = self._snapshot(backend, name)
        if cached is None:
            manager = IndexManager(document).attach()
            document.freeze()
            cached = self._snapshots.put(name, generation, document, manager)
        document, manager = cached
        metrics.incr("service.read_sessions.opened")
        return ReadSession(self, name, document, manager, generation)

    def write_session(self, name: str, timeout: float | None = None,
                      prevalidate: bool = True) -> WriteSession:
        """Open the (single) write session for ``name``.

        Blocks up to ``timeout`` (default: the service's
        ``lock_timeout_s``) for the per-document write lock — waits are
        timed on ``service.lock_wait`` — then raises the typed
        :class:`~repro.errors.WriteLockTimeoutError`.  The session's
        manager starts delta accounting against the stored artifact at
        open, so its eventual publish is a row-level patch, and the
        publish verifies the artifact generation in-transaction (see
        :meth:`WriteSession.publish`).
        """
        lock = self._write_lock(name)
        with metrics.time("service.lock_wait"):
            acquired = lock.acquire(
                timeout=self.lock_timeout_s if timeout is None else timeout
            )
        if not acquired:
            raise WriteLockTimeoutError(
                f"write lock on {name!r} not released within "
                f"{(self.lock_timeout_s if timeout is None else timeout):.1f}s"
            )
        try:
            with self._pool.connection() as backend:
                document, generation = self._snapshot(backend, name)
            manager = IndexManager(document).attach()
            # The stored artifact is exactly this manager's state (a
            # publish writes document and index in one stamped
            # transaction), so delta accounting can start here: the
            # session's publish row-patches instead of rewriting.
            manager.mark_persisted(
                ("sqlite", self.location, name, generation)
            )
            session = WriteSession(
                self, name, document, manager, generation, lock,
                prevalidate=prevalidate,
            )
        except BaseException:
            lock.release()
            raise
        metrics.incr("service.write_sessions.opened")
        return session

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        self._snapshots.clear()
        with self._corpus_guard:
            if self._corpus is not None:
                self._corpus.close()  # executors only; the pool is ours
                self._corpus = None
        self._pool.close()

    def __enter__(self) -> "DocumentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = ["DocumentService", "ReadSession", "WriteSession"]
