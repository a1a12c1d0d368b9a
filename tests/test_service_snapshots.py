"""The service's shared read snapshots.

:meth:`repro.service.DocumentService.read_session` serves one frozen
document and index manager per ``(name, generation)``, cached in an LRU
bounded by element count.  These tests pin the contract down:

* a frozen snapshot refuses every mutation with the typed
  :class:`~repro.errors.ReadOnlySnapshotError` and changes nothing,
  while write sessions keep their private, mutable copy;
* every way of writing a document — publish, overwrite, delete and
  create, corpus ingest, a second service on the same file, plain saves
  without a stamp — makes the next read session see the new generation,
  answering exactly like an unindexed evaluation;
* an open at an unchanged generation reuses the cached snapshot
  without loading anything;
* the cache's counters, gauge, element budget, ``delete`` eviction and
  ``close`` clearing.
"""

from __future__ import annotations

import pytest

import repro.service.service as service_module
from repro import DocumentService, Editor
from repro.errors import ReadOnlySnapshotError
from repro.obs.metrics import metrics
from repro.serialize.distributed import export_distributed
from repro.storage import GoddagStore
from repro.storage.sqlite_backend import SqliteStore
from repro.workloads import WorkloadSpec, generate

from test_index_incremental import QUERIES, snapshot

SPEC = WorkloadSpec(words=110, hierarchies=2, overlap_density=0.3, seed=77)


@pytest.fixture
def service(tmp_path):
    with DocumentService(tmp_path / "svc.db", pool_size=2,
                         lock_timeout_s=5.0) as svc:
        yield svc


@pytest.fixture
def loads(monkeypatch):
    """Names passed to ``SqliteStore.load``, in call order."""
    calls: list[str] = []
    real = SqliteStore.load

    def counting(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(SqliteStore, "load", counting)
    return calls


@pytest.fixture
def observed():
    metrics.reset()
    metrics.enable()
    yield metrics
    metrics.disable()
    metrics.reset()


def _answers(session) -> dict:
    return {q.expression: snapshot(session.query(q.expression))
            for q in QUERIES}


def _unindexed(document) -> dict:
    return {q.expression: snapshot(q.evaluate(document, index=False))
            for q in QUERIES}


def _assert_serves(service, name, generation, expected, stale=None):
    """The next read session is at ``generation``, is not the ``stale``
    snapshot, and answers like an unindexed evaluation of
    ``expected``."""
    with service.read_session(name) as session:
        assert session.generation == generation
        assert session.document is not stale
        assert _answers(session) == _unindexed(expected)
        return session.document


def _edited(tag="seg"):
    """The seed document with one extra ``tag`` element."""
    document = generate(SPEC)
    document.insert_element(document.hierarchy_names()[0], tag, 2, 9)
    return document


def _created_and_read(service):
    """Create ``doc``, open it once; returns the cached snapshot."""
    generation = service.create(generate(SPEC), "doc")
    return _assert_serves(service, "doc", generation, generate(SPEC))


# -- frozen snapshots ---------------------------------------------------------


def _first_with_attributes(document):
    return next(e for e in document.elements() if e.attributes)


MUTATIONS = {
    "add_hierarchy": lambda d: d.add_hierarchy("extra"),
    "insert_element": lambda d: d.insert_element(
        d.hierarchy_names()[0], "seg", 1, 9),
    "insert_empty_element": lambda d: d.insert_empty_element(
        d.hierarchy_names()[0], "anchor", 3),
    "remove_element": lambda d: d.remove_element(next(d.elements())),
    "set_attribute": lambda d: d.set_attribute(
        _first_with_attributes(d), "n", "new-value"),
    "remove_attribute": lambda d: d.remove_attribute(
        _first_with_attributes(d), next(iter(_first_with_attributes(d)
                                             .attributes))),
    "touch": lambda d: d.touch(),
    "attach_index": lambda d: d.attach_index(None),
    "detach_index": lambda d: d.detach_index(),
}


def _state(document) -> tuple:
    return (
        document.version,
        document.element_count(),
        tuple(document.spans.boundaries),
        tuple(document.hierarchy_names()),
        document.index_manager,
        tuple((e.ordinal, e.start, e.end, tuple(sorted(e.attributes.items())))
              for e in document.elements()),
    )


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutator_refuses_a_read_snapshot(service, mutation):
    service.create(generate(SPEC), "doc")
    with service.read_session("doc") as session:
        document = session.document
        assert document.frozen
        before_state = _state(document)
        before_answers = _answers(session)
        with pytest.raises(ReadOnlySnapshotError):
            MUTATIONS[mutation](document)
        assert _state(document) == before_state
        assert _answers(session) == before_answers
    with service.read_session("doc") as again:
        assert again.document is document
        assert _answers(again) == before_answers


def test_editor_over_a_read_snapshot_refuses_edits(service):
    service.create(generate(SPEC), "doc")
    with service.read_session("doc") as session:
        document = session.document
        before = _answers(session)
        editor = Editor(document)
        hierarchy = document.hierarchy_names()[0]
        element = _first_with_attributes(document)
        for edit in (
            lambda: editor.insert_markup(hierarchy, "seg", 1, 9),
            lambda: editor.insert_milestone(hierarchy, "anchor", 3),
            lambda: editor.remove_markup(element),
            lambda: editor.set_attribute(element, "n", "new-value"),
            lambda: editor.remove_attribute(
                element, next(iter(element.attributes))),
        ):
            with pytest.raises(ReadOnlySnapshotError):
                edit()
        assert editor.transcript() == []
        assert _answers(session) == before


def test_write_session_still_edits_and_publishes(service):
    service.create(generate(SPEC), "doc")
    with service.read_session("doc") as reader:
        before = _answers(reader)
        with service.write_session("doc") as writer:
            assert writer.document is not reader.document
            assert not writer.document.frozen
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "seg", 1, 9)
        assert _answers(reader) == before
    _assert_serves(service, "doc", writer.generation, writer.document,
                   stale=reader.document)


# -- invalidation over every writer -------------------------------------------


def test_same_generation_reuses_the_snapshot_without_loading(service, loads):
    generation = service.create(generate(SPEC), "doc")
    with service.read_session("doc") as first:
        pass
    assert loads == ["doc"]
    with service.read_session("doc") as second:
        assert second.generation == generation
        assert second.document is first.document
        assert second.manager is first.manager
    assert loads == ["doc"]


def test_publish_invalidates(service, loads):
    stale = _created_and_read(service)
    with service.write_session("doc") as writer:
        writer.editor.insert_markup(
            writer.document.hierarchy_names()[0], "seg", 1, 9)
    _assert_serves(service, "doc", writer.generation, writer.document,
                   stale=stale)
    assert loads.count("doc") == 3  # first read, the writer, next read


def test_overwriting_create_invalidates(service):
    stale = _created_and_read(service)
    replacement = _edited()
    generation = service.create(replacement, "doc", overwrite=True)
    _assert_serves(service, "doc", generation, replacement, stale=stale)


def test_delete_then_create_invalidates(service):
    stale = _created_and_read(service)
    service.delete("doc")
    replacement = _edited(tag="note")
    generation = service.create(replacement, "doc")
    _assert_serves(service, "doc", generation, replacement, stale=stale)


def test_corpus_add_on_the_service_pool_invalidates(service):
    stale = _created_and_read(service)
    replacement = _edited()
    generation = service.corpus.add(replacement, "doc", overwrite=True)
    _assert_serves(service, "doc", generation, replacement, stale=stale)


def test_corpus_add_streams_on_the_service_pool_invalidates(service):
    stale = _created_and_read(service)
    replacement = _edited()
    stamps = service.corpus.add_streams(
        [(export_distributed(replacement), "doc")], overwrite=True)
    _assert_serves(service, "doc", stamps["doc"], replacement, stale=stale)


def test_second_service_on_the_same_file_invalidates(tmp_path):
    path = tmp_path / "svc.db"
    with DocumentService(path) as ours, DocumentService(path) as theirs:
        stale = _created_and_read(ours)
        with theirs.write_session("doc") as writer:
            writer.editor.insert_markup(
                writer.document.hierarchy_names()[0], "seg", 1, 9)
        _assert_serves(ours, "doc", writer.generation, writer.document,
                       stale=stale)


def test_unstamped_generations_are_never_cached(service, loads):
    stale = _created_and_read(service)
    replacement = _edited()
    with service.pool.connection() as backend:
        GoddagStore.over(backend).save(replacement, "doc", overwrite=True)
    loads.clear()
    # A plain save stores no index: the stamp is None, every open loads.
    first = _assert_serves(service, "doc", None, replacement, stale=stale)
    second = _assert_serves(service, "doc", None, replacement, stale=first)
    assert loads == ["doc", "doc"]
    # An index written outside a session carries the empty stamp.
    with service.pool.connection() as backend:
        GoddagStore.over(backend).build_index("doc")
    loads.clear()
    third = _assert_serves(service, "doc", "", replacement, stale=second)
    _assert_serves(service, "doc", "", replacement, stale=third)
    assert loads.count("doc") == 2


# -- lifecycle, budget and observability --------------------------------------


def test_cache_counters_gauge_and_lifecycle(service, observed):
    document = generate(SPEC)
    size = document.element_count()
    service.create(document, "doc")
    service.create(generate(SPEC), "other")
    with service.read_session("doc"):
        pass
    with service.read_session("doc"):
        pass
    with service.read_session("other"):
        pass
    assert observed.counter("service.snapshots.misses") == 2
    assert observed.counter("service.snapshots.hits") == 1
    gauges = observed.snapshot()["gauges"]
    assert gauges["service.snapshots.elements"] == 2 * size

    service.delete("other")
    assert observed.counter("service.snapshots.evictions.delete") == 1
    assert observed.snapshot()["gauges"]["service.snapshots.elements"] == size

    with service.write_session("doc") as writer:
        writer.editor.insert_markup(
            writer.document.hierarchy_names()[0], "seg", 1, 9)
    with service.read_session("doc"):
        pass
    assert observed.counter("service.snapshots.evictions.stale") == 1
    assert observed.counter("service.snapshots.misses") == 3
    assert observed.snapshot()["gauges"]["service.snapshots.elements"] \
        == size + 1

    service.close()
    assert observed.snapshot()["gauges"]["service.snapshots.elements"] == 0
    assert observed.counter("service.snapshots.evictions") == 2


def test_element_budget_evicts_least_recently_used(tmp_path, monkeypatch,
                                                   observed, loads):
    size = generate(SPEC).element_count()
    monkeypatch.setattr(service_module, "SNAPSHOT_CACHE_ELEMENTS",
                        2 * size + 1)
    with DocumentService(tmp_path / "svc.db") as service:
        for name in ("a", "b", "c"):
            service.create(generate(SPEC), name)
        for name in ("a", "b", "a", "c"):  # c evicts b, the LRU entry
            with service.read_session(name):
                pass
        assert observed.counter("service.snapshots.evictions.budget") == 1
        assert observed.snapshot()["gauges"]["service.snapshots.elements"] \
            == 2 * size
        loads.clear()
        for name in ("a", "c", "b"):
            with service.read_session(name):
                pass
        assert loads == ["b"]


def test_snapshot_over_the_whole_budget_is_served_uncached(
        tmp_path, monkeypatch, loads):
    size = generate(SPEC).element_count()
    monkeypatch.setattr(service_module, "SNAPSHOT_CACHE_ELEMENTS", size - 1)
    with DocumentService(tmp_path / "svc.db") as service:
        service.create(generate(SPEC), "doc")
        with service.read_session("doc") as first:
            assert first.document.frozen
        with service.read_session("doc") as second:
            assert second.document is not first.document
        assert loads == ["doc", "doc"]
