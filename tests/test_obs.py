"""The observability subsystem: tracer, metrics, stats shim, fallbacks.

Drift capture and ``explain(analyze=True)`` have their own module
(``tests/test_obs_drift.py``); this one covers the plumbing — span
nesting and export, registry semantics (including the no-op default),
the unified ``repro-stats/1`` envelope with its deprecation shim, the
reason-coded fallback metrics, and strict-mode warnings.
"""

from __future__ import annotations

import json
import warnings

import pytest

import repro.obs as obs
from repro.core.goddag import GoddagBuilder
from repro.editing import Editor
from repro.index import IndexManager
from repro.obs.benchjson import compare, load, scenario, write_bench_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import DeprecatedKeyDict, stats_dict
from repro.obs.trace import Tracer
from repro.storage import GoddagStore
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with observation off and empty."""
    obs.reset()
    obs.disable()
    yield
    obs.reset()
    obs.disable()


def build_document():
    builder = GoddagBuilder("the quick brown fox jumps over the lazy dog")
    builder.add_hierarchy("physical")
    builder.add_hierarchy("linguistic")
    builder.add_annotation("physical", "line", 0, 19)
    builder.add_annotation("physical", "line", 20, 43)
    builder.add_annotation("linguistic", "s", 4, 25)
    return builder.build()


class TestTracer:
    def test_span_nesting_follows_the_call_stack(self):
        tracer = Tracer()
        with tracer.span("query", expression="//w"):
            with tracer.span("step"):
                pass
            with tracer.span("step"):
                with tracer.span("access-path"):
                    pass
        assert [s.name for s in tracer.walk()] == [
            "query", "step", "step", "access-path"]
        (query,) = tracer.roots
        assert query.attributes["expression"] == "//w"
        assert len(query.children) == 2
        assert query.duration_ns >= sum(
            child.duration_ns for child in query.children)

    def test_jsonl_export_parent_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        lines = [json.loads(line) for line in
                 tracer.export_jsonl().splitlines()]
        by_name = {line["name"]: line for line in lines}
        assert by_name["a"]["parent_id"] is None
        assert by_name["b"]["parent_id"] == by_name["a"]["id"]
        assert by_name["c"]["parent_id"] is None

    def test_span_cap_counts_drops_instead_of_growing(self):
        tracer = Tracer(max_spans=3)
        with tracer.span("root"):
            for _ in range(10):
                with tracer.span("child") as span:
                    span.set(ok=True)  # usable even when dropped
        assert len(list(tracer.walk())) == 3
        assert tracer.dropped == 8

    def test_tracing_context_installs_and_restores(self):
        from repro.obs import current_tracer, tracing

        assert current_tracer() is None
        with tracing() as outer:
            assert current_tracer() is outer
            with tracing() as inner:
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None


class TestMetricsRegistry:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry()
        registry.incr("a")
        registry.observe("b", 1.0)
        registry.record_ns("c", 100)
        registry.gauge("d", 5.0)
        snap = registry.snapshot()
        assert snap["counters"] == {} and snap["gauges"] == {}
        assert snap["timers"] == {} and snap["histograms"] == {}

    def test_gauge_keeps_the_last_value(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("cache.elements", 10)
        registry.gauge("cache.elements", 4)
        assert registry.snapshot()["gauges"] == {"cache.elements": 4}
        registry.reset()
        assert registry.snapshot()["gauges"] == {}

    def test_reason_coded_counters(self):
        registry = MetricsRegistry(enabled=True)
        registry.incr("index.rebuilds", reason="backlog")
        registry.incr("index.rebuilds", reason="journal-gap")
        counters = registry.snapshot()["counters"]
        assert counters["index.rebuilds"] == 2
        assert counters["index.rebuilds.backlog"] == 1
        assert counters["index.rebuilds.journal-gap"] == 1

    def test_timer_and_histogram_distributions(self):
        registry = MetricsRegistry(enabled=True)
        with registry.time("t"):
            pass
        registry.observe("h", 4.0)
        registry.observe("h", 8.0)
        snap = registry.snapshot()
        assert snap["timers"]["t"]["count"] == 1
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2 and hist["min"] == 4.0 and hist["max"] == 8.0
        assert hist["buckets"] == {"2": 1, "3": 1}

    def test_report_merges_metrics_and_drift(self):
        obs.enable()
        obs.metrics.incr("x")
        report = obs.report()
        assert report["schema"] == "repro-obs-report/1"
        assert report["metrics"]["counters"]["x"] == 1
        assert report["drift"]["capacity"] == obs.ring.capacity


class TestStatsEnvelope:
    def test_stats_dict_shape(self):
        stats = stats_dict("index.manager", {"index.builds": 1}, extra=7)
        assert stats["schema"] == "repro-stats/1"
        assert stats["source"] == "index.manager"
        assert stats["counts"]["index.builds"] == 1
        assert stats["extra"] == 7

    def test_legacy_key_warns_and_resolves(self):
        stats = DeprecatedKeyDict(
            {"counts": {"index.builds": 3}},
            aliases={"builds": ("counts", "index.builds")},
        )
        with pytest.warns(DeprecationWarning, match="counts.index.builds"):
            assert stats["builds"] == 3
        assert "builds" in stats
        with pytest.warns(DeprecationWarning):
            assert stats.get("builds") == 3
        assert stats.get("missing", "default") == "default"
        # Real keys answer silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stats["counts"] == {"index.builds": 3}

    def test_all_three_producers_share_the_envelope(self, tmp_path):
        document = generate(WorkloadSpec(words=60, hierarchies=2, seed=9))
        manager = IndexManager.for_document(document)
        plan = ExtendedXPath("//w").explain(document)
        with GoddagStore(tmp_path / "s.sqlite") as store:
            store.save(document, "d")
            store_stats = store.stats("d")
        for stats, source in ((manager.stats(), "index.manager"),
                              (plan.stats(), "xpath.plan"),
                              (store_stats, "storage.store")):
            assert stats["schema"] == "repro-stats/1"
            assert stats["source"] == source
            assert all(isinstance(v, (int, float))
                       for v in stats["counts"].values())


class TestFallbackReasonCodes:
    def test_index_rebuild_reasons_reach_the_metrics(self):
        obs.enable()
        document = build_document()
        manager = IndexManager(document)
        assert manager.last_rebuild_reason == "first-build"
        # Push the journal past the delta threshold: 'backlog'.
        editor = Editor(document, prevalidate=False)
        manager.delta_threshold = 2
        for offset in range(4):
            editor.insert_milestone("physical", "anchor", offset)
        manager.refresh()
        assert manager.last_rebuild_reason == "backlog"
        # An untracked touch voids the journal: 'journal-gap'.
        editor.insert_milestone("physical", "anchor", 5)
        document.touch()
        manager.refresh()
        assert manager.last_rebuild_reason == "journal-gap"
        counters = obs.metrics.snapshot()["counters"]
        assert counters["index.rebuilds.first-build"] == 1
        assert counters["index.rebuilds.backlog"] == 1
        assert counters["index.rebuilds.journal-gap"] == 1
        assert counters["index.rebuilds"] == 3

    def test_strict_mode_warns_on_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_STRICT", "1")
        document = build_document()
        manager = IndexManager(document)
        manager.delta_threshold = 1
        editor = Editor(document, prevalidate=False)
        for offset in range(3):
            editor.insert_milestone("physical", "anchor", offset)
        with pytest.warns(RuntimeWarning, match="backlog"):
            manager.refresh()

    def test_storage_full_rewrite_reason_codes(self, tmp_path, monkeypatch):
        obs.enable()
        document = build_document()
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "s.sqlite") as store:
            store.save_indexed(document, "d", manager)
            # Session save over own artifact: row-level, no fallback.
            Editor(document).set_attribute(
                next(document.elements()), "n", "1")
            store.save_indexed(document, "d", manager)
            counters = obs.metrics.snapshot()["counters"]
            assert counters["storage.row_level_saves"] == 1
            assert counters["storage.stamp_checks"] == 1
            assert "storage.full_rewrites" not in counters
            # A foreign manager (fresh, never persisted here) has no
            # deltas for this artifact: reason-coded full rewrite.
            foreign = IndexManager(document)
            monkeypatch.setenv("REPRO_OBS_STRICT", "1")
            with pytest.warns(RuntimeWarning, match="stale-deltas"):
                store.save_indexed(document, "d", foreign, overwrite=True)
            counters = obs.metrics.snapshot()["counters"]
            assert counters["storage.full_rewrites.stale-deltas"] == 1

    def test_journal_and_coalesce_metrics_flow(self, tmp_path):
        obs.enable()
        document = build_document()
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "s.sqlite") as store:
            store.save_indexed(document, "d", manager)
            editor = Editor(document)
            element = next(document.elements())
            for value in "0123":
                editor.set_attribute(element, "n", value)
            store.save_indexed(document, "d", manager)
        snap = obs.metrics.snapshot()
        assert snap["counters"]["journal.records"] == 4
        assert snap["histograms"]["journal.depth"]["count"] == 4
        # Four attribute edits of one element coalesce to one row write.
        assert snap["counters"]["journal.coalesce.records"] == 4
        assert snap["counters"]["journal.coalesce.row_writes"] == 1
        assert snap["histograms"]["journal.coalesce.fold_ratio"]["max"] == 4.0
        assert snap["counters"]["storage.rows_upserted"] == 1
        assert snap["timers"]["storage.save"]["count"] == 2


class TestSaveTracing:
    def test_save_indexed_emits_the_storage_span_chain(self, tmp_path):
        document = build_document()
        manager = IndexManager.for_document(document)
        with GoddagStore(tmp_path / "s.sqlite") as store:
            store.save_indexed(document, "d", manager)
            Editor(document).set_attribute(
                next(document.elements()), "n", "1")
            with obs.tracing() as tracer:
                store.save_indexed(document, "d", manager)
        names = [span.name for span in tracer.walk()]
        assert names == ["save", "transaction", "coalesce"]
        (transaction,) = tracer.find("transaction")
        assert transaction.attributes["row_level"] is True
        (coalesce,) = tracer.find("coalesce")
        assert coalesce.attributes["row_writes"] == 1


class TestBenchJson:
    def test_write_load_compare_roundtrip(self, tmp_path):
        baseline = write_bench_json(tmp_path, "demo", [
            scenario("q", 100, [1.0, 1.1, 1.2], extra_info="x"),
            scenario("r", 100, [2.0, 2.0, 2.0]),
        ])
        current = write_bench_json(tmp_path / "..", "demo2", [
            scenario("q", 100, [1.5, 1.6, 1.4]),   # +36%: regression
            scenario("r", 100, [0.5, 0.5, 0.5]),   # -75%: improvement
            scenario("new", 200, [1.0]),           # unmatched
        ])
        assert baseline.name == "BENCH_demo.json"
        result = compare(load(baseline), load(current))
        assert [r["scenario"] for r in result["regressions"]] == ["q"]
        assert [r["scenario"] for r in result["improvements"]] == ["r"]
        assert result["matched"] == 2
        assert result["unmatched"] == [{"scenario": "new", "size": 200}]

    def test_load_rejects_foreign_schema(self, tmp_path):
        bogus = tmp_path / "BENCH_x.json"
        bogus.write_text('{"schema": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="repro-bench/1"):
            load(bogus)

    def test_percentiles(self):
        from repro.obs.benchjson import percentile

        assert percentile([3.0], 0.9) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        assert percentile([1.0, 2.0], 0.9) == pytest.approx(1.9)
