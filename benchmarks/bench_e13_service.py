"""E13 — concurrent document-service traffic.

Many-client traffic against one :class:`repro.service.DocumentService`
over a WAL-mode database file: a reader-thread sweep (1, 4, 8 readers)
each running the query mix through snapshot-isolated read sessions
while one writer continuously edits and publishes.  For every thread
count the bench reports

* read-session latency (open + query mix + close) p50 / p99,
* publish latency p50 / p99 and the publish count,
* total read sessions served,

and enforces the correctness bars on the very same traffic: every
sampled answer byte-identical to a single-threaded unindexed witness of
its generation, every thread joined within the bound (zero deadlocks,
zero stray exceptions, zero lock timeouts).

Run standalone for the report table::

    PYTHONPATH=src python benchmarks/bench_e13_service.py

or through pytest (the assertions are the acceptance bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_e13_service.py -q
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from pathlib import Path

from repro import DocumentService
from repro.errors import EditError, MarkupConflictError
from repro.workloads import WorkloadSpec, generate
from repro.xpath import ExtendedXPath

#: Reader-thread sweep; the top count is the acceptance bar's
#: ">= 8 concurrent readers + 1 writer".
THREADS = (1, 4, 8)

#: Generations the writer publishes per sweep point.
PUBLISHES = 12

WORDS = 400

SPEC = WorkloadSpec(words=WORDS, hierarchies=2, overlap_density=0.3, seed=13)

#: The per-session query mix: one scan, one text predicate, one
#: cross-hierarchy axis — the service's expected read shapes.
QUERY_MIX = [ExtendedXPath(expression) for expression in (
    "//w",
    "//line[@n='2']",
    "//w[contains(., 'ar')]",
    "//line/contained::w",
    "count(//seg)",
)]

EDIT_TAGS = ("seg", "note", "mark")

JOIN_TIMEOUT_S = 120


def _snapshot(value):
    if not isinstance(value, list):
        return value
    return [
        (node.hierarchy, node.tag, node.start, node.end,
         tuple(sorted(node.attributes.items())))
        if getattr(node, "is_element", False)
        else (type(node).__name__.lower(), node.start, node.end)
        for node in value
    ]


def _witness(document) -> dict[str, object]:
    return {
        query.expression: _snapshot(query.evaluate(document, index=False))
        for query in QUERY_MIX
    }


def _edit(editor, rng) -> None:
    length = editor.document.length
    hierarchies = editor.document.hierarchy_names()
    try:
        if rng.random() < 0.6:
            a, b = rng.randrange(length + 1), rng.randrange(length + 1)
            editor.insert_markup(rng.choice(hierarchies),
                                 rng.choice(EDIT_TAGS), min(a, b), max(a, b))
        else:
            elements = list(editor.document.elements())
            if elements:
                editor.set_attribute(rng.choice(elements), "n",
                                     str(rng.randrange(50)))
    except (MarkupConflictError, EditError):
        pass


def drive(readers: int, directory: Path, seed: int = 13) -> dict:
    """One sweep point: ``readers`` reader threads + 1 writer."""
    with DocumentService(directory / f"svc-{readers}.db",
                         pool_size=max(4, readers)) as service:
        base = generate(SPEC)
        witness = {service.create(base, "doc"): _witness(base)}

        read_latencies: list[float] = []
        publish_latencies: list[float] = []
        sampled: list[tuple] = []
        collect = threading.Lock()
        errors: list[BaseException] = []
        done = threading.Event()
        start = threading.Barrier(readers + 1)

        def writing():
            rng = random.Random(seed)
            try:
                start.wait(timeout=30)
                for _ in range(PUBLISHES):
                    # Not a ``with`` block: a clean exit would publish a
                    # second, witness-less generation right after the
                    # timed one, and readers fast enough to open inside
                    # that window would be checked against nothing.
                    session = service.write_session("doc")
                    try:
                        for _ in range(rng.randrange(1, 3)):
                            _edit(session.editor, rng)
                        t0 = time.perf_counter()
                        session.publish()
                        publish_latencies.append(time.perf_counter() - t0)
                    finally:
                        session.close()
                    witness[session.generation] = _witness(session.document)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def reading(reader_seed: int):
            rng = random.Random(reader_seed)
            mine: list[float] = []
            checks: list[tuple] = []
            try:
                start.wait(timeout=30)
                while True:
                    last_round = done.is_set()
                    t0 = time.perf_counter()
                    with service.read_session("doc") as session:
                        answers = [
                            (session.generation, query.expression,
                             _snapshot(session.query(query.expression)))
                            for query in QUERY_MIX
                        ]
                    mine.append(time.perf_counter() - t0)
                    checks.append(rng.choice(answers))
                    if last_round:
                        break
                with collect:
                    read_latencies.extend(mine)
                    sampled.extend(checks)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writing)]
        threads += [threading.Thread(target=reading, args=(seed * 100 + n,))
                    for n in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        stuck = sum(thread.is_alive() for thread in threads)

        mismatches = [
            (generation, expression)
            for generation, expression, answer in sampled
            if answer != witness.get(generation, {}).get(expression)
        ]
        return {
            "readers": readers,
            "publishes": len(publish_latencies),
            "sessions": len(read_latencies),
            "read_latencies": read_latencies,
            "publish_latencies": publish_latencies,
            "generations": len(witness),
            "checked": len(sampled),
            "mismatches": mismatches,
            "errors": errors,
            "stuck_threads": stuck,
        }


def run_all(directory: Path) -> list[dict]:
    return [drive(readers, directory) for readers in THREADS]


def report(rows: list[dict]) -> str:
    from repro.obs.benchjson import percentile

    lines = [
        f"E13 — service traffic: reader sweep + 1 writer "
        f"({WORDS} words, {PUBLISHES} publishes, {len(QUERY_MIX)} queries "
        "per session)",
        f"{'readers':>7} {'sessions':>8} {'read p50':>10} {'read p99':>10} "
        f"{'pub p50':>10} {'pub p99':>10} {'checked':>8}",
    ]
    for row in rows:
        reads = row["read_latencies"]
        publishes = row["publish_latencies"]
        lines.append(
            f"{row['readers']:>7} {row['sessions']:>8} "
            f"{percentile(reads, 0.5) * 1e3:>8.2f}ms "
            f"{percentile(reads, 0.99) * 1e3:>8.2f}ms "
            f"{percentile(publishes, 0.5) * 1e3:>8.2f}ms "
            f"{percentile(publishes, 0.99) * 1e3:>8.2f}ms "
            f"{row['checked']:>8}"
        )
    return "\n".join(lines)


def emit_json(rows: list[dict]) -> None:
    from _emit import emit
    from repro.obs.benchjson import percentile, scenario

    scenarios = []
    for row in rows:
        scenarios.append(scenario(
            f"read-session:readers={row['readers']}", WORDS,
            row["read_latencies"],
            p50_s=percentile(row["read_latencies"], 0.5),
            p99_s=percentile(row["read_latencies"], 0.99),
            sessions=row["sessions"],
        ))
        scenarios.append(scenario(
            f"publish:readers={row['readers']}", WORDS,
            row["publish_latencies"],
            p50_s=percentile(row["publish_latencies"], 0.5),
            p99_s=percentile(row["publish_latencies"], 0.99),
            publishes=row["publishes"],
        ))
    emit("e13_service", scenarios)


def check(rows: list[dict]) -> None:
    """The acceptance bars, shared by pytest and standalone runs."""
    for row in rows:
        label = f"readers={row['readers']}"
        assert row["stuck_threads"] == 0, (
            f"{label}: {row['stuck_threads']} threads never joined "
            "(deadlock)")
        assert not row["errors"], f"{label}: {row['errors']}"
        assert row["publishes"] == PUBLISHES, label
        assert row["generations"] == PUBLISHES + 1, label
        assert row["sessions"] >= row["readers"], label
        assert row["checked"] > 0, label
        assert not row["mismatches"], (
            f"{label}: answers diverged from the single-threaded witness: "
            f"{row['mismatches'][:5]}")


def test_e13_service_traffic():
    """>= 8 concurrent readers + 1 writer: byte-identical answers, zero
    deadlocks, zero timeouts, latency recorded against the baseline."""
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    print("\n" + report(rows))
    emit_json(rows)
    check(rows)
    assert max(row["readers"] for row in rows) >= 8


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = run_all(Path(tmp))
    print(report(rows))
    emit_json(rows)
    check(rows)
