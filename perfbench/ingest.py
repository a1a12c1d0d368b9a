"""ingest: large-manuscript ingest, batch and streaming on the same input.

Input: 2 manuscripts of 8k words with all 6 hierarchies (about 470 KB of
distributed XML each).  One closed-loop client alternates the two write
paths on the same sources into one sqlite store, ``overwrite=True``:

* batch: ``parse_concurrent`` then ``GoddagStore.save_indexed``;
* streaming: ``GoddagStore.save_stream``.

After every ingest, outside its timed region, the stored rows of the
manuscript are digested; both paths must leave identical rows, equal to
those the setup stored.  Setup stores each manuscript once through the
batch path, so every timed ingest replaces a stored manuscript.

The streaming path's own peak RSS is measured once per run in a forked
child (``ru_maxrss`` is a process high-water mark that never resets, so
only a fresh process isolates one call), before the parent grows.
"""

from __future__ import annotations

import os
import resource
import sqlite3
import time
import traceback

from common import (Ops, Probe, checkpoint, digest, end_to_end, host_facts,
                    plan_cache_limit, remove_store, settle)
from inputs import ROSTER, manuscript, source_bytes

MANUSCRIPTS = 2
WORDS = 8000
DENSITY = 0.2
SETUP_REPETITIONS = 3

#: Stored columns that must match between the two paths (``doc_id`` and
#: the generation stamp differ by construction).
_TABLES = {
    "hierarchies": "rank, name, dtd_source",
    "elements": "elem_id, hierarchy, tag, start, end, parent_id,"
                " child_rank, attributes",
    "index_meta": "format, doc_length",
    "index_paths": "hierarchy, path, tag, n, spans",
    "index_terms": "term, starts",
    "index_attrs": "name, value, n, spans",
    "index_overlap": "hierarchy, tag, start, end",
    "collection_summary": "kind, key, n",
}


def stored_digest(conn: sqlite3.Connection, name: str) -> str:
    (doc_id, root_tag, text, root_attributes), = conn.execute(
        "SELECT doc_id, root_tag, text, root_attributes FROM documents"
        " WHERE name = ?", (name,))
    rows = {"documents": (root_tag, text, root_attributes)}
    for table, columns in _TABLES.items():
        rows[table] = sorted(conn.execute(
            f"SELECT {columns} FROM {table} WHERE doc_id = ?", (doc_id,)))
    return digest(rows)


def stream_peak_rss_mb(path, sources) -> float:
    """Peak RSS growth of one streaming ingest, in a forked child."""
    from repro import GoddagStore

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: ingest, report, exit without cleanup handlers
        code = 1
        try:
            os.close(read_end)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            with GoddagStore(path) as store:
                store.save_stream(sources, "probe")
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            os.write(write_end, str((after - before) / 1024.0).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError("the streaming-ingest RSS probe failed")
    return float(payload)


def run(ctx) -> dict:
    from repro import GoddagStore, IndexManager, parse_concurrent

    names = [f"ms{m}" for m in range(MANUSCRIPTS)]
    sources = [manuscript(WORDS, ROSTER, DENSITY, ctx.seed * 10 + m)
               for m in range(MANUSCRIPTS)]
    total_source_bytes = sum(source_bytes(s) for s in sources)

    ops = Ops()
    ops.attempt()
    try:
        stream_rss_mb = stream_peak_rss_mb(ctx.workdir / "probe.db",
                                           sources[0])
    except Exception:  # counted, reported, and the run goes on
        ops.fail("stream_rss_probe")
        stream_rss_mb = 0.0

    def batch(store, m: int) -> None:
        document = parse_concurrent(sources[m])
        store.save_indexed(document, names[m], IndexManager(document),
                           overwrite=True)

    probe = Probe()
    setup = []
    store = None
    for repetition in range(SETUP_REPETITIONS):
        if store is not None:
            store.close()
            remove_store(path)
        path = ctx.workdir / f"ingest-{repetition}.db"
        pieces = []
        t0 = time.perf_counter()
        store = GoddagStore(path)
        for m in range(MANUSCRIPTS):
            batch(store, m)
            pieces.append((time.perf_counter() - t0, probe.run(3)))
            t0 = time.perf_counter()
        setup.append(pieces)
    facts = checkpoint(str(path))
    reader = sqlite3.connect(str(path))
    expected = [stored_digest(reader, name) for name in names]

    batch_samples: list[tuple] = []
    stream_samples: list[tuple] = []
    main_traced: list[tuple] = []
    main_untraced: list[tuple] = []
    traced_ops = 0

    def ingest(path_name: str, m: int, traced: bool, samples: list) -> None:
        ops.attempt()
        try:
            with ctx.operation(traced):
                t0 = time.perf_counter()
                if path_name == "batch":
                    batch(store, m)
                else:
                    store.save_stream(sources[m], names[m], overwrite=True)
                elapsed = (time.perf_counter() - t0) * 1e3
        except Exception:  # counted, reported, and the loop goes on
            ops.fail(f"ingest_{path_name}")
            probe.run(3)
            return
        samples.append((elapsed, probe.run(3)))
        if path_name == "batch":
            (main_traced if traced else main_untraced).append((m, elapsed))
        if stored_digest(reader, names[m]) != expected[m]:
            ops.fail(f"ingest_{path_name}",
                     f"stored rows of {names[m]} differ from the setup's")

    settle()
    ctx.begin_timing()
    start = time.perf_counter()
    end = start + ctx.seconds
    i = 0
    while time.perf_counter() < end:
        m = i % MANUSCRIPTS
        traced = ctx.traced(i // MANUSCRIPTS)
        ingest("batch", m, traced, batch_samples)
        ingest("stream", m, traced, stream_samples)
        if traced:
            traced_ops += 2
        i += 1
    elapsed_s = time.perf_counter() - start
    ctx.end_timing()
    reader.close()
    store.close()

    normalised, measured = end_to_end(setup, batch_samples, stream_samples,
                                      probe)
    info = {
        "host": host_facts(),
        "inputs": {"manuscripts": MANUSCRIPTS, "words": WORDS,
                   "hierarchies": len(ROSTER),
                   "source_bytes": total_source_bytes},
        "store": {**facts, "plan_cache_limit": plan_cache_limit()},
        "setup_s_each": [sum(v for v, _ in pieces) for pieces in setup],
        "roles": {"main_op": "batch ingest of one manuscript",
                  "side": "p50 of the streaming ingest of one manuscript"},
        "ingest_batch_s": measured["main_op_p50_ms"] / 1e3,
        "ingest_stream_s": measured["side_ms"] / 1e3,
        "ingest_stream_peak_rss_mb": stream_rss_mb,
        "ops_per_s": (len(batch_samples) + len(stream_samples)) / elapsed_s,
        "stored_bytes_per_source_byte":
            facts["store_bytes"] / total_source_bytes,
        "samples": {"batch": len(batch_samples),
                    "stream": len(stream_samples)},
        "probe": probe.summary(),
        "measured": measured,
        "raw_ms": {"main": [round(v, 3) for v, _ in batch_samples],
                   "side": [round(v, 3) for v, _ in stream_samples]},
    }
    return {
        "ops": ops,
        "info": info,
        "end_to_end": normalised,
        "traced_ops": traced_ops,
        "all_ops": ops.attempted,
        "main_traced_ms": main_traced,
        "main_untraced_ms": main_untraced,
    }
