"""corpus-search: routed cross-document queries with member re-ingest.

Store: 300 manuscripts of 300 words in one WAL ``Corpus`` (pool of 2).
Every 50th carries the editorial hierarchy (``dmg``), every 12th the
verse hierarchy (``vline``), the rest physical + linguistic only.

One closed-loop client repeats a cycle:

* the two selective queries ``collection()//dmg`` (about 2% of members
  routed) and ``collection()//vline[@n='2']`` (about 8%), timed
  together as one routed sample;
* the non-prunable ``collection()//line[@n='3']/overlapping::s``, which
  visits every member;
* one member re-ingested with ``overwrite=True`` and identical content,
  alternately ``Corpus.add`` after ``parse_concurrent`` and
  ``Corpus.add_streams``, so every answer stays fixed.

Each query result is compared with the route-everything witness: the
per-member query evaluated unindexed on the parsed manuscripts at
setup.
"""

from __future__ import annotations

import time

from common import (Ops, Probe, answer_rows, checkpoint, end_to_end,
                    host_facts, median, plan_cache_limit, remove_store,
                    settle)
from inputs import manuscript, source_bytes

MEMBERS = 300
WORDS = 300
DENSITY = 0.2
SETUP_REPETITIONS = 3
#: Members added per ``add_many`` call at setup; each batch is timed
#: on its own so the probe can rescale it.
SETUP_BATCH = 25
POOL_SIZE = 2

ROUTED = ("collection()//dmg", "collection()//vline[@n='2']")
FULL = "collection()//line[@n='3']/overlapping::s"


def hierarchies(index: int) -> tuple[str, ...]:
    names = ["physical", "linguistic"]
    if index % 12 == 0:
        names.append("verse")
    if index % 50 == 0:
        names.append("editorial")
    return tuple(names)


def _witness(names, documents, expression: str) -> list:
    from repro import ExtendedXPath

    query = ExtendedXPath(expression[len("collection()"):])
    return [(name, row)
            for name, document in zip(names, documents)
            for row in answer_rows(query.evaluate(document, index=False))]


def run(ctx) -> dict:
    from repro import Corpus, parse_concurrent

    names = [f"m{i:04d}" for i in range(MEMBERS)]
    sources = [manuscript(WORDS, hierarchies(i), DENSITY,
                          ctx.seed * 100_000 + i)
               for i in range(MEMBERS)]
    documents = [parse_concurrent(s) for s in sources]
    witness = {q: _witness(names, documents, q) for q in (*ROUTED, FULL)}

    probe = Probe()
    setup = []
    corpus = None
    for repetition in range(SETUP_REPETITIONS):
        if corpus is not None:
            corpus.close()
            remove_store(path)
        path = ctx.workdir / f"corpus-{repetition}.db"
        pieces = []
        t0 = time.perf_counter()
        corpus = Corpus(path, pool_size=POOL_SIZE)
        for first in range(0, MEMBERS, SETUP_BATCH):
            corpus.add_many(zip(documents[first:first + SETUP_BATCH],
                                names[first:first + SETUP_BATCH]))
            pieces.append((time.perf_counter() - t0, probe.run()))
            t0 = time.perf_counter()
        setup.append(pieces)
    store = checkpoint(str(path))
    del documents

    ops = Ops()
    routed: list[tuple] = []
    full: list[tuple] = []
    reingest_ms: list[float] = []
    main_traced: list[tuple] = []
    main_untraced: list[tuple] = []
    traced_ops = 0
    routed_total = [0, 0]
    visits = [0, 0]

    def query(expression: str):
        ops.attempt()
        try:
            return corpus.query(expression)
        except Exception:  # counted, reported, and the loop goes on
            ops.fail("collection_query")
            return None

    def check(expression: str, result, traced: bool) -> None:
        if [(name, row) for name, row in result.hits] != witness[expression]:
            ops.fail("collection_query", f"wrong answer to {expression}")
        if traced:
            routed_total[0] += result.plan.routed_count
            routed_total[1] += result.plan.total
            visits[0] += sum(1 for rows in result.rows_by_document.values()
                             if rows)
            visits[1] += len(result.documents)

    corpus.query(ROUTED[0])  # warm the plan cache and the page cache
    settle()
    ctx.begin_timing()
    start = time.perf_counter()
    end = start + ctx.seconds
    cycle = 0
    while time.perf_counter() < end:
        traced = ctx.traced(cycle)
        with ctx.operation(traced):
            t0 = time.perf_counter()
            answers = [query(q) for q in ROUTED]
            t1 = time.perf_counter()
        mark = probe.run(3)
        if all(a is not None for a in answers):
            routed.append(((t1 - t0) * 1e3, mark))
            (main_traced if traced else main_untraced).append(
                ("routed", (t1 - t0) * 1e3))
            for expression, answer in zip(ROUTED, answers):
                check(expression, answer, traced)
        with ctx.operation(traced):
            t0 = time.perf_counter()
            answer = query(FULL)
            t1 = time.perf_counter()
        mark = probe.run(3)
        if answer is not None:
            full.append(((t1 - t0) * 1e3, mark))
            check(FULL, answer, traced)

        member = (cycle * 37) % MEMBERS
        ops.attempt()
        try:
            with ctx.operation(traced):
                t0 = time.perf_counter()
                if cycle % 2 == 0:
                    corpus.add(parse_concurrent(sources[member]),
                               names[member], overwrite=True)
                else:
                    corpus.add_streams([(sources[member], names[member])],
                                       overwrite=True)
                t1 = time.perf_counter()
            reingest_ms.append((t1 - t0) * 1e3)
        except Exception:  # counted, reported, and the loop goes on
            ops.fail("member_reingest")
        probe.run(3)
        if traced:
            traced_ops += len(ROUTED) + 2
        cycle += 1
    elapsed_s = time.perf_counter() - start
    ctx.end_timing()
    corpus.close()

    completed = len(ROUTED) * len(routed) + len(full) + len(reingest_ms)
    normalised, measured = end_to_end(setup, routed, full, probe)
    info = {
        "host": host_facts(),
        "inputs": {
            "members": MEMBERS, "words": WORDS,
            "with_dmg": sum(1 for i in range(MEMBERS) if i % 50 == 0),
            "with_vline": sum(1 for i in range(MEMBERS) if i % 12 == 0),
            "source_bytes": sum(source_bytes(s) for s in sources),
        },
        "store": {**store, "plan_cache_limit": plan_cache_limit(),
                  "pool_size": POOL_SIZE},
        "setup_s_each": [sum(v for v, _ in pieces) for pieces in setup],
        "roles": {"main_op": "the two selective collection() queries",
                  "side": "p50 of the non-prunable collection() query"},
        "collection_routed_p50_ms": measured["main_op_p50_ms"],
        "collection_full_p50_ms": measured["side_ms"],
        "member_reingest_p50_ms": median(reingest_ms),
        "ops_per_s": completed / elapsed_s,
        "samples": {"routed": len(routed), "full": len(full),
                    "reingest": len(reingest_ms)},
        "probe": probe.summary(),
        "measured": measured,
        "raw_ms": {"main": [round(v, 3) for v, _ in routed],
                   "side": [round(v, 3) for v, _ in full]},
    }
    return {
        "ops": ops,
        "info": info,
        "end_to_end": normalised,
        "traced_ops": traced_ops,
        "all_ops": ops.attempted,
        "main_traced_ms": main_traced,
        "main_untraced_ms": main_untraced,
        "routed_ratio": (routed_total[0] / routed_total[1]
                         if routed_total[1] else 0.0),
        "visit_yield": visits[0] / visits[1] if visits[1] else 0.0,
    }
