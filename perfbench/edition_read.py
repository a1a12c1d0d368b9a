"""edition-read: read-mostly service traffic with an editor beside it.

Store: 24 manuscripts (1k, 2k and 4k words, 4 hierarchies, overlap
density 0.15-0.30) in one WAL store served by a ``DocumentService`` with
a pool of 2 connections.  Two client threads share it:

* the reader, a closed loop: pick a manuscript with Zipf skew
  (s = 1.1), open a read session, run the 5-query mix, close;
* the editor, an open loop due once a second: two ``set_attribute``
  calls and one ``insert_markup`` on a Zipf-picked manuscript, then
  publish.  Each write session is timed from when it was due.

Size, hierarchy count and overlap density are fixed per Zipf rank, so
every seed puts the same kind of manuscript on each rank; the seed only
picks the words, the annotation ranges and the request sequence.

Every read-session answer is checked against an unindexed witness of
its generation: made from the parsed manuscript at setup, and by the
editor after each publish, outside its timed region.

The gated figures are the read sessions' p50 and p90.  The write
sessions' p50 is printed on the facts line only: 20 sessions a run,
each sharing the interpreter with the reader, spread too widely from
seed to seed (about 0.2 of the median) to hold a regression bound.
"""

from __future__ import annotations

import random
import threading
import time

from common import (Ops, Probe, answer_rows, checkpoint, digest,
                    end_to_end, host_facts, median, plan_cache_limit,
                    remove_store, settle, tail, zipf_schedule)
from inputs import manuscript, source_bytes

DOCS = 24
#: Words by Zipf rank: rank 1 (about 30% of requests) is a 2k-word
#: manuscript, so the median read lands on 2k words and p90 on 4k.
SIZES = (2000, 1000, 4000, 1000, 4000, 2000, 2000, 4000, 1000, 4000, 1000,
         2000) * 2
HIERARCHIES = ("physical", "linguistic", "verse", "editorial")
ZIPF_S = 1.1
#: Reader requests per schedule cycle (about one run's worth).
READ_SCHEDULE = 200
WRITE_PERIOD_S = 1.0
SETUP_REPETITIONS = 3
POOL_SIZE = 2
JOIN_TIMEOUT_S = 120

QUERIES = (
    "//w[contains(., 'ar')]",
    "//line[@n='3']",
    "//s/overlapping::line",
    "//vline/contained::w",
    "count(//dmg)",
)


def density(rank: int) -> float:
    return 0.15 + 0.15 * ((rank * 7) % DOCS) / (DOCS - 1)


class _Targets:
    """Edit targets of one manuscript: element ordinals to set
    attributes on, and words no editorial range covers, each of which
    takes one inserted ``dmg`` (so no insert can conflict)."""

    def __init__(self, document) -> None:
        self.lines = [e.elem_id for e in document.elements(tag="line")]
        self.words = []
        covered = [(e.start, e.end)
                   for e in document.elements(hierarchy="editorial")]
        self.free = []
        for word in document.elements(tag="w"):
            self.words.append(word.elem_id)
            if not any(s < word.end and word.start < e for s, e in covered):
                self.free.append((word.start, word.end))


def _witness(document) -> tuple:
    from repro import ExtendedXPath

    return tuple(
        digest(answer_rows(ExtendedXPath(q).evaluate(document, index=False)))
        for q in QUERIES
    )


def run(ctx) -> dict:
    from repro import DocumentService, parse_concurrent

    names = [f"ms{rank:02d}" for rank in range(1, DOCS + 1)]
    sources = [
        manuscript(SIZES[rank - 1], HIERARCHIES, density(rank),
                   ctx.seed * 1000 + rank)
        for rank in range(1, DOCS + 1)
    ]
    documents = [parse_concurrent(s) for s in sources]
    targets = {name: _Targets(doc) for name, doc in zip(names, documents)}

    probe = Probe()
    setup = []
    service = None
    for repetition in range(SETUP_REPETITIONS):
        if service is not None:
            service.close()
            remove_store(path)
        path = ctx.workdir / f"edition-{repetition}.db"
        pieces = []
        generations = {}
        t0 = time.perf_counter()
        service = DocumentService(path, pool_size=POOL_SIZE)
        for name, doc in zip(names, documents):
            generations[name] = service.create(doc, name)
            pieces.append((time.perf_counter() - t0, probe.run()))
            t0 = time.perf_counter()
        setup.append(pieces)
    store = checkpoint(str(path))
    witness = {(name, generations[name]): _witness(doc)
               for name, doc in zip(names, documents)}
    del documents

    rng = random.Random(ctx.seed)
    read_schedule = zipf_schedule(names, ZIPF_S, READ_SCHEDULE, rng)
    write_schedule = zipf_schedule(
        names, ZIPF_S, int(ctx.seconds / WRITE_PERIOD_S) + 1, rng)
    ops = Ops()
    reads: list[tuple] = []
    writes: list[tuple] = []
    main_traced: list[tuple] = []
    main_untraced: list[tuple] = []
    writes_traced = 0
    observed: list[tuple] = []
    lateness: list[float] = []
    editor_probe: list[Probe] = []

    # Warm the plan cache and the OS page cache on the hottest ranks.
    for name in names[:3]:
        with service.read_session(name) as session:
            for q in QUERIES:
                session.query(q)

    settle()
    ctx.begin_timing()
    start = time.perf_counter()
    end = start + ctx.seconds

    def editor() -> None:
        nonlocal writes_traced
        own_probe = Probe()
        editor_probe.append(own_probe)
        rng = random.Random(ctx.seed * 7919 + 1)
        k = 0
        while True:
            due = start + k * WRITE_PERIOD_S
            if due >= end:
                return
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            lateness.append(time.perf_counter() - due)
            name = write_schedule[k]
            target = targets[name]
            ops.attempt()
            traced = ctx.traced(k)
            try:
                with ctx.operation(traced):
                    with service.write_session(name) as session:
                        document = session.document
                        edit = session.editor
                        edit.set_attribute(
                            document.element_by_ordinal(
                                rng.choice(target.lines)),
                            "n", str(rng.randint(1, 20)))
                        edit.set_attribute(
                            document.element_by_ordinal(
                                rng.choice(target.words)),
                            "rend", f"r{k}")
                        word_start, word_end = target.free.pop(
                            rng.randrange(len(target.free)))
                        edit.insert_markup("editorial", "dmg",
                                           word_start, word_end)
                    done = time.perf_counter()
                writes.append(((done - due) * 1e3, own_probe.run()))
                writes_traced += traced
                witness[(name, session.generation)] = _witness(document)
            except Exception:  # counted, reported, and the loop goes on
                ops.fail("write_session")
            k += 1

    writer = threading.Thread(target=editor, name="perfbench-editor")
    writer.start()
    i = 0
    while time.perf_counter() < end:
        name = read_schedule[i % READ_SCHEDULE]
        traced = ctx.traced(i)
        ops.attempt()
        try:
            with ctx.operation(traced):
                t0 = time.perf_counter()
                with service.read_session(name) as session:
                    values = [session.query(q) for q in QUERIES]
                elapsed_ms = (time.perf_counter() - t0) * 1e3
            reads.append((elapsed_ms, probe.run()))
            (main_traced if traced else main_untraced).append(
                (name, elapsed_ms))
            observed.append((name, session.generation,
                             tuple(digest(answer_rows(v)) for v in values)))
        except Exception:  # counted, reported, and the loop goes on
            ops.fail("read_session")
        i += 1
    writer.join(JOIN_TIMEOUT_S)
    if writer.is_alive():
        raise RuntimeError("the editor thread did not stop")
    elapsed_s = time.perf_counter() - start
    ctx.end_timing()
    service.close()

    for name, generation, answers in observed:
        expected = witness.get((name, generation))
        if expected is None:
            ops.fail("read_session", f"no witness for {name} at {generation}")
        elif expected != answers:
            ops.fail("read_session",
                     f"wrong answer on {name} at {generation}")

    normalised, measured = end_to_end(setup, reads, reads, probe,
                                      side_percentile=90)
    reads_ms = [v for v, _ in reads]
    read_tail = tail(reads_ms)
    info = {
        "host": host_facts(),
        "inputs": {
            "documents": DOCS, "words": sorted(set(SIZES)),
            "hierarchies": len(HIERARCHIES), "zipf_s": ZIPF_S,
            "source_bytes": sum(source_bytes(s) for s in sources),
        },
        "store": {**store, "plan_cache_limit": plan_cache_limit(),
                  "pool_size": POOL_SIZE},
        "setup_s_each": [sum(v for v, _ in pieces) for pieces in setup],
        "roles": {"main_op": "read session (open, 5-query mix, close)",
                  "side": "p90 of the read sessions"},
        "read_session_p50_ms": read_tail["p50"],
        "read_session_p90_ms": read_tail.get("p90"),
        "read_session_samples": read_tail["n"],
        "read_sessions_per_s": len(reads) / elapsed_s,
        "ops_per_s": (len(reads) + len(writes)) / elapsed_s,
        "write_session_p50_ms": median([v for v, _ in writes]),
        "write_session_p50_ms_normalised": median(
            editor_probe[0].normalise(writes)),
        "write_session_samples": len(writes),
        "editor_lateness_ms": {"p50": median(lateness) * 1e3,
                               "max": max(lateness, default=0.0) * 1e3},
        "probe": {"reader": probe.summary(),
                  "editor": editor_probe[0].summary()},
        "measured": measured,
        "raw_ms": {"main": [round(v, 3) for v in reads_ms],
                   "side": [round(v, 3) for v, _ in writes]},
    }
    return {
        "ops": ops,
        "info": info,
        "end_to_end": normalised,
        "traced_ops": len(main_traced) + writes_traced,
        "all_ops": len(reads) + len(writes),
        "main_traced_ms": main_traced,
        "main_untraced_ms": main_untraced,
    }
