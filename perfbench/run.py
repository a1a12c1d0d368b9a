"""The repository benchmark: one named workload, one seed, one report.

Run from the repository root::

    python3 perfbench/run.py --workload edition-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with no instrumentation installed and reports the
end-to-end metrics; ``--trace 1`` installs the span wrappers of
:mod:`spans` and reports the per-layer metrics instead.  Every answer the
library gives is checked; a wrong answer or an exception counts as a
failed operation.  Human-readable facts (inputs, host, store size,
sample counts, the per-workload metric names) are printed first; the
last line of standard output is the JSON result.

The library is imported from ``src/`` next to this directory; without it
the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload name -> module in this directory.
WORKLOADS = {
    "edition-read": "edition_read",
    "corpus-search": "corpus_search",
    "ingest": "ingest",
}

#: End-to-end metrics every workload reports: name -> unit.  What the
#: main operation and the side figure are is defined per workload
#: (README.md).
END_TO_END = {
    "setup_s": "s",
    "main_op_p50_ms": "ms",
    "side_ms": "ms",
    "peak_rss_mb": "MB",
}


class Context:
    """What a workload needs from the harness: its seed and duration, a
    scratch directory inside the checkout, and — in a traced run — the
    span recorder and the ``repro.obs`` metrics registry."""

    def __init__(self, seed: int, seconds: float, workdir: Path,
                 recorder=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorder = recorder
        self.registry_snapshot: dict = {}
        self._plan_cache_start = (0, 0)
        self.plan_cache = (0, 0)

    def traced(self, index: int) -> bool:
        """Traced runs trace every other operation of each client, so
        the untraced half measures what the wrappers cost."""
        return self.recorder is not None and index % 2 == 1

    def operation(self, traced: bool):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.operation(traced)

    def begin_timing(self) -> None:
        if self.recorder is None:
            return
        from repro.obs import metrics
        from spans import plan_cache_counts

        metrics.reset()
        metrics.enable()
        self._plan_cache_start = plan_cache_counts()

    def end_timing(self) -> None:
        if self.recorder is None:
            return
        from repro.obs import metrics
        from spans import plan_cache_counts

        self.registry_snapshot = metrics.snapshot()
        metrics.disable()
        hits, misses = plan_cache_counts()
        self.plan_cache = (hits - self._plan_cache_start[0],
                           misses - self._plan_cache_start[1])


def tracing_overhead(traced, untraced) -> float:
    """Median excess of a traced main operation over the untraced median
    of the same input (``(key, ms)`` samples), so the two halves are
    compared on like inputs."""
    from common import median

    base: dict = {}
    for key, ms in untraced:
        base.setdefault(key, []).append(ms)
    base = {key: median(values) for key, values in base.items()}
    return median([ms - base[key] for key, ms in traced if key in base])


def per_layer(ctx: Context, report: dict) -> dict[str, dict]:
    from common import median
    from spans import registry_counts

    recorder = ctx.recorder
    values = recorder.span_metrics(report["traced_ops"])
    values.update(registry_counts(ctx.registry_snapshot, report["all_ops"]))
    hits, misses = ctx.plan_cache
    values["xpath.plan_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    values["storage.rows_decoded_per_session"] = (
        recorder.rows_decoded / recorder.loads if recorder.loads else 0.0)
    values["collection.routed_ratio"] = report.get("routed_ratio", 0.0)
    values["collection.visit_yield"] = report.get("visit_yield", 0.0)
    values["tracing.main_op_p50_ms"] = median(
        [ms for _key, ms in report["main_traced_ms"]])
    values["tracing.overhead_ms"] = tracing_overhead(
        report["main_traced_ms"], report["main_untraced_ms"])
    out = {}
    for name, value in values.items():
        if name.endswith("_ms_per_op") or name.endswith("_ms"):
            unit = "ms"
        elif name.endswith("_ratio") or name.endswith("_yield"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = importlib.import_module(WORKLOADS[args.workload])

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    # Keep sqlite's and Python's temporary files inside the checkout too.
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(workdir)
    try:
        ctx = Context(args.seed, args.seconds, workdir, recorder)
        report = workload.run(ctx)
    finally:
        if recorder is not None:
            recorder.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = report["ops"]
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}
    info.update(report["info"])
    info.update(ops.summary())
    if recorder is not None:
        spans_path = scratch / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        info["spans"] = len(recorder.spans)
        metrics = per_layer(ctx, report)
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
