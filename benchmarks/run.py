#!/usr/bin/env python3
"""Closed-loop benchmark of the tsplinedim command line.

    python3 benchmarks/run.py --workload exact-oracle --seed 1 --seconds 20 --trace 0

One client in one process drives ``tsplinedim.cli.main(argv)`` in-process and
sends the next query only when the previous one has returned.  The inputs
are ``.tmesh``/``.tsub`` files generated from ``--seed`` (see workloads.py).
A run repeats whole passes over the workload's query list until the next
pass would overrun ``--seconds`` and at least 100 queries have completed,
then checks every answer, untimed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports per-layer counts and self times
(medians over the traced passes) plus the tracing overhead.

Every metric is printed as ``name value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 only when every answer passed its check.  Generated
files and the span dump go to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_QUERIES = 100  # so that at least ten samples lie beyond p90
MAX_LOOP_S = 120  # hard stop; a run must end within 180 s
SETUP_SAMPLES = 15  # fresh interpreters per run for setup_s (plus one warm-up)


def _import_program():
    package = SRC / "tsplinedim"
    if not (package / "cli.py").is_file():
        sys.exit(f"run.py: no program source under {package}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import tsplinedim

    if Path(tsplinedim.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported tsplinedim from {tsplinedim.__file__}, not from {package}")


_import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "queries_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


# ------------------------------------------------------------ measuring

def measure_setup_s():
    """Median time for a fresh interpreter to import tsplinedim.cli."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import tsplinedim.cli; print(time.perf_counter() - t)"
    )
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", code, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
        )
        if i:  # the first import writes the bytecode caches
            samples.append(float(done.stdout))
    return statistics.median(samples)


def run_pass(queries, tracer=None):
    """Run every query once; returns (query, status, stdout, emitted, seconds)."""
    records = []
    for qid, query in enumerate(queries):
        if query.emit_path is not None:
            Path(query.emit_path).unlink(missing_ok=True)
        if tracer is not None:
            tracer.query_id = qid
        start = perf_counter()
        try:
            status, out = workloads.run_cli(query.argv)
        except Exception as exc:  # a crash fails this query, not the run
            status, out = f"raised {type(exc).__name__}: {exc}", ""
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - start
        emitted = query.read_emitted() if status == 0 else None
        records.append((query, status, out, emitted, elapsed))
    return records


def _enough(loop_start, pass_start, queries_done, seconds):
    """True when another pass would overrun the budget (or the hard stop)."""
    now = perf_counter()
    if now - loop_start > MAX_LOOP_S:
        return True
    return queries_done >= MIN_QUERIES and (now - loop_start) + (now - pass_start) > seconds


def end_to_end(queries, seconds):
    records = []
    loop_start = perf_counter()
    while True:
        pass_start = perf_counter()
        records += run_pass(queries)
        if _enough(loop_start, pass_start, len(records), seconds):
            break
    loop_s = perf_counter() - loop_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = [rec[4] for rec in records]
    metrics = {
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "queries_per_s": len(records) / loop_s,
        "peak_rss_mib": peak_rss_mib,
    }
    return records, metrics


# --------------------------------------------------------------- tracing

def _count_cells(counts, _args, mesh):
    counts["mesh.build_mesh.cells"] += len(mesh.cells)


def _count_system(counts, _args, matrix):
    counts["oracle.system.rows"] += matrix.nrows
    counts["oracle.system.cols"] += matrix.ncols
    counts["oracle.system.nnz"] += matrix.nnz


def _count_rank(counts, args, rank):
    rows = args[0]
    counts["linalg.rank.pivots"] += rank
    counts["linalg.rank.rows"] += rows.nrows if hasattr(rows, "nrows") else len(rows)


HOOKS = {
    "mesh.build_mesh": _count_cells,
    "oracle.build_spline_system": _count_system,
    "linalg.rational_rank": _count_rank,
}

# Per-layer metrics: name -> unit.  Every one is reported on every workload.
PER_LAYER_UNITS = {
    "cli.main.self_s": "s",
    "formats.parse.calls": "count",
    "formats.parse.self_s": "s",
    "formats.apply_history.self_s": "s",
    "mesh.build_mesh.calls": "count",
    "mesh.build_mesh.cells": "count",
    "mesh.build_mesh.self_s": "s",
    "segments.analyze_segments.calls": "count",
    "segments.analyze_segments.self_s": "s",
    "segments.segment_weight.calls": "count",
    "segments.segment_weight.self_s": "s",
    "segments.blocking.self_s": "s",
    "smoothness.quotient_dims.calls": "count",
    "smoothness.quotient_dims.self_s": "s",
    "dimension.h_upper_bound.calls": "count",
    "dimension.h_upper_bound.self_s": "s",
    "dimension.search_ordering.self_s": "s",
    "dimension.dimension_bounds.self_s": "s",
    "oracle.build_spline_system.self_s": "s",
    "oracle.system.rows": "count",
    "oracle.system.cols": "count",
    "oracle.system.nnz": "count",
    "linalg.rational_rank.calls": "count",
    "linalg.rational_rank.self_s": "s",
    "linalg.rank.pivots": "count",
    "linalg.rank.useful_row_ratio": "ratio",
    "linalg.matrix_add.calls": "count",
    "hierarchy.split_cell.calls": "count",
    "hierarchy.split_cell.self_s": "s",
    "hierarchy.weighted_split.calls": "count",
    "hierarchy.appearance_ordering.calls": "count",
    "hierarchy.appearance_ordering.self_s": "s",
    "hierarchy.events": "count",
    "hierarchy.ext_hops": "count",
    "hierarchy.builds_per_event": "ratio",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.query_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
}
RUN_WIDE = ("trace.overhead_ratio", "fail_ratio")  # not per pass


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced pass."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    events = ext_hops = 0
    for query, status, _out, emitted, _elapsed in records:
        if emitted is not None:
            n = sum(1 for line in emitted.splitlines() if line.startswith("split "))
            events += n
            ext_hops += n - query.wsplits
    query_s = sum(rec[4] for rec in records)
    metrics = {
        "cli.main.self_s": self_s["cli.main"],
        "formats.parse.calls": calls["formats.parse_tmesh"] + calls["formats.parse_tsub"],
        "formats.parse.self_s": self_s["formats.parse_tmesh"] + self_s["formats.parse_tsub"],
        "linalg.rank.useful_row_ratio": (
            counts["linalg.rank.pivots"] / counts["linalg.rank.rows"] if counts["linalg.rank.rows"] else 0.0
        ),
        "hierarchy.events": events,
        "hierarchy.ext_hops": ext_hops,
        "hierarchy.builds_per_event": calls["mesh.build_mesh"] / events if events else 0.0,
        "trace.query_s": query_s,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    metrics["trace.accounted_ratio"] = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) / query_s
    for name in PER_LAYER_UNITS:
        if name in metrics or name in RUN_WIDE:
            continue
        base, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = self_s[base]
        elif field == "calls" and name not in counts:
            metrics[name] = calls[base]
        else:
            metrics[name] = counts[name]
    return metrics


def traced_run(queries, seconds, spans_path):
    """Alternate untraced and traced passes; per-layer medians over passes."""
    tracer = tracing.Tracer()
    records, per_pass, ratios = [], [], []
    loop_start = perf_counter()
    while True:
        pass_start = perf_counter()
        plain = run_pass(queries)
        middle = perf_counter()
        tracer.reset_totals()
        tracer.install(HOOKS)
        try:
            traced = run_pass(queries, tracer)
        finally:
            tracer.restore()
        end = perf_counter()
        if not per_pass:
            tracer.write_spans(spans_path)
            tracer.keep_spans = False
            first_table = sorted(((tracer.self_s[n], tracer.calls[n], n) for n in tracer.calls), reverse=True)
        per_pass.append(layer_metrics(tracer, traced))
        ratios.append((end - middle) / (middle - pass_start))
        records += plain + traced
        if _enough(loop_start, pass_start, MIN_QUERIES, seconds):
            break
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    print(f"# traced passes {len(per_pass)}; first traced pass, spans by self time:")
    for self_time, count, name in first_table:
        print(f"#   {name:<40} {self_time:12.6f} s {count:>10} calls")
    return records, metrics


# ----------------------------------------------------------------- main

def check_answers(records):
    """Untimed checks; returns (attempted, failed) and prints each failure."""
    failed = 0
    for query, status, out, emitted, _elapsed in records:
        reason = query.verdict(status, out, emitted)
        if reason is not None:
            failed += 1
            if failed <= 10:
                print(f"FAIL {query.label} {' '.join(query.argv)}: {reason}", file=sys.stderr)
    return len(records), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = measure_setup_s() if args.trace == 0 else None
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    queries = workloads.build_pass(args.workload, args.seed, workdir)
    if args.trace:
        records, metrics = traced_run(queries, args.seconds, workdir / "spans.json")
        units = PER_LAYER_UNITS
    else:
        records, metrics = end_to_end(queries, args.seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    attempted, failed = check_answers(records)
    fail_ratio = failed / attempted
    if args.trace:
        metrics["fail_ratio"] = fail_ratio
    print(f"# workload {args.workload} seed {args.seed}: {attempted} queries "
          f"({len(queries)} per pass), closed loop, one client")
    print(f"{'fail_ratio':<40} {fail_ratio:>14.6g} ratio")
    ordered = {name: metrics[name] for name in units}
    for name, value in ordered.items():
        if name != "fail_ratio":
            print(f"{name:<40} {value:>14.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in ordered.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
