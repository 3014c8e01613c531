"""One workload in a fresh process: set up, signal ready, run, check.

Started by ``run.py``; prints ``ready`` on stdout once set-up is done
(so the parent can time process start to ready), then runs operations
for ``--seconds`` and writes what it measured to ``--out`` as JSON.
With ``--setup-only`` it exits right after ``ready``.

With ``--trace 1`` every second operation runs with the layer
entry points wrapped in spans and the others run bare, so the
difference of their medians (the first, cold operation left out) is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import RowReads, Tracer, instrumented, self_time_by_name, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-layer metrics: name -> unit.  Times and counts are per traced
#: operation (one campaign, sweep or job) unless the README marks them
#: per call; a layer a workload never reaches reads 0.
LAYER_METRICS = {
    "trace.overhead_s": "s",
    "other_s": "s",
    "oscilloscope.acquire_s": "s",
    "oscilloscope.rows": "count",
    "oscilloscope.bytes": "bytes",
    "oscilloscope.rows_read_ratio": "ratio",
    "noise.sample_s": "s",
    "noise.calls": "count",
    "device.prime_s": "s",
    "simulator.batch_s": "s",
    "simulator.run_s": "s",
    "simulator.build_s": "s",
    "device.waveform_s": "s",
    "designs.fleet_s": "s",
    "verilog_parse.parse_s": "s",
    "batch_pool.flushes": "count",
    "batch_pool.flush_s": "s",
    "averaging.average_s": "s",
    "correlation.pearson_s": "s",
    "distinguishers.verdict_s": "s",
    "verification.identify_s": "s",
    "artifacts.trace_hit_ratio": "ratio",
    "artifacts.fleet_hit_ratio": "ratio",
    "artifacts.outcome_hits": "count",
    "artifacts.bytes_acquired": "bytes",
    "artifacts.peak_bytes": "bytes",
    "scenario.run_s": "s",
    "executor.overhead_s": "s",
    "store.put_s": "s",
    "store.puts": "count",
    "store.bytes": "bytes",
    "store.get_s": "s",
    "scheduler.attempts": "count",
    "scheduler.retries": "count",
    "scheduler.quarantined": "count",
    "scheduler.attempt_s": "s",
    "scheduler.idle_s": "s",
    "service.submit_s": "s",
    "service.poll_s": "s",
    "service.rows": "count",
    "service.row_lag_s": "s",
}

#: Span names whose summed self time per operation is a layer metric.
SELF_TIME_SPANS = (
    "oscilloscope.acquire",
    "noise.sample",
    "device.prime",
    "simulator.batch",
    "simulator.run",
    "simulator.build",
    "device.waveform",
    "designs.fleet",
    "verilog_parse.parse",
    "batch_pool.flush",
    "averaging.average",
    "correlation.pearson",
    "distinguishers.verdict",
    "verification.identify",
    "store.put",
    "store.get",
)

#: Layer metrics measured outside the program by the service workload.
CLIENT_METRICS = tuple(
    name for name in LAYER_METRICS if name.startswith(("scheduler.", "service."))
)


def _no_span(name, op=None):
    return contextlib.nullcontext()


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(workload, ops, traced, tracer, reads, artifact_totals) -> dict:
    """Every per-layer metric of a traced run.

    ``artifact_totals`` sums the artifact-cache statistics' changes over
    the traced operations.
    """
    walls = [op.wall_s for op, on in zip(ops, traced) if on]
    # The first operation is bare and pays the run's cold start: leave it out.
    bare = [op.wall_s for op, on in zip(ops[1:], traced[1:]) if not on]
    n = len(walls)
    spans = tracer.spans
    own = self_time_by_name(spans)
    metrics = {name: 0.0 for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(bare)
    metrics["other_s"] = own.get(workload.op_name, 0.0) / n
    for name in SELF_TIME_SPANS:
        metrics[f"{name}_s"] = own.get(name, 0.0) / n
    metrics["oscilloscope.rows"] = tracer.counts["oscilloscope.rows"] / n
    metrics["oscilloscope.bytes"] = tracer.counts["oscilloscope.bytes"] / n
    metrics["oscilloscope.rows_read_ratio"] = reads.ratio
    metrics["noise.calls"] = tracer.calls("noise.sample") / n
    metrics["batch_pool.flushes"] = tracer.calls("batch_pool.flush") / n
    metrics["store.puts"] = tracer.calls("store.put") / n
    metrics["store.bytes"] = tracer.counts["store.bytes"] / n
    runs = tracer.durations("scenario.run")
    metrics["scenario.run_s"] = statistics.fmean(runs) if runs else 0.0
    if workload.op_name == "sweep":
        inside = {}
        for span in spans:
            if span.name in ("scenario.run", "store.put") and span.op is not None:
                inside[span.op] = inside.get(span.op, 0.0) + span.end - span.start
        overheads = [
            span.end - span.start - inside.get(span.op, 0.0)
            for span in spans
            if span.name == workload.op_name
        ]
        metrics["executor.overhead_s"] = statistics.fmean(overheads)
    stats = workload.artifact_stats()
    if stats is not None:
        totals = artifact_totals
        metrics["artifacts.trace_hit_ratio"] = _ratio(
            totals["trace_hits"], totals["trace_misses"]
        )
        metrics["artifacts.fleet_hit_ratio"] = _ratio(
            totals["fleet_hits"], totals["fleet_misses"]
        )
        metrics["artifacts.outcome_hits"] = totals["outcome_hits"] / n
        metrics["artifacts.bytes_acquired"] = totals["bytes_acquired"] / n
        metrics["artifacts.peak_bytes"] = stats.peak_bytes
    for name in CLIENT_METRICS:
        values = [op.layer[name] for op in ops if name in op.layer]
        if values:
            metrics[name] = statistics.fmean(values)
    return metrics


def stage_table(workload, tracer, n_traced) -> list:
    """``(stage, self seconds per operation)`` over spans inside operations,
    the operation's own uncovered time reported as ``other``."""
    totals = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.op is None:
            continue
        name = "other" if span.name == workload.op_name else span.name
        totals[name] = totals.get(name, 0.0) + own
    return sorted(
        ((name, total / n_traced) for name, total in totals.items()),
        key=lambda item: -item[1],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    workload.setup()
    print("ready", flush=True)
    # Nothing reads stdout past the ready line: keep other output off it.
    sys.stdout = sys.stderr
    if args.setup_only:
        workload.close()
        return 0

    tracer = Tracer()
    reads = RowReads()
    ops, traced = [], []
    artifact_totals = Counter()
    start = time.perf_counter()
    while (
        len(ops) < (3 if args.trace else 1)
        or time.perf_counter() - start < args.seconds
    ):
        index = len(ops)
        on = bool(args.trace) and index % 2 == 1
        stats = workload.artifact_stats()
        before = dataclasses.asdict(stats) if stats is not None else None
        with instrumented(tracer, reads) if on else contextlib.nullcontext():
            ops.append(workload.run_once(index, tracer.span if on else _no_span))
        traced.append(on)
        if on and stats is not None:
            after = dataclasses.asdict(stats)
            artifact_totals.update({key: after[key] - before[key] for key in after})
    window = time.perf_counter() - start
    # Read before the checks, whose reruns are not part of the workload.
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    workload.check()
    workload.close()

    result = {
        "definition": workload.definition(),
        "window_s": window,
        "ops": [dataclasses.asdict(op) for op in ops],
        "traced": traced,
        "problems": workload.problems,
        "notes": workload.notes,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    if args.trace:
        result["layer"] = layer_metrics(
            workload, ops, traced, tracer, reads, artifact_totals
        )
        result["stages"] = stage_table(workload, tracer, sum(traced))
        if args.spans:
            tracer.write(args.spans)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
