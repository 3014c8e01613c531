"""End-to-end stage benchmark of the watermark-verification pipeline.

Usage (from the repository root)::

    python3 stagebench/run.py --workload paper-campaign --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (see README.md) against the public API in a fresh
worker process, checks its outputs, prints every metric by name with
its unit and, as the last line, one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  ``--workload all`` runs the four
workloads one after another, each ending with its own JSON line.  The exit code is 0 only when the
run completed and every correctness check passed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import fail_ratio, timing_summary  # noqa: E402

WORKLOAD_NAMES = ("paper-campaign", "imported-c640", "analysis-sweep", "service-job")

#: Extra set-up-only processes per run; their set-up times and the
#: measuring worker's give the ``setup_s`` median.
SETUP_PROBES = 3

#: Wall-clock budget of the whole run, in seconds.
RUN_BUDGET_S = 170.0

#: End-to-end metrics of an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "first_result_s": "s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: The name each workload's operation time goes by.
OP_NAMES = {
    "paper-campaign": ("campaign_s", "first_result_s"),
    "imported-c640": ("campaign_s", "first_result_s"),
    "analysis-sweep": ("sweep_s", "first_scenario_s"),
    "service-job": ("job_s", "first_row_s"),
}


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, definition) -> dict:
    """What produced a result: code, toolchain, machine, workload."""
    workload = {
        "name": args.workload,
        "seconds": args.seconds,
        "definition": definition,
    }
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload_sha256": hashlib.sha256(
            json.dumps(workload, sort_keys=True).encode()
        ).hexdigest(),
    }


def _worker(args, work_dir: Path, *extra: str) -> subprocess.Popen:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work_dir),
        *extra,
    ]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _time_to_ready(process: subprocess.Popen, started: float) -> float:
    line = process.stdout.readline()
    if line.strip() != "ready":
        raise RuntimeError("worker exited before it was ready")
    return time.perf_counter() - started


def _finish(process: subprocess.Popen, deadline: float) -> None:
    try:
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("worker overran the run budget and was killed")
    finally:
        process.stdout.close()
    if process.returncode != 0:
        raise RuntimeError(f"worker exited with code {process.returncode}")


def measure(args, work: Path, deadline: float):
    """Set-up probes, then the measuring worker; returns
    ``(set-up times, worker result)``."""
    setups = []
    for probe in range(SETUP_PROBES):
        started = time.perf_counter()
        process = _worker(args, work / f"probe-{probe}", "--setup-only")
        try:
            setups.append(_time_to_ready(process, started))
        finally:
            _finish(process, deadline)
    out = work / "result.json"
    spans = work.parent / f"spans-{args.workload}-seed{args.seed}.json"
    started = time.perf_counter()
    process = _worker(
        args, work / "worker", "--out", str(out), "--spans", str(spans)
    )
    try:
        setups.append(_time_to_ready(process, started))
    finally:
        _finish(process, deadline)
    return setups, json.loads(out.read_text())


def end_to_end(args, setups, result) -> dict:
    ops = result["ops"]
    done = [op for op in ops if op["scenarios"]]
    if not done:
        raise RuntimeError("no operation completed")
    return {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(op["wall_s"] for op in done),
        "first_result_s": statistics.median(op["first_s"] for op in done),
        "scenarios_per_s": sum(op["scenarios"] for op in ops) / result["window_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(args, setups, result, attempted, failed) -> dict:
    """Print the human-readable summary; return the JSON metrics."""
    op_name, first_name = OP_NAMES[args.workload]
    walls = [op["wall_s"] for op in result["ops"]]
    print(
        f"stagebench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, {len(walls)} operation(s)"
    )
    print("stamp " + json.dumps(stamp(args, result["definition"]), sort_keys=True))
    print(f"  setup_s          {statistics.median(setups):.4f} s  (samples {setups})")
    summary = timing_summary(walls)
    line = f"  {op_name:<16} {summary['median']:.4f} s  (median of {summary['n']})"
    if "tail" in summary:
        line += f", p{summary['tail_percentile']:g} {summary['tail']:.4f} s"
    print(line)
    print(f"  fail_ratio       {fail_ratio(attempted, failed):.4f}  ({failed}/{attempted})")
    if not args.trace:
        metrics = end_to_end(args, setups, result)
        print(f"  {first_name:<16} {metrics['first_result_s']:.4f} s")
        print(f"  scenarios_per_s  {metrics['scenarios_per_s']:.4f} 1/s")
        print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
        return {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in metrics.items()
        }
    from worker import LAYER_METRICS

    traced = [op["wall_s"] for op, on in zip(result["ops"], result["traced"]) if on]
    print(f"  stage self time per traced operation (mean {statistics.fmean(traced):.4f} s):")
    for name, seconds in result["stages"]:
        print(f"    {name:<26} {seconds:.4f} s")
    for name, value in result["layer"].items():
        print(f"  {name:<30} {value:.6g} {LAYER_METRICS[name]}")
    return {
        name: {"value": value, "unit": LAYER_METRICS[name]}
        for name, value in result["layer"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end stage benchmark (see stagebench/README.md)."
    )
    parser.add_argument(
        "--workload", choices=(*WORKLOAD_NAMES, "all"), required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload != "all":
        return run(args)
    return max(
        run(argparse.Namespace(**{**vars(args), "workload": name}))
        for name in WORKLOAD_NAMES
    )


def run(args) -> int:
    """Measure, check and report one workload; returns the exit code."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"stagebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    work = ROOT / ".stagebench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, result = measure(args, work, deadline)
    except RuntimeError as error:
        print(f"stagebench: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(op["attempted"] for op in result["ops"])
    failed = sum(op["failed"] for op in result["ops"])
    metrics = report(args, setups, result, attempted, failed)
    correct = not result["problems"]
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    print(f"  checks           {'ok' if correct else 'FAILED'}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
