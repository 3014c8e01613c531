"""Benchmark: scenario-sweep throughput, store-hit latency, pooling.

Measures the sweep runner on reduced-parameter grids:

* cold execution throughput (scenarios/second, single in-process
  worker — the worker-process path has identical per-scenario cost
  plus dispatch overhead) and the warm path where every scenario is
  served from the content-addressed store;
* the *pooled* executor — cross-campaign batch pool + artifact
  sharing — against the plain unpooled executor on a
  shape-homogeneous analysis grid (one fleet, one measurement tier,
  analysis axes only), cold-for-cold.

Numbers land in ``BENCH_sweep.json``; the CI regression gate
(``benchmarks/check_bench.py``) holds future PRs to them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import tempfile

import pytest

from repro.acquisition.device import clear_fleet_activity_cache
from repro.experiments.artifacts import (
    ArtifactOptions,
    clear_process_artifact_cache,
)
from repro.hdl.batch_pool import BatchPoolOptions
from repro.hdl.engine import clear_program_cache
from repro.sweeps import GridAxis, SweepOptions, SweepSpec, SweepStore, run

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

BASE = {
    "parameters.k": 8,
    "parameters.m": 8,
    "parameters.n1": 64,
    "parameters.n2": 256,
}

#: The pooled comparison must be cold-for-cold: every round starts from
#: an empty process (activity, program and artifact caches), exactly
#: like a fresh worker.
def _clear_process_state():
    clear_fleet_activity_cache()
    clear_program_cache()
    clear_process_artifact_cache()


def _spec() -> SweepSpec:
    return SweepSpec(
        name="bench",
        grid=(
            GridAxis("noise.sigma", (0.5, 1.0, 1.5)),
            GridAxis("parameters.n2", (256, 512)),
            GridAxis("attack", ("none", "strip")),
        ),
        base={k: v for k, v in BASE.items() if k != "parameters.n2"},
        seed=1,
    )


def _pooled_spec() -> SweepSpec:
    """Shape-homogeneous quick grid: one fleet, analysis axes only.

    ``fleet_seed``/``measurement_seed`` are pinned so every scenario
    shares the fleet and measurement tiers — the regime the batch pool
    and the fleet/trace tiers are built for.
    """
    return SweepSpec(
        name="bench-pooled",
        grid=(
            GridAxis("parameters.n2", (256, 512)),
            GridAxis("analysis_seed", (1, 2, 3, 4, 5, 6)),
        ),
        base=dict(BASE, **{"fleet_seed": 11, "measurement_seed": 12}),
        seed=2,
    )


def _digests(root):
    """sha256 of each top-level result file (dot-entries are metadata)."""
    out = {}
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            out[entry] = hashlib.sha256(handle.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def results():
    return {}


def test_bench_sweep_cold(benchmark, results):
    roots = []

    def run_cold():
        root = tempfile.mkdtemp(prefix="bench_sweep_")
        roots.append(root)
        return run(_spec(), SweepStore(root), SweepOptions(n_workers=1))

    report = benchmark.pedantic(run_cold, rounds=3, iterations=1)
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)
    assert report.n_executed == 12
    results["cold_seconds"] = benchmark.stats.stats.mean
    results["scenarios_per_second"] = 12 / benchmark.stats.stats.mean


def test_bench_sweep_warm_store(benchmark, results):
    root = tempfile.mkdtemp(prefix="bench_sweep_")
    store = SweepStore(root)
    run(_spec(), store, SweepOptions(n_workers=1))

    report = benchmark.pedantic(
        lambda: run(_spec(), store, SweepOptions(n_workers=1)),
        rounds=3,
        iterations=1,
    )
    shutil.rmtree(root, ignore_errors=True)
    assert report.n_executed == 0 and report.n_cached == 12
    results["warm_seconds"] = benchmark.stats.stats.mean


def test_bench_sweep_pooled_grid_unpooled(benchmark, results):
    """Baseline for the pooled entry: same grid, plain executor."""
    roots = []

    def setup():
        _clear_process_state()
        root = tempfile.mkdtemp(prefix="bench_sweep_unpooled_")
        roots.append(root)
        return (root,), {}

    def run_unpooled(root):
        return run(_pooled_spec(), SweepStore(root), SweepOptions(n_workers=1))

    report = benchmark.pedantic(run_unpooled, setup=setup, rounds=3, iterations=1)
    assert report.n_executed == 12
    results["_unpooled_root"] = roots[-1]
    results["_unpooled_keep"] = roots
    results["pooled_grid_unpooled_seconds"] = benchmark.stats.stats.mean


def test_bench_sweep_pooled(benchmark, results):
    """The in-process executor with the batch pool and shared
    artifacts, cold."""
    roots = []

    def setup():
        _clear_process_state()
        root = tempfile.mkdtemp(prefix="bench_sweep_pooled_")
        roots.append(root)
        return (root,), {}

    def run_pooled(root):
        return run(
            _pooled_spec(),
            SweepStore(root),
            SweepOptions(
                n_workers=1, artifacts=ArtifactOptions(), pool=BatchPoolOptions()
            ),
        )

    report = benchmark.pedantic(run_pooled, setup=setup, rounds=3, iterations=1)
    assert report.n_executed == 12
    if "_unpooled_root" not in results:
        for root in roots:
            shutil.rmtree(root, ignore_errors=True)
        pytest.skip("pooled summary needs the unpooled bench test to run first")

    # Pooling and sharing never change a stored byte.
    assert _digests(roots[-1]) == _digests(results.pop("_unpooled_root"))
    for root in (*roots, *results.pop("_unpooled_keep")):
        shutil.rmtree(root, ignore_errors=True)

    results["pooled_seconds"] = benchmark.stats.stats.mean
    results["pooled_scenarios_per_second"] = 12 / benchmark.stats.stats.mean
    results["pooled_speedup"] = round(
        results["pooled_grid_unpooled_seconds"] / results["pooled_seconds"], 2
    )
    # No hard floor assert here: the committed pooled_speedup baseline
    # plus the check_bench gate (35% tolerance on speedup ratios) is
    # what enforces the trajectory, and it stays updatable through the
    # documented --update-baseline acceptance workflow.

    summary = {
        "grid": "noise.sigma x parameters.n2 x attack (12 scenarios, quick)",
        "pooled_grid": "parameters.n2 x analysis_seed "
        "(12 scenarios, one fleet/measurement tier)",
        **{key: round(value, 4) for key, value in results.items()},
    }
    BENCH_FILE.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"\nsweep bench: {summary}")
