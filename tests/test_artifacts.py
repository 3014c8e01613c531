"""Tests for cross-scenario artifact sharing.

Covers the fleet/measurement key split, the sharing-safe acquisition
refactor (keyed per-device seeds, in-place noise and quantisation
checked against the out-of-place formula, ADC grid invariance,
read-only cache views, prefix reuse, concurrent keyed acquisition)
and the headline guarantee: sweeps produce byte-identical stores with
sharing on or off, for any worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from repro.acquisition.bench import (
    MeasurementBench,
    acquire_keyed,
    derive_acquisition_seed,
)
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.acquisition.traces import TraceSet
from repro.core.process import ProcessParameters
from repro.experiments.artifacts import (
    ArtifactCache,
    ArtifactOptions,
    fleet_key,
    measurement_base_key,
    measurement_key,
    process_artifact_cache,
    clear_process_artifact_cache,
)
from repro.experiments.designs import build_paper_ip
from repro.experiments.runner import CampaignConfig, run_campaign
from repro.power.models import PowerModel
from repro.power.noise import DRIFT_BLOCK_ROWS, NoiseModel
from repro.sweeps import GridAxis, SweepOptions, SweepSpec, SweepStore, run
from repro.acquisition.device import Device


QUICK = ProcessParameters(k=4, m=4, n1=32, n2=64)


def quick_config(**overrides) -> CampaignConfig:
    return CampaignConfig(parameters=QUICK, **overrides)


def make_device(name="dev", cycles=64) -> Device:
    return Device(name, build_paper_ip("IP_A"), PowerModel(), default_cycles=cycles)


def store_digests(root):
    # Top-level result files only; .attempts/ etc. are outside the
    # byte-identity invariant.
    digests = {}
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            digests[entry] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def coefficient_matrix(outcome):
    return {
        (ref, dut): outcome.reports[ref].results[dut].coefficients
        for ref in outcome.ref_order
        for dut in outcome.dut_order
    }


class TestConfigKeys:
    def test_analysis_axes_leave_lower_keys_unchanged(self):
        base = quick_config()
        analysis_only = dataclasses.replace(
            base,
            parameters=ProcessParameters(k=8, m=8, n1=64, n2=128),
            analysis_seed=99,
            single_reference=False,
        )
        assert fleet_key(base) == fleet_key(analysis_only)
        assert measurement_base_key(base) == measurement_base_key(analysis_only)
        assert measurement_key(base) != measurement_key(analysis_only)  # ceilings

    def test_measurement_axes_change_measurement_not_fleet(self):
        base = quick_config()
        noisy = dataclasses.replace(base, noise=NoiseModel(sigma=1.5))
        reseeded = dataclasses.replace(base, measurement_seed=1234)
        for other in (noisy, reseeded):
            assert fleet_key(base) == fleet_key(other)
            assert measurement_base_key(base) != measurement_base_key(other)

    def test_fleet_axes_change_every_key(self):
        base = quick_config()
        refab = dataclasses.replace(base, fleet_seed=777)
        plain = dataclasses.replace(base, watermarked=False)
        for other in (refab, plain):
            assert fleet_key(base) != fleet_key(other)
            assert measurement_base_key(base) != measurement_base_key(other)

    def test_engine_changes_fleet_key_but_not_measurements(self):
        # The simulation path is bit-equivalent on waveforms, so it must
        # not perturb acquisition seeds — but cached Device objects pin
        # their engine, so the fleet cache distinguishes it.
        base = quick_config()
        other = dataclasses.replace(base, engine="interpreted")
        assert fleet_key(base) != fleet_key(other)
        assert measurement_base_key(base) == measurement_base_key(other)

    def test_fleet_tag_separates_attacked_artifacts(self):
        base = quick_config()
        assert fleet_key(base, "none") != fleet_key(base, "strip")
        assert measurement_base_key(base, "none") != measurement_base_key(
            base, "strip"
        )

    def test_keys_are_stable_strings(self):
        base = quick_config()
        assert fleet_key(base) == fleet_key(quick_config())
        for key in (
            fleet_key(base),
            measurement_base_key(base),
            measurement_key(base),
        ):
            assert isinstance(key, str) and len(key) == 32


class TestKeyedAcquisition:
    def test_device_alone_equals_device_inside_campaign(self):
        # The sharing-safe property: acquiring one device is independent
        # of what else is acquired with it.
        scope = Oscilloscope(noise=NoiseModel(sigma=1.0), adc=ADCConfig())
        d1, d2 = make_device("a"), make_device("b")
        _, inside = acquire_keyed(scope, "K", [(d1, 30), (d2, 20)])
        (alone,) = acquire_keyed(scope, "K", [(make_device("b"), 20)])
        np.testing.assert_array_equal(inside.matrix, alone.matrix)

    def test_prefix_stability_across_budgets(self):
        device = make_device()
        scope = Oscilloscope(adc=ADCConfig())
        seed = derive_acquisition_seed("K", device.name, 64)
        big = scope.acquire(device, 200, np.random.default_rng(seed))
        small = scope.acquire(device, 50, np.random.default_rng(seed))
        np.testing.assert_array_equal(big.matrix[:50], small.matrix)

    def test_drift_noise_keeps_prefix_stability(self):
        # The drift random walk runs within a trace, so drawing must
        # stay trace-major: a truncated acquisition must reproduce the
        # leading rows of a longer one even with drift enabled, across
        # the drift path's row blocks.
        device = make_device()
        noise = NoiseModel(sigma=1.0, drift_sigma=0.5)
        seed = derive_acquisition_seed("K", device.name, 64)
        longer = Oscilloscope(noise=noise).acquire(
            device, DRIFT_BLOCK_ROWS + 60, np.random.default_rng(seed)
        )
        for n_traces in (25, DRIFT_BLOCK_ROWS + 1):
            prefix = Oscilloscope(noise=noise).acquire(
                device, n_traces, np.random.default_rng(seed)
            )
            np.testing.assert_array_equal(longer.matrix[:n_traces], prefix.matrix)

    def test_quantisation_grid_invariant_to_trace_count(self):
        # The ADC window derives from the deterministic base waveform,
        # so acquisitions of different sizes share one grid.
        device = make_device()
        scope = Oscilloscope(adc=ADCConfig(bits=6))
        few = scope.acquire(device, 5, np.random.default_rng(0))
        many = scope.acquire(device, 500, np.random.default_rng(1))
        grid = np.unique(np.concatenate([few.matrix.ravel(), many.matrix.ravel()]))
        steps = np.diff(grid)
        step = steps[steps > 1e-12].min()
        # Both acquisitions share one grid origin, so every level is an
        # integer number of steps above the common minimum.
        offsets = (grid - grid.min()) / step
        np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-6)

    def test_bench_cache_hit_is_readonly_view(self):
        bench = MeasurementBench(seed=0)
        device = make_device()
        first = bench.measure(device, 50)
        view = bench.measure(device, 20)
        assert not view.matrix.flags.writeable
        assert not first.matrix.flags.writeable
        # Zero-copy: the view shares the cached matrix's memory.
        assert np.shares_memory(view.matrix, first.matrix)
        np.testing.assert_array_equal(view.matrix, first.matrix[:20])

    def test_traceset_tolerates_readonly_matrix(self):
        matrix = np.random.default_rng(0).normal(size=(4, 8))
        matrix.flags.writeable = False
        traces = TraceSet("dev", matrix)
        assert traces.mean_trace().shape == (8,)
        copied = traces.subset([0, 2])
        assert copied.matrix.flags.writeable  # subsets stay private copies


def out_of_place_acquire(scope, device, n_traces, rng):
    """The acquisition formula before noise and quantisation were made
    in place: a fresh noise matrix, ``+ base``, then
    ``low + round((clip(x) - low) / step) * step``."""
    base = device.deterministic_waveform()
    signal_std = float(np.std(base)) or 1.0
    noise = scope.noise
    n_samples = base.size
    if noise.drift_sigma <= 0:
        traces = rng.normal(0.0, noise.sigma * signal_std, size=(n_traces, n_samples))
    else:
        block = rng.standard_normal((n_traces, 2 * n_samples))
        traces = noise.sigma * signal_std * block[:, :n_samples]
        drift_scale = noise.drift_sigma * signal_std / np.sqrt(n_samples)
        traces += np.cumsum(drift_scale * block[:, n_samples:], axis=1)
    traces += base[np.newaxis, :]
    if scope.adc is None:
        return traces
    spread = (noise.sigma + scope.adc.headroom) * signal_std
    if spread == 0:
        return traces
    center = float(np.mean(base))
    low, high = center - spread, center + spread
    step = (high - low) / ((1 << scope.adc.bits) - 1)
    return low + np.round((np.clip(traces, low, high) - low) / step) * step


class TestInPlaceAcquisition:
    @pytest.mark.parametrize("n_traces", [1, 37, DRIFT_BLOCK_ROWS + 45])
    @pytest.mark.parametrize(
        "noise, adc",
        [
            (NoiseModel(sigma=1.0), None),
            (NoiseModel(sigma=0.7), None),
            (NoiseModel(sigma=1.0), ADCConfig(bits=6)),
            (NoiseModel(sigma=1.0), ADCConfig(bits=10)),
            (NoiseModel(sigma=0.0), None),
            (NoiseModel(sigma=0.0), ADCConfig(bits=10)),
            (NoiseModel(sigma=0.0, drift_sigma=0.0), ADCConfig(bits=6, headroom=0)),
            (NoiseModel(sigma=1.0, drift_sigma=0.5), None),
            (NoiseModel(sigma=1.0, drift_sigma=0.5), ADCConfig(bits=6)),
            (NoiseModel(sigma=1.3, drift_sigma=0.3), None),
        ],
    )
    def test_acquire_equals_out_of_place_formula(self, noise, adc, n_traces):
        device = make_device()
        scope = Oscilloscope(noise=noise, adc=adc)
        seed = derive_acquisition_seed("K", device.name, 64)
        fast = scope.acquire(device, n_traces, np.random.default_rng(seed))
        oracle = out_of_place_acquire(
            scope, device, n_traces, np.random.default_rng(seed)
        )
        assert fast.matrix.shape == oracle.shape
        assert fast.matrix.tobytes() == oracle.tobytes()

    def test_sample_fills_caller_matrix(self):
        noise = NoiseModel(sigma=2.0)
        out = np.empty((5, 16))
        filled = noise.sample(5, 16, 1.5, np.random.default_rng(3), out=out)
        assert filled is out
        expected = np.random.default_rng(3).normal(0.0, 3.0, size=(5, 16))
        np.testing.assert_array_equal(out, expected)
        with pytest.raises(ValueError, match="shape"):
            noise.sample(5, 16, 1.5, np.random.default_rng(3), out=np.empty((4, 16)))


class TestConcurrentAcquisition:
    @pytest.fixture
    def many_cpus(self, monkeypatch):
        # Force the thread pool even on a one-CPU runner.
        import repro.acquisition.bench as bench_module

        monkeypatch.setattr(bench_module, "_usable_cpus", lambda: 4)

    def test_acquire_keyed_equals_one_by_one(self, many_cpus):
        scope = Oscilloscope(noise=NoiseModel(sigma=1.0), adc=ADCConfig())
        devices = [make_device(name) for name in ("a", "b", "c")]
        together = acquire_keyed(scope, "K", [(device, 40) for device in devices])
        for device, traces in zip(devices, together):
            (alone,) = acquire_keyed(scope, "K", [(device, 40)])
            assert traces.matrix.tobytes() == alone.matrix.tobytes()

    def test_traces_many_serves_cached_devices_without_reacquiring(self, many_cpus):
        cfg = quick_config()
        cache = ArtifactCache()
        first = cache.traces(cfg, make_device("a"), 40)
        served, fresh = cache.traces_many(
            cfg, [(make_device("a"), 20), (make_device("b"), 20)]
        )
        assert cache.stats.trace_hits == 1 and cache.stats.trace_misses == 2
        assert np.shares_memory(served.matrix, first.matrix)
        np.testing.assert_array_equal(served.matrix, first.matrix[:20])
        assert not served.matrix.flags.writeable
        assert not fresh.matrix.flags.writeable

    def test_sequential_bench_is_never_fanned_out(self, monkeypatch):
        import repro.acquisition.bench as bench_module

        def refuse(*args, **kwargs):
            raise AssertionError("a sequential bench must not fan out")

        monkeypatch.setattr(bench_module, "acquire_keyed", refuse)
        devices = [make_device(name) for name in ("a", "b", "c")]
        together = MeasurementBench(seed=5).measure_all(devices, 30)
        one_by_one = MeasurementBench(seed=5)
        for device in devices:
            alone = one_by_one.measure(device, 30)
            np.testing.assert_array_equal(together[device.name].matrix, alone.matrix)

    def test_acquire_keyed_keeps_request_order_and_context(self, many_cpus):
        import contextvars

        from repro.acquisition.bench import acquire_keyed

        marker = contextvars.ContextVar("marker", default=None)
        seen = []
        scope = Oscilloscope(adc=ADCConfig())
        original = scope.acquire

        def acquire(device, *args):
            seen.append(marker.get())
            return original(device, *args)

        scope.acquire = acquire
        marker.set("caller")
        requests = [(make_device(name), n) for name, n in zip("abcde", (9, 3, 7, 1, 5))]
        results = acquire_keyed(scope, "K", requests)
        assert seen == ["caller"] * len(requests)
        for (device, n_traces), traces in zip(requests, results):
            assert traces.device_name == device.name
            rng = np.random.default_rng(derive_acquisition_seed("K", device.name, 64))
            alone = original(device, n_traces, rng)
            assert traces.matrix.tobytes() == alone.matrix.tobytes()

    def test_acquire_keyed_stress(self, monkeypatch):
        # More threads than cores, a tiny switch interval, and devices
        # whose waveforms are not rendered yet and share one netlist
        # (so one process-wide activity-cache entry): every trace set
        # must still equal its acquisition on a single thread.
        import sys

        import repro.acquisition.bench as bench_module
        from repro.acquisition.bench import acquire_keyed
        from repro.acquisition.device import clear_fleet_activity_cache

        scope = Oscilloscope(adc=ADCConfig())
        counts = [20 + index for index in range(12)]
        results = {}
        for threads in (8, 1):
            monkeypatch.setattr(bench_module, "_usable_cpus", lambda: threads)
            clear_fleet_activity_cache()
            requests = [(make_device(f"d{i}"), n) for i, n in enumerate(counts)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                results[threads] = acquire_keyed(scope, "K", requests)
            finally:
                sys.setswitchinterval(interval)
        for threaded, inline in zip(results[8], results[1]):
            assert threaded.matrix.tobytes() == inline.matrix.tobytes()

    @pytest.mark.parametrize("budget_rows", [1000, 70])
    def test_batched_misses_match_per_device_calls(self, many_cpus, budget_rows):
        cfg = quick_config()
        row_bytes = 8 * make_device().trace_length()
        # 70 rows hold the warm entries but not them and the batch too,
        # so making room evicts both.
        options = ArtifactOptions(max_trace_bytes=budget_rows * row_bytes)
        warm = [("old", 40), ("older", 30)]
        requests = [("a", 30), ("c", 10), ("d", 20)]
        one_by_one = ArtifactCache(options)
        batched = ArtifactCache(options)
        for cache in (one_by_one, batched):
            for name, n_traces in warm:
                cache.traces(cfg, make_device(name), n_traces)
        expected = [
            one_by_one.traces(cfg, make_device(name), n) for name, n in requests
        ]
        served = batched.traces_many(
            cfg, [(make_device(name), n) for name, n in requests]
        )
        assert list(batched._traces) == list(one_by_one._traces)
        peak = batched.stats.peak_bytes
        # Room for the whole batch is made before acquiring, so a batch
        # that fits the budget peaks no higher; every other stat is equal.
        assert peak <= one_by_one.stats.peak_bytes <= options.max_trace_bytes
        assert batched.stats == dataclasses.replace(one_by_one.stats, peak_bytes=peak)
        if budget_rows == 1000:
            assert peak == one_by_one.stats.peak_bytes
        for got, want in zip(served, expected):
            assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_batched_hits_are_resolved_before_misses(self, many_cpus, tmp_path):
        cfg = quick_config()
        root = str(tmp_path / "artifacts")
        ArtifactCache(ArtifactOptions(root=root)).traces(cfg, make_device("b"), 20)
        cache = ArtifactCache(ArtifactOptions(root=root))
        cache.traces(cfg, make_device("a"), 20)
        served = cache.traces_many(
            cfg,
            [(make_device("a"), 10), (make_device("b"), 20), (make_device("c"), 5)],
        )
        assert cache.stats.trace_hits == 1
        assert cache.stats.disk_hits == 1
        assert cache.stats.trace_misses == 2
        assert [traces.n_traces for traces in served] == [10, 20, 5]
        fresh = ArtifactCache()
        for traces in served:
            direct = fresh.traces(cfg, make_device(traces.device_name), traces.n_traces)
            np.testing.assert_array_equal(traces.matrix, direct.matrix)


class TestArtifactCache:
    def test_campaign_sharing_is_byte_identical(self):
        cfg = quick_config()
        unshared = coefficient_matrix(run_campaign(cfg))
        cache = ArtifactCache()
        cold = coefficient_matrix(run_campaign(cfg, artifacts=cache))
        assert cache.stats.fleet_hits == 0
        assert cache.stats.trace_hits == 0
        # An identical config re-runs the analysis on the cached fleet
        # and every cached trace matrix.
        warm = coefficient_matrix(run_campaign(cfg, artifacts=cache))
        assert cache.stats.fleet_hits == 1
        assert cache.stats.trace_hits == 8
        assert cache.stats.trace_misses == 8
        # So does a config differing only in an analysis-side knob.
        rotated = dataclasses.replace(cfg, analysis_seed=cfg.analysis_seed + 1)
        run_campaign(rotated, artifacts=cache)
        assert cache.stats.fleet_hits == 2
        assert cache.stats.trace_hits == 16
        for pair, coefficients in unshared.items():
            np.testing.assert_array_equal(coefficients, cold[pair])
            np.testing.assert_array_equal(coefficients, warm[pair])

    def test_prefix_reuse_across_ceilings(self):
        cache = ArtifactCache()
        big = quick_config()
        run_campaign(big, artifacts=cache)
        assert cache.stats.trace_misses == 8
        small_params = ProcessParameters(k=4, m=4, n1=16, n2=48)
        small = dataclasses.replace(big, parameters=small_params)
        shared = coefficient_matrix(run_campaign(small, artifacts=cache))
        # All 8 trace sets served by prefix from the bigger acquisition.
        assert cache.stats.trace_misses == 8
        direct = coefficient_matrix(run_campaign(small))
        for pair, coefficients in direct.items():
            np.testing.assert_array_equal(coefficients, shared[pair])

    def test_run_campaign_fleet_tag_applies_transform(self):
        # run_campaign must manufacture *transformed* fleets for a
        # non-trivial fleet_tag — with and without a cache — so an
        # attacked campaign can never silently run on pristine devices.
        cfg = quick_config()
        pristine = coefficient_matrix(run_campaign(cfg))
        stripped = coefficient_matrix(run_campaign(cfg, fleet_tag="strip"))
        assert any(
            not np.array_equal(pristine[pair], stripped[pair])
            for pair in pristine
        )
        cache = ArtifactCache()
        shared = coefficient_matrix(
            run_campaign(cfg, artifacts=cache, fleet_tag="strip")
        )
        for pair, coefficients in stripped.items():
            np.testing.assert_array_equal(coefficients, shared[pair])
        with pytest.raises(KeyError):
            run_campaign(cfg, fleet_tag="no-such-attack")

    def test_explicit_fleet_with_artifacts_requires_cache_provenance(self):
        # An arbitrary fleet= cannot be combined with artifacts=: the
        # trace cache could not tell its traces from the config-built
        # fleet's.  A fleet obtained from the cache itself is fine.
        from repro.experiments.runner import manufacture_fleet, repeated_accuracy

        cfg = quick_config()
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="artifacts.fleet"):
            run_campaign(cfg, fleet=manufacture_fleet(cfg), artifacts=cache)
        fleet = cache.fleet(cfg, "none", lambda: manufacture_fleet(cfg))
        outcome = run_campaign(cfg, fleet=fleet, artifacts=cache)
        baseline = coefficient_matrix(run_campaign(cfg))
        for pair, coefficients in coefficient_matrix(outcome).items():
            np.testing.assert_array_equal(coefficients, baseline[pair])
        # repeated_accuracy routes its fleet through the cache, so the
        # provenance check accepts it.
        shared = repeated_accuracy(cfg, n_repeats=2, artifacts=ArtifactCache())
        unshared = repeated_accuracy(cfg, n_repeats=2)
        assert shared == unshared

    def test_memory_budget_evicts_lru(self):
        device = make_device()
        cfg = quick_config()
        row_bytes = 8 * device.trace_length()
        cache = ArtifactCache(ArtifactOptions(max_trace_bytes=30 * row_bytes))
        cache.traces(cfg, make_device("a"), 20)
        cache.traces(cfg, make_device("b"), 20)
        assert cache.stats.bytes_in_memory <= 30 * row_bytes
        assert cache.stats.peak_bytes >= 20 * row_bytes

    def test_disk_tier_round_trip(self, tmp_path):
        root = str(tmp_path / "artifacts")
        cfg = quick_config()
        device = make_device()
        writer = ArtifactCache(ArtifactOptions(root=root))
        acquired = writer.traces(cfg, device, 25)
        reader = ArtifactCache(ArtifactOptions(root=root))
        loaded = reader.traces(cfg, make_device(), 25)
        assert reader.stats.disk_hits == 1
        assert reader.stats.trace_misses == 0
        np.testing.assert_array_equal(acquired.matrix, loaded.matrix)

    def test_disk_tier_upgrades_to_larger_ceiling(self, tmp_path):
        root = str(tmp_path / "artifacts")
        cfg = quick_config()
        first = ArtifactCache(ArtifactOptions(root=root))
        first.traces(cfg, make_device(), 10)
        second = ArtifactCache(ArtifactOptions(root=root))
        bigger = second.traces(cfg, make_device(), 40)
        assert second.stats.trace_misses == 1  # disk copy too small
        third = ArtifactCache(ArtifactOptions(root=root))
        reloaded = third.traces(cfg, make_device(), 40)
        assert third.stats.disk_hits == 1
        np.testing.assert_array_equal(bigger.matrix, reloaded.matrix)

    def test_fleet_requires_factory_on_miss(self):
        cache = ArtifactCache()
        with pytest.raises(KeyError):
            cache.fleet(quick_config())

    def test_process_cache_reconfigures_on_new_options(self):
        clear_process_artifact_cache()
        try:
            default = process_artifact_cache()
            assert process_artifact_cache() is default
            resized = process_artifact_cache(
                ArtifactOptions(max_trace_bytes=1024)
            )
            assert resized is not default
            assert process_artifact_cache(
                ArtifactOptions(max_trace_bytes=1024)
            ) is resized
        finally:
            clear_process_artifact_cache()


def sharing_spec(name="shared", seed=5, pinned=True, attacks=("none",)):
    base = {
        "parameters.n1": 32,
        "parameters.n2": 64,
        "noise.sigma": 1.0,
    }
    if pinned:
        base.update({"fleet_seed": 2014, "measurement_seed": 42})
    return SweepSpec(
        name=name,
        grid=(
            GridAxis("parameters.k", (4, 8)),
            GridAxis("parameters.m", (4, 8)),
            GridAxis("attack", tuple(attacks)),
        ),
        base=base,
        seed=seed,
    )


class TestSweepSharingByteIdentity:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_store_digests_identical_with_and_without_sharing(
        self, tmp_path, n_workers
    ):
        spec = sharing_spec(attacks=("none", "strip"))
        plain = SweepStore(str(tmp_path / f"plain{n_workers}"))
        shared = SweepStore(str(tmp_path / f"shared{n_workers}"))
        run(spec, plain, SweepOptions(n_workers=n_workers))
        run(
            spec, shared, SweepOptions(n_workers=n_workers, artifacts=ArtifactOptions())
        )
        assert store_digests(plain.root) == store_digests(shared.root)

    def test_engine_axis_with_sharing_matches_unshared_store(self, tmp_path):
        # Each engine value has its own fleet key, so sharing runs every
        # scenario's campaign in full on its own fleet; the measurement
        # base key leaves the engine out, so the trace tier serves the
        # same bytes to all three.
        spec = SweepSpec(
            name="engines",
            grid=(GridAxis("engine", ("auto", "compiled", "interpreted")),),
            base={
                "parameters.k": 4,
                "parameters.m": 4,
                "parameters.n1": 32,
                "parameters.n2": 64,
                "fleet_seed": 2014,
                "measurement_seed": 42,
            },
            seed=3,
        )
        plain = SweepStore(str(tmp_path / "plain"))
        shared = SweepStore(str(tmp_path / "shared"))
        run(spec, plain, SweepOptions(n_workers=1))
        run(spec, shared, SweepOptions(n_workers=1, artifacts=ArtifactOptions()))
        digests = store_digests(shared.root)
        assert len(digests) >= spec.n_scenarios
        assert digests == store_digests(plain.root)

    def test_disk_tier_matches_memory_only_sharing(self, tmp_path):
        spec = sharing_spec()
        memory = SweepStore(str(tmp_path / "memory"))
        disk = SweepStore(str(tmp_path / "disk"))
        run(spec, memory, SweepOptions(n_workers=1, artifacts=ArtifactOptions()))
        run(
            spec,
            disk,
            SweepOptions(
                n_workers=1, artifacts=ArtifactOptions(root=str(tmp_path / "tier"))
            ),
        )
        assert store_digests(memory.root) == store_digests(disk.root)
        # The tier actually persisted trace artifacts.
        assert len(SweepStore(str(tmp_path / "tier"))) > 0

    def test_unpinned_derived_seeds_still_byte_identical(self, tmp_path):
        # Without pinned seeds every scenario acquires its own traces
        # (no sharing opportunity), but enabling the cache must remain
        # a no-op on the results.
        spec = sharing_spec(pinned=False)
        plain = SweepStore(str(tmp_path / "plain"))
        shared = SweepStore(str(tmp_path / "shared"))
        run(spec, plain, SweepOptions(n_workers=1))
        run(spec, shared, SweepOptions(n_workers=1, artifacts=ArtifactOptions()))
        assert store_digests(plain.root) == store_digests(shared.root)

    def test_sharing_skips_redundant_acquisition(self, tmp_path):
        clear_process_artifact_cache()
        try:
            spec = sharing_spec()  # 4 scenarios, one measurement tier
            store = SweepStore(str(tmp_path / "store"))
            run(spec, store, SweepOptions(n_workers=1, artifacts=ArtifactOptions()))
            cache = process_artifact_cache()
            assert cache.stats.fleet_misses == 1
            assert cache.stats.trace_misses == 8  # one fleet's worth
            assert cache.stats.trace_hits >= 3 * 8
        finally:
            clear_process_artifact_cache()
