"""Tests for the cross-campaign batch pool.

The pool (:mod:`repro.hdl.batch_pool`) defers simulation requests from
many campaigns and flushes them in shared shape-grouped batches.  It
is a pure execution strategy: every test here either proves
byte-identity against the unpooled path or pins down the pool's
contract — budget-triggered flushes mid-scenario, ragged cycle counts
in one pool, keyed dedupe across campaigns, and exception propagation
out of a pooled flush.
"""

import hashlib
import os

import numpy as np
import pytest

from repro.acquisition.device import (
    Device,
    clear_fleet_activity_cache,
    prime_fleet_activity,
)
from repro.experiments.artifacts import (
    ArtifactCache,
    ArtifactOptions,
    clear_process_artifact_cache,
)
from repro.experiments.designs import build_paper_ip
from repro.experiments.runner import CampaignConfig, run_campaign
from repro.core.process import ProcessParameters
from repro.hdl import DRegister, Netlist, Simulator, TransitionTable
from repro.hdl.batch_pool import BatchPool, BatchPoolOptions
from repro.power.models import PowerModel
from repro.sweeps import GridAxis, SweepOptions, SweepSpec, SweepStore, run
from repro.sweeps.scenario import outcome_arrays

QUICK = ProcessParameters(k=4, m=4, n1=32, n2=64)


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    """Force every test to exercise the pool, not a warm shared cache."""
    clear_fleet_activity_cache()
    clear_process_artifact_cache()
    yield
    clear_fleet_activity_cache()
    clear_process_artifact_cache()


def quick_config(**overrides) -> CampaignConfig:
    return CampaignConfig(parameters=QUICK, **overrides)


def paper_simulator(ip_name: str) -> Simulator:
    return Simulator(build_paper_ip(ip_name).netlist)


def paper_device(ip_name: str, cycles: int = 96, name=None) -> Device:
    return Device(
        name if name is not None else ip_name,
        build_paper_ip(ip_name),
        PowerModel(),
        default_cycles=cycles,
    )


def broken_netlist(name: str = "broken") -> Netlist:
    """A design whose FSM walks into a state with no transition entry."""
    netlist = Netlist(name)
    state = netlist.wire("st", 3)
    nxt = netlist.wire("nx", 3)
    netlist.add(TransitionTable("tt", state, nxt, {0: 1, 1: 2}))
    netlist.add(DRegister("reg", nxt, state))
    return netlist


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


def pooled_sweep_spec(name="pooled", attacks=("none", "strip")):
    return SweepSpec(
        name=name,
        grid=(
            GridAxis("noise.sigma", (0.5, 1.0)),
            GridAxis("attack", tuple(attacks)),
        ),
        base={
            "parameters.k": 4,
            "parameters.m": 4,
            "parameters.n1": 32,
            "parameters.n2": 64,
            "fleet_seed": 1,
            "measurement_seed": 2,
        },
        seed=9,
    )


class TestBatchPool:
    def test_pooled_traces_byte_identical_to_scalar(self):
        pool = BatchPool()
        futures = {
            ip: pool.submit(paper_simulator(ip), 80)
            for ip in ("IP_A", "IP_B", "IP_C", "IP_D")
        }
        executed = pool.flush()
        assert executed == 4
        for ip, future in futures.items():
            reference = paper_simulator(ip).run(80)
            trace = future.result()
            assert trace.channels == reference.channels
            np.testing.assert_array_equal(trace.matrix, reference.matrix)

    def test_flush_on_lane_budget_mid_submission(self):
        pool = BatchPool(BatchPoolOptions(max_lanes=2))
        first = pool.submit(paper_simulator("IP_B"), 64)
        assert not first.done()
        second = pool.submit(paper_simulator("IP_C"), 64)
        # The second submission crossed the lane budget: both resolved.
        assert first.done() and second.done()
        assert pool.stats.auto_flushes == 1
        third = pool.submit(paper_simulator("IP_D"), 64)
        assert not third.done() and len(pool) == 1
        pool.flush()
        reference = paper_simulator("IP_D").run(64)
        np.testing.assert_array_equal(third.result().matrix, reference.matrix)

    def test_flush_on_byte_budget(self):
        pool = BatchPool(BatchPoolOptions(max_bytes=1))
        future = pool.submit(paper_simulator("IP_B"), 64)
        assert future.done()
        assert pool.stats.auto_flushes == 1
        assert pool.pending_bytes == 0

    def test_ragged_cycle_counts_share_one_pool(self):
        pool = BatchPool()
        cycles = {"IP_B": 64, "IP_C": 96, "IP_D": 48}
        futures = {
            ip: pool.submit(paper_simulator(ip), count)
            for ip, count in cycles.items()
        }
        assert pool.flush() == 3
        for ip, future in futures.items():
            reference = paper_simulator(ip).run(cycles[ip])
            np.testing.assert_array_equal(future.result().matrix, reference.matrix)

    def test_keyed_submissions_dedupe_within_flush_window(self):
        pool = BatchPool()
        first = pool.submit(paper_simulator("IP_B"), 64, key=("s", 64))
        again = pool.submit(paper_simulator("IP_B"), 64, key=("s", 64))
        assert again is first
        assert pool.stats.deduped == 1 and pool.stats.submitted == 1
        assert pool.flush() == 1
        # After the flush the dedupe window is gone: a new submission
        # with the same key queues a fresh lane.
        fresh = pool.submit(paper_simulator("IP_B"), 64, key=("s", 64))
        assert fresh is not first and not fresh.done()
        pool.flush()

    def test_result_forces_flush(self):
        pool = BatchPool()
        future = pool.submit(paper_simulator("IP_A"), 64)
        trace = future.result()
        assert pool.stats.flushes == 1
        reference = paper_simulator("IP_A").run(64)
        np.testing.assert_array_equal(trace.matrix, reference.matrix)

    def test_exception_propagates_out_of_pooled_flush(self):
        pool = BatchPool()
        doomed = [
            pool.submit(Simulator(broken_netlist(f"broken{i}")), 16)
            for i in range(2)
        ]
        healthy = pool.submit(paper_simulator("IP_B"), 16)
        with pytest.raises(KeyError, match="no transition entry"):
            pool.flush()
        # Every future of the failed flush records the same error …
        for future in doomed:
            assert future.done()
            with pytest.raises(KeyError, match="no transition entry"):
                future.result()
        with pytest.raises(KeyError):
            healthy.result()
        # … and the pool stays usable for subsequent work.
        retry = pool.submit(paper_simulator("IP_B"), 16)
        reference = paper_simulator("IP_B").run(16)
        np.testing.assert_array_equal(retry.result().matrix, reference.matrix)

    def test_rejects_nonpositive_cycles_and_budgets(self):
        with pytest.raises(ValueError):
            BatchPoolOptions(max_lanes=0)
        with pytest.raises(ValueError):
            BatchPoolOptions(max_bytes=0)
        with pytest.raises(ValueError):
            BatchPool().submit(paper_simulator("IP_A"), 0)


class TestPooledPriming:
    def test_prime_defers_until_flush_then_installs(self):
        pool = BatchPool()
        devices = [paper_device(ip) for ip in ("IP_A", "IP_B", "IP_C")]
        submitted = prime_fleet_activity(devices, pool=pool)
        assert submitted == 3
        assert all(not device._activity_cache for device in devices)
        pool.flush()
        for device in devices:
            assert 96 in device._activity_cache
            reference = paper_device(device.name, name="ref").activity()
            np.testing.assert_array_equal(
                device.activity().matrix, reference.matrix
            )

    def test_two_campaigns_share_lanes_before_the_flush(self):
        pool = BatchPool()
        fleet_one = [paper_device(ip) for ip in ("IP_B", "IP_C")]
        fleet_two = [paper_device(ip, name=f"{ip}'") for ip in ("IP_B", "IP_C")]
        assert prime_fleet_activity(fleet_one, pool=pool) == 2
        # The second fleet's structures are already pending: its
        # submissions dedupe onto the first campaign's lanes.
        assert prime_fleet_activity(fleet_two, pool=pool) == 2
        assert pool.stats.submitted == 2 and pool.stats.deduped == 2
        assert pool.flush() == 2
        for device in (*fleet_one, *fleet_two):
            assert 96 in device._activity_cache
        np.testing.assert_array_equal(
            fleet_one[0].activity().matrix, fleet_two[0].activity().matrix
        )


class TestOverlappedFlushing:
    """Flushing overlaps with acquisition instead of draining up front.

    The executor's prefetch flushes only the first submitting
    scenario's lanes; the rest of the wave stays pending and drains
    when a campaign whose priming found unresolved lanes flushes.  A
    campaign (or bench) whose fleet is already resolved must never
    force other callers' pending lanes to execute.
    """

    def test_prefetch_flushes_only_the_first_wave(self, tmp_path):
        from repro.sweeps.executor import _prefetch_into_pool
        from repro.sweeps.spec import expand_scenarios

        scenarios = expand_scenarios(pooled_sweep_spec())
        pool = BatchPool()
        fleets = _prefetch_into_pool(scenarios, None, pool)
        assert set(fleets) == {s.scenario_id for s in scenarios}
        # Exactly one eager flush: the first scenario's wave.  Lanes
        # from structurally new later scenarios are still pending.
        assert pool.stats.flushes == 1
        assert len(pool) > 0
        # The first scenario's campaign can measure immediately: its
        # fleet's activity is fully installed.
        refds, duts = fleets[scenarios[0].scenario_id]
        for device in (*refds.values(), *duts.values()):
            assert device._activity_cache
        # The first campaign that needs the pending wave drains it.
        for scenario in scenarios[1:]:
            refds, duts = fleets[scenario.scenario_id]
            devices = (*refds.values(), *duts.values())
            if prime_fleet_activity(devices, pool=pool):
                pool.flush()
        assert len(pool) == 0

    def test_resolved_campaign_does_not_drain_other_lanes(self):
        from repro.experiments.runner import build_campaign_fleet

        cfg = quick_config()
        refds, duts = build_campaign_fleet(cfg, "none")
        prime_fleet_activity((*refds.values(), *duts.values()))
        pool = BatchPool()
        foreign = pool.submit(paper_simulator("IP_A"), 64)
        # The campaign's structures are already in the process-wide
        # activity cache, so its priming submits nothing and the
        # conditional flush leaves the foreign lane pending.
        run_campaign(cfg, batch_pool=pool)
        assert not foreign.done()
        assert len(pool) == 1 and pool.stats.flushes == 0
        pool.flush()
        assert foreign.done()

    def test_overlapped_campaign_outcome_is_byte_identical(self):
        cfg = quick_config()
        plain = run_campaign(cfg)
        clear_fleet_activity_cache()
        pool = BatchPool()
        pool.submit(paper_simulator("IP_B"), 48)  # unrelated pending lane
        pooled = run_campaign(cfg, batch_pool=pool)
        plain_arrays = outcome_arrays(plain)
        for key, values in outcome_arrays(pooled).items():
            np.testing.assert_array_equal(values, plain_arrays[key])


class TestSharedCampaigns:
    def test_fleet_tags_never_alias_outcomes(self):
        cache = ArtifactCache()
        cfg = quick_config()
        pristine = outcome_arrays(run_campaign(cfg, artifacts=cache))
        stripped = outcome_arrays(
            run_campaign(cfg, artifacts=cache, fleet_tag="strip")
        )
        assert any(
            not np.array_equal(values, pristine[key])
            for key, values in stripped.items()
        )
        # Re-runs are served from each tag's own fleet and traces.
        again = outcome_arrays(
            run_campaign(cfg, artifacts=cache, fleet_tag="strip")
        )
        assert cache.stats.fleet_hits == 1 and cache.stats.fleet_misses == 2
        for key, values in again.items():
            np.testing.assert_array_equal(values, stripped[key])
        repeat = outcome_arrays(run_campaign(cfg, artifacts=cache))
        for key, values in repeat.items():
            np.testing.assert_array_equal(values, pristine[key])


class TestPooledSweepByteIdentity:
    def test_pool_memo_and_budgets_keep_store_digests(self, tmp_path):
        spec = pooled_sweep_spec()
        plain = SweepStore(str(tmp_path / "plain"))
        run(spec, plain, SweepOptions(n_workers=1))
        reference = store_digests(plain.root)

        pooled = SweepStore(str(tmp_path / "pooled"))
        run(spec, pooled, SweepOptions(n_workers=1, pool=BatchPoolOptions()))
        assert store_digests(pooled.root) == reference

        # Tiny lane budget: the prefetch flushes repeatedly mid-wave.
        budget = SweepStore(str(tmp_path / "budget"))
        run(
            spec, budget, SweepOptions(n_workers=1, pool=BatchPoolOptions(max_lanes=2))
        )
        assert store_digests(budget.root) == reference

        shared = SweepStore(str(tmp_path / "shared"))
        run(
            spec,
            shared,
            SweepOptions(
                n_workers=1, artifacts=ArtifactOptions(), pool=BatchPoolOptions()
            ),
        )
        assert store_digests(shared.root) == reference

        # Repeat study: same spec, fresh store, warm fleet and trace tiers.
        repeat = SweepStore(str(tmp_path / "repeat"))
        report = run(
            spec,
            repeat,
            SweepOptions(
                n_workers=1, artifacts=ArtifactOptions(), pool=BatchPoolOptions()
            ),
        )
        assert report.n_executed == spec.n_scenarios
        assert store_digests(repeat.root) == reference

    def test_multiple_prefetch_windows_keep_digests(self, tmp_path):
        # More pending scenarios than one prefetch window (8): the
        # executor prefetches and executes window by window, bounding
        # fleet memory, without changing a stored byte.
        spec = SweepSpec(
            name="windows",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.0, 1.5)),
                GridAxis("parameters.n2", (48, 64)),
                GridAxis("attack", ("none", "strip")),
            ),
            base={
                "parameters.k": 4,
                "parameters.m": 4,
                "parameters.n1": 32,
                "fleet_seed": 1,
                "measurement_seed": 2,
            },
            seed=9,
        )
        assert spec.n_scenarios == 12
        plain = SweepStore(str(tmp_path / "plain"))
        run(spec, plain, SweepOptions(n_workers=1))
        pooled = SweepStore(str(tmp_path / "pooled"))
        run(spec, pooled, SweepOptions(n_workers=1, pool=BatchPoolOptions()))
        assert store_digests(pooled.root) == store_digests(plain.root)

    def test_four_workers_pooled_matches_serial_unpooled(self, tmp_path):
        spec = pooled_sweep_spec(name="pooled4")
        serial = SweepStore(str(tmp_path / "serial"))
        run(spec, serial, SweepOptions(n_workers=1))
        pooled = SweepStore(str(tmp_path / "pooled"))
        run(
            spec,
            pooled,
            SweepOptions(
                n_workers=4, artifacts=ArtifactOptions(), pool=BatchPoolOptions()
            ),
        )
        assert store_digests(serial.root) == store_digests(pooled.root)
