"""Tests for lease-based scheduling, retry/quarantine, store hygiene,
and the byte-identity invariant under injected faults."""

import dataclasses
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.sweeps import (
    FailureLog,
    FaultPlan,
    FaultRule,
    GridAxis,
    LeaseManager,
    RetryPolicy,
    SchedulerOptions,
    SweepOptions,
    SweepSpec,
    SweepStore,
    clear_fault_plan,
    expand_scenarios,
    install_fault_plan,
    run,
)
from repro.sweeps.faultinject import FAULT_PLAN_ENV

from tests.test_sweeps import QUICK, store_digests

#: No backoff sleeps: recovery tests already pay for child processes.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def run_leased(spec, store, n_workers=1, retry=FAST_RETRY, progress=None, **scheduler):
    """Run ``spec`` on leased worker processes (lease TTL 10 s)."""
    options = SweepOptions(
        n_workers=n_workers,
        retry=retry,
        scheduler=SchedulerOptions(**dict({"lease_ttl": 10.0}, **scheduler)),
    )
    return run(spec, store, options, progress=progress)


def run_in_process(spec, store, **options):
    return run(spec, store, SweepOptions(n_workers=1, **options))


@pytest.fixture(autouse=True)
def _pristine_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


def spec_of(sigmas, name="sched", seed=5):
    return SweepSpec(
        name=name,
        grid=(GridAxis("noise.sigma", tuple(sigmas)),),
        base=dict(QUICK),
        seed=seed,
    )


def set_env_plan(monkeypatch, *rules, seed=0):
    """Activate a plan for this process *and* forked attempt children."""
    plan = FaultPlan(rules=tuple(rules), seed=seed)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    clear_fault_plan()
    return plan


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.3
        )
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="delays"):
            RetryPolicy(backoff_base=-1.0)

    @pytest.mark.parametrize("name", ["backoff_base", "backoff_factor", "backoff_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RetryPolicy(**{name: value})


class TestSchedulerOptions:
    def test_validation(self):
        with pytest.raises(ValueError, match="lease_ttl"):
            SchedulerOptions(lease_ttl=0.0)
        with pytest.raises(ValueError, match="scenario_timeout"):
            SchedulerOptions(scenario_timeout=0.0)

    @pytest.mark.parametrize(
        "name", ["lease_ttl", "scenario_timeout", "status_interval"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SchedulerOptions(**{name: value})

    def test_only_lease_timeout_and_status_knobs(self):
        names = {field.name for field in dataclasses.fields(SchedulerOptions)}
        assert names == {"lease_ttl", "scenario_timeout", "status_interval"}


class TestLeaseManager:
    def test_acquire_is_exclusive_until_released(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        assert a.acquire("x")
        assert not b.acquire("x")
        a.release("x")
        assert b.acquire("x")

    def test_stale_lease_is_stolen(self, tmp_path):
        dead = LeaseManager(str(tmp_path), ttl=0.05, owner="dead")
        live = LeaseManager(str(tmp_path), ttl=30.0, owner="live")
        assert dead.acquire("x")
        time.sleep(0.1)
        assert live.acquire("x")
        assert live.read("x")["owner"] == "live"

    def test_heartbeat_requires_ownership(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        assert a.acquire("x")
        assert a.heartbeat("x")
        assert not b.heartbeat("x")
        assert not a.heartbeat("never-leased")

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        mgr.acquire("x")
        before = mgr.read("x")["heartbeat"]
        time.sleep(0.02)
        mgr.heartbeat("x")
        assert mgr.read("x")["heartbeat"] > before

    def test_corrupt_lease_treated_as_stale(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        with open(mgr.path("x"), "w") as handle:
            handle.write("{torn")
        assert mgr.acquire("x")

    def test_fresh_empty_lease_is_not_stolen(self, tmp_path):
        # An empty lease file is a claim whose payload is still being
        # written, not a torn write: taking it would run the digest
        # twice.  Once it is older than the TTL it is reclaimable.
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        open(mgr.path("x"), "w").close()
        assert not mgr.acquire("x")
        assert os.path.getsize(mgr.path("x")) == 0
        expired = time.time() - 60.0
        os.utime(mgr.path("x"), (expired, expired))
        assert mgr.acquire("x")
        assert mgr.read("x")["owner"] == "b"

    def test_acquire_leaves_only_the_published_lease(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        assert mgr.acquire("x")
        assert mgr.read("x")["owner"] == "a"
        # The temp file the payload was written to is gone.
        assert os.listdir(mgr.dir) == ["x.lease"]

    def test_scrub_removes_expired_and_scratch(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=0.05, owner="a")
        mgr.acquire("expired")
        with open(mgr.path("x") + ".stale-dead", "w") as handle:
            handle.write("{}")
        time.sleep(0.1)
        fresh = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        fresh.acquire("held")
        removed = fresh.scrub()
        assert len(removed) == 2
        assert fresh.read("held") is not None
        assert fresh.read("expired") is None


class TestFailureLog:
    def test_attempt_numbers_are_persistent(self, tmp_path):
        log = FailureLog(str(tmp_path))
        assert log.record_attempt("x", "owner-1") == 1
        assert log.record_attempt("x", "owner-1") == 2
        # A fresh instance (new process / new run) continues the count.
        assert FailureLog(str(tmp_path)).record_attempt("x", "owner-2") == 3
        owners = [entry["owner"] for entry in log.history("x")]
        assert owners == ["owner-1", "owner-1", "owner-2"]

    def test_record_error_attaches_to_latest(self, tmp_path):
        log = FailureLog(str(tmp_path))
        log.record_attempt("x", "o")
        log.record_attempt("x", "o")
        log.record_error("x", {"type": "Boom", "message": "m", "traceback": ""})
        history = log.history("x")
        assert history[0]["error"] is None
        assert history[1]["error"]["type"] == "Boom"

    def test_quarantine_round_trip_and_clear(self, tmp_path):
        log = FailureLog(str(tmp_path))
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        log.quarantine(
            scenario,
            {"type": "Boom", "message": "m", "traceback": "tb"},
            attempts=3,
            owner="o",
        )
        assert log.quarantined_ids() == [scenario.scenario_id]
        record = log.load_quarantine(scenario.scenario_id)
        assert record["attempts"] == 3
        assert record["error"]["type"] == "Boom"
        assert record["overrides"] == dict(scenario.overrides)
        log.clear_quarantine(scenario.scenario_id)
        assert log.quarantined_ids() == []

    def test_scrub_drops_scratch_and_satisfied_quarantines(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        log = FailureLog(store.root)
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        log.record_attempt(scenario.scenario_id, "o")
        # An error scratch file left in an old root by an earlier version.
        scratch = os.path.join(log.attempts_dir, f"{scenario.scenario_id}.err-1.json")
        with open(scratch, "w") as f:
            f.write("{}")
        log.quarantine(scenario, {"type": "Boom"}, attempts=1, owner="o")
        store.put(scenario.scenario_id, {"ok": True})  # later success
        removed = log.scrub(store)
        assert len(removed) == 2
        assert log.quarantined_ids() == []
        assert log.history(scenario.scenario_id)  # history is kept


class TestStoreScrub:
    def test_removes_tmp_and_orphaned_bundles_only(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        store.put("done", {"v": 1}, {"x": np.ones(2)})
        with open(os.path.join(store.root, ".tmp-stale"), "w") as f:
            f.write("junk")
        with open(store.arrays_path("orphan"), "wb") as f:
            f.write(b"junk")
        removed = store.scrub()
        assert sorted(os.path.basename(p) for p in removed) == [
            ".tmp-stale",
            "orphan.npz",
        ]
        assert store.ids() == ["done"]
        assert os.path.exists(store.arrays_path("done"))

    def test_crash_between_bundle_and_record_is_recoverable(self, tmp_path):
        # A fault at the commit point leaves an orphaned bundle; scrub
        # removes it and a re-put converges to the clean bytes.
        clean = SweepStore(str(tmp_path / "clean"))
        clean.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        store = SweepStore(str(tmp_path / "store"))
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="store.put_record"),))
        )
        with pytest.raises(Exception, match="injected"):
            store.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        assert not store.has("abc")  # bundle orphaned, record absent
        clear_fault_plan()
        store.scrub()
        store.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        assert store_digests(store.root) == store_digests(clean.root)


class TestExecutorFaultTolerance:
    def test_transient_fault_retried_byte_identically(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)

        victim = expand_scenarios(spec)[0].scenario_id
        install_fault_plan(
            FaultPlan(
                rules=(
                    FaultRule(site="scenario.pre", key=victim, max_attempt=2),
                )
            )
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_in_process(spec, store, retry=FAST_RETRY)
        assert report.failed_ids == []
        assert report.retried_ids == [victim]
        assert store_digests(store.root) == store_digests(clean.root)

    def test_commit_point_fault_retried_byte_identically(self, tmp_path):
        spec = spec_of((0.5,))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)

        install_fault_plan(
            FaultPlan(
                rules=(FaultRule(site="store.put_record", max_attempt=1),)
            )
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_in_process(spec, store, retry=FAST_RETRY)
        assert report.failed_ids == []
        assert store_digests(store.root) == store_digests(clean.root)

    def test_quarantined_scenario_reattempted_on_resume(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)

        victim = expand_scenarios(spec)[0].scenario_id
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="scenario.pre", key=victim),))
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_in_process(
            spec, store, retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
        )
        assert report.failed_ids == [victim]
        assert len(store) == 1  # the sibling completed
        assert FailureLog(store.root).load_quarantine(victim)["attempts"] == 2

        clear_fault_plan()  # the cause is gone; resume converges
        resumed = run_in_process(spec, store, retry=FAST_RETRY)
        assert resumed.executed_ids == [victim]
        assert resumed.n_cached == 1
        assert FailureLog(store.root).load_quarantine(victim) is None
        assert store_digests(store.root) == store_digests(clean.root)


class TestScheduledSweep:
    def test_clean_run_matches_plain_executor(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        serial = SweepStore(str(tmp_path / "serial"))
        run_in_process(spec, serial)
        scheduled = SweepStore(str(tmp_path / "sched"))
        report = run_leased(spec, scheduled, n_workers=2)
        assert report.n_executed == 2
        assert report.failed_ids == [] and report.retried_ids == []
        assert store_digests(scheduled.root) == store_digests(serial.root)
        assert os.listdir(os.path.join(scheduled.root, ".leases")) == []

    def test_sigkilled_worker_recovered_byte_identically(
        self, tmp_path, monkeypatch
    ):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)

        # Every scenario's first attempt dies by SIGKILL mid-scenario.
        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.pre", kind="sigkill", max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_leased(spec, store, n_workers=2)
        assert report.failed_ids == []
        assert sorted(report.retried_ids) == sorted(report.scenario_ids)
        assert store_digests(store.root) == store_digests(clean.root)
        for scenario_id in report.scenario_ids:
            history = FailureLog(store.root).history(scenario_id)
            assert history[0]["error"]["type"] == "WorkerCrash"
            assert len(history) == 2

    def test_crash_then_rerun_converges(self, tmp_path, monkeypatch):
        # Budget of 1: the crash quarantines the scenario.  The rerun
        # (same plan still active!) sees persistent attempt 2, so the
        # rule no longer fires and the store converges byte-identically.
        spec = spec_of((0.5,))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)
        scenario_id = expand_scenarios(spec)[0].scenario_id

        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.post", kind="crash", max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        once = RetryPolicy(max_attempts=1, backoff_base=0.0)
        first = run_leased(spec, store, retry=once)
        assert first.failed_ids == [scenario_id]
        assert not store.has(scenario_id)

        second = run_leased(spec, store, retry=once)
        assert second.executed_ids == [scenario_id]
        assert FailureLog(store.root).load_quarantine(scenario_id) is None
        assert store_digests(store.root) == store_digests(clean.root)

    def test_timeout_kills_and_retries(self, tmp_path, monkeypatch):
        spec = spec_of((0.5,))
        scenario_id = expand_scenarios(spec)[0].scenario_id
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre", kind="delay", delay=60.0, max_attempt=1
            ),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_leased(
            spec,
            store,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
            scenario_timeout=0.5,
        )
        assert report.executed_ids == [scenario_id]
        assert report.retried_ids == [scenario_id]
        history = FailureLog(store.root).history(scenario_id)
        assert history[0]["error"]["type"] == "ScenarioTimeout"

    def test_expired_lease_is_reclaimed(self, tmp_path):
        spec = spec_of((0.5,))
        scenario_id = expand_scenarios(spec)[0].scenario_id
        store = SweepStore(str(tmp_path / "store"))
        # A dead worker's lease, long expired.
        dead = LeaseManager(store.root, ttl=0.05, owner="dead-worker")
        assert dead.acquire(scenario_id)
        time.sleep(0.1)
        report = run_leased(spec, store)
        assert report.executed_ids == [scenario_id]
        assert store.has(scenario_id)

    def test_live_lease_is_respected(self, tmp_path):
        # A fresh lease held by someone else: the scheduler must wait,
        # then treat the externally-published result as cached.
        spec = spec_of((0.5,))
        scenario = expand_scenarios(spec)[0]
        store = SweepStore(str(tmp_path / "store"))
        other = LeaseManager(store.root, ttl=30.0, owner="other")
        assert other.acquire(scenario.scenario_id)

        def finish_externally():
            time.sleep(0.2)
            from repro.sweeps.scenario import run_scenario

            result = run_scenario(scenario)
            store.put(scenario.scenario_id, result["record"], result["arrays"])
            other.release(scenario.scenario_id)

        thread = threading.Thread(target=finish_externally)
        thread.start()
        report = run_leased(spec, store)
        thread.join()
        assert report.cached_ids == [scenario.scenario_id]
        assert report.executed_ids == []
        # The waiting scheduler never attempted it.
        assert FailureLog(store.root).history(scenario.scenario_id) == []

    def test_result_published_before_claim_is_not_rerun(self, tmp_path, monkeypatch):
        # The result lands and its lease is released between the
        # scheduler's store check and its own claim: the scheduler must
        # check the store again under the lease instead of re-running.
        from repro.sweeps.scenario import run_scenario

        spec = spec_of((0.5,))
        scenario = expand_scenarios(spec)[0]
        store = SweepStore(str(tmp_path / "store"))
        result = run_scenario(scenario)
        claim = LeaseManager.acquire

        def publish_then_claim(self, scenario_id):
            if not store.has(scenario_id):
                store.put(scenario_id, result["record"], result["arrays"])
            return claim(self, scenario_id)

        monkeypatch.setattr(LeaseManager, "acquire", publish_then_claim)
        report = run_leased(spec, store)
        assert report.cached_ids == [scenario.scenario_id]
        assert report.executed_ids == []
        assert FailureLog(store.root).history(scenario.scenario_id) == []
        assert LeaseManager(store.root, ttl=30.0).read(scenario.scenario_id) is None

    def test_concurrent_schedulers_execute_each_digest_once(self, tmp_path):
        spec = spec_of((0.4, 0.8, 1.2, 1.6))
        store = SweepStore(str(tmp_path / "store"))
        reports = [None, None]

        def go(i):
            reports[i] = run_leased(spec, store, n_workers=2)

        threads = [
            threading.Thread(target=go, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        log = FailureLog(store.root)
        for scenario in expand_scenarios(spec):
            assert len(log.history(scenario.scenario_id)) == 1
        executed = reports[0].executed_ids + reports[1].executed_ids
        assert sorted(executed) == sorted(reports[0].scenario_ids)

        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)
        assert store_digests(store.root) == store_digests(clean.root)


def record_worker_pids(monkeypatch, path):
    """Wrap the executor's ``run_scenario`` to append the calling PID to
    ``path``; forked workers inherit the wrapper."""
    import repro.sweeps.executor as executor

    original = executor.run_scenario

    def recording(*args, **kwargs):
        with open(path, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(executor, "run_scenario", recording)


def recorded_pids(path):
    with open(path) as handle:
        return [int(line) for line in handle]


class TestWorkerPool:
    """Long-lived workers: reuse, replacement after crash and timeout,
    and no process outliving ``run()``."""

    def test_fault_free_run_reuses_its_workers(self, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        record_worker_pids(monkeypatch, pids)
        spec = spec_of((0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6))
        report = run_leased(spec, SweepStore(str(tmp_path / "store")), n_workers=2)
        assert report.n_executed == 8
        assert len(recorded_pids(pids)) == 8
        assert len(set(recorded_pids(pids))) <= 2
        assert os.getpid() not in recorded_pids(pids)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["crash", "sigkill"])
    def test_dead_worker_is_replaced(self, tmp_path, monkeypatch, kind):
        spec = spec_of((0.5, 1.0, 1.5))
        victim = expand_scenarios(spec)[0].scenario_id
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)
        pids = tmp_path / "pids"
        record_worker_pids(monkeypatch, pids)
        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.post", kind=kind, key=victim, max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run_leased(spec, store)
        assert report.failed_ids == []
        assert report.retried_ids == [victim]
        assert sorted(report.executed_ids) == sorted(report.scenario_ids)
        assert FailureLog(store.root).history(victim)[0]["error"]["type"] == (
            "WorkerCrash"
        )
        # The dead worker ran the victim's first attempt only; its
        # replacement ran everything after.
        first, *later = recorded_pids(pids)
        assert later and first not in later and len(set(later)) == 1
        assert store_digests(store.root) == store_digests(clean.root)
        assert multiprocessing.active_children() == []

    def test_timeout_replaces_only_its_own_worker(self, tmp_path, monkeypatch):
        spec = spec_of((0.5, 1.0, 1.5))
        victim = expand_scenarios(spec)[0].scenario_id
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre",
                kind="delay",
                delay=60.0,
                key=victim,
                max_attempt=1,
            ),
        )
        children = []

        def progress(scenario_id, executed):
            children.append({p.pid for p in multiprocessing.active_children()})

        report = run_leased(
            spec,
            SweepStore(str(tmp_path / "store")),
            n_workers=2,
            progress=progress,
            scenario_timeout=1.5,
        )
        assert report.retried_ids == [victim]
        assert sorted(report.executed_ids) == sorted(report.scenario_ids)
        # The siblings finished on the other worker before the timeout;
        # the victim's retry finished after it.  Exactly one of the two
        # workers was replaced in between.
        assert len(children[0]) == len(children[-1]) == 2
        assert len(children[0] & children[-1]) == 1
        assert multiprocessing.active_children() == []

    def test_raising_progress_callback_reaps_workers(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))

        def progress(scenario_id, executed):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            run_leased(spec_of((0.5, 1.0, 1.5)), store, n_workers=2, progress=progress)
        assert multiprocessing.active_children() == []
        assert os.listdir(os.path.join(store.root, ".leases")) == []

    def test_heartbeat_keeps_a_long_attempt_leased(self, tmp_path, monkeypatch):
        # Heartbeats every lease_ttl / 4 keep a 2 s attempt's 0.8 s
        # lease fresh, so a second run on the same root never steals it.
        spec = spec_of((0.5,))
        scenario_id = expand_scenarios(spec)[0].scenario_id
        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.pre", kind="delay", delay=2.0, max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        first = threading.Thread(
            target=run_leased, args=(spec, store), kwargs={"lease_ttl": 0.8}
        )
        first.start()
        time.sleep(1.0)
        second = run_leased(spec, store, lease_ttl=0.8)
        first.join(timeout=60)
        assert not first.is_alive()
        assert second.cached_ids == [scenario_id]
        assert len(FailureLog(store.root).history(scenario_id)) == 1


class TestChaosInvariant:
    def test_mixed_fault_soup_converges(self, tmp_path, monkeypatch):
        """The acceptance scenario: seeded exceptions, a SIGKILL'd
        worker and an expired lease together still yield a store
        byte-identical to a clean 1-worker run."""
        spec = spec_of((0.5, 1.0, 1.5))
        clean = SweepStore(str(tmp_path / "clean"))
        run_in_process(spec, clean)

        scenarios = expand_scenarios(spec)
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre",
                kind="sigkill",
                key=scenarios[0].scenario_id,
                max_attempt=1,
            ),
            FaultRule(site="scenario.post", probability=0.5, max_attempt=1),
            FaultRule(site="store.put_record", probability=0.5, max_attempt=2),
            seed=13,
        )
        store = SweepStore(str(tmp_path / "store"))
        # One scenario already carries an expired foreign lease.
        dead = LeaseManager(store.root, ttl=0.05, owner="dead-worker")
        assert dead.acquire(scenarios[1].scenario_id)
        time.sleep(0.1)

        report = run_leased(
            spec,
            store,
            n_workers=2,
            retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
        )
        assert report.failed_ids == []
        assert sorted(report.executed_ids) == sorted(report.scenario_ids)
        assert store_digests(store.root) == store_digests(clean.root)
