"""Where sweep attempts run: in process, or on long-lived workers.

:func:`repro.sweeps.scheduler.supervise` owns every sweep's attempt
loop — attempt numbering, retry, quarantine, leases, progress and the
:class:`SweepReport`.  This module provides the two places it runs
attempts in, behind one small interface (``capacity``, ``submit``,
``wait``, ``close``, and ``kill`` where scenario timeouts apply):

* :class:`InlineAttempts` runs each attempt on the calling thread.
  The supervisor uses it when ``n_workers == 1`` and no scheduler
  options are given.
* :class:`WorkerPool` forks ``min(n_workers, pending)`` worker
  processes once per run.  Each loops on a pipe: it receives
  ``(scenario, attempt)``, runs the attempt and replies ``None`` on
  success or an :func:`~repro.sweeps.scheduler.error_info` dict on
  failure.  A worker that dies mid-attempt (``os._exit``, SIGKILL,
  OOM) or is killed at its scenario timeout is replaced by a fresh
  fork; the supervisor records the attempt as failed.

Both run the same attempt body (:func:`_execute_attempt`): fault
context, ``scenario.pre`` / ``scenario.post`` fault points,
:func:`~repro.sweeps.scenario.run_scenario` and ``store.put``.

Determinism: a scenario's result is a pure function of its override
mapping (all seeds are inside it, derived from the spec), and every
attempt writes results through the same deterministic serialisation.
A 4-worker run therefore produces a byte-identical store to a 1-worker
run; only wall-clock time changes.  Each finished scenario is written
to the store *immediately*, so killing a sweep loses at most the
scenarios in flight — a rerun picks up exactly the missing ones.

Artifact sharing: ``artifacts=``
:class:`~repro.experiments.artifacts.ArtifactOptions` gives every
attempt a process-wide :class:`~repro.experiments.artifacts.ArtifactCache`,
so scenarios that differ only in analysis-side axes reuse one fleet
manufacture and one trace acquisition — byte-identically, because
acquisition streams are keyed per device, never sequential — and whole
campaign outcomes are memoised on the analysis key, so a re-run study
(same scenarios, fresh store) skips re-analysis entirely.  An options
``root`` adds a shared on-disk tier, which is how *separate worker
processes* (and separate runs) meet: the first worker to need an
artifact persists it, the rest load it.  A long-lived worker keeps its
in-memory tiers warm across the attempts it runs.

Cross-campaign batching (in process only): ``pool=``
:class:`~repro.hdl.batch_pool.BatchPoolOptions` routes every
scenario's netlist simulation through one shared
:class:`~repro.hdl.batch_pool.BatchPool`.  Before a window of
campaigns runs, :class:`InlineAttempts` *prefetches* it: it builds (or
fetches from the artifact cache) each window scenario's fleet and
submits its distinct ``(structure, cycles)`` activity entries to the
pool.  Only the first submitting scenario's lanes are flushed eagerly
— the window's first campaign starts measuring immediately while the
rest of the wave stays pending, and drains in one cross-campaign
shape-grouped flush when the first campaign that needs it primes its
fleet — scenarios batch across, not just within, campaigns, while
peak memory stays bounded by one window's fleets.  One pool spans the
whole sweep.  Scenarios whose campaign outcome is already memoised
are skipped by the prefetch — a memoised campaign never consults the
pool.  Pooling is pure execution strategy: store digests are
byte-identical with the pool on or off, for any window or flush
budget.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.artifacts import (
    ArtifactCache,
    ArtifactOptions,
    process_artifact_cache,
)
from repro.acquisition.device import prime_fleet_activity
from repro.experiments.runner import build_campaign_fleet
from repro.hdl.batch_pool import BatchPool, BatchPoolOptions
from repro.sweeps.faultinject import fault_context, fault_point
from repro.sweeps.scenario import run_scenario
from repro.sweeps.scheduler import error_info
from repro.sweeps.spec import Scenario, scenario_config
from repro.sweeps.store import SweepStore

#: Scenarios prefetched into the batch pool per window when no
#: artifact cache bounds fleet lifetimes (with one, the window is the
#: cache's ``max_fleets`` instead).  Bounds peak memory: at most this
#: many manufactured fleets are alive before their scenarios execute,
#: while one window still spans enough campaigns to fill wide batches.
POOL_PREFETCH_WINDOW = 8

#: ``(scenario_id, error)`` for one finished attempt; ``error`` is
#: None on success, else an :func:`~repro.sweeps.scheduler.error_info`.
Outcome = Tuple[str, Optional[Dict[str, object]]]


@dataclass
class SweepReport:
    """What one :func:`repro.sweeps.run` call did.

    ``failed_ids`` are scenarios quarantined this run (retry budget
    exhausted; see ``failed/<id>.json`` under the store root for the
    exception detail).  ``retried_ids`` are scenarios that needed more
    than one attempt, whether they eventually succeeded or not.
    """

    spec_name: str
    store_root: str
    scenario_ids: List[str]
    executed_ids: List[str] = field(default_factory=list)
    cached_ids: List[str] = field(default_factory=list)
    failed_ids: List[str] = field(default_factory=list)
    retried_ids: List[str] = field(default_factory=list)
    n_workers: int = 1

    @property
    def n_scenarios(self) -> int:
        return len(self.scenario_ids)

    @property
    def n_executed(self) -> int:
        return len(self.executed_ids)

    @property
    def n_cached(self) -> int:
        return len(self.cached_ids)

    @property
    def n_failed(self) -> int:
        return len(self.failed_ids)

    @property
    def n_retried(self) -> int:
        return len(self.retried_ids)


def _prefetch_into_pool(
    scenarios: Sequence[Scenario],
    artifacts: Optional[ArtifactCache],
    pool: BatchPool,
) -> dict:
    """Build every scenario's fleet and submit its simulation lanes.

    Returns ``{scenario_id: fleet}`` for fleets the artifact cache does
    *not* own (no ``artifacts``) so :class:`InlineAttempts` can hand them
    straight to :func:`~repro.sweeps.scenario.run_scenario`; cached
    fleets stay in the artifact cache (the campaign fetches them back
    by key, which stays correct even if the fleet LRU evicts one in
    between — callers size their windows so eviction is the exception,
    not the rule).  Scenarios with a memoised campaign outcome are
    skipped entirely: a memoised campaign must not consult the pool.

    Flushing overlaps with acquisition: only the *first* scenario that
    submitted lanes triggers a flush here, so the window's first
    campaign can begin measuring right away.  Everything later
    scenarios submitted stays pending in the pool and drains as one
    full cross-campaign wave when the first campaign that needs those
    lanes primes its fleet (``run_campaign`` flushes only when its own
    priming found unresolved lanes), instead of the whole window
    draining before any measurement starts.  Lanes that are still
    pending when a trace is rendered fall back to lazy scalar
    simulation inside :meth:`~repro.acquisition.device.Device.activity`,
    so deferral is never a correctness concern.

    The pool's lane/byte budgets still apply — a prefetch larger than
    one flush budget simply flushes mid-walk, which moves batch
    boundaries but never changes a byte of any trace.
    """
    fleets: dict = {}
    first_flushed = False
    for scenario in scenarios:
        try:
            config = scenario_config(scenario)
            attack = scenario.attack
            if artifacts is not None and artifacts.has_outcome(config, attack):
                continue
            if artifacts is not None:
                refds, duts = artifacts.fleet(
                    config,
                    attack,
                    lambda config=config, attack=attack: build_campaign_fleet(
                        config, attack
                    ),
                )
            else:
                refds, duts = build_campaign_fleet(config, attack)
                fleets[scenario.scenario_id] = (refds, duts)
            prime_fleet_activity((*refds.values(), *duts.values()), pool=pool)
        except Exception:
            # A scenario whose fleet cannot even be built must not
            # starve its window siblings of the pool: the same error
            # re-raises inside its own execution attempt, where the
            # retry/quarantine machinery owns it.
            continue
        if not first_flushed and len(pool):
            pool.flush()
            first_flushed = True
    return fleets


def _execute_attempt(
    store: SweepStore,
    scenario: Scenario,
    attempt: int,
    artifacts: Optional[ArtifactCache],
    fleet=None,
    pool: Optional[BatchPool] = None,
) -> None:
    """One attempt: run the scenario and publish its result."""
    with fault_context(scenario.scenario_id, attempt):
        fault_point("scenario.pre")
        result = run_scenario(
            scenario, artifacts=artifacts, fleet=fleet, batch_pool=pool
        )
        fault_point("scenario.post")
        store.put(scenario.scenario_id, result["record"], result["arrays"])


class InlineAttempts:
    """Attempts on the calling thread, one at a time.

    With a batch pool, the pending scenarios are prefetched and run in
    bounded *windows* so that at most one window's worth of
    manufactured fleets is ever alive (and, with an artifact cache, a
    window never overruns the fleet LRU into guaranteed
    re-manufacture); the pool itself persists across windows, so its
    caches and stats span the sweep.  A retried attempt never gets a
    prefetched fleet: if the failure left it in a dubious state, the
    retry remanufactures.  There is no scenario timeout in process.
    """

    capacity = 1

    def __init__(
        self,
        store_root: str,
        scenarios: Sequence[Scenario],
        artifacts: Optional[ArtifactOptions],
        pool: Optional[BatchPoolOptions],
    ):
        self.store = SweepStore(store_root)
        self.artifacts = (
            process_artifact_cache(artifacts) if artifacts is not None else None
        )
        self.pool = BatchPool(pool) if pool is not None else None
        self.scenarios = list(scenarios)
        if self.artifacts is not None:
            self.window = max(1, self.artifacts.options.max_fleets)
        else:
            self.window = POOL_PREFETCH_WINDOW
        self.position = {s.scenario_id: i for i, s in enumerate(self.scenarios)}
        self.prefetched: set = set()
        self.fleets: dict = {}
        self.finished: List[Outcome] = []

    def submit(self, scenario: Scenario, attempt: int) -> None:
        fleet = None
        if self.pool is not None:
            window = self.position[scenario.scenario_id] // self.window
            if window not in self.prefetched:
                self.prefetched.add(window)
                start = window * self.window
                self.fleets = _prefetch_into_pool(
                    self.scenarios[start:start + self.window],
                    self.artifacts,
                    self.pool,
                )
            fleet = self.fleets.pop(scenario.scenario_id, None)
        try:
            _execute_attempt(
                self.store, scenario, attempt, self.artifacts, fleet, self.pool
            )
        except Exception as error:  # noqa: BLE001 — the supervisor retries
            self.finished.append((scenario.scenario_id, error_info(error)))
        else:
            self.finished.append((scenario.scenario_id, None))

    def wait(self, timeout: Optional[float]) -> List[Outcome]:
        finished, self.finished = self.finished, []
        if not finished and timeout:
            time.sleep(timeout)  # backoff before a retry
        return finished

    def close(self) -> None:
        """Nothing to reap: attempts ran on the calling thread."""


def _worker_main(conn, store_root: str, artifacts: Optional[ArtifactOptions]):
    """Body of one long-lived worker: run attempts until the supervisor
    kills it or its end of the pipe closes."""
    store = SweepStore(store_root)
    while True:
        try:
            scenario, attempt = conn.recv()
        except EOFError:
            return
        try:
            cache = process_artifact_cache(artifacts) if artifacts is not None else None
            _execute_attempt(store, scenario, attempt, cache)
        except Exception as error:  # noqa: BLE001 — reported to the supervisor
            conn.send(error_info(error))
        else:
            conn.send(None)


def _fork_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits warm caches); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    scenario_id: Optional[str] = None


class WorkerPool:
    """``n_workers`` long-lived worker processes, one attempt each at a time."""

    def __init__(
        self, store_root: str, n_workers: int, artifacts: Optional[ArtifactOptions]
    ):
        self.args = (store_root, artifacts)
        self.context = _fork_context()
        self.workers = [self._spawn() for _ in range(n_workers)]
        self.capacity = n_workers

    def _spawn(self) -> _Worker:
        conn, child = self.context.Pipe()
        process = self.context.Process(
            target=_worker_main, args=(child, *self.args), daemon=True
        )
        process.start()
        child.close()  # the parent end now reads EOF once the worker dies
        return _Worker(process, conn)

    def _replace(self, index: int) -> int:
        """Kill and reap worker ``index``, fork its replacement; returns
        the dead worker's exit code."""
        worker = self.workers[index]
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        self.workers[index] = self._spawn()
        return worker.process.exitcode

    def submit(self, scenario: Scenario, attempt: int) -> None:
        worker = next(w for w in self.workers if w.scenario_id is None)
        worker.scenario_id = scenario.scenario_id
        try:
            worker.conn.send((scenario, attempt))
        except OSError:
            pass  # the worker died while idle: wait() reports the crash

    def wait(self, timeout: Optional[float]) -> List[Outcome]:
        busy = [w for w in self.workers if w.scenario_id is not None]
        if not busy:
            if timeout:
                time.sleep(timeout)
            return []
        ready = set(
            connection.wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy],
                timeout,
            )
        )
        finished: List[Outcome] = []
        for index, worker in enumerate(list(self.workers)):
            if worker.scenario_id is None or not (
                worker.conn in ready or worker.process.sentinel in ready
            ):
                continue
            try:
                error = worker.conn.recv()
            except (EOFError, OSError):
                exitcode = self._replace(index)
                error = {
                    "type": "WorkerCrash",
                    "message": (
                        f"worker process died with exit code {exitcode} "
                        "before completing the attempt"
                    ),
                    "traceback": "",
                }
            finished.append((worker.scenario_id, error))
            worker.scenario_id = None
        return finished

    def kill(self, scenario_id: str) -> None:
        """Kill the worker running ``scenario_id`` and replace it."""
        for index, worker in enumerate(self.workers):
            if worker.scenario_id == scenario_id:
                self._replace(index)
                return

    def close(self) -> None:
        """Kill and reap every worker (idle ones hold no state)."""
        for worker in self.workers:
            worker.process.kill()
        for worker in self.workers:
            worker.process.join()
            worker.conn.close()


def default_workers() -> int:
    """A sensible worker count for this machine (half the cores, >= 1)."""
    return max(1, (os.cpu_count() or 2) // 2)


__all__ = [
    "InlineAttempts",
    "SweepReport",
    "WorkerPool",
    "default_workers",
]
