"""The one sweep execution loop: leases, attempts, retries, quarantine.

:func:`supervise` runs every sweep.  It splits a spec's scenarios into
cached and pending, numbers and records each attempt, retries failures
with backoff, quarantines scenarios that exhaust their budget, calls
the progress callback and builds the
:class:`~repro.sweeps.executor.SweepReport`.  Attempts run in one of
two places (:mod:`repro.sweeps.executor`):

* **in process**, on the calling thread, when ``n_workers == 1`` and
  no :class:`SchedulerOptions` is given — with the artifact cache and
  the batch-pool prefetch windows;
* on **long-lived worker processes** in every other case: at most one
  per pending scenario, forked once per run, each running one attempt
  at a time.  A worker that crashes or passes its scenario timeout is
  killed and replaced; the attempt counts as failed.

Work units and leases
---------------------

The unit of work is one scenario digest.  Before the worker path runs
a digest, the supervisor claims an *atomic lease file*
(``<root>/.leases/<id>.lease`` — a fully written temp file hard-linked
into place, so exactly one claimant wins and nobody reads a half-written
lease) recording the owner id, a heartbeat timestamp and
the lease TTL.  While an attempt runs, the supervisor heartbeats the
lease every ``lease_ttl / 4``; a lease whose heartbeat is older than
its TTL is *stale* and any run may reclaim it — a dead instance's
scenarios are re-leased automatically.  Leases are an efficiency
mechanism, not a correctness one: if a paused-but-alive owner is
reclaimed and the digest executes twice, both executions produce
byte-identical results and publish them with atomic, idempotent
renames, so the store cannot diverge.  The in-process path takes no
leases.

The supervisor never polls: it blocks on the workers' pipes and
process sentinels until the nearest heartbeat, attempt deadline,
retry due time or status line.  Only a pending scenario leased by
another owner is re-checked on a fixed interval
(:data:`LEASE_RECHECK_INTERVAL`).

Attempts, retries, quarantine
-----------------------------

Attempts are recorded in ``<root>/.attempts/<id>.json`` (a persistent
history: attempt numbers survive restarts, which keeps seeded fault
plans deterministic across reruns) and failures are retried with
exponential backoff up to :attr:`RetryPolicy.max_attempts` per run.  A
scenario that exhausts its attempts is *quarantined*: a
``<root>/failed/<id>.json`` record (exception type, message,
traceback, attempt count) is written and the sweep **continues** —
one poisoned scenario costs its own result, not the sweep's.  A later
run re-attempts quarantined scenarios with a fresh budget and clears
the quarantine record on success, so resume converges once the cause
is gone.

The standing invariant, tested *under faults*
(:mod:`repro.sweeps.faultinject`): any interleaving of crashes,
retries, timeouts and concurrent runs yields a result store
byte-identical to a clean 1-worker run.  Operational metadata
(``.leases/``, ``.attempts/``, ``failed/``) lives beside the results
and is excluded from that identity by construction — result files are
only ever published through the store's atomic, deterministic writes.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import socket
import time
import traceback
import uuid
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.sweeps.spec import Scenario, SweepSpec, expand_scenarios
from repro.sweeps.store import SweepStore

if TYPE_CHECKING:  # imported lazily at call time to avoid module cycles
    from repro.sweeps.api import SweepOptions
    from repro.sweeps.executor import SweepReport

#: Subdirectories of the store root holding operational metadata.
LEASE_DIR = ".leases"
ATTEMPT_DIR = ".attempts"
FAILED_DIR = "failed"

#: Seconds between re-checks of a pending scenario whose lease another
#: owner holds: the one wait of the supervisor that is not event-driven.
LEASE_RECHECK_INTERVAL = 0.05

_logger = logging.getLogger(__name__)


def default_owner() -> str:
    """A unique owner id for one scheduler instance."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def _require_finite(**values: Optional[float]) -> None:
    """Reject NaN and infinite option values (None is allowed)."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-scenario retry budget and exponential backoff schedule."""

    #: Attempts per scenario *per run* (1 = no retry).
    max_attempts: int = 3
    #: Delay after the first failed attempt, in seconds.
    backoff_base: float = 0.1
    #: Multiplier applied per further failure.
    backoff_factor: float = 2.0
    #: Ceiling on any single delay.
    backoff_max: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        _require_finite(
            backoff_base=self.backoff_base,
            backoff_factor=self.backoff_factor,
            backoff_max=self.backoff_max,
        )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay(self, failures: int) -> float:
        """Backoff after the ``failures``-th consecutive failure (1-based)."""
        if failures < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failures - 1),
        )


@dataclass(frozen=True)
class SchedulerOptions:
    """Lease and worker knobs of one sweep run.

    Setting these on :class:`~repro.sweeps.api.SweepOptions` runs the
    sweep on leased worker processes even with one worker.  The
    heartbeat period is always ``lease_ttl / 4``.
    """

    #: Seconds without a heartbeat after which a lease is stale.
    lease_ttl: float = 30.0
    #: Kill any single attempt after this many seconds (None = never).
    scenario_timeout: Optional[float] = None
    #: Seconds between periodic progress log lines (INFO on this
    #: module's logger, rendered by the shared
    #: :func:`repro.sweeps.status.render_status` snapshot; None = off).
    status_interval: Optional[float] = None

    def __post_init__(self) -> None:
        _require_finite(
            lease_ttl=self.lease_ttl,
            scenario_timeout=self.scenario_timeout,
            status_interval=self.status_interval,
        )
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if self.scenario_timeout is not None and self.scenario_timeout <= 0:
            raise ValueError("scenario_timeout must be > 0")
        if self.status_interval is not None and self.status_interval <= 0:
            raise ValueError("status_interval must be > 0")


def _atomic_write_json(path: str, payload: object) -> None:
    """Crash-safe JSON write used for all operational metadata."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


class LeaseManager:
    """Atomic lease files under ``<root>/.leases/``, one per digest.

    A lease is claimed by hard-linking a fully written private temp
    file to the lease path — ``link`` fails if the path exists, so
    exactly one claimant wins, and a lease is never visible before its
    payload is.  Reclaiming a stale lease renames it to a per-claimant
    scratch name first; the rename succeeds for exactly one reclaimer,
    so a stale lease is stolen at most once per expiry.
    """

    def __init__(self, root: str, ttl: float, owner: Optional[str] = None):
        self.root = root
        self.ttl = ttl
        self.owner = owner or default_owner()
        self.dir = os.path.join(root, LEASE_DIR)
        os.makedirs(self.dir, exist_ok=True)

    def path(self, scenario_id: str) -> str:
        return os.path.join(self.dir, f"{scenario_id}.lease")

    def read(self, scenario_id: str) -> Optional[dict]:
        """The current lease payload, or None when unleased.

        An unparsable lease is a torn write by a crashed owner and
        reads as stale.  An *empty* one is a claim still being written
        by a writer that creates the file before filling it; it reads
        as fresh until it is older than the TTL.
        """
        path = self.path(scenario_id)
        try:
            with open(path) as handle:
                text = handle.read()
            if text:
                return json.loads(text)
            heartbeat = os.path.getmtime(path)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            heartbeat = 0.0
        return {"owner": "?", "heartbeat": heartbeat, "ttl": self.ttl}

    def is_stale(self, lease: dict) -> bool:
        ttl = float(lease.get("ttl", self.ttl))
        return time.time() - float(lease.get("heartbeat", 0.0)) > ttl

    def _payload(self) -> dict:
        return {"owner": self.owner, "heartbeat": time.time(), "ttl": self.ttl}

    def acquire(self, scenario_id: str) -> bool:
        """Claim the digest; False when another live owner holds it."""
        path = self.path(scenario_id)
        for _ in range(3):
            tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
            with open(tmp, "w") as handle:
                json.dump(self._payload(), handle)
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                pass
            except FileNotFoundError:
                continue  # a concurrent scrub removed our temp file
            finally:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(tmp)
            lease = self.read(scenario_id)
            if lease is None:
                continue  # released between link and read; retry
            if not self.is_stale(lease):
                return False
            # Steal: exactly one reclaimer wins the rename.
            scratch = f"{path}.stale-{uuid.uuid4().hex[:8]}"
            try:
                os.rename(path, scratch)
            except FileNotFoundError:
                continue  # someone else stole or released it; retry
            os.unlink(scratch)
        return False

    def heartbeat(self, scenario_id: str) -> bool:
        """Refresh our lease; False when we no longer own it."""
        lease = self.read(scenario_id)
        if lease is None or lease.get("owner") != self.owner:
            return False
        _atomic_write_json(self.path(scenario_id), self._payload())
        return True

    def release(self, scenario_id: str) -> None:
        try:
            os.unlink(self.path(scenario_id))
        except FileNotFoundError:
            pass

    def scrub(self) -> List[str]:
        """Remove expired leases and reclaim scratch; returns paths."""
        removed: List[str] = []
        for entry in sorted(os.listdir(self.dir)):
            path = os.path.join(self.dir, entry)
            if not os.path.isfile(path):
                continue
            if ".stale-" in entry or entry.endswith(".tmp") or ".tmp-" in entry:
                os.unlink(path)
                removed.append(path)
                continue
            if entry.endswith(".lease"):
                lease = self.read(entry[: -len(".lease")])
                if lease is not None and self.is_stale(lease):
                    os.unlink(path)
                    removed.append(path)
        return removed


def error_info(error: BaseException) -> Dict[str, object]:
    """JSON-able description of one failure."""
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": traceback.format_exc(),
    }


class FailureLog:
    """Attempt history and quarantine records beside the store.

    ``.attempts/<id>.json`` holds the persistent list of attempts
    (owner, start time, error once known) — attempt *numbers* are
    global across runs and schedulers, which keeps seeded fault plans
    and backoff deterministic under restart.  ``failed/<id>.json`` is
    the quarantine record of a scenario that exhausted its retry
    budget; it is cleared the moment the scenario later succeeds.
    """

    def __init__(self, root: str):
        self.root = root
        self.attempts_dir = os.path.join(root, ATTEMPT_DIR)
        self.failed_dir = os.path.join(root, FAILED_DIR)

    def attempts_path(self, scenario_id: str) -> str:
        return os.path.join(self.attempts_dir, f"{scenario_id}.json")

    def failed_path(self, scenario_id: str) -> str:
        return os.path.join(self.failed_dir, f"{scenario_id}.json")

    # -- attempts --------------------------------------------------------

    def history(self, scenario_id: str) -> List[dict]:
        try:
            with open(self.attempts_path(scenario_id)) as handle:
                return list(json.load(handle))
        except (FileNotFoundError, ValueError):
            return []

    def record_attempt(self, scenario_id: str, owner: str) -> int:
        """Append an attempt-start entry; returns its 1-based number.

        Only the lease holder (or the in-process run working this
        digest) writes here, so read-modify-write is safe.
        """
        os.makedirs(self.attempts_dir, exist_ok=True)
        history = self.history(scenario_id)
        history.append({"owner": owner, "started": time.time(), "error": None})
        _atomic_write_json(self.attempts_path(scenario_id), history)
        return len(history)

    def record_error(self, scenario_id: str, error: Dict[str, object]) -> None:
        """Attach the failure detail to the latest attempt entry."""
        history = self.history(scenario_id)
        if history:
            history[-1]["error"] = error
            _atomic_write_json(self.attempts_path(scenario_id), history)

    # -- quarantine ------------------------------------------------------

    def quarantine(
        self,
        scenario: Scenario,
        error: Dict[str, object],
        attempts: int,
        owner: str,
    ) -> None:
        os.makedirs(self.failed_dir, exist_ok=True)
        _atomic_write_json(
            self.failed_path(scenario.scenario_id),
            {
                "scenario_id": scenario.scenario_id,
                "overrides": dict(scenario.overrides),
                "attempts": attempts,
                "owner": owner,
                "quarantined_at": time.time(),
                "error": error,
            },
        )

    def load_quarantine(self, scenario_id: str) -> Optional[dict]:
        try:
            with open(self.failed_path(scenario_id)) as handle:
                return json.load(handle)
        except (FileNotFoundError, ValueError):
            return None

    def quarantined_ids(self) -> List[str]:
        if not os.path.isdir(self.failed_dir):
            return []
        return sorted(
            entry[: -len(".json")]
            for entry in os.listdir(self.failed_dir)
            if entry.endswith(".json")
        )

    def clear_quarantine(self, scenario_id: str) -> None:
        try:
            os.unlink(self.failed_path(scenario_id))
        except FileNotFoundError:
            pass

    def scrub(self, store: SweepStore) -> List[str]:
        """Remove scratch files and quarantines of completed work.

        ``.err-*`` files are error scratch files written by older
        versions of this module; roots that still carry them are
        cleaned too.
        """
        removed: List[str] = []
        if os.path.isdir(self.attempts_dir):
            for entry in sorted(os.listdir(self.attempts_dir)):
                if ".err-" in entry or ".tmp-" in entry:
                    path = os.path.join(self.attempts_dir, entry)
                    os.unlink(path)
                    removed.append(path)
        for scenario_id in self.quarantined_ids():
            if store.has(scenario_id):
                path = self.failed_path(scenario_id)
                os.unlink(path)
                removed.append(path)
        return removed


# -- the supervisor loop ---------------------------------------------------


@dataclass
class _Running:
    """One attempt in flight: its deadline and next lease heartbeat."""

    scenario: Scenario
    attempt: int
    deadline: float
    next_heartbeat: float


def supervise(
    spec: SweepSpec,
    store: SweepStore,
    options: "SweepOptions",
    progress: Optional[Callable[[str, bool], None]] = None,
) -> "SweepReport":
    """Execute every missing scenario of ``spec`` into ``store``.

    The loop behind :func:`repro.sweeps.run` (see the module
    docstring for where attempts run).  On the worker path it is safe
    to run concurrently with other runs (other processes, other
    machines over a shared filesystem) on the same store root: leases
    keep the instances off each other's work, stale-lease reclamation
    absorbs dead instances, and the store's idempotent atomic writes
    make even a duplicated execution harmless.  Scenarios completed by
    *another* run while this one waited are reported as cached.

    Every worker process is reaped before this returns, also when an
    attempt or the ``progress`` callback raised.
    """
    from repro.sweeps.executor import InlineAttempts, SweepReport, WorkerPool

    in_process = options.n_workers == 1 and options.scheduler is None
    scheduler = options.scheduler or SchedulerOptions()
    retry = options.retry or RetryPolicy()
    owner = default_owner()
    log = FailureLog(store.root)
    scenarios = expand_scenarios(spec)
    report = SweepReport(
        spec_name=spec.name,
        store_root=store.root,
        scenario_ids=[s.scenario_id for s in scenarios],
        n_workers=options.n_workers,
    )
    pending: Dict[str, Scenario] = {}

    def settle(scenario_id: str, executed: bool) -> None:
        del pending[scenario_id]
        (report.executed_ids if executed else report.cached_ids).append(scenario_id)
        if progress is not None:
            progress(scenario_id, executed)

    for scenario in scenarios:
        pending[scenario.scenario_id] = scenario
        if store.has(scenario.scenario_id):
            settle(scenario.scenario_id, False)
    if not pending:
        return report

    if in_process:
        leases = None
        attempts = InlineAttempts(
            store.root, list(pending.values()), options.artifacts, options.pool
        )
    else:
        leases = LeaseManager(store.root, scheduler.lease_ttl, owner)
        attempts = WorkerPool(
            store.root, min(options.n_workers, len(pending)), options.artifacts
        )
    heartbeat = scheduler.lease_ttl / 4.0 if leases is not None else math.inf
    timeout = scheduler.scenario_timeout or math.inf
    running: Dict[str, _Running] = {}
    failures: Dict[str, int] = {}
    due: Dict[str, float] = {}
    retried: set = set()
    status_interval = scheduler.status_interval or math.inf
    next_status = time.monotonic() + status_interval

    def log_status() -> None:
        # Lazy import: repro.sweeps.status builds on this module.
        from repro.sweeps.status import render_status, sweep_status

        snapshot = sweep_status(
            store.root,
            scenario_ids=report.scenario_ids,
            lease_ttl=scheduler.lease_ttl,
        )
        _logger.info("sweep %r [%s]: %s", spec.name, owner, render_status(snapshot))

    def finish(scenario_id: str, error: Optional[Dict[str, object]]) -> None:
        run = running.pop(scenario_id)
        if error is not None:
            log.record_error(scenario_id, error)
        if leases is not None:
            leases.release(scenario_id)
        if error is None:
            log.clear_quarantine(scenario_id)
            settle(scenario_id, True)
            return
        failures[scenario_id] = failures.get(scenario_id, 0) + 1
        if failures[scenario_id] >= retry.max_attempts:
            log.quarantine(run.scenario, error, run.attempt, owner)
            report.failed_ids.append(scenario_id)
            del pending[scenario_id]
        else:
            retried.add(scenario_id)
            due[scenario_id] = time.monotonic() + retry.delay(failures[scenario_id])

    try:
        while pending:
            # Start due, claimable scenarios on free capacity.
            now = time.monotonic()
            for scenario_id, scenario in list(pending.items()):
                if len(running) >= attempts.capacity:
                    break
                if scenario_id in running or now < due.get(scenario_id, 0.0):
                    continue
                due.pop(scenario_id, None)
                if store.has(scenario_id):
                    settle(scenario_id, False)  # another run finished it
                    continue
                if leases is not None:
                    if not leases.acquire(scenario_id):
                        # A live owner is on it: look again shortly.
                        due[scenario_id] = now + LEASE_RECHECK_INTERVAL
                        continue
                    if store.has(scenario_id):
                        # Published and released between the check above
                        # and our claim: it must not run a second time.
                        leases.release(scenario_id)
                        settle(scenario_id, False)
                        continue
                attempt = log.record_attempt(scenario_id, owner)
                start = time.monotonic()
                running[scenario_id] = _Running(
                    scenario, attempt, start + timeout, start + heartbeat
                )
                attempts.submit(scenario, attempt)

            # Block until an attempt ends or the nearest timer fires.
            wake = [next_status]
            wake += [min(r.deadline, r.next_heartbeat) for r in running.values()]
            if len(running) < attempts.capacity:
                wake += due.values()
            nearest = min(wake)
            wait = None if nearest == math.inf else max(0.0, nearest - time.monotonic())
            for scenario_id, error in attempts.wait(wait):
                finish(scenario_id, error)

            now = time.monotonic()
            for scenario_id, run in list(running.items()):
                if now >= run.deadline:
                    attempts.kill(scenario_id)
                    finish(
                        scenario_id,
                        {
                            "type": "ScenarioTimeout",
                            "message": (
                                "attempt exceeded the scenario timeout of "
                                f"{scheduler.scenario_timeout}s and was killed"
                            ),
                            "traceback": "",
                        },
                    )
                elif now >= run.next_heartbeat:
                    leases.heartbeat(scenario_id)
                    run.next_heartbeat = now + heartbeat
            if now >= next_status:
                log_status()
                next_status = now + status_interval
    finally:
        attempts.close()
        if leases is not None:
            for scenario_id in running:
                leases.release(scenario_id)

    if scheduler.status_interval is not None:
        log_status()
    report.executed_ids.sort()
    report.cached_ids.sort()
    report.failed_ids.sort()
    report.retried_ids.extend(sorted(retried))
    return report


__all__ = [
    "ATTEMPT_DIR",
    "FAILED_DIR",
    "LEASE_DIR",
    "FailureLog",
    "LeaseManager",
    "RetryPolicy",
    "SchedulerOptions",
    "default_owner",
    "error_info",
    "supervise",
]
