"""The sweep service: JSON endpoints over one shared store root.

Endpoints
---------

``GET /health``
    Liveness + instance facts (store root, job counts, spec schema
    version).

``POST /sweeps``
    Submit a sweep: body ``{"spec": <SweepSpec.to_json_dict()>,
    "options": {...}}``.  Returns 202 with the job description (200
    when an identical running job was joined — job ids are
    content-addressed, so resubmitting a spec is idempotent).
    Malformed specs return 400 with the offending path
    (:class:`~repro.sweeps.spec.SpecValidationError`).

``GET /sweeps`` / ``GET /sweeps/{job_id}``
    List jobs / poll one job: state, report, and the shared
    :func:`~repro.sweeps.status.sweep_status` snapshot (completed /
    pending / leased / quarantined / attempt counts straight from the
    store + lease + failure-log state), plus quarantine detail when
    scenarios failed.

``GET /sweeps/{job_id}/rows``
    Stream results as NDJSON while the job runs: one
    ``{"kind": "accuracy", ...}`` row per (scenario, distinguisher)
    the moment that scenario's record lands in the store, then
    ``{"kind": "roc", ...}`` screening rows grouped by a swept axis
    (``?axis=``, default: the first grid axis) and a final
    ``{"kind": "end", ...}`` summary.

``POST /admin/scrub``
    Store + lease + failure-log hygiene (crash residue removal); 409
    while this instance has running jobs.

Execution model
---------------

Jobs always run through the lease scheduler, so several service
instances may serve one store root concurrently: every scenario digest
is executed once across the fleet, duplicated execution (stale-lease
steals) is harmless by store idempotency, and repeated submissions of
an already-swept spec complete from cache.  The service holds no
result state of its own — the store root *is* the database, which is
what makes instances disposable.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from dataclasses import dataclass, replace
from typing import AsyncIterator, Dict, Optional, Tuple

import repro
from repro.service.httpd import HTTPError, HTTPServer, Request, Router
from repro.service.jobs import JobManager, SweepJob
from repro.sweeps.aggregate import roc_by_axis, tidy_accuracy
from repro.sweeps.api import SweepOptions
from repro.sweeps.scheduler import (
    FailureLog,
    LeaseManager,
    RetryPolicy,
    SchedulerOptions,
)
from repro.sweeps.spec import SCHEMA_VERSION, ATTACK_FIELD, SpecValidationError, SweepSpec
from repro.sweeps.store import SweepStore

_logger = logging.getLogger(__name__)

#: Seconds between store polls while streaming rows of a running job.
ROWS_POLL_INTERVAL = 0.2

#: Request-option keys accepted by ``POST /sweeps``.
_OPTION_KEYS = frozenset(
    {"n_workers", "max_retries", "scenario_timeout", "lease_ttl"}
)


class SweepService:
    """One service instance bound to a store root."""

    def __init__(
        self,
        store_root: str,
        default_options: Optional[SweepOptions] = None,
    ):
        self.store_root = store_root
        defaults = default_options or SweepOptions()
        if defaults.scheduler is None:
            # The service invariant: jobs are lease-scheduled, so any
            # number of instances can share this store root safely.
            defaults = replace(defaults, scheduler=SchedulerOptions())
        self.default_options = defaults
        self.jobs = JobManager(store_root)
        self.router = Router()
        self.router.add("GET", "/health", self._health)
        self.router.add("GET", "/sweeps", self._list)
        self.router.add("POST", "/sweeps", self._submit)
        self.router.add("GET", "/sweeps/{job_id}", self._poll)
        self.router.add("GET", "/sweeps/{job_id}/rows", self._rows, stream=True)
        self.router.add("POST", "/admin/scrub", self._scrub)
        self._httpd = HTTPServer(self.router)

    # -- option parsing ----------------------------------------------------

    def _merge_options(self, payload: object) -> SweepOptions:
        """Apply a submission's ``options`` over the instance defaults."""
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise HTTPError(400, "options: expected an object")
        for key in payload:
            if key not in _OPTION_KEYS:
                raise HTTPError(
                    400,
                    f"options.{key}: unknown option (accepted: "
                    f"{', '.join(sorted(_OPTION_KEYS))})",
                )
        defaults = self.default_options
        scheduler = defaults.scheduler or SchedulerOptions()
        n_workers = payload.get("n_workers", defaults.n_workers)
        if isinstance(n_workers, bool) or not isinstance(n_workers, int):
            raise HTTPError(400, "options.n_workers: expected an integer")
        try:
            retry = defaults.retry
            if "max_retries" in payload:
                retry = RetryPolicy(
                    max_attempts=int(payload["max_retries"]) + 1
                )
            scheduler_fields: Dict[str, object] = {}
            if "lease_ttl" in payload:
                scheduler_fields["lease_ttl"] = float(payload["lease_ttl"])
            if "scenario_timeout" in payload:
                timeout = payload["scenario_timeout"]
                scheduler_fields["scenario_timeout"] = (
                    None if timeout is None else float(timeout)
                )
            if scheduler_fields:
                scheduler = replace(scheduler, **scheduler_fields)
            return replace(
                defaults,
                n_workers=n_workers,
                retry=retry,
                scheduler=scheduler,
            )
        except (TypeError, ValueError) as error:
            raise HTTPError(400, f"options: {error}")

    def _job_or_404(self, request: Request) -> SweepJob:
        job_id = request.params["job_id"]
        job = self.jobs.get(job_id)
        if job is None:
            raise HTTPError(
                404,
                f"unknown job {job_id!r} (jobs live in the instance that "
                "accepted them; resubmit the spec — ids are "
                "content-addressed, so it joins or cheaply re-runs)",
            )
        return job

    # -- handlers ----------------------------------------------------------

    async def _health(self, request: Request) -> Tuple[int, object]:
        jobs = self.jobs.jobs()
        return 200, {
            "status": "ok",
            "version": repro.__version__,
            "spec_schema_version": SCHEMA_VERSION,
            "store": self.store_root,
            "jobs": {
                "total": len(jobs),
                "running": sum(1 for job in jobs if job.running),
            },
        }

    async def _list(self, request: Request) -> Tuple[int, object]:
        return 200, {"jobs": [job.describe() for job in self.jobs.jobs()]}

    async def _submit(self, request: Request) -> Tuple[int, object]:
        payload = request.json()
        if not isinstance(payload, dict) or "spec" not in payload:
            raise HTTPError(400, 'body must be {"spec": {...}, "options": {...}}')
        try:
            spec = SweepSpec.from_json_dict(payload["spec"])
        except SpecValidationError as error:
            raise HTTPError(400, f"spec.{error.path}: {error.detail}")
        options = self._merge_options(payload.get("options"))
        job, created = self.jobs.submit(spec, options)
        description, _ = job.describe_with_status()
        description["created"] = created
        return (202 if created else 200), description

    async def _poll(self, request: Request) -> Tuple[int, object]:
        job = self._job_or_404(request)
        description, status = job.describe_with_status()
        if status.quarantined:
            log = FailureLog(self.store_root)
            detail = []
            for scenario_id in job.scenario_ids:
                record = log.load_quarantine(scenario_id)
                if record is None:
                    continue
                error = record.get("error", {})
                detail.append(
                    {
                        "scenario_id": scenario_id,
                        "attempts": record.get("attempts"),
                        "type": error.get("type"),
                        "message": error.get("message"),
                    }
                )
            description["quarantined"] = detail
        return 200, description

    async def _rows(self, request: Request) -> AsyncIterator[object]:
        job = self._job_or_404(request)
        axis = request.query.get("axis") or (
            job.spec.grid[0].field if job.spec.grid else ATTACK_FIELD
        )
        store = SweepStore(self.store_root)
        by_id = {s.scenario_id: s for s in job.scenarios}
        emitted: set = set()
        while True:
            for scenario_id in job.scenario_ids:
                if scenario_id in emitted or not store.has(scenario_id):
                    continue
                for row in tidy_accuracy(store, [by_id[scenario_id]]):
                    yield {"kind": "accuracy", **row}
                emitted.add(scenario_id)
            if len(emitted) == len(job.scenario_ids):
                break
            if not job.running:
                break  # terminal with quarantined/failed scenarios
            await asyncio.sleep(ROWS_POLL_INTERVAL)
        # Give the job thread a beat to reach its terminal state once
        # every scenario's record is on disk, so the trailer is final.
        while job.running and len(emitted) == len(job.scenario_ids):
            await asyncio.sleep(ROWS_POLL_INTERVAL)
        completed = [by_id[scenario_id] for scenario_id in job.scenario_ids
                     if scenario_id in emitted]
        for row in roc_by_axis(store, axis, completed):
            yield {"kind": "roc", "axis": axis, **row}
        yield {
            "kind": "end",
            "state": job.state,
            "completed": len(emitted),
            "total": len(job.scenario_ids),
        }

    async def _scrub(self, request: Request) -> Tuple[int, object]:
        running = self.jobs.n_running()
        if running:
            raise HTTPError(
                409,
                f"{running} job(s) are running on this instance; scrub "
                "only while no writer is active on the store root",
            )
        store = SweepStore(self.store_root)
        scheduler = self.default_options.scheduler or SchedulerOptions()
        removed = store.scrub()
        removed += LeaseManager(self.store_root, scheduler.lease_ttl).scrub()
        removed += FailureLog(self.store_root).scrub(store)
        _logger.info("scrub removed %d file(s)", len(removed))
        return 200, {"removed": len(removed), "paths": removed}

    # -- serving -----------------------------------------------------------

    async def serve(self, host: str = "127.0.0.1", port: int = 8734) -> None:
        """Serve until cancelled (the async entry point)."""
        server = await asyncio.start_server(
            self._httpd.handle_connection, host, port
        )
        bound = server.sockets[0].getsockname()
        _logger.info(
            "sweep service on http://%s:%d (store: %s)",
            bound[0],
            bound[1],
            self.store_root,
        )
        async with server:
            await server.serve_forever()

    def run_forever(self, host: str = "127.0.0.1", port: int = 8734) -> None:
        """Blocking entry point (the CLI ``serve`` subcommand)."""
        try:
            asyncio.run(self.serve(host, port))
        except KeyboardInterrupt:
            pass


@dataclass
class ServiceHandle:
    """A service running in a daemon thread (tests, embedders)."""

    service: SweepService
    host: str
    port: int
    _thread: threading.Thread
    _loop: asyncio.AbstractEventLoop
    _stop: asyncio.Event

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout)


def start_service(
    service: SweepService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHandle:
    """Start ``service`` on a background thread; returns once bound.

    ``port=0`` binds an ephemeral port (read it off the handle).
    """
    ready = threading.Event()
    state: Dict[str, object] = {}

    async def _main() -> None:
        stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                service._httpd.handle_connection, host, port
            )
        except OSError as error:
            state["error"] = error
            ready.set()
            return
        state["loop"] = asyncio.get_running_loop()
        state["stop"] = stop
        state["port"] = server.sockets[0].getsockname()[1]
        ready.set()
        async with server:
            await stop.wait()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()),
        name="sweep-service",
        daemon=True,
    )
    thread.start()
    ready.wait()
    if "error" in state:
        raise state["error"]  # type: ignore[misc]
    return ServiceHandle(
        service=service,
        host=host,
        port=state["port"],  # type: ignore[arg-type]
        _thread=thread,
        _loop=state["loop"],  # type: ignore[arg-type]
        _stop=state["stop"],  # type: ignore[arg-type]
    )


__all__ = [
    "ROWS_POLL_INTERVAL",
    "ServiceHandle",
    "SweepService",
    "start_service",
]
