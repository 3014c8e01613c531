"""The four stage-benchmark workloads, driven through the public API.

Each workload is built from the workload seed alone, sets itself up
once (:meth:`Workload.setup`), runs one operation per
:meth:`Workload.run_once` call — a campaign, a sweep or a service job —
and finally checks its outputs (:meth:`Workload.check`) against reruns
of the same code, never against pinned bytes, so a change that alters
every byte of an acquisition still passes when it is self-consistent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List

import numpy as np

#: ``span(name, op=None)`` — opens a trace span, or does nothing.
SpanFactory = Callable[..., ContextManager[None]]

#: Design of the imported-circuit workload (a vendored netlist).
C640_DESIGN = "imported:benchmarks/netlists/c640_synth.v"

#: Worker processes of the service's lease scheduler.
SERVICE_WORKERS = 2


@dataclass
class OpResult:
    """What one operation did, measured from outside the program.

    ``first_s`` is the time to its first result, ``scenarios`` the
    scenarios it completed, ``attempted``/``failed`` its units of work
    for ``fail_ratio``, and ``layer`` the per-layer figures read from
    outside the process (service-job only).
    """

    wall_s: float
    first_s: float
    scenarios: int
    attempted: int
    failed: int
    layer: Dict[str, float] = field(default_factory=dict)


def _seeds(rng: np.random.Generator, n: int) -> List[int]:
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=n)]


def _report_error(context: str) -> None:
    print(f"stagebench: {context} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def outcome_digest(outcome) -> str:
    """Digest of a campaign outcome's stored form (metrics + C sets)."""
    from repro.sweeps.scenario import outcome_arrays, outcome_metrics

    digest = hashlib.sha256(
        json.dumps(outcome_metrics(outcome), sort_keys=True).encode()
    )
    for name, array in sorted(outcome_arrays(outcome).items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class Workload:
    """One named load on the program; subclasses fill in the hooks."""

    name = ""
    #: Name of the root span (and of the operation) of one run_once.
    op_name = ""
    #: Index mixed into the seed so workloads draw unrelated streams.
    stream = 0

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = np.random.default_rng([seed, self.stream])
        self.problems: List[str] = []
        self.notes: List[str] = []

    def definition(self) -> Dict[str, object]:
        """Grid, parameters and worker count: digested into the stamp."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_once(self, index: int, span: SpanFactory) -> OpResult:
        raise NotImplementedError

    def check(self) -> None:
        """Append a line to :attr:`problems` for every wrong output (and
        to :attr:`notes` for what is worth reporting but not wrong)."""

    def artifact_stats(self):
        """The artifact cache statistics this workload drives, if any."""
        return None

    def close(self) -> None:
        """Release what :meth:`setup` or the last operation left open."""


class PaperCampaign(Workload):
    """Full paper-parameter campaigns on one fixed fleet.

    Checked: the higher-mean distinguisher picks the expected DUT in
    every row of every campaign, and every distinguisher does so in at
    least :attr:`MIN_ROW_ACCURACY` of the run's rows.  The lower-variance
    verdict is not held to every row: at the paper's parameters the four
    DUT variances of the IP_D row sit within a few percent of each other,
    and a fresh measurement seed flips that row now and then
    (measurement_seed=742978069, analysis_seed=1928820872 picks DUT#2).
    """

    name = "paper-campaign"
    op_name = "campaign"
    stream = 1
    EXACT = ("higher-mean",)
    MIN_ROW_ACCURACY = 0.9

    def definition(self):
        return {"config": "CampaignConfig()", "fleet": "fixed", "workers": 1}

    def setup(self):
        from repro.experiments.runner import CampaignConfig, manufacture_fleet

        self.config = CampaignConfig()
        self.fleet = manufacture_fleet(self.config)
        self.rows = 0
        self.wrong: Dict[str, List[str]] = {
            d.name: [] for d in self.config.distinguishers
        }

    def run_once(self, index, span):
        from repro.experiments.designs import EXPECTED_MATCHES
        from repro.experiments.runner import run_campaign

        measurement, analysis = _seeds(self.rng, 2)
        config = dataclasses.replace(
            self.config, measurement_seed=measurement, analysis_seed=analysis
        )
        start = time.perf_counter()
        try:
            with span(self.op_name, op=f"{self.op_name}-{index}"):
                outcome = run_campaign(config, fleet=self.fleet)
        except Exception:
            _report_error(f"campaign {index}")
            wall = time.perf_counter() - start
            return OpResult(wall, wall, 0, 1, 1)
        wall = time.perf_counter() - start
        for ref, verdicts in outcome.verdict_matrix().items():
            self.rows += 1
            for distinguisher, chosen in verdicts.items():
                if chosen != EXPECTED_MATCHES[ref]:
                    self.wrong[distinguisher].append(
                        f"{ref} -> {chosen} (measurement_seed={measurement}, "
                        f"analysis_seed={analysis})"
                    )
        return OpResult(wall, wall, 1, 1, 0)

    def check(self):
        for distinguisher, wrong in self.wrong.items():
            if wrong:
                self.notes.append(
                    f"{distinguisher} misidentified {len(wrong)} of {self.rows} "
                    f"rows: {'; '.join(wrong)}"
                )
            exact = distinguisher in self.EXACT
            if wrong and (
                exact or len(wrong) > (1 - self.MIN_ROW_ACCURACY) * self.rows
            ):
                self.problems.append(
                    f"{distinguisher} misidentified {len(wrong)} of {self.rows} "
                    f"rows (allowed: {0 if exact else 1 - self.MIN_ROW_ACCURACY:.0%})"
                )


class ImportedC640(Workload):
    """Campaigns on the imported c640 netlist, a fresh fleet each."""

    name = "imported-c640"
    op_name = "campaign"
    stream = 2

    def definition(self):
        from repro.cli import DEFAULT_SWEEP_BASE

        return {
            "design": C640_DESIGN,
            "overrides": dict(DEFAULT_SWEEP_BASE),
            "fleet": "fresh per campaign",
            "workers": 1,
        }

    def setup(self):
        from repro.cli import DEFAULT_SWEEP_BASE
        from repro.experiments.designs import resolve_imported_design
        from repro.experiments.runner import CampaignConfig, apply_config_overrides

        resolve_imported_design(C640_DESIGN)
        self.config = apply_config_overrides(
            CampaignConfig(design=C640_DESIGN), DEFAULT_SWEEP_BASE
        )
        self.digests: List[tuple] = []

    def _config(self, seeds):
        fleet, measurement, analysis = seeds
        return dataclasses.replace(
            self.config,
            fleet_seed=fleet,
            measurement_seed=measurement,
            analysis_seed=analysis,
        )

    def run_once(self, index, span):
        from repro.experiments.runner import run_campaign

        seeds = _seeds(self.rng, 3)
        start = time.perf_counter()
        try:
            with span(self.op_name, op=f"{self.op_name}-{index}"):
                outcome = run_campaign(self._config(seeds))
        except Exception:
            _report_error(f"campaign {index}")
            wall = time.perf_counter() - start
            return OpResult(wall, wall, 0, 1, 1)
        wall = time.perf_counter() - start
        self.digests.append((seeds, outcome_digest(outcome)))
        return OpResult(wall, wall, 1, 1, 0)

    def check(self):
        from repro.acquisition.device import clear_fleet_activity_cache
        from repro.experiments.runner import run_campaign

        if not self.digests:
            self.problems.append("no campaign completed")
            return
        pick = int(self.rng.integers(len(self.digests)))
        seeds, expected = self.digests[pick]
        clear_fleet_activity_cache()
        again = outcome_digest(run_campaign(self._config(seeds)))
        if again != expected:
            self.problems.append(
                f"campaign {pick} (seeds {seeds}) did not reproduce: "
                f"{expected} then {again}"
            )


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class AnalysisSweep(Workload):
    """In-process 64-scenario sweeps over analysis axes only, with the
    batch pool and shared artifacts, on one worker."""

    name = "analysis-sweep"
    op_name = "sweep"
    stream = 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.fleet_seed, *self.analysis_seeds = _seeds(self.rng, 9)

    def _grid(self):
        return {
            "parameters.k": (8, 16),
            "parameters.m": (8, 16),
            # Largest budget first: it is acquired once, smaller ones
            # are prefixes of it.
            "parameters.n2": (6144, 3072),
            "analysis_seed": tuple(self.analysis_seeds),
        }

    def definition(self):
        from repro.cli import DEFAULT_SWEEP_BASE

        grid = {axis: list(values) for axis, values in self._grid().items()}
        grid["analysis_seed"] = f"{len(self.analysis_seeds)} seed-derived values"
        return {
            "grid": grid,
            "base": dict(DEFAULT_SWEEP_BASE),
            "pinned": ["fleet_seed", "measurement_seed per sweep"],
            "options": "SweepOptions(n_workers=1, artifacts=ArtifactOptions(), "
            "pool=BatchPoolOptions())",
        }

    def setup(self):
        from repro.experiments.artifacts import ArtifactOptions
        from repro.hdl.batch_pool import BatchPoolOptions
        from repro.sweeps import SweepOptions

        self.options = SweepOptions(
            n_workers=1, artifacts=ArtifactOptions(), pool=BatchPoolOptions()
        )
        self.samples: List[tuple] = []

    def spec(self, measurement_seed: int):
        from repro.cli import DEFAULT_SWEEP_BASE
        from repro.sweeps import GridAxis, SweepSpec

        base = dict(DEFAULT_SWEEP_BASE)
        base.update(fleet_seed=self.fleet_seed, measurement_seed=measurement_seed)
        return SweepSpec(
            name="analysis-sweep",
            grid=tuple(GridAxis(axis, values) for axis, values in self._grid().items()),
            base=base,
            seed=self.seed,
        )

    def artifact_stats(self):
        from repro.experiments.artifacts import process_artifact_cache

        return process_artifact_cache(self.options.artifacts).stats

    def run_once(self, index, span):
        from repro.sweeps import SweepStore, expand_scenarios, run

        (measurement,) = _seeds(self.rng, 1)
        spec = self.spec(measurement)
        store = SweepStore(os.path.join(self.work_dir, f"sweep-{index}"))
        scenarios = expand_scenarios(spec)
        completions: List[float] = []
        start = time.perf_counter()
        try:
            with span(self.op_name, op=f"{self.op_name}-{index}"):
                report = run(
                    spec,
                    store,
                    self.options,
                    progress=lambda _id, _ran: completions.append(time.perf_counter()),
                )
            wall = time.perf_counter() - start
            first = (completions[0] if completions else time.perf_counter()) - start
            pick = scenarios[int(self.rng.integers(len(scenarios)))]
            if store.has(pick.scenario_id):
                self.samples.append(
                    (
                        pick,
                        _file_bytes(store.record_path(pick.scenario_id)),
                        _file_bytes(store.arrays_path(pick.scenario_id)),
                    )
                )
        except Exception:
            _report_error(f"sweep {index}")
            wall = time.perf_counter() - start
            return OpResult(wall, wall, 0, len(scenarios), len(scenarios))
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        return OpResult(
            wall, first, report.n_executed, report.n_scenarios, report.n_failed
        )

    def check(self):
        from repro.acquisition.device import clear_fleet_activity_cache
        from repro.sweeps import SweepStore, run_scenario

        if not self.samples:
            self.problems.append("no sampled scenario completed")
            return
        scenario, record, arrays = self.samples[
            int(self.rng.integers(len(self.samples)))
        ]
        clear_fleet_activity_cache()
        store = SweepStore(os.path.join(self.work_dir, "check"))
        try:
            result = run_scenario(scenario)
            store.put(scenario.scenario_id, result["record"], result["arrays"])
            if _file_bytes(store.record_path(scenario.scenario_id)) != record:
                self.problems.append(
                    f"scenario {scenario.scenario_id}: record bytes differ on rerun"
                )
            if _file_bytes(store.arrays_path(scenario.scenario_id)) != arrays:
                self.problems.append(
                    f"scenario {scenario.scenario_id}: array bytes differ on rerun"
                )
        finally:
            shutil.rmtree(store.root, ignore_errors=True)


class _Client:
    """Minimal HTTP/1.1 client over a real socket (no proxy lookup).

    Counts every request and every failed one: a refused connection or
    a response outside 2xx.
    """

    def __init__(self, host: str, port: int, span: SpanFactory):
        self.host = host
        self.port = port
        self.span = span
        self.requests = 0
        self.failures = 0

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def call(self, name: str, method: str, path: str, payload=None):
        """``(status, parsed body, seconds)``; status 0 when refused."""
        self.requests += 1
        body = None if payload is None else json.dumps(payload).encode()
        connection = self._connect()
        start = time.perf_counter()
        try:
            with self.span(name):
                connection.request(
                    method,
                    path,
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                data = response.read()
        except ConnectionRefusedError:
            self.failures += 1
            return 0, None, time.perf_counter() - start
        finally:
            connection.close()
        if not 200 <= response.status < 300:
            self.failures += 1
        return response.status, json.loads(data), time.perf_counter() - start

    def stream(self, path: str):
        """Yield ``(receive time, parsed NDJSON line)`` as lines arrive."""
        self.requests += 1
        connection = self._connect()
        try:
            try:
                connection.request("GET", path)
                response = connection.getresponse()
            except ConnectionRefusedError:
                self.failures += 1
                return
            if response.status != 200:
                self.failures += 1
                response.read()
                return
            for line in response:
                if line.strip():
                    yield time.time(), json.loads(line)
        finally:
            connection.close()


class ServiceJob(Workload):
    """A closed loop with one client: POST the default 24-scenario spec
    to an in-process sweep service, stream its rows to the end row,
    then submit the next job to a fresh service and store root."""

    name = "service-job"
    op_name = "job"
    stream = 4

    def definition(self):
        from repro.cli import default_sweep_spec

        spec = default_sweep_spec(seed=0).to_json_dict()
        spec.pop("seed")
        return {
            "spec": spec,
            "seed": "fresh per job",
            "service": f"SweepService(SweepOptions(n_workers={SERVICE_WORKERS}))",
            "scheduler": "lease",
        }

    def setup(self):
        self.handle = None
        self.root = None
        self._start(0)

    def _start(self, index: int) -> None:
        from repro.service import SweepService, start_service
        from repro.sweeps import SweepOptions

        self.root = os.path.join(self.work_dir, f"job-{index}")
        service = SweepService(self.root, SweepOptions(n_workers=SERVICE_WORKERS))
        self.handle = start_service(service)

    def _stop(self) -> None:
        """Stop the service, reap attempt processes, drop the store root."""
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        leftover = multiprocessing.active_children()
        if leftover:
            self.problems.append(f"{len(leftover)} attempt process(es) outlived a job")
            for process in leftover:
                process.kill()
                process.join()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def close(self):
        self._stop()

    def run_once(self, index, span):
        from repro.cli import default_sweep_spec
        from repro.sweeps import expand_scenarios

        if self.handle is None:
            self._start(index)
        (spec_seed,) = _seeds(self.rng, 1)
        spec = default_sweep_spec(seed=spec_seed)
        scenarios = expand_scenarios(spec)
        client = _Client(self.handle.host, self.handle.port, span)
        rows: List[tuple] = []
        first = end = None
        layer: Dict[str, float] = {}
        start = time.perf_counter()
        try:
            with span(self.op_name, op=f"{self.op_name}-{index}"):
                status, job, layer["service.submit_s"] = client.call(
                    "service.submit", "POST", "/sweeps", {"spec": spec.to_json_dict()}
                )
                if status in (200, 202):
                    for received, row in client.stream(
                        f"/sweeps/{job['job_id']}/rows"
                    ):
                        rows.append((received, row))
                        if first is None and row.get("kind") == "accuracy":
                            first = time.perf_counter() - start
                        if row.get("kind") == "end":
                            end = time.perf_counter() - start
            wall = end if end is not None else time.perf_counter() - start
            quarantined = len(scenarios)
            if end is not None:
                status, described, layer["service.poll_s"] = client.call(
                    "service.poll", "GET", f"/sweeps/{job['job_id']}"
                )
                if status == 200:
                    quarantined = self._inspect(
                        index, scenarios, described, rows, wall, layer
                    )
        finally:
            self._stop()
        layer["service.rows"] = len(rows)
        return OpResult(
            wall,
            first if first is not None else wall,
            len(scenarios) - quarantined,
            len(scenarios) + client.requests,
            quarantined + client.failures,
            layer,
        )

    def _inspect(self, index, scenarios, described, rows, wall, layer) -> int:
        """Check one finished job and read its scheduler figures from the
        store root; returns the number of quarantined scenarios."""
        from repro.sweeps import SweepStore, tidy_accuracy
        from repro.sweeps.scheduler import FailureLog

        status = described.get("status", {})
        quarantined = int(status.get("quarantined", 0))
        attempts = int(status.get("attempts", 0))
        if attempts != len(scenarios) or quarantined:
            self.problems.append(
                f"job {index}: {attempts} attempts for {len(scenarios)} "
                f"scenarios, {quarantined} quarantined"
            )
        accuracy = [(received, row) for received, row in rows if row["kind"] == "accuracy"]
        streamed = sorted(
            json.dumps({k: v for k, v in row.items() if k != "kind"}, sort_keys=True)
            for _, row in accuracy
        )
        store = SweepStore(self.root)
        stored = sorted(
            json.dumps(row, sort_keys=True) for row in tidy_accuracy(store, scenarios)
        )
        if streamed != stored:
            self.problems.append(
                f"job {index}: streamed accuracy rows differ from the store"
            )
        published = {
            scenario.scenario_id: os.path.getmtime(store.record_path(scenario.scenario_id))
            for scenario in scenarios
            if store.has(scenario.scenario_id)
        }
        log = FailureLog(self.root)
        attempt_s = [
            published[scenario_id] - attempt["started"]
            for scenario_id in published
            for attempt in log.history(scenario_id)
        ]
        lags = {}
        for received, row in accuracy:
            lags.setdefault(row["scenario_id"], received - published[row["scenario_id"]])
        layer.update(
            {
                "scheduler.attempts": attempts,
                "scheduler.retries": int(status.get("retried", 0)),
                "scheduler.quarantined": quarantined,
                "scheduler.attempt_s": float(np.mean(attempt_s)) if attempt_s else 0.0,
                "scheduler.idle_s": SERVICE_WORKERS * wall - float(np.sum(attempt_s)),
                "service.row_lag_s": float(np.mean(list(lags.values()))) if lags else 0.0,
            }
        )
        return quarantined


WORKLOADS = {
    cls.name: cls for cls in (PaperCampaign, ImportedC640, AnalysisSweep, ServiceJob)
}

