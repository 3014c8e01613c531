"""API smoke tests for the HTTP sweep service (:mod:`repro.service`).

The service runs in a background thread on an ephemeral port; requests
go through real sockets via :mod:`urllib` so the hand-rolled HTTP
layer is exercised end to end (routing, JSON errors, chunked NDJSON
streaming).
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import JOB_DONE, SweepService, job_id_for, start_service
from repro.service import jobs as service_jobs
from repro.sweeps import (
    GridAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    expand_scenarios,
    run,
)
from repro.sweeps.scheduler import SchedulerOptions
from tests.test_sweeps import QUICK, quick_spec, store_digests


class Client:
    """A minimal JSON/NDJSON client against one service instance."""

    def __init__(self, base_url):
        self.base_url = base_url

    def get(self, path):
        return self._request("GET", path)

    def post(self, path, payload=None):
        body = json.dumps({} if payload is None else payload).encode()
        return self._request("POST", path, body)

    def _request(self, method, path, body=None):
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def stream(self, path):
        """All NDJSON lines of a streaming endpoint, parsed."""
        with urllib.request.urlopen(self.base_url + path, timeout=120) as r:
            assert r.headers["Content-Type"].startswith("application/x-ndjson")
            return [json.loads(line) for line in r]

    def wait(self, job_id, timeout=120.0):
        """Poll until the job leaves the running state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, description = self.get(f"/sweeps/{job_id}")
            if description["state"] != "running":
                return description
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} still running after {timeout}s")


@pytest.fixture()
def service(tmp_path):
    instance = SweepService(str(tmp_path / "store"))
    handle = start_service(instance)
    yield instance, Client(handle.base_url)
    handle.stop()


def submission(spec, **options):
    return {"spec": spec.to_json_dict(), "options": options}


class TestHealthAndErrors:
    def test_health(self, service):
        instance, client = service
        status, payload = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["store"] == instance.store_root
        assert payload["spec_schema_version"] >= 1
        assert payload["jobs"] == {"total": 0, "running": 0}

    def test_unknown_path_is_404(self, service):
        _, client = service
        status, payload = client.get("/nope")
        assert status == 404 and "error" in payload

    def test_wrong_method_is_405(self, service):
        _, client = service
        status, payload = client.post("/health")
        assert status == 405 and "GET" in payload["error"]

    def test_unknown_job_is_404(self, service):
        _, client = service
        status, payload = client.get("/sweeps/deadbeefdeadbeef")
        assert status == 404 and "deadbeefdeadbeef" in payload["error"]

    def test_malformed_body_is_400(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base_url + "/sweeps", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_invalid_spec_names_offending_path(self, service):
        _, client = service
        payload = quick_spec().to_json_dict()
        payload["grid"][0]["field"] = "bogus"
        status, body = client.post("/sweeps", {"spec": payload})
        assert status == 400
        assert "spec.grid[0].field" in body["error"]

    def test_unknown_engine_rejected_before_any_job(self, service):
        instance, client = service
        payload = quick_spec().to_json_dict()
        payload["base"]["engine"] = "vectorized"
        status, body = client.post("/sweeps", {"spec": payload})
        assert status == 400
        assert "spec.base.engine" in body["error"]
        assert instance.jobs.jobs() == []

    def test_unknown_option_rejected(self, service):
        _, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), turbo=True)
        )
        assert status == 400
        assert "options.turbo" in body["error"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_standard_json_constants_rejected(self, service, value):
        # json.dumps writes NaN / Infinity / -Infinity literals, which
        # are not JSON: a NaN lease TTL would make leases never go stale.
        instance, client = service
        status, body = client.post("/sweeps", submission(quick_spec(), lease_ttl=value))
        assert status == 400
        assert "not a JSON value" in body["error"]
        assert instance.jobs.jobs() == []

    @pytest.mark.parametrize("option", ["lease_ttl", "scenario_timeout"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_option_values_rejected(self, service, option, value):
        instance, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), **{option: value})
        )
        assert status == 400
        assert f"{option} must be finite" in body["error"]
        assert instance.jobs.jobs() == []

    @pytest.mark.parametrize("value", [2.0, True, "2"])
    def test_n_workers_must_be_a_json_integer(self, service, value):
        instance, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), n_workers=value)
        )
        assert status == 400
        assert "options.n_workers" in body["error"]
        assert instance.jobs.jobs() == []


class TestSubmitPollRows:
    def test_submit_poll_rows_byte_identical_to_direct_run(
        self, service, tmp_path
    ):
        instance, client = service
        spec = quick_spec(
            name="svc", sigmas=(0.5, 1.0), attacks=("none", "strip")
        )
        status, accepted = client.post(
            "/sweeps", submission(spec, n_workers=2)
        )
        assert status == 202 and accepted["created"]
        assert accepted["job_id"] == job_id_for(spec)
        assert accepted["n_scenarios"] == 4

        rows = client.stream(f"/sweeps/{accepted['job_id']}/rows")
        kinds = [row["kind"] for row in rows]
        assert kinds[-1] == "end" and rows[-1]["state"] == JOB_DONE
        accuracy = [row for row in rows if row["kind"] == "accuracy"]
        assert {row["scenario_id"] for row in accuracy} == set(
            s.scenario_id for s in expand_scenarios(spec)
        )
        assert any(row["kind"] == "roc" for row in rows)
        # The default stream axis is the spec's first grid axis.
        assert all(
            row["axis"] == "noise.sigma"
            for row in rows
            if row["kind"] == "roc"
        )

        description = client.wait(accepted["job_id"])
        assert description["state"] == JOB_DONE
        snapshot = description["status"]
        assert snapshot["completed"] == 4 and snapshot["pending"] == 0
        assert description["report"]["executed"] == 4

        # The tentpole acceptance: the store the service produced is
        # byte-identical to the same spec run directly in process.
        direct = SweepStore(str(tmp_path / "direct"))
        run(spec, direct, SweepOptions(n_workers=2))
        assert store_digests(instance.store_root) == store_digests(
            direct.root
        )

    def test_resubmission_of_finished_spec_completes_from_cache(
        self, service
    ):
        _, client = service
        spec = quick_spec(name="twice")
        _, first = client.post("/sweeps", submission(spec))
        done = client.wait(first["job_id"])
        assert done["report"]["executed"] == len(expand_scenarios(spec))

        status, again = client.post("/sweeps", submission(spec))
        assert status == 202 and again["created"]
        assert again["job_id"] == first["job_id"]
        done = client.wait(again["job_id"])
        assert done["report"]["executed"] == 0
        assert done["report"]["cached"] == len(expand_scenarios(spec))

    def test_rows_axis_query_parameter(self, service):
        _, client = service
        spec = quick_spec(name="axis", attacks=("none", "strip"))
        _, accepted = client.post("/sweeps", submission(spec))
        rows = client.stream(f"/sweeps/{accepted['job_id']}/rows?axis=attack")
        roc = [row for row in rows if row["kind"] == "roc"]
        assert roc and all(row["axis"] == "attack" for row in roc)
        assert {row["attack"] for row in roc} == {"none", "strip"}


class TestIdempotencyAndScrub:
    def test_duplicate_submission_joins_running_job(
        self, service, monkeypatch
    ):
        """While a job runs, resubmitting its spec joins it (no second
        execution) — and scrub refuses to race a live writer."""
        instance, client = service
        release = threading.Event()
        started = threading.Event()
        calls = []

        def blocking_run(spec, store, options=None, progress=None):
            calls.append(spec.name)
            started.set()
            assert release.wait(timeout=60)
            from repro.sweeps.executor import SweepReport

            return SweepReport(
                spec_name=spec.name,
                store_root=store.root,
                scenario_ids=[s.scenario_id for s in expand_scenarios(spec)],
            )

        monkeypatch.setattr(service_jobs, "run", blocking_run)
        spec = quick_spec(name="held")
        status, first = client.post("/sweeps", submission(spec))
        assert status == 202 and first["created"]
        assert started.wait(timeout=30)

        status, joined = client.post("/sweeps", submission(spec))
        assert status == 200 and not joined["created"]
        assert joined["job_id"] == first["job_id"]

        status, refused = client.post("/admin/scrub")
        assert status == 409 and "running" in refused["error"]

        release.set()
        client.wait(first["job_id"])
        assert calls == ["held"]  # exactly one execution

    def test_scrub_removes_crash_residue(self, service, tmp_path):
        instance, client = service
        store = SweepStore(instance.store_root)
        with open(f"{store.root}/.tmp-crashed", "w") as handle:
            handle.write("partial write")
        with open(f"{store.root}/0123456789abcdef01234567.npz", "wb") as handle:
            handle.write(b"orphaned bundle")
        status, payload = client.post("/admin/scrub")
        assert status == 200
        assert payload["removed"] == 2


class TestQuarantineSurfaced:
    def test_failed_scenario_reported_in_status_and_poll(self, service):
        # n1 = 2 < k = 4 violates expression (1) at campaign time, so
        # that scenario can never succeed; the sibling completes and
        # the job lands in the quarantined state.
        _, client = service
        spec = SweepSpec(
            name="q",
            grid=(GridAxis("parameters.n1", (32, 2)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        bad = expand_scenarios(spec)[1].scenario_id
        _, accepted = client.post(
            "/sweeps", submission(spec, max_retries=0, n_workers=2)
        )
        description = client.wait(accepted["job_id"])
        assert description["state"] == "quarantined"
        assert description["report"]["failed_ids"] == [bad]
        assert description["status"]["quarantined"] == 1
        assert description["status"]["completed"] == 1
        detail = description["quarantined"]
        assert len(detail) == 1 and detail[0]["scenario_id"] == bad
        assert detail[0]["type"] and detail[0]["attempts"] == 1

    def test_terminal_description_never_carries_a_stale_status(self, tmp_path):
        # The job finishes while its status snapshot is being taken.
        # The description must be read before the snapshot, so it can
        # say "running" with a newer status but never a terminal state
        # with a status from before the job's last records were written.
        job = service_jobs.SweepJob(
            "j", quick_spec(), SweepOptions(), str(tmp_path / "store")
        )
        snapshot = job.status

        def status_then_finish():
            status = snapshot()
            job.state = service_jobs.JOB_QUARANTINED
            return status

        job.status = status_then_finish
        description, _ = job.describe_with_status()
        assert description["state"] == service_jobs.JOB_RUNNING
        assert "status" in description


class TestJobIdentity:
    def test_job_id_is_content_addressed(self):
        spec = quick_spec(name="a")
        assert job_id_for(spec) == job_id_for(quick_spec(name="a"))
        assert job_id_for(spec) != job_id_for(quick_spec(name="b"))
        assert job_id_for(spec) != job_id_for(quick_spec(name="a", seed=6))


class TestMultiInstance:
    def test_two_instances_share_one_store_root(self, tmp_path):
        """Submitting one spec to two service instances over a common
        store root converges on one byte-identical result set, with
        every scenario executed exactly once across the pair."""
        root = str(tmp_path / "shared")
        first = start_service(
            SweepService(root, SweepOptions(scheduler=SchedulerOptions()))
        )
        second = start_service(
            SweepService(root, SweepOptions(scheduler=SchedulerOptions()))
        )
        try:
            clients = [Client(first.base_url), Client(second.base_url)]
            spec = quick_spec(
                name="fleet", sigmas=(0.5, 1.0), attacks=("none", "strip")
            )
            accepted = [
                client.post("/sweeps", submission(spec, n_workers=2))[1]
                for client in clients
            ]
            descriptions = [
                client.wait(job["job_id"])
                for client, job in zip(clients, accepted)
            ]
            assert all(d["state"] == JOB_DONE for d in descriptions)
            total_executed = sum(
                d["report"]["executed"] for d in descriptions
            )
            assert total_executed == len(expand_scenarios(spec))

            direct = SweepStore(str(tmp_path / "direct"))
            run(spec, direct, SweepOptions())
            assert store_digests(root) == store_digests(direct.root)
        finally:
            first.stop()
            second.stop()
