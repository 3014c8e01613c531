"""Tests for the scenario-sweep subsystem (spec, store, executor,
aggregation) and the engine plumbing it rides on."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.experiments.runner import CampaignConfig, apply_config_overrides
from repro.hdl.simulator import ENGINES
from repro.sweeps import (
    ATTACKS,
    SCHEMA_VERSION,
    GridAxis,
    RandomAxis,
    SpecValidationError,
    SweepOptions,
    SweepSpec,
    SweepStore,
    expand_scenarios,
    render_status,
    run,
    scenario_config,
    spec_from_dict,
    spec_to_dict,
    sweep_status,
)
from repro.sweeps.aggregate import (
    accuracy_pivot,
    render_sweep_summary,
    roc_by_axis,
    tidy_accuracy,
)
from repro.sweeps.executor import SweepReport

#: Cheap correlation parameters shared by the executor tests: a full
#: campaign at this point takes a few tens of milliseconds.
QUICK = {
    "parameters.k": 4,
    "parameters.m": 4,
    "parameters.n1": 32,
    "parameters.n2": 64,
}


def quick_spec(name="quick", sigmas=(0.5, 1.0), attacks=("none",), seed=5):
    return SweepSpec(
        name=name,
        grid=(
            GridAxis("noise.sigma", tuple(sigmas)),
            GridAxis("attack", tuple(attacks)),
        ),
        base=dict(QUICK),
        seed=seed,
    )


def store_digests(root):
    # Byte-identity is defined over the top-level result files only:
    # operational metadata (.leases/, .attempts/, failed/) is excluded.
    digests = {}
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            digests[entry] = hashlib.sha256(handle.read()).hexdigest()
    return digests


class TestSweepSpec:
    def test_grid_expansion_count_and_order(self):
        spec = SweepSpec(
            name="s",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.0, 1.5)),
                GridAxis("watermarked", (True, False)),
            ),
        )
        assert spec.n_scenarios == 6
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == 6
        # Rightmost axis fastest.
        assert [s.assignment["noise.sigma"] for s in scenarios[:2]] == [0.5, 0.5]
        assert [s.assignment["watermarked"] for s in scenarios[:2]] == [True, False]

    def test_unknown_field_rejected_at_construction(self):
        with pytest.raises(KeyError, match="unknown sweep field"):
            GridAxis("noise.sigmaa", (1.0,))
        with pytest.raises(KeyError, match="unknown sweep field"):
            SweepSpec(name="s", base={"nope": 1})

    def test_unknown_engine_rejected_at_construction(self):
        # A misspelled engine used to pass validation, then fail, retry
        # and quarantine every scenario at run time.
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec(name="s", base={"engine": "vectorized"})
        assert excinfo.value.path == "base.engine"
        grid = (
            GridAxis("noise.sigma", (1.0,)),
            GridAxis("engine", ("auto", "vectorised")),
        )
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec(name="s", grid=grid)
        assert excinfo.value.path == "grid[1].values"
        payload = quick_spec().to_json_dict()
        payload["base"]["engine"] = "vectorized"
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec.from_json_dict(payload)
        assert excinfo.value.path == "base.engine"
        SweepSpec(name="s", grid=(GridAxis("engine", ENGINES),))

    def test_axis_validation(self):
        with pytest.raises(ValueError, match="no values"):
            GridAxis("noise.sigma", ())
        with pytest.raises(ValueError, match="duplicate"):
            GridAxis("noise.sigma", (1.0, 1.0))
        with pytest.raises(ValueError, match="swept twice"):
            SweepSpec(
                name="s",
                grid=(
                    GridAxis("noise.sigma", (1.0,)),
                    GridAxis("noise.sigma", (2.0,)),
                ),
            )
        with pytest.raises(ValueError, match="n_random"):
            SweepSpec(name="s", random=(RandomAxis("noise.sigma", 0.1, 2.0),))

    def test_scenario_ids_unique_and_reproducible(self):
        spec = quick_spec(sigmas=(0.5, 1.0, 1.5), attacks=("none", "strip"))
        first = [s.scenario_id for s in expand_scenarios(spec)]
        second = [s.scenario_id for s in expand_scenarios(quick_spec(
            sigmas=(0.5, 1.0, 1.5), attacks=("none", "strip")))]
        assert first == second
        assert len(set(first)) == len(first)

    def test_derived_seeds_depend_on_spec_seed_not_name(self):
        base = expand_scenarios(quick_spec(seed=5))[0]
        renamed = expand_scenarios(quick_spec(name="other", seed=5))[0]
        reseeded = expand_scenarios(quick_spec(seed=6))[0]
        assert base.overrides == renamed.overrides
        assert base.overrides["measurement_seed"] != reseeded.overrides[
            "measurement_seed"
        ]

    def test_explicit_seed_not_overwritten(self):
        spec = SweepSpec(
            name="s",
            grid=(GridAxis("noise.sigma", (1.0,)),),
            base={"measurement_seed": 123},
        )
        scenario = expand_scenarios(spec)[0]
        assert scenario.overrides["measurement_seed"] == 123

    def test_random_axes_deterministic_per_seed(self):
        def draws(seed):
            spec = SweepSpec(
                name="r",
                random=(RandomAxis("noise.sigma", 0.2, 2.0, log=True),),
                n_random=5,
                seed=seed,
            )
            return [s.assignment["noise.sigma"] for s in expand_scenarios(spec)]

        assert draws(1) == draws(1)
        assert draws(1) != draws(2)
        assert all(0.2 <= v <= 2.0 for v in draws(1))

    def test_random_integer_axis(self):
        spec = SweepSpec(
            name="r",
            random=(RandomAxis("parameters.n2", 200, 2000, integer=True),),
            n_random=4,
            base={"parameters.k": 4, "parameters.m": 4, "parameters.n1": 32},
            seed=3,
        )
        values = [s.assignment["parameters.n2"] for s in expand_scenarios(spec)]
        assert all(isinstance(v, int) for v in values)

    def test_scenario_config_applies_overrides(self):
        spec = SweepSpec(
            name="s",
            grid=(GridAxis("noise.sigma", (1.7,)), GridAxis("attack", ("strip",))),
            base={"parameters.n2": 2000, "engine": "interpreted"},
        )
        scenario = expand_scenarios(spec)[0]
        config = scenario_config(scenario)
        assert config.noise.sigma == 1.7
        assert config.parameters.n2 == 2000
        assert config.engine == "interpreted"
        assert scenario.attack == "strip"

    def test_spec_dict_round_trip(self):
        spec = SweepSpec(
            name="rt",
            grid=(GridAxis("noise.sigma", (0.5, 1.5)),),
            random=(RandomAxis("variation.component_sigma", 0.01, 0.1),),
            n_random=3,
            base={"watermarked": False},
            seed=11,
        )
        clone = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert clone == spec
        assert [s.scenario_id for s in expand_scenarios(clone)] == [
            s.scenario_id for s in expand_scenarios(spec)
        ]


class TestSpecWireFormat:
    """The versioned JSON wire format the sweep service speaks."""

    def full_spec(self):
        return SweepSpec(
            name="wire",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.5)),
                GridAxis("attack", ("none", "strip")),
            ),
            random=(
                RandomAxis("variation.component_sigma", 0.01, 0.1, log=True),
                RandomAxis("parameters.n2", 64, 256, integer=True),
            ),
            n_random=3,
            base={"watermarked": False, "parameters.k": 4},
            seed=11,
        )

    def test_round_trip_is_lossless(self):
        spec = self.full_spec()
        payload = spec.to_json_dict()
        assert payload["schema_version"] == SCHEMA_VERSION
        wire = json.dumps(payload)  # must actually survive JSON text
        clone = SweepSpec.from_json_dict(json.loads(wire))
        assert clone == spec
        assert [s.scenario_id for s in expand_scenarios(clone)] == [
            s.scenario_id for s in expand_scenarios(spec)
        ]

    def test_defaults_omitted_fields_round_trip(self):
        spec = SweepSpec(name="d", grid=(GridAxis("attack", ("none",)),))
        assert SweepSpec.from_json_dict(spec.to_json_dict()) == spec

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda p: p.pop("schema_version"), "schema_version"),
            (lambda p: p.update(schema_version=99), "schema_version"),
            (lambda p: p.update(extra=1), "extra"),
            (lambda p: p.update(name=7), "name"),
            (lambda p: p.update(seed="x"), "seed"),
            (lambda p: p.update(n_random=True), "n_random"),
            (lambda p: p["grid"][0].update(field="bogus"), "grid[0].field"),
            (lambda p: p["grid"][0].update(values="ha"), "grid[0].values"),
            (lambda p: p["grid"][0].pop("field"), "grid[0].field"),
            (lambda p: p["random"][0].update(low="x"), "random[0].low"),
            (
                lambda p: p["random"][0].update(unexpected=1),
                "random[0].unexpected",
            ),
            (lambda p: p.update(base={"bogus": 1}), "base.bogus"),
            (
                lambda p: p.update(base={"noise.sigma": [1]}),
                "base.noise.sigma",
            ),
            (lambda p: p.update(grid="no"), "grid"),
        ],
    )
    def test_validation_errors_name_offending_path(self, mutate, path):
        payload = self.full_spec().to_json_dict()
        mutate(payload)
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec.from_json_dict(payload)
        assert excinfo.value.path == path
        assert str(excinfo.value).startswith(path + ":")

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            SweepSpec.from_json_dict(["not", "a", "dict"])
        assert excinfo.value.path == "$"


class TestConfigOverrides:
    def test_nested_and_top_level(self):
        config = apply_config_overrides(
            CampaignConfig(),
            {"noise.sigma": 0.3, "watermarked": False, "adc.bits": 8},
        )
        assert config.noise.sigma == 0.3
        assert config.watermarked is False
        assert config.adc.bits == 8

    def test_nullable_nested_field(self):
        config = apply_config_overrides(
            CampaignConfig(), {"adc": None, "variation": None}
        )
        assert config.adc is None and config.variation is None

    def test_unknown_paths_raise(self):
        with pytest.raises(KeyError):
            apply_config_overrides(CampaignConfig(), {"noise.sugma": 1.0})
        with pytest.raises(KeyError):
            apply_config_overrides(CampaignConfig(), {"watermarked.x": 1})
        with pytest.raises(KeyError):
            apply_config_overrides(CampaignConfig(), {"noise.sigma.deep": 1})

    def test_conflicting_whole_and_sub_override(self):
        with pytest.raises(KeyError, match="cannot override both"):
            apply_config_overrides(
                CampaignConfig(), {"adc": None, "adc.bits": 8}
            )


class TestSweepStore:
    def test_round_trip(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        record = {"scenario_id": "abc", "metrics": {"accuracy": {"x": 1.0}}}
        arrays = {"C/IP_A/DUT#1": np.arange(4.0)}
        assert not store.has("abc")
        store.put("abc", record, arrays)
        assert store.has("abc") and "abc" in store
        assert store.get("abc") == record
        np.testing.assert_array_equal(
            store.get_arrays("abc")["C/IP_A/DUT#1"], np.arange(4.0)
        )
        assert store.ids() == ["abc"]
        assert len(store) == 1

    def test_no_temp_residue_and_deterministic_bytes(self, tmp_path):
        a, b = SweepStore(str(tmp_path / "a")), SweepStore(str(tmp_path / "b"))
        record = {"scenario_id": "abc", "value": 1.25}
        arrays = {"x": np.ones(3)}
        a.put("abc", record, arrays)
        b.put("abc", record, arrays)
        assert store_digests(a.root) == store_digests(b.root)
        assert not [f for f in os.listdir(a.root) if f.startswith(".tmp-")]


class TestRunSweep:
    def test_executes_then_resumes(self, tmp_path):
        spec = quick_spec()
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, SweepOptions(n_workers=1))
        assert isinstance(report, SweepReport)
        assert report.n_scenarios == 2
        assert report.n_executed == 2 and report.n_cached == 0
        again = run(spec, store, SweepOptions(n_workers=1))
        assert again.n_executed == 0 and again.n_cached == 2

    def test_interrupted_sweep_reruns_only_missing(self, tmp_path):
        spec = quick_spec(sigmas=(0.5, 1.0, 1.5))
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store, SweepOptions(n_workers=1))
        before = store_digests(store.root)
        # Simulate a kill mid-sweep: one scenario's result never landed.
        victim = expand_scenarios(spec)[1].scenario_id
        os.unlink(store.record_path(victim))
        os.unlink(store.arrays_path(victim))
        report = run(spec, store, SweepOptions(n_workers=1))
        assert report.executed_ids == [victim]
        assert report.n_cached == 2
        # The re-executed scenario reproduces its exact bytes.
        assert store_digests(store.root) == before

    def test_extending_a_sweep_reuses_overlap(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        run(quick_spec(sigmas=(0.5, 1.0)), store, SweepOptions(n_workers=1))
        extended = quick_spec(sigmas=(0.5, 1.0, 1.5, 2.0))
        report = run(extended, store, SweepOptions(n_workers=1))
        assert report.n_cached == 2 and report.n_executed == 2

    def test_failure_quarantines_and_continues(self, tmp_path):
        # n1 = 2 < k = 4 violates expression (1) at campaign time, so
        # that scenario can never succeed; it must be quarantined while
        # every sibling completes and the sweep returns normally.
        from repro.sweeps import FailureLog, RetryPolicy

        spec = SweepSpec(
            name="fail",
            grid=(GridAxis("parameters.n1", (32, 2, 48)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(
            spec,
            store,
            SweepOptions(
                n_workers=1, retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
            ),
        )
        bad = expand_scenarios(spec)[1].scenario_id
        assert report.failed_ids == [bad]
        assert len(store) == 2
        good_ids = {
            s.scenario_id for s in expand_scenarios(spec)
            if s.scenario_id != bad
        }
        assert set(store.ids()) == good_ids
        quarantine = FailureLog(store.root).load_quarantine(bad)
        assert quarantine["attempts"] == 2
        assert quarantine["error"]["type"]

    def test_progress_callback(self, tmp_path):
        spec = quick_spec()
        store = SweepStore(str(tmp_path / "store"))
        seen = []
        run(spec, store, progress=lambda sid, ran: seen.append((sid, ran)))
        assert sorted(sid for sid, ran in seen if ran) == sorted(store.ids())
        seen.clear()
        run(spec, store, progress=lambda sid, ran: seen.append((sid, ran)))
        assert all(not ran for _, ran in seen) and len(seen) == 2

    def test_rejects_bad_worker_count(self, tmp_path):
        with pytest.raises(ValueError):
            run(quick_spec(), SweepStore(str(tmp_path)), SweepOptions(n_workers=0))


class TestWorkerDeterminism:
    def test_four_workers_bit_identical_to_one(self, tmp_path):
        spec = quick_spec(sigmas=(0.4, 0.8, 1.2, 1.6), attacks=("none", "strip"))
        serial = SweepStore(str(tmp_path / "serial"))
        pooled = SweepStore(str(tmp_path / "pooled"))
        report1 = run(spec, serial, SweepOptions(n_workers=1))
        report4 = run(spec, pooled, SweepOptions(n_workers=4))
        assert report1.n_executed == report4.n_executed == 8
        assert report1.executed_ids == report4.executed_ids
        assert store_digests(serial.root) == store_digests(pooled.root)


class TestAttacks:
    def test_attack_names(self):
        assert set(ATTACKS) == {"none", "strip", "strip_pads"}

    def test_unknown_attack_fails_fast(self):
        from repro.sweeps.scenario import apply_attack

        with pytest.raises(KeyError, match="unknown attack"):
            apply_attack({}, "melt")

    def test_strip_attack_defeats_identification(self, tmp_path):
        # At low noise the genuine fleet identifies perfectly; a fully
        # stripped DUT fleet must not (the keyed signature is gone).
        store = SweepStore(str(tmp_path / "store"))
        spec = quick_spec(sigmas=(0.25,), attacks=("none", "strip"))
        run(spec, store, SweepOptions(n_workers=1))
        rows = tidy_accuracy(store, expand_scenarios(spec))
        by_attack = {
            row["attack"]: row["accuracy"]
            for row in rows
            if row["distinguisher"] == "higher-mean"
        }
        assert by_attack["none"] == 1.0
        assert by_attack["strip"] < 1.0


class TestAggregation:
    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        spec = quick_spec(sigmas=(0.5, 1.0), attacks=("none", "strip"), seed=9)
        store = SweepStore(str(tmp_path_factory.mktemp("agg")))
        run(spec, store, SweepOptions(n_workers=1))
        return spec, store

    def test_tidy_rows_carry_axes(self, populated):
        spec, store = populated
        rows = tidy_accuracy(store, expand_scenarios(spec))
        assert len(rows) == 4 * 2  # scenarios x distinguishers
        for row in rows:
            assert {"scenario_id", "noise.sigma", "attack", "distinguisher",
                    "accuracy", "mean_confidence"} <= set(row)
            assert 0.0 <= row["accuracy"] <= 1.0

    def test_restriction_to_scenarios(self, populated):
        spec, store = populated
        subset = expand_scenarios(quick_spec(sigmas=(0.5,), attacks=("none",),
                                             seed=9))
        rows = tidy_accuracy(store, subset)
        assert len(rows) == 2

    def test_accuracy_pivot_renders(self, populated):
        spec, store = populated
        rows = tidy_accuracy(store, expand_scenarios(spec))
        table = accuracy_pivot(rows, "noise.sigma", "attack")
        assert "noise.sigma" in table and "strip" in table

    def test_roc_by_axis(self, populated):
        spec, store = populated
        rows = roc_by_axis(store, "noise.sigma", expand_scenarios(spec))
        assert [row["noise.sigma"] for row in rows] == [0.5, 1.0]
        for row in rows:
            assert 0.0 <= row["auc"] <= 1.0
            assert row["n_genuine"] == 8 and row["n_counterfeit"] == 24

    def test_summary_renders(self, populated):
        spec, store = populated
        text = render_sweep_summary(store, expand_scenarios(spec))
        assert "accuracy[lower-variance]" in text and "screening AUC" in text

    def test_empty_summary(self, tmp_path):
        store = SweepStore(str(tmp_path / "empty"))
        assert "no results" in render_sweep_summary(store)


class TestEnginePlumbing:
    def test_engine_reaches_devices(self):
        from repro.experiments.runner import manufacture_fleet

        refds, duts = manufacture_fleet(CampaignConfig(engine="interpreted"))
        assert all(d.engine == "interpreted" for d in refds.values())
        assert all(d.engine == "interpreted" for d in duts.values())

    def test_engines_agree_on_a_scenario(self, tmp_path):
        # The engine axis must not change results: the compiled engine
        # is bit-identical to the oracle, so every stored byte except
        # the engine override itself matches.
        from repro.sweeps.scenario import run_scenario

        def result(engine):
            spec = SweepSpec(
                name="e",
                grid=(GridAxis("noise.sigma", (0.5,)),),
                base=dict(QUICK, engine=engine),
            )
            payload = run_scenario(expand_scenarios(spec)[0])
            return payload["record"]["metrics"], payload["arrays"]

        compiled_metrics, compiled_arrays = result("compiled")
        interpreted_metrics, interpreted_arrays = result("interpreted")
        assert compiled_metrics == interpreted_metrics
        for key in compiled_arrays:
            np.testing.assert_array_equal(
                compiled_arrays[key], interpreted_arrays[key]
            )


class TestRocOrdering:
    def test_numeric_axis_values_sort_numerically(self, tmp_path):
        spec = SweepSpec(
            name="order",
            grid=(GridAxis("parameters.n2", (1024, 256, 512)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n2"},
        )
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store, SweepOptions(n_workers=1))
        rows = roc_by_axis(store, "parameters.n2", expand_scenarios(spec))
        assert [row["parameters.n2"] for row in rows] == [256, 512, 1024]


class TestUnifiedFacade:
    """``repro.sweeps.run``: one loop, two places to run attempts."""

    def test_in_process_and_worker_paths_byte_identical(self, tmp_path):
        from repro.sweeps import SchedulerOptions

        spec = quick_spec(name="facade", attacks=("none", "strip"))
        in_process = SweepStore(str(tmp_path / "in_process"))
        run(spec, in_process, SweepOptions(n_workers=1))

        workers = SweepStore(str(tmp_path / "workers"))
        run(spec, workers, SweepOptions(n_workers=2))

        scheduled = SweepStore(str(tmp_path / "scheduled"))
        run(spec, scheduled, SweepOptions(scheduler=SchedulerOptions()))

        reference = store_digests(in_process.root)
        assert store_digests(workers.root) == reference
        assert store_digests(scheduled.root) == reference

    def test_scheduler_option_leases_even_one_worker(self, tmp_path, monkeypatch):
        from repro.sweeps import SchedulerOptions
        from repro.sweeps.scheduler import LeaseManager

        claimed = []
        acquire = LeaseManager.acquire

        def recording_acquire(self, scenario_id):
            claimed.append(scenario_id)
            return acquire(self, scenario_id)

        monkeypatch.setattr(LeaseManager, "acquire", recording_acquire)
        spec = quick_spec(name="routed", sigmas=(0.5,))
        store = SweepStore(str(tmp_path / "store"))
        run(spec, store, SweepOptions(scheduler=SchedulerOptions()))
        assert claimed == store.ids()
        assert os.listdir(os.path.join(store.root, ".leases")) == []

        plain = SweepStore(str(tmp_path / "plain"))
        run(spec, plain, SweepOptions(n_workers=1))
        assert claimed == store.ids()  # the in-process path takes no lease

    def test_default_options_run(self, tmp_path):
        spec = quick_spec(name="defaults", sigmas=(0.5,))
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store)  # options default to SweepOptions()
        assert report.n_executed == 1

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SweepOptions(n_workers=0)


class TestSweepStatus:
    def test_counts_and_rendering(self, tmp_path):
        spec = quick_spec(name="status", attacks=("none", "strip"))
        scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
        store = SweepStore(str(tmp_path / "store"))

        empty = sweep_status(store.root, scenario_ids=scenario_ids)
        assert empty.completed == 0 and empty.pending == len(scenario_ids)
        assert not empty.done

        run(spec, store)
        status = sweep_status(store.root, scenario_ids=scenario_ids)
        assert status.completed == len(scenario_ids)
        assert status.pending == 0 and status.done
        assert status.quarantined == 0 and status.leased == 0
        text = render_status(status)
        assert text.startswith(f"completed {len(scenario_ids)}/")
        assert "pending 0" in text and "quarantined 0" in text
        payload = json.loads(json.dumps(status.to_json_dict()))
        assert payload["completed"] == len(scenario_ids)

    def test_unscoped_status_covers_whole_store(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        run(quick_spec(name="all", sigmas=(0.5,)), store)
        status = sweep_status(store.root)
        assert status.completed == 1
        assert status.total is None and status.pending is None

    def test_snapshot_does_not_create_metadata_dirs(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        sweep_status(store.root)
        assert not os.path.exists(os.path.join(store.root, ".leases"))
        assert not os.path.exists(os.path.join(store.root, ".attempts"))

    def test_quarantine_counted(self, tmp_path):
        from repro.sweeps import RetryPolicy

        spec = SweepSpec(
            name="qstat",
            grid=(GridAxis("parameters.n1", (32, 2)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        scenario_ids = [s.scenario_id for s in expand_scenarios(spec)]
        store = SweepStore(str(tmp_path / "store"))
        run(
            spec,
            store,
            SweepOptions(
                retry=RetryPolicy(max_attempts=2, backoff_base=0.0)
            ),
        )
        status = sweep_status(store.root, scenario_ids=scenario_ids)
        assert status.completed == 1 and status.quarantined == 1
        assert status.pending == 0 and status.done
