"""Declarative scenario sweeps over :class:`CampaignConfig` axes.

The paper demonstrates its claims at one operating point (one noise
level, one trace budget, one fleet).  A :class:`SweepSpec` describes a
whole *surface*: a cartesian grid (:class:`GridAxis`) and/or random
samples (:class:`RandomAxis`) over campaign-config fields — noise
sigma, the n1/n2 trace budgets, ADC resolution, process variation,
watermarked vs. plain fleets, the simulation engine, the workload
``design`` (paper IPs or an imported circuit) — plus the special
``"attack"`` axis that applies a netlist transform from
:mod:`repro.attacks` to every DUT before measurement.

Expanding a spec (:func:`expand_scenarios`) yields fully resolved
:class:`Scenario` objects.  Every scenario carries

* a flat override mapping (base overrides + its axis assignment + the
  derived per-scenario seeds), which :func:`scenario_config` turns into
  a runnable :class:`~repro.experiments.runner.CampaignConfig`;
* a content digest (:attr:`Scenario.scenario_id`) over a canonical JSON
  encoding of those overrides.  The digest is what makes sweeps
  resumable and extendable: two scenarios with the same overrides are
  the same work unit, whichever spec they came from.

Seeding is derived *deterministically from the spec*: unless an axis or
the base overrides pin them, each scenario's fleet / measurement /
analysis seeds are mixed from ``spec.seed`` and the scenario's axis
assignment.  Results therefore do not depend on worker count or
execution order, and repeat-style sweeps are just an explicit axis over
``measurement_seed``.

**Artifact sharing.**  Scenarios whose fleet and measurement tiers
agree (see :mod:`repro.experiments.artifacts`) can share manufactured
fleets and acquired trace matrices.  Because the derived seeds mix the
*whole* assignment, an analysis-axis-only grid (:data:`ANALYSIS_FIELDS`
— ``parameters.k/m/n1/n2``, ``analysis_seed``, ``single_reference``)
still gets a distinct ``measurement_seed`` per scenario; to unlock
sharing, pin ``fleet_seed`` and ``measurement_seed`` in ``base`` —
scenario digests stay stable either way, since the digest covers the
final override values, not how they were derived.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.experiments.runner import CampaignConfig, apply_config_overrides
from repro.hdl.simulator import ENGINES

#: Version stamped into every scenario digest; bump when the scenario
#: encoding or the result payload changes incompatibly.
SCHEMA_VERSION = 1

#: The special axis applying a DUT netlist transform (see
#: :data:`repro.sweeps.scenario.ATTACKS`).
ATTACK_FIELD = "attack"

#: Overridable campaign-config paths (dotted = nested dataclass field).
#: ``apply_config_overrides`` validates sub-fields exhaustively; this
#: set exists so a spec fails at *construction* time, before any
#: process pool is spun up.
CONFIG_FIELDS = frozenset(
    {
        "watermarked",
        "single_reference",
        "engine",
        "design",
        "fleet_seed",
        "measurement_seed",
        "analysis_seed",
        "adc",
        "variation",
        "waveform",
        "parameters.k",
        "parameters.m",
        "parameters.n1",
        "parameters.n2",
        "noise.sigma",
        "noise.drift_sigma",
        "adc.bits",
        "adc.headroom",
        "variation.gain_sigma",
        "variation.offset_sigma",
        "variation.component_sigma",
        ATTACK_FIELD,
    }
)

#: Analysis-side sweep fields: they change what is *computed from* the
#: acquired traces, never the traces themselves (``n1``/``n2`` are mere
#: ceilings — keyed acquisition is prefix-stable across budgets).  A
#: grid confined to these fields can share every fleet and acquisition
#: artifact once ``fleet_seed``/``measurement_seed`` are pinned in
#: ``base``.
ANALYSIS_FIELDS = frozenset(
    {
        "parameters.k",
        "parameters.m",
        "parameters.n1",
        "parameters.n2",
        "analysis_seed",
        "single_reference",
    }
)

#: Seeds derived per scenario when not pinned by base/axes.
_DERIVED_SEEDS = ("fleet_seed", "measurement_seed", "analysis_seed")


def canonical_json(value: object) -> str:
    """Canonical (sorted, compact) JSON encoding used for digests."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class SpecValidationError(ValueError):
    """A sweep-spec JSON payload failed validation.

    ``path`` names the offending location inside the payload
    (``"grid[1].values"``, ``"base.noise.sigma"``, ``"schema_version"``,
    or ``"$"`` for the payload root), so wire-format errors — the
    sweep service returns them verbatim as HTTP 400 detail — point at
    the field to fix instead of at a Python traceback.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.detail = message
        super().__init__(f"{path}: {message}")


def _check_field(name: str) -> None:
    if name not in CONFIG_FIELDS:
        raise KeyError(
            f"unknown sweep field {name!r}; valid fields: "
            f"{sorted(CONFIG_FIELDS)}"
        )


def _check_value(field_name: str, value: object) -> None:
    if value is not None and not isinstance(value, (bool, int, float, str)):
        raise TypeError(
            f"axis {field_name!r}: value {value!r} is not a JSON scalar"
        )


def _check_engine(path: str, value: object) -> None:
    """Reject an engine name the simulator would refuse per scenario.

    Checked up front so a misspelled engine fails the spec instead of
    every scenario failing, being retried and being quarantined.
    """
    if value not in ENGINES:
        raise SpecValidationError(
            path, f"unknown engine {value!r}; choose from {list(ENGINES)}"
        )


@dataclass(frozen=True)
class GridAxis:
    """One swept dimension with an explicit value list."""

    field: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        _check_field(self.field)
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.field!r} has no values")
        for value in self.values:
            _check_value(self.field, value)
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"axis {self.field!r} has duplicate values")


@dataclass(frozen=True)
class RandomAxis:
    """One dimension sampled uniformly (optionally log-uniform) per draw."""

    field: str
    low: float
    high: float
    log: bool = False
    integer: bool = False

    def __post_init__(self) -> None:
        _check_field(self.field)
        if self.field == ATTACK_FIELD:
            raise ValueError("the attack axis cannot be randomly sampled")
        if not self.low < self.high:
            raise ValueError(
                f"axis {self.field!r}: low {self.low} must be < high {self.high}"
            )
        if self.log and self.low <= 0:
            raise ValueError(f"axis {self.field!r}: log sampling needs low > 0")

    def sample(self, rng: np.random.Generator) -> object:
        if self.log:
            value = float(
                np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
            )
        else:
            value = float(rng.uniform(self.low, self.high))
        return int(round(value)) if self.integer else value


@dataclass(frozen=True)
class SweepSpec:
    """A declarative description of one scenario sweep.

    ``grid`` axes are crossed (cartesian product); ``random`` axes are
    jointly drawn ``n_random`` times and crossed with the grid.  ``base``
    overrides apply to every scenario (axes win on conflict).  ``seed``
    feeds both the random-axis sampling and the per-scenario derived
    seeds.
    """

    name: str
    grid: Tuple[GridAxis, ...] = ()
    random: Tuple[RandomAxis, ...] = ()
    n_random: int = 0
    base: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "random", tuple(self.random))
        object.__setattr__(self, "base", dict(self.base))
        if not self.name:
            raise ValueError("a sweep needs a name")
        for key, value in self.base.items():
            _check_field(key)
            _check_value(key, value)
        if "engine" in self.base:
            _check_engine("base.engine", self.base["engine"])
        for i, axis in enumerate(self.grid):
            if axis.field == "engine":
                for value in axis.values:
                    _check_engine(f"grid[{i}].values", value)
        fields = [axis.field for axis in self.grid] + [
            axis.field for axis in self.random
        ]
        duplicates = {f for f in fields if fields.count(f) > 1}
        if duplicates:
            raise ValueError(f"field(s) swept twice: {sorted(duplicates)}")
        if self.random and self.n_random <= 0:
            raise ValueError("random axes need n_random > 0")
        if self.n_random and not self.random:
            raise ValueError("n_random > 0 needs at least one random axis")

    @property
    def n_scenarios(self) -> int:
        """Number of scenarios the spec expands to."""
        total = 1
        for axis in self.grid:
            total *= len(axis.values)
        if self.random:
            total *= self.n_random
        return total

    # -- JSON wire format ------------------------------------------------

    def to_json_dict(self) -> Dict[str, object]:
        """The spec's JSON wire format (see :meth:`from_json_dict`).

        Carries an explicit ``schema_version`` so embedders (the sweep
        service, saved spec files) can detect incompatible encodings
        the moment the scenario digest scheme is ever bumped, instead
        of silently re-deriving different digests.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "grid": [
                {"field": axis.field, "values": list(axis.values)}
                for axis in self.grid
            ],
            "random": [
                {
                    "field": axis.field,
                    "low": axis.low,
                    "high": axis.high,
                    "log": axis.log,
                    "integer": axis.integer,
                }
                for axis in self.random
            ],
            "n_random": self.n_random,
            "base": dict(self.base),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, payload: object) -> "SweepSpec":
        """Rebuild a spec from :meth:`to_json_dict` output.

        The round trip is lossless: the rebuilt spec expands to the
        same scenarios with the same content digests.  Malformed
        payloads raise :class:`SpecValidationError` naming the
        offending path; a missing or unsupported ``schema_version``
        is rejected the same way (this is the compatibility hook a
        future digest-affecting schema bump keys on).
        """
        if not isinstance(payload, Mapping):
            raise SpecValidationError("$", "expected a JSON object")
        known = {
            "schema_version",
            "name",
            "grid",
            "random",
            "n_random",
            "base",
            "seed",
        }
        for key in payload:
            if key not in known:
                raise SpecValidationError(str(key), "unknown field")
        if "schema_version" not in payload:
            raise SpecValidationError("schema_version", "required field")
        version = payload["schema_version"]
        if version != SCHEMA_VERSION:
            raise SpecValidationError(
                "schema_version",
                f"unsupported value {version!r} "
                f"(this build speaks version {SCHEMA_VERSION})",
            )
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise SpecValidationError("name", "expected a non-empty string")
        grid = tuple(
            _grid_axis_from_json(entry, f"grid[{i}]")
            for i, entry in enumerate(_json_list(payload, "grid"))
        )
        random_axes = tuple(
            _random_axis_from_json(entry, f"random[{i}]")
            for i, entry in enumerate(_json_list(payload, "random"))
        )
        n_random = payload.get("n_random", 0)
        if not isinstance(n_random, int) or isinstance(n_random, bool):
            raise SpecValidationError("n_random", "expected an integer")
        base = payload.get("base", {})
        if not isinstance(base, Mapping):
            raise SpecValidationError("base", "expected an object")
        for key, value in base.items():
            if key not in CONFIG_FIELDS:
                raise SpecValidationError(
                    f"base.{key}", "unknown campaign-config field"
                )
            try:
                _check_value(key, value)
            except TypeError:
                raise SpecValidationError(
                    f"base.{key}", f"value {value!r} is not a JSON scalar"
                ) from None
        seed = payload.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecValidationError("seed", "expected an integer")
        try:
            return cls(
                name=name,
                grid=grid,
                random=random_axes,
                n_random=n_random,
                base=dict(base),
                seed=seed,
            )
        except SpecValidationError:
            raise
        except (KeyError, ValueError, TypeError) as error:
            message = error.args[0] if error.args else str(error)
            raise SpecValidationError("$", str(message)) from error


def _json_list(payload: Mapping[str, object], key: str) -> List[object]:
    value = payload.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise SpecValidationError(key, "expected a list")
    return list(value)


def _axis_payload(entry: object, path: str, fields: "set[str]") -> Mapping:
    if not isinstance(entry, Mapping):
        raise SpecValidationError(path, "expected an object")
    for key in entry:
        if key not in fields:
            raise SpecValidationError(f"{path}.{key}", "unknown field")
    field_name = entry.get("field")
    if not isinstance(field_name, str) or not field_name:
        raise SpecValidationError(f"{path}.field", "expected a field name")
    if field_name not in CONFIG_FIELDS:
        raise SpecValidationError(
            f"{path}.field", f"unknown campaign-config field {field_name!r}"
        )
    return entry


def _grid_axis_from_json(entry: object, path: str) -> GridAxis:
    entry = _axis_payload(entry, path, {"field", "values"})
    values = entry.get("values")
    if not isinstance(values, (list, tuple)):
        raise SpecValidationError(f"{path}.values", "expected a list")
    try:
        return GridAxis(field=str(entry["field"]), values=tuple(values))
    except (ValueError, TypeError) as error:
        message = error.args[0] if error.args else str(error)
        raise SpecValidationError(
            f"{path}.values", str(message)
        ) from error


def _random_axis_from_json(entry: object, path: str) -> RandomAxis:
    entry = _axis_payload(
        entry, path, {"field", "low", "high", "log", "integer"}
    )
    for bound in ("low", "high"):
        value = entry.get(bound)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SpecValidationError(f"{path}.{bound}", "expected a number")
    for flag in ("log", "integer"):
        if flag in entry and not isinstance(entry[flag], bool):
            raise SpecValidationError(f"{path}.{flag}", "expected a boolean")
    try:
        return RandomAxis(
            field=str(entry["field"]),
            low=float(entry["low"]),
            high=float(entry["high"]),
            log=bool(entry.get("log", False)),
            integer=bool(entry.get("integer", False)),
        )
    except ValueError as error:
        message = error.args[0] if error.args else str(error)
        raise SpecValidationError(path, str(message)) from error


@dataclass(frozen=True)
class Scenario:
    """One fully resolved point of a sweep."""

    scenario_id: str
    overrides: Mapping[str, object]
    assignment: Mapping[str, object]

    @property
    def attack(self) -> str:
        """Name of the DUT transform applied before measurement."""
        return str(self.overrides.get(ATTACK_FIELD, "none"))


def _derive_seed(spec_seed: int, assignment_json: str, slot: str) -> int:
    digest = hashlib.sha256(
        f"{SCHEMA_VERSION}:{spec_seed}:{slot}:{assignment_json}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def _make_scenario(
    spec: SweepSpec, assignment: Dict[str, object]
) -> Scenario:
    overrides: Dict[str, object] = dict(spec.base)
    overrides.update(assignment)
    assignment_json = canonical_json(assignment)
    for slot in _DERIVED_SEEDS:
        if slot not in overrides:
            overrides[slot] = _derive_seed(spec.seed, assignment_json, slot)
    scenario_id = hashlib.sha256(
        canonical_json(
            {"schema": SCHEMA_VERSION, "overrides": overrides}
        ).encode()
    ).hexdigest()[:24]
    return Scenario(
        scenario_id=scenario_id, overrides=overrides, assignment=assignment
    )


def expand_scenarios(spec: SweepSpec) -> List[Scenario]:
    """Expand a spec into its ordered scenario list.

    Grid order is the cartesian product in axis-declaration order
    (rightmost axis fastest); random draws come last.  Neighbouring
    scenarios tend to share a fleet structure, which keeps the
    process-wide activity/program caches hot inside each worker.
    """
    grid_values = [
        [(axis.field, value) for value in axis.values] for axis in spec.grid
    ]
    if spec.random:
        rng = np.random.default_rng(spec.seed)
        draws = [
            {axis.field: axis.sample(rng) for axis in spec.random}
            for _ in range(spec.n_random)
        ]
    else:
        draws = [{}]
    scenarios: List[Scenario] = []
    for combo in itertools.product(*grid_values):
        for draw in draws:
            assignment: Dict[str, object] = dict(combo)
            assignment.update(draw)
            scenarios.append(_make_scenario(spec, assignment))
    ids = [s.scenario_id for s in scenarios]
    if len(set(ids)) != len(ids):
        raise ValueError(
            "sweep expands to duplicate scenarios; check axis values"
        )
    return scenarios


def scenario_config(scenario: Scenario) -> CampaignConfig:
    """Build the runnable campaign config of one scenario.

    The special ``"attack"`` override is not a config field; it is
    consumed by :func:`repro.sweeps.scenario.run_scenario`.
    """
    overrides = {
        key: value
        for key, value in scenario.overrides.items()
        if key != ATTACK_FIELD
    }
    return apply_config_overrides(CampaignConfig(), overrides)


def spec_from_dict(payload: Mapping[str, object]) -> SweepSpec:
    """Alias of :meth:`SweepSpec.from_json_dict` tolerating payloads
    written before ``schema_version`` existed (they are version 1)."""
    if isinstance(payload, Mapping) and "schema_version" not in payload:
        payload = {**dict(payload), "schema_version": SCHEMA_VERSION}
    return SweepSpec.from_json_dict(payload)


def spec_to_dict(spec: SweepSpec) -> Dict[str, object]:
    """Alias of :meth:`SweepSpec.to_json_dict`."""
    return spec.to_json_dict()


__all__ = [
    "ANALYSIS_FIELDS",
    "ATTACK_FIELD",
    "CONFIG_FIELDS",
    "SCHEMA_VERSION",
    "GridAxis",
    "RandomAxis",
    "SpecValidationError",
    "SweepSpec",
    "Scenario",
    "canonical_json",
    "expand_scenarios",
    "scenario_config",
    "spec_from_dict",
    "spec_to_dict",
]
