"""Full verification campaigns (the paper's Section IV experiment).

A *campaign* measures the four reference devices (400 traces each) and
the four DUTs (10 000 traces each), runs the correlation computation
process for every RefD x DUT pair — sharing one ``A_RefD`` per row and
one DUT trace set per column, exactly as in the paper — and returns
the 16 correlation sets with all distinguisher verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.device import prime_fleet_activity
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.attacks.removal import apply_fleet_transform
from repro.experiments.artifacts import ArtifactCache, measurement_base_key
from repro.core.distinguishers import Distinguisher, PAPER_DISTINGUISHERS
from repro.core.process import ProcessParameters
from repro.core.verification import VerificationReport, WatermarkVerifier
from repro.experiments.designs import (
    DUT_CONTENTS,
    EXPECTED_MATCHES,
    build_device_fleet,
)
from repro.power.models import PowerModel
from repro.power.noise import NoiseModel
from repro.power.supply import WaveformConfig
from repro.power.variation import VariationModel

#: Presentation order of the DUT columns.
DUT_ORDER: Tuple[str, ...] = ("DUT#1", "DUT#2", "DUT#3", "DUT#4")

#: Presentation order of the RefD rows.
REF_ORDER: Tuple[str, ...] = ("IP_A", "IP_B", "IP_C", "IP_D")


@dataclass
class CampaignConfig:
    """Everything needed to run one campaign reproducibly.

    ``engine`` pins the netlist-simulation path of every manufactured
    device: ``"auto"`` (compiled with interpreted fallback),
    ``"compiled"`` or ``"interpreted"`` — see
    :class:`~repro.hdl.simulator.Simulator`.

    The fields split into three groups (see
    :mod:`repro.experiments.artifacts`):

    * **fleet** — ``power_model``, ``variation``, ``waveform``,
      ``fleet_seed``, ``watermarked``, ``design``, ``engine`` determine
      the manufactured silicon
      (:func:`~repro.experiments.artifacts.fleet_key`);
    * **measurement** — plus ``noise``, ``adc``, ``measurement_seed``
      and the ``parameters.n1``/``n2`` trace ceilings, they determine
      the acquired trace matrices
      (:func:`~repro.experiments.artifacts.measurement_key`);
    * **analysis** — plus ``parameters.k``/``m``, ``analysis_seed``,
      ``single_reference`` and ``distinguishers``, they determine the
      full campaign outcome.  Analysis is never cached; it re-runs on
      the shared fleet and trace matrices.

    Campaigns with equal fleet or measurement keys can share the
    fleet or the trace matrices byte-identically, which is what makes
    analysis-side scenario sweeps an order of magnitude cheaper.
    """

    parameters: ProcessParameters = field(default_factory=ProcessParameters)
    noise: NoiseModel = field(default_factory=NoiseModel)
    power_model: PowerModel = field(default_factory=PowerModel)
    waveform: Optional[WaveformConfig] = None
    variation: Optional[VariationModel] = field(default_factory=VariationModel)
    adc: Optional[ADCConfig] = field(default_factory=ADCConfig)
    distinguishers: Sequence[Distinguisher] = PAPER_DISTINGUISHERS
    fleet_seed: int = 2014
    measurement_seed: int = 42
    analysis_seed: int = 7
    watermarked: bool = True
    single_reference: bool = True
    engine: str = "auto"
    #: ``"paper"`` or ``"imported:<path>"`` — see
    #: :func:`~repro.experiments.designs.build_device_fleet`.
    design: str = "paper"


@dataclass
class CampaignOutcome:
    """All artefacts of one campaign."""

    config: CampaignConfig
    reports: Dict[str, VerificationReport]
    dut_order: Tuple[str, ...] = DUT_ORDER
    ref_order: Tuple[str, ...] = REF_ORDER

    @property
    def means(self) -> Dict[str, Dict[str, float]]:
        """Table I matrix: ``means[ref][dut]``."""
        return {ref: self.reports[ref].means for ref in self.ref_order}

    @property
    def variances(self) -> Dict[str, Dict[str, float]]:
        """Table II matrix: ``variances[ref][dut]``."""
        return {ref: self.reports[ref].variances for ref in self.ref_order}

    def correlation_sets(self, ref: str) -> Dict[str, np.ndarray]:
        """The four C sets of one RefD (one Fig. 4 sub-figure)."""
        return {
            dut: self.reports[ref].results[dut].coefficients
            for dut in self.dut_order
        }

    def verdict_matrix(self) -> Dict[str, Dict[str, str]]:
        """``verdicts[ref][distinguisher] = chosen DUT``."""
        return {
            ref: {v.distinguisher: v.chosen_dut for v in self.reports[ref].verdicts}
            for ref in self.ref_order
        }

    def accuracy(self, distinguisher_name: str) -> float:
        """Fraction of rows where a distinguisher found the right DUT."""
        correct = 0
        for ref in self.ref_order:
            verdict = self.reports[ref].verdict_of(distinguisher_name)
            if verdict.chosen_dut == EXPECTED_MATCHES[ref]:
                correct += 1
        return correct / len(self.ref_order)

    def confidence_distances(self, distinguisher_name: str) -> Dict[str, float]:
        """Per-row confidence distance of one distinguisher."""
        return {
            ref: self.reports[ref].verdict_of(distinguisher_name).confidence_percent
            for ref in self.ref_order
        }

    @property
    def all_correct(self) -> bool:
        """True when every distinguisher identifies every row correctly."""
        return all(
            self.accuracy(d.name) == 1.0 for d in self.config.distinguishers
        )


def manufacture_fleet(cfg: CampaignConfig):
    """Build the eight devices described by a campaign config."""
    return build_device_fleet(
        power_model=cfg.power_model,
        variation_model=cfg.variation,
        waveform=cfg.waveform,
        seed=cfg.fleet_seed,
        watermarked=cfg.watermarked,
        engine=cfg.engine,
        design=cfg.design,
    )


def build_campaign_fleet(cfg: CampaignConfig, fleet_tag: str = "none"):
    """Manufacture a campaign's fleet and apply its DUT transform.

    This is the one canonical way a ``(config, fleet_tag)`` pair
    becomes silicon — :func:`run_campaign` and the sweep executor's
    batch-pool prefetch both use it, so a prefetched fleet is
    guaranteed to be the same fleet the campaign would build itself.
    """
    refds, duts = manufacture_fleet(cfg)
    apply_fleet_transform(duts, fleet_tag)
    return refds, duts


def apply_config_overrides(
    config: CampaignConfig, overrides: Mapping[str, object]
) -> CampaignConfig:
    """Return a copy of ``config`` with dotted-path overrides applied.

    This is the scenario-level entry point the sweep subsystem uses to
    turn a flat axis assignment into a runnable config: top-level
    fields are named directly (``"watermarked"``, ``"engine"``,
    ``"measurement_seed"``) and fields of the nested dataclasses with
    one dot (``"noise.sigma"``, ``"parameters.n2"``, ``"adc.bits"``,
    ``"variation.component_sigma"``).  Setting a nullable nested field
    (``"adc"``, ``"variation"``, ``"waveform"``) to ``None`` disables
    it; overriding *into* a nested field that is currently ``None``
    starts from that dataclass's defaults.  Unknown paths raise
    ``KeyError`` so a typo in a sweep axis fails loudly instead of
    silently sweeping nothing.
    """
    nested_defaults = {
        "parameters": ProcessParameters,
        "noise": NoiseModel,
        "power_model": PowerModel,
        "waveform": WaveformConfig,
        "variation": VariationModel,
        "adc": ADCConfig,
    }
    top: Dict[str, object] = {}
    nested: Dict[str, Dict[str, object]] = {}
    valid_top = {f.name for f in CampaignConfig.__dataclass_fields__.values()}
    for path, value in overrides.items():
        head, dot, rest = path.partition(".")
        if head not in valid_top:
            raise KeyError(f"unknown campaign config field {path!r}")
        if not dot:
            top[head] = value
        else:
            if head not in nested_defaults:
                raise KeyError(f"field {head!r} has no sub-fields ({path!r})")
            if "." in rest:
                raise KeyError(f"override path {path!r} nests too deep")
            nested.setdefault(head, {})[rest] = value
    for head, fields in nested.items():
        if head in top:
            raise KeyError(
                f"cannot override both {head!r} and {head}.{next(iter(fields))!r}"
            )
        factory = nested_defaults[head]
        valid_sub = {f for f in factory.__dataclass_fields__}
        unknown = set(fields) - valid_sub
        if unknown:
            raise KeyError(f"unknown {head} field(s): {sorted(unknown)}")
        current = getattr(config, head)
        base = current if current is not None else factory()
        top[head] = replace(base, **fields)
    return replace(config, **top)


def run_campaign(
    config: Optional[CampaignConfig] = None,
    fleet=None,
    artifacts: Optional[ArtifactCache] = None,
    fleet_tag: str = "none",
    batch_pool=None,
) -> CampaignOutcome:
    """Run the paper's full 4x4 verification campaign.

    ``fleet`` optionally supplies pre-manufactured ``(refds, duts)``
    devices (e.g. from :func:`manufacture_fleet`), so repeated campaigns
    on the same chips reuse their cached deterministic waveforms instead
    of rebuilding and re-simulating the whole fleet.

    Acquisition is *keyed*: every device's noise stream is seeded from
    the config's measurement base key and the device name (see
    :mod:`repro.experiments.artifacts`), never from a shared sequential
    RNG, so trace sets do not depend on acquisition order: all eight
    are acquired in one concurrent request
    (:func:`~repro.acquisition.bench.acquire_keyed`) and can be shared
    across campaigns.  Passing an ``artifacts`` cache reuses
    fleets and trace matrices across calls byte-identically to this
    unshared path; ``fleet_tag`` names the DUT transform the fleet
    carries (the sweep ``attack`` axis) so tampered artifacts never
    alias pristine ones.

    ``batch_pool`` routes the fleet's activity priming through a shared
    :class:`~repro.hdl.batch_pool.BatchPool`, so simulation lanes this
    campaign needs batch together with lanes other campaigns already
    submitted; the pool is flushed before acquisition starts, but only
    when this campaign's priming actually left lanes unresolved — a
    fleet whose activity a prefetch already flushed measures without
    forcing other campaigns' pending lanes to drain.
    """
    cfg = config if config is not None else CampaignConfig()
    if fleet is not None and artifacts is not None:
        # The trace cache keys on (config, fleet_tag) alone, so an
        # arbitrary caller-supplied fleet could poison it (or be
        # served traces of a different fleet).  Only a fleet that
        # came out of this cache for the same keys is provably
        # consistent.
        try:
            cached = artifacts.fleet(cfg, fleet_tag)
        except KeyError:
            cached = None
        if cached is not fleet:
            raise ValueError(
                "run_campaign: an explicit fleet= can only be combined "
                "with artifacts= when it was obtained from "
                "artifacts.fleet(config, fleet_tag); pass fleet_tag "
                "and let run_campaign manufacture it instead"
            )
    if fleet is not None:
        refds, duts = fleet
    else:
        if artifacts is not None:
            refds, duts = artifacts.fleet(
                cfg, fleet_tag, lambda: build_campaign_fleet(cfg, fleet_tag)
            )
        else:
            refds, duts = build_campaign_fleet(cfg, fleet_tag)
    # Batched activity priming: the fleet's distinct netlists simulate
    # grouped by shape in one batched engine run each, instead of
    # lazily one at a time when the first waveform is rendered.  Cached
    # fleets skip this in O(devices) dict lookups; trace bytes are
    # unchanged either way (the engine's batching invariant).  With a
    # batch pool the lanes are deferred instead and flushed together
    # with whatever other campaigns submitted.
    submitted = prime_fleet_activity(
        (*refds.values(), *duts.values()), pool=batch_pool
    )
    if batch_pool is not None and submitted:
        batch_pool.flush()
    p = cfg.parameters
    # All eight trace sets in one keyed, concurrent request: the DUTs
    # at n2 first, then the references at n1.
    requests = [(duts[name], p.n2) for name in DUT_ORDER]
    requests += [(refds[name], p.n1) for name in REF_ORDER]
    if artifacts is not None:
        acquired = artifacts.traces_many(cfg, requests, fleet_tag=fleet_tag)
    else:
        acquired = acquire_keyed(
            Oscilloscope(cfg.noise, cfg.adc),
            measurement_base_key(cfg, fleet_tag),
            requests,
        )
    t_duts = dict(zip(DUT_ORDER, acquired))
    t_refs = dict(zip(REF_ORDER, acquired[len(DUT_ORDER) :]))
    verifier = WatermarkVerifier(
        parameters=p,
        distinguishers=cfg.distinguishers,
        single_reference=cfg.single_reference,
    )
    analysis_rng = np.random.default_rng(cfg.analysis_seed)
    reports: Dict[str, VerificationReport] = {}
    for ref_name in REF_ORDER:
        reports[ref_name] = verifier.identify(
            t_refs[ref_name], t_duts, rng=analysis_rng
        )
    return CampaignOutcome(config=cfg, reports=reports)


def repeated_accuracy(
    base_config: Optional[CampaignConfig] = None,
    n_repeats: int = 5,
    distinguisher_names: Sequence[str] = ("higher-mean", "lower-variance"),
    artifacts: Optional[ArtifactCache] = None,
) -> Dict[str, float]:
    """Identification accuracy over repeated campaigns (E10).

    Re-seeds measurement and analysis per repeat while keeping the same
    manufactured fleet, i.e. repeats the lab session on the same chips:
    the devices are built once (through ``artifacts`` when given, so a
    whole study — or several studies on the same base config — shares
    one fleet and its simulated waveforms) and passed to every
    :func:`run_campaign`.  Each repeat's measurement seed differs, so
    trace acquisition is per-repeat by design; only fleet-tier work is
    shared.
    """
    if n_repeats <= 0:
        raise ValueError("n_repeats must be positive")
    cfg = base_config if base_config is not None else CampaignConfig()
    if artifacts is not None:
        fleet = artifacts.fleet(cfg, "none", lambda: manufacture_fleet(cfg))
    else:
        fleet = manufacture_fleet(cfg)
    totals = {name: 0.0 for name in distinguisher_names}
    for repeat in range(n_repeats):
        repeat_cfg = replace(
            cfg,
            measurement_seed=cfg.measurement_seed + 1000 * (repeat + 1),
            analysis_seed=cfg.analysis_seed + 1000 * (repeat + 1),
        )
        outcome = run_campaign(repeat_cfg, fleet=fleet, artifacts=artifacts)
        for name in distinguisher_names:
            totals[name] += outcome.accuracy(name)
    return {name: total / n_repeats for name, total in totals.items()}


__all__ = [
    "CampaignConfig",
    "CampaignOutcome",
    "apply_config_overrides",
    "build_campaign_fleet",
    "manufacture_fleet",
    "run_campaign",
    "repeated_accuracy",
    "DUT_ORDER",
    "REF_ORDER",
    "DUT_CONTENTS",
    "EXPECTED_MATCHES",
]
