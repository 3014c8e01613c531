"""repro — reproduction of Marchand, Bossuet & Jung, "IP Watermark
Verification Based on Power Consumption Analysis" (SOCC 2014).

The library implements the paper's watermark-verification scheme end to
end on a simulated hardware substrate:

* :mod:`repro.core` — the correlation computation process, the
  mean/variance distinguishers with confidence distances, and the
  (alpha, k, m, n1, n2) parameter mathematics;
* :mod:`repro.fsm` + :mod:`repro.hdl` — FSMs, counters and the
  watermark leakage component as cycle-accurate netlists;
* :mod:`repro.crypto` — GF(2^8), the AES SBox and AES-128;
* :mod:`repro.power` + :mod:`repro.acquisition` — the synthetic power
  chain replacing the paper's FPGAs and oscilloscope;
* :mod:`repro.experiments` — drivers reproducing Fig. 4, Fig. 5 and
  Tables I/II;
* :mod:`repro.sweeps` — declarative scenario sweeps over campaign
  axes, run in process or on leased worker processes, with a
  resumable result store;
* :mod:`repro.baselines` — related-work comparators.

Quickstart::

    from repro import run_campaign
    outcome = run_campaign()
    print(outcome.verdict_matrix())
"""

from repro.acquisition import (
    ADCConfig,
    Device,
    MeasurementBench,
    Oscilloscope,
    TraceSet,
    acquire_traces,
    prime_fleet_activity,
)
from repro.core import (
    CorrelationProcess,
    CorrelationResult,
    HigherMeanDistinguisher,
    LowerVarianceDistinguisher,
    PAPER_PLAN,
    ProcessParameters,
    WatermarkVerifier,
    pearson,
    plan_parameters,
    reuse_probability,
    reuse_probability_limit,
)
from repro.experiments import (
    CampaignConfig,
    CampaignOutcome,
    build_device_fleet,
    build_paper_ip,
    run_campaign,
)
from repro.fsm import WatermarkedIP, attach_leakage_component
from repro.power import NoiseModel, PowerModel, VariationModel, WaveformConfig
from repro.sweeps import (
    GridAxis,
    RandomAxis,
    SweepSpec,
    SweepStore,
    expand_scenarios,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Device",
    "prime_fleet_activity",
    "TraceSet",
    "Oscilloscope",
    "ADCConfig",
    "MeasurementBench",
    "acquire_traces",
    "pearson",
    "CorrelationProcess",
    "CorrelationResult",
    "ProcessParameters",
    "WatermarkVerifier",
    "HigherMeanDistinguisher",
    "LowerVarianceDistinguisher",
    "reuse_probability",
    "reuse_probability_limit",
    "plan_parameters",
    "PAPER_PLAN",
    "WatermarkedIP",
    "attach_leakage_component",
    "PowerModel",
    "NoiseModel",
    "VariationModel",
    "WaveformConfig",
    "CampaignConfig",
    "CampaignOutcome",
    "run_campaign",
    "build_device_fleet",
    "build_paper_ip",
    "GridAxis",
    "RandomAxis",
    "SweepSpec",
    "SweepStore",
    "expand_scenarios",
]
