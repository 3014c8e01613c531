"""Golden digests: pinned bytes of a default campaign and of keyed
acquisitions.

The digests were recorded before acquisition moved to in-place noise
and quantisation and to concurrent keyed acquisition, so they prove
those changes byte-identical.  They also make any change to NumPy's
generator streams, the noise model or the ADC fail loudly here rather
than silently shift every stored result.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.acquisition.bench import MeasurementBench
from repro.acquisition.device import Device
from repro.acquisition.oscilloscope import ADCConfig, Oscilloscope
from repro.attacks.masking import masking_sweep
from repro.core.process import ProcessParameters
from repro.experiments.artifacts import ArtifactCache
from repro.experiments.designs import build_paper_ip
from repro.experiments.runner import CampaignConfig, run_campaign
from repro.power.models import PowerModel
from repro.power.noise import NoiseModel
from repro.sweeps.scenario import outcome_arrays, outcome_metrics

#: sha256 of the default CampaignConfig() outcome: Table I means,
#: Table II variances and verdicts (the stored metrics) plus all 16
#: correlation sets.
DEFAULT_CAMPAIGN_DIGEST = (
    "64bb3d4b210c1451545c43b83474373d76e71663a425e5190944dde914cd1069"
)

#: sha256 of a keyed 301-trace acquisition per measurement chain.
ACQUISITION_DIGESTS = {
    "adc": "feb3f033b3076aa1d073f2c8bd8c1d8203f24583ad177d2a716a6c877a7b3a28",
    "no-adc": "6506585a8aace7e0ae01e84077815032d8e8d36f3ed045326cc9e4084d3697a2",
    "drift": "03eea13db8aee9a6a0910ef4e9823141772c7ed9419b1658949780b22509a9d2",
}

SCOPES = {
    "adc": lambda: Oscilloscope(NoiseModel(sigma=1.0), ADCConfig(bits=10)),
    "no-adc": lambda: Oscilloscope(NoiseModel(sigma=1.0), None),
    "drift": lambda: Oscilloscope(
        NoiseModel(sigma=1.0, drift_sigma=0.5), ADCConfig(bits=8)
    ),
}

#: sha256 of a small masking sweep, which measures on a sequential
#: (``seed=``) bench.
MASKING_DIGEST = "8384ef1956f47f3c361669ef4d00aae41720ceb2b2f849c5ec7365cdf94468e2"


def outcome_digest(outcome) -> str:
    """Digest of a campaign outcome's stored form (metrics + C sets)."""
    digest = hashlib.sha256(
        json.dumps(outcome_metrics(outcome), sort_keys=True).encode()
    )
    for name, array in sorted(outcome_arrays(outcome).items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_default_campaign_digest():
    assert outcome_digest(run_campaign(CampaignConfig())) == DEFAULT_CAMPAIGN_DIGEST


def test_default_campaign_digest_with_shared_artifacts():
    outcome = run_campaign(CampaignConfig(), artifacts=ArtifactCache())
    assert outcome_digest(outcome) == DEFAULT_CAMPAIGN_DIGEST


@pytest.mark.parametrize("chain", sorted(ACQUISITION_DIGESTS))
def test_keyed_acquisition_digest(chain):
    device = Device("golden", build_paper_ip("IP_A"), PowerModel(), default_cycles=64)
    bench = MeasurementBench(SCOPES[chain](), key="golden-digest")
    matrix = bench.measure(device, 301).matrix
    assert matrix.shape == (301, 256)
    digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
    assert digest == ACQUISITION_DIGESTS[chain]


def test_sequential_masking_sweep_digest():
    points = masking_sweep(
        [0.5, 2.0], ProcessParameters(k=8, m=8, n1=64, n2=256), seed=5
    )
    body = json.dumps(
        [
            [p.noise_sigma, p.mean_accuracy, p.variance_accuracy, p.matching_mean]
            for p in points
        ]
    )
    assert hashlib.sha256(body.encode()).hexdigest() == MASKING_DIGEST
