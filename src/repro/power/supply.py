"""Power-delivery-network (PDN) and waveform rendering.

On a real board the oscilloscope does not see per-cycle impulses: each
clock period's switching current is spread over several samples by the
die/package/board RC network.  The model renders each cycle as a
damped-exponential current pulse over ``samples_per_cycle`` samples and
then applies a single-pole low-pass filter for the PDN's memory across
cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveformConfig:
    """Rendering parameters from per-cycle power to sampled waveform."""

    samples_per_cycle: int = 4
    pulse_decay: float = 0.55
    pdn_pole: float = 0.25

    def __post_init__(self) -> None:
        if self.samples_per_cycle <= 0:
            raise ValueError("samples_per_cycle must be positive")
        if not 0 < self.pulse_decay <= 1:
            raise ValueError("pulse_decay must be in (0, 1]")
        if not 0 <= self.pdn_pole < 1:
            raise ValueError("pdn_pole must be in [0, 1)")

    def pulse_kernel(self) -> np.ndarray:
        """Intra-cycle current pulse shape (peaks at the clock edge)."""
        exponents = np.arange(self.samples_per_cycle)
        kernel = self.pulse_decay ** exponents
        return kernel / kernel.sum()


def render_waveform(cycle_power: np.ndarray, config: WaveformConfig) -> np.ndarray:
    """Expand per-cycle power into a sampled, PDN-filtered waveform.

    The output has ``len(cycle_power) * samples_per_cycle`` samples.
    """
    cycle_power = np.asarray(cycle_power, dtype=float)
    if cycle_power.ndim != 1:
        raise ValueError("cycle_power must be 1-D")
    kernel = config.pulse_kernel()
    samples = np.outer(cycle_power, kernel).reshape(-1)
    if config.pdn_pole > 0:
        pole = config.pdn_pole
        gain = 1.0 - pole
        filtered = np.empty_like(samples)
        state = 0.0
        for i, x in enumerate(samples.tolist()):
            state = gain * x + pole * state
            filtered[i] = state
        samples = filtered
    return samples
