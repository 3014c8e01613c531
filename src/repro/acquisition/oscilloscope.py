"""The synthetic oscilloscope.

Adds what the measurement chain adds on a real bench: wideband noise
(see :mod:`repro.power.noise`) and ADC quantisation at a configurable
vertical resolution.  Acquisition is triggered at reset, so every trace
is aligned — the paper guarantees this by placing all FSMs "in the
exact same state before starting any power consumption measurements".

Acquisition works *in place*: the ``(n_traces, n_samples)`` result is
allocated once, the noise model fills it, the base waveform is added
and the ADC quantises it where it lies, so a 10 000-trace acquisition
needs no memory beyond its own trace matrix.  The ADC window is
derived from the device's *deterministic* base waveform, never from
the noisy batch, so the quantisation grid is invariant to the trace
count and prefix-stable acquisitions stay prefix-stable after
quantisation.

:meth:`Oscilloscope.acquire` reads the device's rendered waveform and
its own generator and writes only the matrix it allocates.  Once the
waveform is rendered (rendering fills per-device and process-wide
caches), acquisitions of different devices on different generators
can therefore run on different threads — see
:func:`~repro.acquisition.bench.acquire_keyed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.acquisition.device import Device
from repro.acquisition.traces import TraceSet
from repro.power.noise import NoiseModel


@dataclass(frozen=True)
class ADCConfig:
    """Vertical quantisation of the oscilloscope front-end."""

    bits: int = 10
    headroom: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 24:
            raise ValueError(f"ADC bits must be in [1, 24], got {self.bits}")
        if self.headroom < 0:
            raise ValueError("ADC headroom must be non-negative")


class Oscilloscope:
    """Noise + quantisation applied on top of a device's waveform."""

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        adc: Optional[ADCConfig] = None,
    ):
        self.noise = noise if noise is not None else NoiseModel()
        self.adc = adc

    def acquire(
        self,
        device: Device,
        n_traces: int,
        rng: np.random.Generator,
        n_cycles: Optional[int] = None,
    ) -> TraceSet:
        """Measure ``n_traces`` aligned traces on ``device``.

        This is the paper's acquisition function ``Pw(device, n)``.
        The ADC rounds onto the grid covering the base waveform's mean
        ± (sigma + headroom) signal deviations; every in-place step
        below repeats the out-of-place formula
        ``low + round((clip(x, low, high) - low) / step) * step``
        operation for operation, so the bytes are the same.
        """
        if n_traces <= 0:
            raise ValueError(f"n_traces must be positive, got {n_traces}")
        base = device.deterministic_waveform(n_cycles)
        signal_std = float(np.std(base))
        if signal_std == 0:
            # A constant waveform still gets absolute-unit noise so the
            # correlation machinery downstream sees finite variance.
            signal_std = 1.0
        traces = np.empty((n_traces, base.size))
        self.noise.sample(n_traces, base.size, signal_std, rng, out=traces)
        traces += base
        if self.adc is not None:
            spread = (self.noise.sigma + self.adc.headroom) * signal_std
            if spread != 0:
                center = float(np.mean(base))
                low = center - spread
                high = center + spread
                step = (high - low) / ((1 << self.adc.bits) - 1)
                np.clip(traces, low, high, out=traces)
                traces -= low
                traces /= step
                np.round(traces, out=traces)
                traces *= step
                traces += low
        return TraceSet(device.name, traces)
