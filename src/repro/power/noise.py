"""Measurement-noise model for the synthetic oscilloscope.

The dominant noise in a shunt-resistor power measurement is wideband
amplifier/thermal noise, modelled as i.i.d. Gaussian samples.  A slow
baseline drift (random-walk low-frequency noise) is also available —
it is largely removed by the Pearson correlation's mean subtraction,
but including it keeps single traces realistic.

``sigma`` is expressed *relative to the standard deviation of the
deterministic waveform*, so the acquisition signal-to-noise ratio is a
single, interpretable calibration knob: the default of 1.0 (single-
trace SNR of one) puts the k = 50 averaged matching correlation near
0.98 and reproduces the paper's distinguisher behaviour; sigma = 1.8
lands the matching mean on the paper's 0.94 at the cost of a thinner
variance margin.

**Stream contract.**  :meth:`NoiseModel.sample` draws trace-major from
the generator's single bit stream, and each trace's draws depend only
on its own stream segment (the drift random walk runs *within* a
trace, never across traces).  Two consequences the acquisition layer
relies on:

* *prefix stability* — the first ``n`` rows of a larger sample equal a
  direct ``n``-row sample from a same-seeded generator, which is what
  lets cached trace sets be reused by prefix across scenarios with
  different trace budgets;
* *stream independence* — a sample reads nothing but its own
  generator and writes nothing but its own output matrix, so samples
  on different generators may run on different threads at once (see
  :func:`~repro.acquisition.bench.acquire_keyed`) without changing a
  byte.

The white-noise path fills the caller's matrix in place
(``out=``) and allocates nothing; its values equal
``rng.normal(0, sigma * signal_std)`` once the base waveform has been
added (the two differ at most in the sign of an exact zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Traces drawn per block on the drift path.  Each block draws its
#: white and drift samples together (twice the trace width), so this
#: bounds that path's transient memory; trace-major drawing makes the
#: block size invisible in the output.
DRIFT_BLOCK_ROWS = 256


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise applied to each acquired trace."""

    sigma: float = 1.0
    drift_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.drift_sigma < 0:
            raise ValueError("drift sigma must be non-negative")

    def sample(
        self,
        n_traces: int,
        n_samples: int,
        signal_std: float,
        rng: np.random.Generator,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Noise matrix of shape ``(n_traces, n_samples)``.

        ``signal_std`` scales the relative sigmas into absolute units.
        ``out`` is an optional C-contiguous float64 matrix of that
        shape to fill and return instead of a fresh one.  Draws are
        trace-major and per-trace independent — see the module
        docstring for the stream contract.
        """
        if n_traces <= 0 or n_samples <= 0:
            raise ValueError("n_traces and n_samples must be positive")
        if signal_std < 0:
            raise ValueError("signal_std must be non-negative")
        if out is None:
            out = np.empty((n_traces, n_samples))
        elif out.shape != (n_traces, n_samples):
            raise ValueError(
                f"out has shape {out.shape}, expected {(n_traces, n_samples)}"
            )
        if self.drift_sigma <= 0:
            rng.standard_normal(out=out)
            out *= self.sigma * signal_std
            return out
        # With drift enabled, each trace's white and drift draws must be
        # consecutive in the stream (trace-major), otherwise the drift
        # block's position would depend on n_traces and break prefix
        # stability.
        drift_scale = self.drift_sigma * signal_std / np.sqrt(n_samples)
        for start in range(0, n_traces, DRIFT_BLOCK_ROWS):
            rows = out[start : start + DRIFT_BLOCK_ROWS]
            block = rng.standard_normal((rows.shape[0], 2 * n_samples))
            np.multiply(self.sigma * signal_std, block[:, :n_samples], out=rows)
            rows += np.cumsum(drift_scale * block[:, n_samples:], axis=1)
        return out
