"""Statistical helpers shared by the analysis and ablation code.

Only the two significance tests need scipy, so they import it when
called; importing this module (and with it every campaign, sweep and
service path) loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    variance: float
    minimum: float
    median: float
    maximum: float

    @classmethod
    def of(cls, sample: Sequence[float]) -> "SummaryStats":
        data = np.asarray(sample, dtype=float)
        if data.size == 0:
            raise ValueError("cannot summarise an empty sample")
        return cls(
            n=int(data.size),
            mean=float(np.mean(data)),
            variance=float(np.var(data)),
            minimum=float(np.min(data)),
            median=float(np.median(data)),
            maximum=float(np.max(data)),
        )


def welch_t_test(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Welch's unequal-variance t-test; returns (statistic, p-value).

    Used to check that a matching C set and a non-matching C set are
    statistically distinct populations.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    from scipy import stats

    result = stats.ttest_ind(a, b, equal_var=False)
    return float(result.statistic), float(result.pvalue)


def variance_ratio_f_test(
    a: Sequence[float], b: Sequence[float]
) -> Tuple[float, float]:
    """F-test of equal variances; returns (F, p-value).

    The paper's variance distinguisher implicitly relies on the match
    variance being genuinely smaller; the F-test quantifies that.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    var_a = np.var(a, ddof=1)
    var_b = np.var(b, ddof=1)
    if var_b == 0:
        raise ValueError("second sample has zero variance")
    f = float(var_a / var_b)
    df_a, df_b = a.size - 1, b.size - 1
    from scipy import stats

    # Two-sided p-value.
    cdf = stats.f.cdf(f, df_a, df_b)
    p = float(2 * min(cdf, 1 - cdf))
    return f, p


def binomial_confidence(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a success proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be in [0, trials]")
    p_hat = successes / trials
    denom = 1 + z**2 / trials
    center = (p_hat + z**2 / (2 * trials)) / denom
    half = (
        z
        * np.sqrt(p_hat * (1 - p_hat) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)


def signal_to_noise_ratio(deterministic: np.ndarray, noisy: np.ndarray) -> float:
    """Empirical SNR of one noisy trace against its noise-free waveform."""
    deterministic = np.asarray(deterministic, dtype=float)
    noisy = np.asarray(noisy, dtype=float)
    if deterministic.shape != noisy.shape:
        raise ValueError("shape mismatch between deterministic and noisy traces")
    noise = noisy - deterministic
    noise_power = float(np.var(noise))
    if noise_power == 0:
        raise ValueError("noise power is zero; SNR undefined")
    return float(np.var(deterministic) / noise_power)
