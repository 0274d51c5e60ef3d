"""Statistical admission tests used by MBPTA (paper §6.2.2).

MBPTA applies EVT, which requires the execution-time samples to be
independent and identically distributed.  The paper validates both
properties with the Ljung-Box independence test over 20 lags and the
two-sample Kolmogorov-Smirnov identical-distribution test, at the 5%
significance level.  Both tests are implemented here from their
definitions with NumPy and the standard library alone: the Ljung-Box
p-value comes from the closed-form chi-square tail :func:`_chi2_sf`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    name: str
    statistic: float
    p_value: float
    alpha: float = 0.05

    @property
    def passed(self) -> bool:
        """True when the null hypothesis is *not* rejected."""
        return self.p_value >= self.alpha


def _as_array(samples: Sequence[float]) -> np.ndarray:
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    return data


def autocorrelations(samples: Sequence[float], max_lag: int) -> np.ndarray:
    """Sample autocorrelation coefficients r_1 .. r_max_lag."""
    data = _as_array(samples)
    n = data.size
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be < sample size {n}")
    centered = data - data.mean()
    denominator = float(np.dot(centered, centered))
    if denominator == 0.0:
        # Constant series: autocorrelation undefined; report zeros so a
        # fully deterministic timing profile trivially "passes" LB (the
        # identical-distribution test is what flags such data).
        return np.zeros(max_lag)
    result = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        result[lag - 1] = float(
            np.dot(centered[:-lag], centered[lag:]) / denominator
        )
    return result


def _chi2_sf(q: float, df: int) -> float:
    """Chi-square survival function P(X > q) for an integer ``df`` >= 1.

    Even df: ``exp(-q/2)·Σ_{j<df/2} (q/2)^j/j!``.  Odd df:
    ``erfc(√(q/2)) + exp(-q/2)·Σ_{j=1}^{(df-1)/2} (q/2)^(j-½)/Γ(j+½)``.
    Each term is the previous one times ``(q/2)/order``, and every term
    is positive, so nothing cancels in the far tail.
    """
    if q <= 0.0:
        return 1.0
    half = q / 2.0
    if df % 2:
        total = math.erfc(math.sqrt(half))
        term = math.sqrt(half) * math.exp(-half) / math.gamma(1.5)
        order = 1.5
    else:
        total, term, order = 0.0, math.exp(-half), 1.0
    for _ in range(df // 2):
        total += term
        term *= half / order
        order += 1.0
    return min(1.0, total)


def ljung_box(samples: Sequence[float], lags: int = 20,
              alpha: float = 0.05) -> TestResult:
    """Ljung-Box portmanteau test for independence (Box & Pierce [9]).

    Tests the joint null that all autocorrelations up to ``lags`` are
    zero.  The paper uses 20 simultaneous lags, "a very strong
    independence test" (§6.2.2).
    """
    data = _as_array(samples)
    n = data.size
    if n <= lags + 1:
        raise ValueError(f"need more than {lags + 1} samples, got {n}")
    r = autocorrelations(data, lags)
    q = n * (n + 2) * float(np.sum(r * r / (n - np.arange(1, lags + 1))))
    p_value = _chi2_sf(q, lags)
    return TestResult("ljung_box", q, p_value, alpha)


def _ks_asymptotic_p_value(statistic: float, n: int, m: int) -> float:
    """Two-sided asymptotic KS p-value (Kolmogorov distribution tail)."""
    effective_n = n * m / (n + m)
    lam = (math.sqrt(effective_n) + 0.12 + 0.11 / math.sqrt(effective_n))
    lam *= statistic
    if lam <= 0:
        return 1.0
    # Kolmogorov Q-function: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lam^2).
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(first: Sequence[float], second: Sequence[float],
                  alpha: float = 0.05) -> TestResult:
    """Two-sample Kolmogorov-Smirnov identical-distribution test.

    The paper (§6.2.2) applies it to verify the i.d. part of i.i.d.;
    typically the sample is split in two halves (see
    :meth:`repro.mbpta.analysis.MBPTAAnalysis.identical_distribution`).
    """
    a = np.sort(_as_array(first))
    b = np.sort(_as_array(second))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    p_value = _ks_asymptotic_p_value(statistic, a.size, b.size)
    return TestResult("ks_two_sample", statistic, p_value, alpha)
