"""Tests for the Ljung-Box / KS statistical tests, validated against
distributions with known properties and scipy references (scipy is a
test-only dependency: the package itself never imports it)."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.mbpta.stats_tests import (
    _chi2_sf,
    autocorrelations,
    ks_two_sample,
    ljung_box,
)


RNG = np.random.default_rng(1234)


class TestAutocorrelations:
    def test_white_noise_near_zero(self):
        data = RNG.normal(size=5000)
        r = autocorrelations(data, 10)
        assert np.all(np.abs(r) < 0.05)

    def test_ar1_positive_lag1(self):
        noise = RNG.normal(size=5000)
        data = np.empty(5000)
        data[0] = noise[0]
        for i in range(1, 5000):
            data[i] = 0.8 * data[i - 1] + noise[i]
        r = autocorrelations(data, 3)
        assert r[0] > 0.7
        assert r[1] > r[2] > 0.3

    def test_constant_series_zero(self):
        assert np.all(autocorrelations(np.ones(100), 5) == 0)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelations(np.arange(10.0), 10)


class TestLjungBox:
    def test_iid_passes(self):
        data = RNG.normal(size=2000)
        result = ljung_box(data, lags=20)
        assert result.passed
        assert result.p_value > 0.05

    def test_autocorrelated_fails(self):
        noise = RNG.normal(size=2000)
        data = np.empty(2000)
        data[0] = noise[0]
        for i in range(1, 2000):
            data[i] = 0.5 * data[i - 1] + noise[i]
        result = ljung_box(data, lags=20)
        assert not result.passed

    def test_false_positive_rate_near_alpha(self):
        """Under the null, rejections happen at roughly the alpha rate."""
        rng = np.random.default_rng(7)
        rejections = sum(
            not ljung_box(rng.normal(size=300), lags=20).passed
            for _ in range(200)
        )
        assert rejections < 0.15 * 200

    def test_statistic_positive(self):
        result = ljung_box(RNG.normal(size=500))
        assert result.statistic >= 0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ljung_box(np.arange(10.0), lags=20)


class TestKSTwoSample:
    def test_same_distribution_passes(self):
        a = RNG.normal(size=1500)
        b = RNG.normal(size=1500)
        assert ks_two_sample(a, b).passed

    def test_shifted_distribution_fails(self):
        a = RNG.normal(size=1500)
        b = RNG.normal(loc=0.5, size=1500)
        assert not ks_two_sample(a, b).passed

    def test_statistic_matches_scipy(self):
        a = RNG.normal(size=400)
        b = RNG.normal(size=600)
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(reference.statistic, abs=1e-12)

    def test_p_value_close_to_scipy_asymptotic(self):
        a = RNG.normal(size=500)
        b = RNG.normal(size=500)
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.p_value == pytest.approx(reference.pvalue, abs=0.05)

    def test_identical_samples_statistic_zero(self):
        a = np.arange(100.0)
        result = ks_two_sample(a, a)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestChi2Sf:
    """The closed-form chi-square tail behind the Ljung-Box p-value."""

    # 0, the body of every df up to 40, and tails down to ~1e-282.
    Q_GRID = [0.0, 1e-12, 1e-6, 0.01, 0.3, 1.0, 2.5, 5.0, 10.0, 19.7,
              31.4, 50.0, 80.0, 150.0, 300.0, 700.0, 1400.0]

    @pytest.mark.parametrize("df", range(1, 41))
    def test_matches_scipy(self, df):
        ours = [_chi2_sf(q, df) for q in self.Q_GRID]
        reference = scipy_stats.chi2.sf(self.Q_GRID, df)
        np.testing.assert_allclose(ours, reference, rtol=1e-12, atol=0)


class TestTestResult:
    def test_passed_respects_alpha(self):
        from repro.mbpta.stats_tests import TestResult

        assert TestResult("x", 0.0, 0.06, alpha=0.05).passed
        assert not TestResult("x", 0.0, 0.04, alpha=0.05).passed
