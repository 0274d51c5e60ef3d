"""Tests for the Bernstein correlation attack on synthetic profiles
with known ground truth."""

import numpy as np
import pytest

from repro.attack.bernstein import (
    BernsteinAttack,
    TimingProfile,
    profile_from_samples,
)


def synthetic_profiles(key, signal=5.0, noise=0.1, seed=3):
    """Victim/study profile pair with a shared cold-value function.

    f(t) is slow for t in a narrow range; victim deviations are
    f(v ^ key[j]), study deviations are f(t) directly.
    """
    rng = np.random.default_rng(seed)
    # Scattered slow values (not an XOR-aligned block), so the score
    # autocorrelation has a unique peak at the true key byte.
    slow_values = {3, 48, 131, 202}

    def f(t):
        return signal if t in slow_values else 0.0

    study_dev = np.zeros((16, 256))
    victim_dev = np.zeros((16, 256))
    for j in range(16):
        for v in range(256):
            study_dev[j, v] = f(v) + rng.normal(scale=noise)
            victim_dev[j, v] = f(v ^ key[j]) + rng.normal(scale=noise)
    counts = np.full((16, 256), 1000, dtype=np.int64)
    variances = np.full((16, 256), noise**2)
    study = TimingProfile(study_dev, counts, 0.0, variances)
    victim = TimingProfile(victim_dev, counts, 0.0, variances)
    return study, victim


class TestProfileFromSamples:
    def test_profile_means(self):
        index_bytes = np.zeros((512, 16), dtype=np.uint8)
        index_bytes[:256, 0] = np.arange(256)
        index_bytes[256:, 0] = np.arange(256)
        timings = np.ones(512) * 100.0
        timings[index_bytes[:, 0] == 5] += 10.0
        profile = profile_from_samples(index_bytes, timings)
        assert profile.deviations[0, 5] == pytest.approx(
            10.0 - 10.0 * 2 / 512
        )
        assert profile.counts[0, 5] == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            profile_from_samples(np.zeros((10, 8), dtype=np.uint8),
                                 np.zeros(10))
        with pytest.raises(ValueError):
            profile_from_samples(np.zeros((10, 16), dtype=np.uint8),
                                 np.zeros(9))

    def test_variances_nonnegative(self):
        rng = np.random.default_rng(1)
        index_bytes = rng.integers(0, 256, size=(5000, 16), dtype=np.uint8)
        timings = rng.normal(size=5000)
        profile = profile_from_samples(index_bytes, timings)
        assert np.all(profile.mean_variances >= 0)


class TestAttackRecovery:
    def test_recovers_key_from_clean_profiles(self):
        key = bytes(range(16))
        study, victim = synthetic_profiles(key)
        result = BernsteinAttack(study, victim).run(key)
        assert result.best_guess == key
        assert result.report.remaining_key_space_log2 < 80

    def test_key_survives_in_every_byte(self):
        key = bytes(range(16))
        study, victim = synthetic_profiles(key)
        result = BernsteinAttack(study, victim).run(key)
        for j, outcome in enumerate(result.report.outcomes):
            assert key[j] in outcome.surviving_values

    def test_uncorrelated_profiles_yield_no_discards(self):
        """Pure noise must produce the all-grey TSCache panel."""
        key = bytes(range(16))
        rng = np.random.default_rng(9)
        counts = np.full((16, 256), 1000, dtype=np.int64)
        variances = np.full((16, 256), 1.0)
        study = TimingProfile(rng.normal(size=(16, 256)), counts, 0.0,
                              variances)
        victim = TimingProfile(rng.normal(size=(16, 256)), counts, 0.0,
                               variances)
        result = BernsteinAttack(study, victim).run(key)
        assert result.report.key_fully_protected

    def test_detection_gate_zero_keeps_rank_rule(self):
        """gate=0 grades by pure rank even on noise."""
        key = bytes(16)
        rng = np.random.default_rng(10)
        counts = np.full((16, 256), 1000, dtype=np.int64)
        variances = np.full((16, 256), 1.0)
        study = TimingProfile(rng.normal(size=(16, 256)), counts, 0.0,
                              variances)
        victim = TimingProfile(rng.normal(size=(16, 256)), counts, 0.0,
                               variances)
        result = BernsteinAttack(study, victim, detection_gate=0.0).run(key)
        assert not result.report.key_fully_protected

    def test_wrong_key_length_rejected(self):
        key = bytes(range(16))
        study, victim = synthetic_profiles(key)
        with pytest.raises(ValueError):
            BernsteinAttack(study, victim).run(b"short")

    def test_negative_gate_rejected(self):
        key = bytes(range(16))
        study, victim = synthetic_profiles(key)
        with pytest.raises(ValueError):
            BernsteinAttack(study, victim, detection_gate=-1.0)


class TestScores:
    def test_true_candidate_peaks(self):
        key = bytes([0x3C] * 16)
        study, victim = synthetic_profiles(key)
        attack = BernsteinAttack(study, victim)
        scores = attack.candidate_scores(0)
        assert int(np.argmax(scores)) == 0x3C

    def test_sigma_positive_for_noisy_profiles(self):
        key = bytes(range(16))
        study, victim = synthetic_profiles(key)
        attack = BernsteinAttack(study, victim)
        assert attack.score_noise_sigma(0) > 0
