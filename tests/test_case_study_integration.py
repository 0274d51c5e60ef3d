"""End-to-end integration tests of the Bernstein case study (§6.2.1).

These run the full pipeline — vectorized AES sample collection, profile
construction, correlation attack, key-space grading — at reduced sample
counts chosen so the qualitative outcomes are stable.
"""

import numpy as np
import pytest

from repro.attack.bernstein import TimingProfile
from repro.attack.metrics import candidate_matrix
from repro.core.simulator import BernsteinCaseStudy

VICTIM_KEY = bytes(range(16))
ATTACKER_KEY = bytes(range(100, 116))


@pytest.fixture(scope="module")
def deterministic_result():
    study = BernsteinCaseStudy("deterministic", num_samples=60_000,
                               rng_seed=7)
    return study.run(victim_key=VICTIM_KEY, attacker_key=ATTACKER_KEY)


@pytest.fixture(scope="module")
def tscache_result():
    study = BernsteinCaseStudy("tscache", num_samples=60_000, rng_seed=7)
    return study.run(victim_key=VICTIM_KEY, attacker_key=ATTACKER_KEY)


class TestDeterministicSetup:
    def test_attack_leaks(self, deterministic_result):
        report = deterministic_result.report
        assert report.remaining_key_space_log2 < 120
        assert report.brute_force_speedup_log2 > 8

    def test_leaking_bytes_use_te1_te2(self, deterministic_result):
        """The background evicts Te1/Te2 lines, so exactly the bytes
        whose first-round lookup hits those tables (j % 4 in {1, 2})
        can leak."""
        report = deterministic_result.report
        leaking = {
            o.byte_index for o in report.outcomes if o.num_surviving < 256
        }
        assert leaking, "expected at least one leaking byte"
        assert leaking <= {1, 2, 5, 6, 9, 10, 13, 14}

    def test_true_key_always_survives(self, deterministic_result):
        for j, outcome in enumerate(deterministic_result.report.outcomes):
            assert VICTIM_KEY[j] in outcome.surviving_values

    def test_candidate_matrix_colours(self, deterministic_result):
        matrix = candidate_matrix(deterministic_result.report)
        # Black cell on the true key of every byte.
        for j in range(16):
            assert matrix[j, VICTIM_KEY[j]] == 2
        # Some white (discarded) cells exist.
        assert (matrix == 0).any()

    def test_timing_has_input_dependence(self, deterministic_result):
        """Figure 4 precondition: per-value timing variation exists."""
        profile = TimingProfile.from_sums(deterministic_result.victim_sums)
        variation = profile.deviations[5]
        assert variation.max() - variation.min() > 0.5


class TestTSCacheSetup:
    def test_attack_fully_defeated(self, tscache_result):
        report = tscache_result.report
        assert report.key_fully_protected
        assert report.remaining_key_space_log2 == pytest.approx(128.0)

    def test_all_grey_matrix(self, tscache_result):
        matrix = candidate_matrix(tscache_result.report)
        assert not (matrix == 0).any()  # no white cells anywhere

    def test_timing_still_varies(self, tscache_result):
        """TSCache defeats the attack by randomization, not by making
        time constant — execution times must still vary."""
        sums = tscache_result.victim_sums
        n = sums.num_samples
        mean = sums.total / n
        variance = sums.sum_squares[0].sum() / n - mean * mean
        assert np.sqrt(variance) > 1.0


class TestCrossSetupShape:
    def test_tscache_beats_deterministic(self, deterministic_result,
                                         tscache_result):
        assert (
            tscache_result.report.remaining_key_space_log2
            > deterministic_result.report.remaining_key_space_log2
        )

    def test_setups_recorded(self, deterministic_result, tscache_result):
        assert deterministic_result.setup.name == "deterministic"
        assert tscache_result.setup.name == "tscache"
        for result in (deterministic_result, tscache_result):
            assert result.victim_sums.num_samples == 60_000
            assert result.attacker_sums.num_samples == 60_000
