"""Tests for the attack key-space metrics (Figure 5 bookkeeping)."""

import numpy as np
import pytest

from repro.attack.metrics import (
    ByteAttackOutcome,
    KeySpaceReport,
    candidate_matrix,
    render_candidate_matrix,
)


def outcome(byte_index=0, true_value=7, surviving=None):
    surviving = surviving if surviving is not None else set(range(256))
    return ByteAttackOutcome(
        byte_index=byte_index,
        true_value=true_value,
        surviving_values=frozenset(surviving),
    )


def full_report(per_byte_survivors):
    outcomes = []
    for j, survivors in enumerate(per_byte_survivors):
        outcomes.append(outcome(j, true_value=min(survivors),
                                surviving=survivors))
    return KeySpaceReport(outcomes=tuple(outcomes))


class TestByteOutcome:
    def test_true_value_must_survive(self):
        with pytest.raises(ValueError):
            outcome(true_value=7, surviving={1, 2, 3})

    def test_fully_determined(self):
        o = outcome(true_value=7, surviving={7})
        assert o.fully_determined
        assert o.bits_disclosed == 8.0

    def test_no_information(self):
        o = outcome(true_value=7)
        assert not o.fully_determined
        assert o.bits_disclosed == 0.0
        assert o.num_surviving == 256

    def test_partial_disclosure(self):
        o = outcome(true_value=7, surviving=set(range(7, 7 + 16)))
        assert o.bits_disclosed == pytest.approx(4.0)


class TestKeySpaceReport:
    def test_needs_16_bytes(self):
        with pytest.raises(ValueError):
            KeySpaceReport(outcomes=(outcome(),) * 15)

    def test_fully_protected(self):
        report = full_report([set(range(256))] * 16)
        assert report.key_fully_protected
        assert report.remaining_key_space_log2 == pytest.approx(128.0)
        assert report.brute_force_speedup_log2 == pytest.approx(0.0)
        assert report.bits_determined == 0

    def test_paper_deterministic_shape(self):
        """~33 bits determined and ~2^80 remaining, like the paper."""
        survivors = (
            [{5}] * 4                      # 4 bytes pinned: 32 bits
            + [set(range(4))] * 8          # 8 bytes at 4 candidates
            + [set(range(256))] * 4        # 4 bytes untouched
        )
        report = full_report(survivors)
        assert report.bits_determined == 32
        assert report.remaining_key_space_log2 == pytest.approx(
            8 * 2 + 4 * 8
        )
        assert report.brute_force_speedup_log2 == pytest.approx(128 - 48)

    def test_summary_row_contains_numbers(self):
        report = full_report([set(range(256))] * 16)
        row = report.summary_row("tscache")
        assert "tscache" in row
        assert "2^ 128.0" in row


class TestCandidateMatrix:
    def test_colour_coding(self):
        survivors = [set(range(256))] * 16
        survivors[3] = {10, 11, 12}
        report = full_report(survivors)
        matrix = candidate_matrix(report)
        assert matrix.shape == (16, 256)
        assert matrix[3, 10] == 2       # true value (min of survivors)
        assert matrix[3, 11] == 1       # surviving
        assert matrix[3, 200] == 0      # discarded
        assert int((matrix[0] == 1).sum()) == 255  # all grey + 1 black

    def test_render_shapes(self):
        report = full_report([set(range(256))] * 16)
        text = render_candidate_matrix(candidate_matrix(report))
        lines = text.splitlines()
        assert len(lines) == 16
        assert all("byte" in line for line in lines)

    def test_render_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            render_candidate_matrix(np.zeros((4, 4), dtype=np.int8))

    def test_render_marks_discards(self):
        survivors = [set(range(256))] * 16
        survivors[0] = {0}
        report = full_report(survivors)
        text = render_candidate_matrix(candidate_matrix(report))
        first = text.splitlines()[0]
        assert "#" in first and "." in first


class TestEdgeCases:
    """The degenerate report shapes: empty survivor profiles,
    single-candidate collapse, and full-keyspace no-leak."""

    def test_empty_survivor_profile_rejected(self):
        """An attack can never discard every value: the paper's
        best-case-attacker rule keeps the true value alive, so an
        empty profile is a construction bug, not a result."""
        with pytest.raises(ValueError):
            outcome(true_value=7, surviving=set())

    def test_single_candidate_collapse_whole_key(self):
        """Every byte pinned to one value: the 33-bit story taken to
        its limit — zero remaining key space, full disclosure."""
        report = full_report([{j} for j in range(16)])
        assert report.bits_determined == 128
        assert report.remaining_key_space_log2 == pytest.approx(0.0)
        assert report.brute_force_speedup_log2 == pytest.approx(128.0)
        assert report.bits_disclosed_total == pytest.approx(128.0)
        assert not report.key_fully_protected
        matrix = candidate_matrix(report)
        # Exactly one cell per row, and it is the (black) true value.
        assert int((matrix != 0).sum()) == 16
        assert int((matrix == 2).sum()) == 16
        for j in range(16):
            assert matrix[j, j] == 2

    def test_single_candidate_render_is_all_discards(self):
        report = full_report([{0}] * 16)
        lines = render_candidate_matrix(candidate_matrix(report)).splitlines()
        for line in lines:
            body = line.split("|")[1]
            assert body[0] == "#"          # chunk holding the true value
            assert set(body[1:]) == {"."}  # everything else discarded

    def test_full_keyspace_no_leak(self):
        """All 256 values survive for every byte: nothing learned."""
        report = full_report([set(range(256))] * 16)
        assert report.key_fully_protected
        assert report.bits_determined == 0
        assert report.bits_disclosed_total == pytest.approx(0.0)
        assert report.brute_force_speedup_log2 == pytest.approx(0.0)
        matrix = candidate_matrix(report)
        assert int((matrix == 0).sum()) == 0  # no value discarded
        for o in report.outcomes:
            assert not o.fully_determined
            assert o.bits_disclosed == pytest.approx(0.0)

    def test_mixed_report_aggregates_per_byte_information(self):
        survivors = [{1}] + [set(range(2))] * 2 + [set(range(256))] * 13
        report = full_report(survivors)
        assert report.bits_determined == 8
        assert report.bits_disclosed_total == pytest.approx(8 + 7 + 7)
        assert report.remaining_key_space_log2 == pytest.approx(
            0 + 1 + 1 + 13 * 8
        )

    def test_report_wrong_byte_count_rejected(self):
        with pytest.raises(ValueError):
            KeySpaceReport(outcomes=(outcome(),) * 17)
