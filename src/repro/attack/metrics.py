"""Key-space metrics for attack effectiveness (Figure 5).

The paper quantifies Bernstein's attack per cache design by the number
of key-byte values the attack can *discard*: white cells in Figure 5
are discarded values, grey cells survive, black is the true value.
Aggregate strength is the log2 of the product of surviving candidate
counts — 2^128 means nothing was learned; the paper reports 2^80 for
the deterministic cache, 2^108 for RPCache, 2^104 for MBPTACache and
2^128 for TSCache.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import List

import numpy as np


@dataclass(frozen=True)
class ByteAttackOutcome:
    """Attack result for one key byte."""

    byte_index: int
    true_value: int
    surviving_values: frozenset

    def __post_init__(self) -> None:
        if self.true_value not in self.surviving_values:
            raise ValueError(
                "metric construction requires the true value to survive "
                "(the paper's best-case-attacker rule)"
            )

    @property
    def num_surviving(self) -> int:
        return len(self.surviving_values)

    @property
    def fully_determined(self) -> bool:
        """The attack pinned this byte to its exact value."""
        return self.num_surviving == 1

    @property
    def bits_disclosed(self) -> float:
        """Information gained on this byte, in bits."""
        return 8.0 - log2(self.num_surviving)


@dataclass(frozen=True)
class KeySpaceReport:
    """Aggregate effectiveness over all 16 key bytes."""

    outcomes: tuple  # of ByteAttackOutcome

    def __post_init__(self) -> None:
        if len(self.outcomes) != 16:
            raise ValueError(f"expected 16 byte outcomes, got {len(self.outcomes)}")

    @property
    def remaining_key_space_log2(self) -> float:
        """log2 of the surviving key combinations (<=128)."""
        return sum(log2(o.num_surviving) for o in self.outcomes)

    @property
    def bits_determined(self) -> int:
        """Bits from fully-determined bytes (the paper's "33 bits")."""
        return sum(8 for o in self.outcomes if o.fully_determined)

    @property
    def bits_disclosed_total(self) -> float:
        """Total information leaked across all bytes."""
        return sum(o.bits_disclosed for o in self.outcomes)

    @property
    def brute_force_speedup_log2(self) -> float:
        """Reduction factor of a brute-force search, in bits (e.g. 48
        for the paper's deterministic cache: 2^128 -> 2^80)."""
        return 128.0 - self.remaining_key_space_log2

    @property
    def key_fully_protected(self) -> bool:
        """True when no value of any byte could be discarded."""
        return all(o.num_surviving == 256 for o in self.outcomes)

    def summary_row(self, label: str) -> str:
        """One formatted row for the Figure 5 summary table."""
        return (
            f"{label:<16} bits determined: {self.bits_determined:>3}   "
            f"remaining key space: 2^{self.remaining_key_space_log2:6.1f}   "
            f"brute-force speedup: 2^{self.brute_force_speedup_log2:5.1f}"
        )


def candidate_matrix(report: KeySpaceReport) -> np.ndarray:
    """The Figure 5 heatmap for one setup.

    Returns a (16, 256) int8 matrix: 0 = discarded (white), 1 =
    surviving (grey), 2 = the true key value (black).
    """
    matrix = np.zeros((16, 256), dtype=np.int8)
    for outcome in report.outcomes:
        for value in outcome.surviving_values:
            matrix[outcome.byte_index, value] = 1
        matrix[outcome.byte_index, outcome.true_value] = 2
    return matrix


def render_candidate_matrix(matrix: np.ndarray, downsample: int = 8) -> str:
    """ASCII rendering of a Figure 5 heatmap (for examples/benches).

    Each character summarises ``downsample`` consecutive values:
    ``#`` contains the true key value, ``.`` all discarded,
    ``:`` mixed, ``o`` all surviving.
    """
    if matrix.shape != (16, 256):
        raise ValueError("expected a (16, 256) candidate matrix")
    lines: List[str] = []
    for byte_index in range(16):
        row = matrix[byte_index]
        chars = []
        for start in range(0, 256, downsample):
            chunk = row[start : start + downsample]
            if int(chunk.max()) == 2:
                chars.append("#")
            elif int(chunk.min()) == 1:
                chars.append("o")
            elif int(chunk.max()) == 0:
                chars.append(".")
            else:
                chars.append(":")
        lines.append(f"byte {byte_index:2d} |{''.join(chars)}|")
    return "\n".join(lines)
