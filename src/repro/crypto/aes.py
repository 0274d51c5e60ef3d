"""AES-128 encryption with table-lookup trace emission.

Two implementations share the same tables:

* :class:`AES128` — scalar, readable, emits the exact sequence of
  T-table lookups performed by one encryption (the side-channel
  surface the paper's case study attacks).
* :meth:`AES128.encrypt_batch` — NumPy-vectorized over many blocks,
  returning both ciphertexts and the (N, 160) matrix of lookup byte
  indices.
* :meth:`AES128.line_masks` — the same vectorized rounds, reduced on
  the fly to one bitmask per table of the lines each encryption
  touches: what the batch timing engine consumes.

Verified against the FIPS-197 vectors in the test suite.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.tables import RCON, SBOX, TE4, TE_TABLES

#: Lookups per encryption: 9 main rounds x 16 + 16 final-round lookups.
LOOKUPS_PER_ENCRYPTION = 160

#: Lookups of rounds 1..9, which cycle Te0..Te3; the rest hit Te4.
MAIN_ROUND_LOOKUPS = 144

#: Default base address of the T-tables in the victim's address space.
DEFAULT_TABLE_BASE = 0x0010_0000

#: Bytes per table (256 entries x 4 bytes).
TABLE_BYTES = 1024

#: ``_LINE_BITS[b]`` — the mask bit of the table line holding entry
#: ``b`` (32-byte lines hold eight 4-byte entries), stored above the
#: 32-bit entry itself so one gather fetches both.
_LINE_BITS = np.left_shift(1, 32 + (np.arange(256, dtype=np.int64) >> 3))

#: Memory offsets of an int64's four low bytes, least significant first.
_BYTE_OFFSETS = (0, 1, 2, 3) if sys.byteorder == "little" else (7, 6, 5, 4)


def _with_line_bits(table: Sequence[int]) -> np.ndarray:
    """A 256-entry table as int64 with each entry's line bit on top."""
    return np.array(table, dtype=np.int64) | _LINE_BITS


@dataclass(frozen=True)
class TableLookup:
    """One T-table access: table id (0..3 main rounds, 4 final) + byte."""

    table: int
    byte_index: int

    def address(self, table_base: int = DEFAULT_TABLE_BASE) -> int:
        return table_base + self.table * TABLE_BYTES + self.byte_index * 4


def random_key(rng: Optional[np.random.Generator] = None) -> bytes:
    """A uniformly random 128-bit key."""
    if rng is None:
        return os.urandom(16)
    return bytes(int(b) for b in rng.integers(0, 256, size=16, dtype=np.uint8))


def _check_blocks(plaintexts: np.ndarray) -> None:
    if plaintexts.ndim != 2 or plaintexts.shape[1] != 16:
        raise ValueError("plaintexts must have shape (N, 16)")


def _bytes_to_words(data: bytes) -> List[int]:
    """Big-endian 32-bit words from 16 bytes."""
    return [int.from_bytes(data[i : i + 4], "big") for i in range(0, 16, 4)]


def _words_to_bytes(words: Sequence[int]) -> bytes:
    return b"".join(int(w & 0xFFFFFFFF).to_bytes(4, "big") for w in words)


class AES128:
    """AES-128 in the classic four-T-table formulation."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self.key = bytes(key)
        self.round_keys = self._expand_key(self.key)
        self._np_round_keys = np.array(self.round_keys, dtype=np.int64)
        self._np_te = [_with_line_bits(t) for t in TE_TABLES]
        self._np_te4 = _with_line_bits(TE4)

    # -- key schedule ------------------------------------------------------

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """44 round-key words for AES-128 (FIPS-197 §5.2)."""
        words = _bytes_to_words(key)
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (  # SubWord
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    # -- scalar encryption ------------------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        ciphertext, _ = self.encrypt_block_traced(plaintext)
        return ciphertext

    def encrypt_block_traced(
        self, plaintext: bytes
    ) -> Tuple[bytes, List[TableLookup]]:
        """Encrypt one block and return the ordered T-table lookups."""
        if len(plaintext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(plaintext)}")
        te0, te1, te2, te3 = TE_TABLES
        rk = self.round_keys
        lookups: List[TableLookup] = []

        s = [w ^ rk[i] for i, w in enumerate(_bytes_to_words(plaintext))]

        for round_index in range(1, 10):
            t = [0, 0, 0, 0]
            for col in range(4):
                b0 = (s[col] >> 24) & 0xFF
                b1 = (s[(col + 1) % 4] >> 16) & 0xFF
                b2 = (s[(col + 2) % 4] >> 8) & 0xFF
                b3 = s[(col + 3) % 4] & 0xFF
                lookups.append(TableLookup(0, b0))
                lookups.append(TableLookup(1, b1))
                lookups.append(TableLookup(2, b2))
                lookups.append(TableLookup(3, b3))
                t[col] = (
                    te0[b0] ^ te1[b1] ^ te2[b2] ^ te3[b3]
                    ^ rk[4 * round_index + col]
                )
            s = t

        # Final round: SubBytes + ShiftRows via Te4 byte extraction.
        out = [0, 0, 0, 0]
        for col in range(4):
            b0 = (s[col] >> 24) & 0xFF
            b1 = (s[(col + 1) % 4] >> 16) & 0xFF
            b2 = (s[(col + 2) % 4] >> 8) & 0xFF
            b3 = s[(col + 3) % 4] & 0xFF
            for byte in (b0, b1, b2, b3):
                lookups.append(TableLookup(4, byte))
            out[col] = (
                (TE4[b0] & 0xFF000000)
                | (TE4[b1] & 0x00FF0000)
                | (TE4[b2] & 0x0000FF00)
                | (TE4[b3] & 0x000000FF)
            ) ^ rk[40 + col]

        return _words_to_bytes(out), lookups

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Straightforward inverse-cipher (no T-tables; used for tests)."""
        if len(ciphertext) != 16:
            raise ValueError(f"block must be 16 bytes, got {len(ciphertext)}")
        from repro.crypto.tables import INV_SBOX, gf_mul

        rk = self.round_keys

        def to_state(words: Sequence[int]) -> List[List[int]]:
            return [
                [(words[c] >> (24 - 8 * r)) & 0xFF for c in range(4)]
                for r in range(4)
            ]

        def from_state(state: List[List[int]]) -> List[int]:
            return [
                (state[0][c] << 24)
                | (state[1][c] << 16)
                | (state[2][c] << 8)
                | state[3][c]
                for c in range(4)
            ]

        words = [w ^ rk[40 + i] for i, w in enumerate(_bytes_to_words(ciphertext))]
        state = to_state(words)

        for round_index in range(9, 0, -1):
            # InvShiftRows.
            for r in range(1, 4):
                state[r] = state[r][-r:] + state[r][:-r]
            # InvSubBytes.
            state = [[INV_SBOX[b] for b in row] for row in state]
            # AddRoundKey.
            words = from_state(state)
            words = [w ^ rk[4 * round_index + i] for i, w in enumerate(words)]
            state = to_state(words)
            # InvMixColumns.
            for c in range(4):
                col = [state[r][c] for r in range(4)]
                state[0][c] = (
                    gf_mul(col[0], 14) ^ gf_mul(col[1], 11)
                    ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9)
                )
                state[1][c] = (
                    gf_mul(col[0], 9) ^ gf_mul(col[1], 14)
                    ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13)
                )
                state[2][c] = (
                    gf_mul(col[0], 13) ^ gf_mul(col[1], 9)
                    ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11)
                )
                state[3][c] = (
                    gf_mul(col[0], 11) ^ gf_mul(col[1], 13)
                    ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14)
                )

        for r in range(1, 4):
            state[r] = state[r][-r:] + state[r][:-r]
        state = [[INV_SBOX[b] for b in row] for row in state]
        words = [w ^ rk[i] for i, w in enumerate(from_state(state))]
        return _words_to_bytes(words)

    # -- vectorized encryption ----------------------------------------------------

    def _round_loop(
        self,
        plaintexts: np.ndarray,
        visit: Callable[[int, Sequence[np.ndarray], Sequence[np.ndarray]],
                        None],
    ) -> List[np.ndarray]:
        """The T-table rounds over ``(N, 16)`` blocks at once.

        Each column of each round calls ``visit(k, bytes, entries)``
        with the byte indices of lookups ``k .. k+3`` (in issue order)
        and the table entries they fetched; returns the four output
        words.  State words are int64, their four bytes read in place
        through uint8 views: the entries carry their line bit above
        bit 31 (see :data:`_LINE_BITS`), which those views never see.
        """
        rk = self._np_round_keys
        te = self._np_te

        def column(s, col):
            # Bytes 3, 2, 1, 0 of words col .. col+3, read in place.
            return tuple(
                s[(col + j) % 4].view(np.uint8)[_BYTE_OFFSETS[3 - j]::8]
                for j in range(4)
            )

        # Each block's 16 bytes are 4 big-endian words.
        words = (
            np.ascontiguousarray(plaintexts, dtype=np.uint8)
            .view(">u4").astype(np.int64)
        )
        s = [words[:, c] ^ rk[c] for c in range(4)]
        k = 0
        for round_index in range(1, 10):
            t = []
            for col in range(4):
                indices = column(s, col)
                # In-range indices: "clip" skips the bounds check.
                entries = [
                    te[table].take(index, mode="clip")
                    for table, index in enumerate(indices)
                ]
                visit(k, indices, entries)
                k += 4
                word = entries[0] ^ entries[1]
                word ^= entries[2]
                word ^= entries[3]
                word ^= rk[4 * round_index + col]
                t.append(word)
            s = t

        # Final round: SubBytes + ShiftRows via Te4 byte extraction.
        te4 = self._np_te4
        out = []
        for col in range(4):
            indices = column(s, col)
            entries = [te4.take(index, mode="clip") for index in indices]
            visit(k, indices, entries)
            k += 4
            out.append((
                (entries[0] & 0xFF000000)
                | (entries[1] & 0x00FF0000)
                | (entries[2] & 0x0000FF00)
                | (entries[3] & 0x000000FF)
            ) ^ rk[40 + col])
        return out

    def encrypt_batch(
        self, plaintexts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Encrypt N blocks at once.

        Parameters
        ----------
        plaintexts:
            ``(N, 16) uint8`` array.

        Returns
        -------
        ciphertexts:
            ``(N, 16) uint8`` array.
        lookup_bytes:
            ``(N, 160) uint8`` array: per encryption, the byte index of
            each T-table lookup in issue order.  The table id of lookup
            ``k`` is fixed by position (see :func:`lookup_table_ids`)
            and identical across encryptions.
        """
        _check_blocks(plaintexts)
        lookup_bytes = np.empty(
            (plaintexts.shape[0], LOOKUPS_PER_ENCRYPTION), dtype=np.uint8
        )

        def record(k, indices, entries):
            for j, index in enumerate(indices):
                lookup_bytes[:, k + j] = index

        out_words = self._round_loop(plaintexts, record)
        ciphertexts = np.empty((plaintexts.shape[0], 16), dtype=np.uint8)
        for c, word in enumerate(out_words):
            ciphertexts[:, 4 * c] = word >> 24
            ciphertexts[:, 4 * c + 1] = (word >> 16) & 0xFF
            ciphertexts[:, 4 * c + 2] = (word >> 8) & 0xFF
            ciphertexts[:, 4 * c + 3] = word & 0xFF
        return ciphertexts, lookup_bytes

    def line_masks(self, plaintexts: np.ndarray) -> np.ndarray:
        """Which table lines each of N encryptions touches, as bitmasks.

        Returns a ``(5, N) int64`` array: bit ``l`` of ``masks[t, i]``
        is set when encryption ``i`` looks up some entry of line ``l``
        (entries ``8l .. 8l+7``) of table ``t`` (0..3 the main-round
        tables, 4 the final-round one).  Equals the distinct lines of
        :func:`repro.core.batch.lookup_line_ids` over
        :meth:`encrypt_batch`'s lookups, without materialising the
        ``(N, 160)`` lookup matrix.
        """
        _check_blocks(plaintexts)
        # Entries carry their line bit at bit 32 + line: OR every
        # fetched entry into its table's accumulator, then keep the
        # top half.
        acc = np.zeros((5, plaintexts.shape[0]), dtype=np.int64)

        def mark(k, indices, entries):
            if k < MAIN_ROUND_LOOKUPS:
                for table, entry in enumerate(entries):
                    acc[table] |= entry
            else:
                for entry in entries:
                    acc[4] |= entry

        self._round_loop(plaintexts, mark)
        return (acc >> 32) & 0xFFFF_FFFF


def lookup_table_ids() -> np.ndarray:
    """Table id of each of the 160 lookups, fixed by position.

    Rounds 1..9 cycle Te0..Te3; the final 16 lookups hit Te4.
    """
    ids = np.empty(LOOKUPS_PER_ENCRYPTION, dtype=np.uint8)
    for k in range(MAIN_ROUND_LOOKUPS):
        ids[k] = k % 4
    ids[MAIN_ROUND_LOOKUPS:] = 4
    return ids


def aes_lookup_addresses(
    lookups: Sequence[TableLookup], table_base: int = DEFAULT_TABLE_BASE
) -> List[int]:
    """Memory addresses of a scalar lookup trace."""
    return [lookup.address(table_base) for lookup in lookups]
