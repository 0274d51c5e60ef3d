"""Vectorized batch set-index computation.

NumPy re-implementations of the four placement policies in
:mod:`repro.cache.placement`, operating on whole arrays of
``(tag, index, seed)`` triples at once.  Each adapter is bit-identical
to its scalar counterpart's :meth:`map_set` — the property-based
equivalence suite (``tests/test_kernels.py``) pins that down — so the
vector cache kernel can compute every trial's set index in one shot.

The hash pipeline mirrors the scalar code exactly: one SplitMix64 step
per :func:`repro.cache.placement._hash64` call, the same rotate/XOR/
fold rounds for hashRP, the same per-tag material derivation and
Benes routing for Random Modulo.  All intermediate math runs in
``uint64`` (NumPy's unsigned wrap-around matches the scalar code's
explicit ``& mask(64)``).  Random Modulo routes only the distinct
``(tag, seed)`` pairs when they are few against the output: each
pair's network is a bit permutation, so ``n + 1`` routed values expand
into the pair's whole ``2**n``-entry set table, and the map is one
gather (the rule is :data:`_TABLE_ENTRIES_PER_ELEMENT`).

:func:`vector_placement` is the capability seam: it returns an adapter
for the exact policy classes it knows how to vectorize and ``None``
for anything else (subclasses included — a subclass may override
``map_set``), which is what lets the trial kernels fall back to the
scalar path silently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.benes import BenesNetwork
from repro.cache.placement import (
    HashRPPlacement,
    ModuloPlacement,
    PlacementPolicy,
    RandomModuloPlacement,
    XorIndexPlacement,
)
from repro.cache.rpcache import PermutationTablePlacement
from repro.common.bitops import mask

U64 = np.uint64

_SPLITMIX_GAMMA = U64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = U64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = U64(0x94D049BB133111EB)


def _as_u64(values) -> np.ndarray:
    """Coerce ints / int arrays to a uint64 ndarray (two's complement)."""
    arr = np.asarray(values)
    if arr.dtype == np.uint64:
        return arr
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64)
    # Python-int object arrays (or scalars wider than 64 bits): mask first.
    m64 = mask(64)
    return np.asarray(
        [int(v) & m64 for v in np.atleast_1d(arr).ravel()], dtype=np.uint64
    ).reshape(np.atleast_1d(arr).shape)


def splitmix64_step_vec(state: np.ndarray):
    """Vector form of :func:`repro.common.prng.splitmix64_step`."""
    if state.ndim == 0:
        # NumPy warns about the (intended) wrap-around on 0-d operands
        # only: step a one-element array instead.
        state, z = splitmix64_step_vec(state.reshape(1))
        return state[0], z[0]
    state = state + _SPLITMIX_GAMMA
    z = (state ^ (state >> U64(30))) * _SPLITMIX_MUL1
    z = (z ^ (z >> U64(27))) * _SPLITMIX_MUL2
    z = z ^ (z >> U64(31))
    return state, z


def hash64_vec(values: np.ndarray) -> np.ndarray:
    """Vector form of ``placement._hash64`` (one SplitMix64 output)."""
    _, out = splitmix64_step_vec(_as_u64(values))
    return out


class VectorPlacement:
    """Base adapter: maps arrays of (tag, index, seed) to set indices.

    ``tags``/``indices``/``seeds`` may be any mutually broadcastable
    shapes; the result is an ``int64`` array of the broadcast shape.
    """

    #: Whether the mapping depends on the seed.  Runs whose seeds differ
    #: only at levels that do not read them replay identically.
    reads_seed = True

    def __init__(self, policy: PlacementPolicy) -> None:
        self.policy = policy
        self.layout = policy.layout

    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        raise NotImplementedError


class _VectorModulo(VectorPlacement):
    reads_seed = False

    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        tags, indices, seeds = np.broadcast_arrays(
            _as_u64(tags), _as_u64(indices), _as_u64(seeds)
        )
        return indices.astype(np.int64)


class _VectorXorIndex(VectorPlacement):
    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        index_mask = U64(mask(self.layout.index_bits))
        out = _as_u64(indices) ^ (hash64_vec(seeds) & index_mask)
        out, _ = np.broadcast_arrays(out, _as_u64(tags))
        return out.astype(np.int64)


class _VectorHashRP(VectorPlacement):
    def __init__(self, policy: HashRPPlacement) -> None:
        super().__init__(policy)
        self._line_bits = self.layout.tag_bits + self.layout.index_bits
        if self._line_bits > 32:
            # value << rotation must stay inside uint64; the scalar
            # path has Python big ints and no such ceiling.
            raise ValueError("vector hashRP supports line_bits <= 32")
        self._line_mask = U64(mask(self._line_bits))

    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        line_bits = self._line_bits
        line_mask = self._line_mask
        index_bits = self.layout.index_bits
        value = (
            (_as_u64(tags) << U64(index_bits)) | _as_u64(indices)
        ) & line_mask
        # Per-seed round material, derived exactly like _round_material.
        state = hash64_vec(_as_u64(seeds) ^ U64(0xA5A5A5A5A5A5A5A5))
        value, state = np.broadcast_arrays(value, state)
        value = value.copy()
        width = U64(line_bits)
        for _ in range(HashRPPlacement.NUM_ROUNDS):
            state, out = splitmix64_step_vec(state)
            rotation = U64(1) + out % U64(line_bits - 1)
            state, out = splitmix64_step_vec(state)
            round_key = out & line_mask
            value = (
                (value << rotation) | (value >> (width - rotation))
            ) & line_mask
            value ^= round_key
            value ^= value >> U64(line_bits // 2)
            value &= line_mask
        folded = np.zeros_like(value)
        index_mask = U64(mask(index_bits))
        for shift in range(0, line_bits, max(index_bits, 1)):
            folded ^= (value >> U64(shift)) & index_mask
        return folded.astype(np.int64)


class _VectorRandomModulo(VectorPlacement):
    """Random Modulo: per-(tag, seed) material routed through the Benes
    network.

    With its control word fixed the network is a bit permutation ``P``,
    which is linear over XOR, so ``P(index ^ m) = P(m) ^ P(index)``.
    When few distinct ``(tag, seed)`` pairs cover many elements,
    :meth:`map_sets` routes only ``P(m)`` and the ``n`` unit vectors of
    each distinct pair, expands them into the pair's ``2**n``-entry set
    table and gathers; otherwise it routes every element (see
    :data:`_TABLE_ENTRIES_PER_ELEMENT` for the rule).
    """

    def __init__(self, policy: RandomModuloPlacement) -> None:
        super().__init__(policy)
        network: BenesNetwork = policy._network
        n = network.n
        # Pre-bake each switch (i, j) as (control bit, wire-i bit,
        # wire-j bit, swap mask) positions — MSB is wire 0, control
        # bits are consumed LSB first, exactly as in permute_bits.
        self._switch_shifts_i = np.array(
            [n - 1 - i for i, _ in network.switches], dtype=np.uint64
        )
        self._switch_shifts_j = np.array(
            [n - 1 - j for _, j in network.switches], dtype=np.uint64
        )
        self._swap_masks = (U64(1) << self._switch_shifts_i) | (
            U64(1) << self._switch_shifts_j
        )
        self._unit_vectors = U64(1) << np.arange(n, dtype=np.uint64)

    def _material(self, tags: np.ndarray, seeds: np.ndarray):
        """``(xor_mask, control)`` per (tag, seed), as in
        ``_per_tag_material`` (``tags`` and ``seeds`` broadcast)."""
        layout = self.layout
        tag_mask = U64(mask(layout.tag_bits))
        mixed = hash64_vec(
            (tags ^ (hash64_vec(seeds) & tag_mask))
            ^ hash64_vec(seeds ^ U64(0x517CC1B727220A95))
        )
        xor_mask = mixed & U64(mask(layout.index_bits))
        control = ((mixed >> U64(layout.index_bits)) ^ hash64_vec(mixed)) & (
            U64(self.policy._control_mask)
        )
        return xor_mask, control

    def _route(self, values: np.ndarray, control: np.ndarray) -> np.ndarray:
        """``permute_bits`` of each value under its control word."""
        value, control = np.broadcast_arrays(values, control)
        value = value.copy()
        one = U64(1)
        for pos in range(len(self._swap_masks)):
            ctrl_bit = (control >> U64(pos)) & one
            bit_i = (value >> self._switch_shifts_i[pos]) & one
            bit_j = (value >> self._switch_shifts_j[pos]) & one
            swap = ctrl_bit & (bit_i ^ bit_j)
            value ^= swap * self._swap_masks[pos]
        return value

    def _tables(self, tags: np.ndarray, seeds: np.ndarray) -> np.ndarray:
        """``(len(tags), len(seeds), 2**n)`` set tables of the pair grid."""
        n = self.layout.index_bits
        xor_mask, control = self._material(tags[:, None], seeds[None, :])
        # Route P(m) and P(e_0) .. P(e_{n-1}) of every pair at once.
        routed = self._route(
            np.concatenate((xor_mask[None],
                            np.broadcast_to(self._unit_vectors[:, None, None],
                                            (n,) + control.shape))),
            control[None],
        ).astype(np.int64)
        tables = np.empty(control.shape + (1 << n,), dtype=np.int64)
        tables[..., 0] = routed[0]
        for k in range(n):
            width = 1 << k
            tables[..., width:2 * width] = (tables[..., :width]
                                            ^ routed[k + 1][..., None])
        return tables

    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        tags = _as_u64(tags)
        seeds = _as_u64(seeds)
        indices = _as_u64(indices)
        size = np.broadcast(tags, indices, seeds).size
        n = self.layout.index_bits
        # An input already as large as the output cannot shrink the
        # grid below it: skip the sort (per-element contention calls).
        if tags.size < size and seeds.size < size:
            distinct_tags, tag_of = np.unique(tags.ravel(),
                                              return_inverse=True)
            distinct_seeds, seed_of = np.unique(seeds.ravel(),
                                                return_inverse=True)
            pairs = distinct_tags.size * distinct_seeds.size
            if (pairs * (n + 1) < size
                    and pairs << n <= _TABLE_ENTRIES_PER_ELEMENT * size):
                tables = self._tables(distinct_tags, distinct_seeds)
                pair = (tag_of.reshape(tags.shape) * distinct_seeds.size
                        + seed_of.reshape(seeds.shape))
                return tables.reshape(-1)[
                    (pair << n) | indices.astype(np.int64)
                ]
        return self.map_elements(tags, indices, seeds)

    def map_elements(self, tags, indices, seeds) -> np.ndarray:
        """:meth:`map_sets` routing every element through the network
        (``uint64`` array inputs)."""
        xor_mask, control = self._material(tags, seeds)
        return self._route(indices ^ xor_mask, control).astype(np.int64)


#: The Random Modulo table rule.  The per-(tag, seed) tables replace
#: the per-element Benes routing only when they need fewer network
#: evaluations (``n + 1`` per distinct pair against one per element)
#: and at most this many table entries (``2**n`` per pair) per output
#: element.  Fixed, not a knob: it bounds the tables' memory by a small
#: multiple of the result's.
_TABLE_ENTRIES_PER_ELEMENT = 4


class _VectorPermutation(VectorPlacement):
    """RPCache's per-process permutation tables (seed = table id).

    Delegates table generation to the scalar policy's memoised
    ``table_for`` — the Fisher-Yates stream is exactly the scalar one —
    and vectorizes the lookup.  The number of distinct table ids per
    batch is the number of pids (tiny), so the per-id loop is cheap.
    """

    def map_sets(self, tags, indices, seeds) -> np.ndarray:
        tags, indices, seeds = np.broadcast_arrays(
            _as_u64(tags), _as_u64(indices), _as_u64(seeds)
        )
        out = np.empty(indices.shape, dtype=np.int64)
        idx = indices.astype(np.int64)
        for table_id in np.unique(seeds):
            table = np.asarray(
                self.policy.table_for(int(table_id)), dtype=np.int64
            )
            chosen = seeds == table_id
            out[chosen] = table[idx[chosen]]
        return out


#: Exact policy classes with a verified vector twin.  Subclasses are
#: deliberately excluded: they may override ``map_set``.
_VECTOR_ADAPTERS = {
    ModuloPlacement: _VectorModulo,
    XorIndexPlacement: _VectorXorIndex,
    HashRPPlacement: _VectorHashRP,
    RandomModuloPlacement: _VectorRandomModulo,
    PermutationTablePlacement: _VectorPermutation,
}


def vector_placement(policy: PlacementPolicy) -> Optional[VectorPlacement]:
    """Vector adapter for ``policy``, or None if it has no vector twin."""
    adapter = _VECTOR_ADAPTERS.get(type(policy))
    if adapter is None:
        return None
    try:
        return adapter(policy)
    except ValueError:
        return None
