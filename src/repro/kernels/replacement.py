"""Vectorized batch replacement-policy engines.

NumPy re-implementations of every policy in
:mod:`repro.cache.replacement`, operating on ``(E, S, W)`` state —
``E`` independent caches (one per trial, run, or set-lane), ``S`` sets,
``W`` ways — so :class:`repro.kernels.cache.VectorCacheBatch` can step
any supported policy in lock-step instead of being hardwired to LRU.

Each engine is bit-identical to its scalar counterpart under the
batch's access discipline (each element row appears at most once per
step, hits and fills are disjoint):

* :class:`VectorLRU` — last-touch stamps; ``argmin`` equals the scalar
  recency stack because victims are only consulted once every way has
  been touched, so the stamps are distinct within the row.
* :class:`VectorFIFO` / :class:`VectorNRU` / :class:`VectorPLRU` —
  direct array transcriptions of the scalar state machines.
* :class:`VectorRandom` — the subtle one.  The scalar policy consumes
  one PRNG draw per conflict miss *in access order*.  Every stock
  instance restarts the same fixed XorShift128 stream (fresh cache per
  trial/run ⇒ same stream everywhere), so the vector twin materializes
  the stream prefix once as a shared :class:`FixedDrawTable` and gives
  each element its own draw counter: element ``e``'s ``k``-th conflict
  miss reads table entry ``k`` — exactly the draw its scalar cache
  would have made.  When each scalar cache owns a differently seeded
  ``XorShift128`` (one per Bernstein epoch), the table is built per
  lane instead, from :class:`XorShift128Lanes`.

:func:`replacement_support` is the envelope probe: ``None`` when a
bit-identical vector twin exists, else a machine-readable reason
string (surfaced by ``--dry-run`` and the ``kernel_fallback``
telemetry event).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.replacement import (
    FIFOReplacement,
    LRUReplacement,
    NRUReplacement,
    RANDOM_REPLACEMENT_SEED,
    RandomReplacement,
    ReplacementPolicy,
    TreePLRUReplacement,
)
from repro.common.bitops import mask
from repro.common.prng import XorShift128
from repro.kernels.placement import U64, splitmix64_step_vec

_U32 = np.uint32
_M64 = mask(64)


def lane_stream_support(bound: int) -> Optional[str]:
    """``None`` when :meth:`XorShift128Lanes.next_below` can match
    scalar ``XorShift128.next_below(bound)`` draw for draw, else why not.

    The scalar method rejection-samples ``next_bits(width)``.  Only a
    power-of-two bound from 2 to 2**32 takes exactly one 32-bit step
    per draw and never rejects, which is what keeps the lanes in
    lock-step.
    """
    if bound & (bound - 1):
        return "replacement:random-lanes-non-power-of-two-bound"
    if not 2 <= bound <= 1 << 32:
        return "replacement:random-lanes-bound-out-of-range"
    return None


class XorShift128Lanes:
    """Vectorised :class:`~repro.common.prng.XorShift128`, one stream per lane.

    Lane ``l`` replays ``XorShift128(seeds[l])``: the four uint32 state
    words come from the same SplitMix64 expansion as the scalar
    ``reseed`` (64-bit wrap included), and every :meth:`next_below`
    call advances every lane by one step.
    """

    def __init__(self, seeds) -> None:
        if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
            state = seeds.astype(np.uint64).ravel()
        else:
            # Python ints one by one: np.asarray would turn a list that
            # mixes negatives and values >= 2**63 into lossy float64.
            state = np.array([int(s) & _M64 for s in seeds], dtype=np.uint64)
        words = []
        for _ in range(4):
            state, out = splitmix64_step_vec(state)
            words.append((out & U64(0xFFFF_FFFF)).astype(_U32))
        words[0][(words[0] | words[1] | words[2] | words[3]) == 0] = 1
        self._x, self._y, self._z, self._w = words

    @property
    def num_lanes(self) -> int:
        return int(self._x.size)

    def next_u32(self) -> np.ndarray:
        x = self._x
        t = x ^ (x << _U32(11))
        w = self._w
        self._x, self._y, self._z = self._y, self._z, w
        self._w = (w ^ (w >> _U32(19))) ^ (t ^ (t >> _U32(8)))
        return self._w

    def next_below(self, bound: int) -> np.ndarray:
        """One draw per lane, equal to each lane's scalar ``next_below``."""
        reason = lane_stream_support(bound)
        if reason is not None:
            raise ValueError(reason)
        width = bound.bit_length() - 1
        return (self.next_u32() >> _U32(32 - width)).astype(np.int64)


class FixedDrawTable:
    """Lazily materialized prefix of sequential PRNG draw streams.

    ``prng`` is either one scalar generator, whose stream every batch
    element shares (every scalar cache instance restarts the same
    stream, so element ``e``'s ``k``-th draw is stream position ``k``
    regardless of ``e``), or an :class:`XorShift128Lanes`, where lane
    ``e`` owns its own stream.
    """

    #: Per-lane tables grow by at least this many draws at a time, so
    #: the vectorised generator runs a few long passes, not one per miss.
    LANE_GROWTH = 64

    def __init__(self, prng, bound: int) -> None:
        self._prng = prng
        self._bound = bound
        self._per_lane = isinstance(prng, XorShift128Lanes)
        if self._per_lane:
            reason = lane_stream_support(bound)
            if reason is not None:
                raise ValueError(reason)
        lanes = prng.num_lanes if self._per_lane else 1
        self._table = np.zeros((lanes, 0), dtype=np.int64)

    def _ensure(self, size: int) -> None:
        have = self._table.shape[1]
        if size <= have:
            return
        if self._per_lane:
            size = max(size, have + self.LANE_GROWTH)
            extra = np.stack(
                [self._prng.next_below(self._bound)
                 for _ in range(size - have)],
                axis=1,
            )
        else:
            extra = np.asarray(
                [[self._prng.next_below(self._bound)
                  for _ in range(size - have)]],
                dtype=np.int64,
            )
        self._table = np.concatenate([self._table, extra], axis=1)

    def take(self, indices: np.ndarray, rows=None) -> np.ndarray:
        """Stream values at the given positions (any int array).

        Per-lane tables read position ``indices[i]`` of lane
        ``rows[i]``'s stream; a shared table ignores ``rows``.
        """
        if indices.size == 0:
            return np.zeros(0, dtype=np.int64)
        self._ensure(int(indices.max()) + 1)
        if self._per_lane:
            return self._table[rows, indices]
        return self._table[0, indices]


class VectorReplacement:
    """Batched replacement state over ``(num_elements, S, W)``.

    The batch calls :meth:`touch_hits` / :meth:`touch_fills` once per
    access step with disjoint row subsets (a row either hits or fills),
    and :meth:`victim_ways` only for rows whose target set has no
    invalid way — mirroring when the scalar core consults
    ``victim_way``.  Rows are unique within each call.
    """

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        if num_elements <= 0 or num_sets <= 0 or num_ways <= 0:
            raise ValueError("engine dimensions must be positive")
        self.num_elements = num_elements
        self.num_sets = num_sets
        self.num_ways = num_ways

    def touch_hits(self, rows, sets, ways) -> None:
        raise NotImplementedError

    def touch_fills(self, rows, sets, ways) -> None:
        raise NotImplementedError

    def victim_ways(self, rows, sets) -> np.ndarray:
        raise NotImplementedError


class VectorLRU(VectorReplacement):
    """True LRU via monotone last-touch stamps (scalar: recency stacks)."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self.last_touch = np.zeros(
            (num_elements, num_sets, num_ways), dtype=np.int64
        )
        self._stamp = 0

    def _touch(self, rows, sets, ways) -> None:
        self._stamp += 1
        self.last_touch[rows, sets, ways] = self._stamp

    touch_hits = _touch
    touch_fills = _touch

    def victim_ways(self, rows, sets) -> np.ndarray:
        return np.argmin(self.last_touch[rows, sets], axis=1)


class VectorFIFO(VectorReplacement):
    """FIFO: per-set next-victim pointer, advanced only by in-order fills."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._next = np.zeros((num_elements, num_sets), dtype=np.int64)

    def touch_hits(self, rows, sets, ways) -> None:
        pass  # hits do not affect FIFO order

    def touch_fills(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        advance = ways == self._next[rows, sets]
        if advance.any():
            r, s, w = rows[advance], sets[advance], ways[advance]
            self._next[r, s] = (w + 1) % self.num_ways

    def victim_ways(self, rows, sets) -> np.ndarray:
        return self._next[rows, sets]


class VectorNRU(VectorReplacement):
    """NRU reference bits with the scalar saturation-reset rule."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._referenced = np.zeros(
            (num_elements, num_sets, num_ways), dtype=bool
        )

    def _mark(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        self._referenced[rows, sets, ways] = True
        saturated = self._referenced[rows, sets].all(axis=1)
        if saturated.any():
            r, s, w = rows[saturated], sets[saturated], ways[saturated]
            self._referenced[r, s, :] = False
            self._referenced[r, s, w] = True

    touch_hits = _mark
    touch_fills = _mark

    def victim_ways(self, rows, sets) -> np.ndarray:
        # First clear bit in way order (always exists: see _mark).
        return np.argmin(self._referenced[rows, sets], axis=1)


class VectorPLRU(VectorReplacement):
    """Tree pseudo-LRU: heap-ordered node bits, root at index 1."""

    def __init__(self, num_elements: int, num_sets: int, num_ways: int) -> None:
        if num_ways & (num_ways - 1):
            raise ValueError(
                f"tree-PLRU needs a power-of-two way count, got {num_ways}"
            )
        super().__init__(num_elements, num_sets, num_ways)
        self._levels = num_ways.bit_length() - 1
        self._bits = np.zeros((num_elements, num_sets, num_ways), dtype=np.int8)

    def _touch(self, rows, sets, ways) -> None:
        rows = np.asarray(rows)
        if rows.size == 0:
            return
        node = np.ones(rows.shape, dtype=np.int64)
        for level in range(self._levels - 1, -1, -1):
            branch = (ways >> level) & 1
            self._bits[rows, sets, node] = (1 - branch).astype(np.int8)
            node = 2 * node + branch

    touch_hits = _touch
    touch_fills = _touch

    def victim_ways(self, rows, sets) -> np.ndarray:
        rows = np.asarray(rows)
        node = np.ones(rows.shape, dtype=np.int64)
        way = np.zeros(rows.shape, dtype=np.int64)
        for _ in range(self._levels):
            branch = self._bits[rows, sets, node].astype(np.int64)
            way = (way << 1) | branch
            node = 2 * node + branch
        return way


class VectorRandom(VectorReplacement):
    """Random replacement: a draw table + per-element counters.

    The table is shared (every element restarts one stream) or per
    lane (element ``e`` reads its own stream); see
    :class:`FixedDrawTable`.
    """

    def __init__(
        self,
        num_elements: int,
        num_sets: int,
        num_ways: int,
        table: FixedDrawTable,
    ) -> None:
        super().__init__(num_elements, num_sets, num_ways)
        self._table = table
        self._counters = np.zeros(num_elements, dtype=np.int64)

    def touch_hits(self, rows, sets, ways) -> None:
        pass

    def touch_fills(self, rows, sets, ways) -> None:
        pass

    def victim_ways(self, rows, sets) -> np.ndarray:
        idx = self._counters[rows]
        self._counters[rows] = idx + 1
        return self._table.take(idx, rows)


#: Exact policy classes whose vector twin needs no stream bookkeeping.
#: Subclasses are deliberately excluded — they may override anything.
_DETERMINISTIC_ENGINES = {
    LRUReplacement: VectorLRU,
    FIFOReplacement: VectorFIFO,
    NRUReplacement: VectorNRU,
    TreePLRUReplacement: VectorPLRU,
}

_BY_NAME = {
    "lru": VectorLRU,
    "fifo": VectorFIFO,
    "nru": VectorNRU,
    "plru": VectorPLRU,
}


def replacement_support(policy: ReplacementPolicy) -> Optional[str]:
    """``None`` if ``policy`` has a bit-identical vector twin, else why not.

    Assumes factory-fresh policy state (the envelope probes only ever
    see freshly constructed caches; the batch builders assert the cache
    is empty).  Reasons are stable machine-readable strings shown in
    ``--dry-run`` and the ``kernel_fallback`` telemetry event.
    """
    cls = type(policy)
    if cls in _DETERMINISTIC_ENGINES:
        return None
    if cls is RandomReplacement:
        if policy.draws_consumed:
            return "replacement:random-stream-consumed"
        if policy.stream_descriptor() is None:
            return "replacement:random-custom-prng"
        return None
    label = getattr(policy, "name", cls.__name__)
    return f"replacement:{label}-unsupported"


def vector_replacement(
    policy: ReplacementPolicy, num_elements: int
) -> Optional[VectorReplacement]:
    """Vector engine reproducing ``policy`` across ``num_elements`` caches."""
    if replacement_support(policy) is not None:
        return None
    num_sets, num_ways = policy.num_sets, policy.num_ways
    if type(policy) is RandomReplacement:
        _, seed = policy.stream_descriptor()
        table = FixedDrawTable(XorShift128(seed=seed), num_ways)
        return VectorRandom(num_elements, num_sets, num_ways, table)
    return _DETERMINISTIC_ENGINES[type(policy)](
        num_elements, num_sets, num_ways
    )


def vector_replacement_by_name(
    name: str, num_elements: int, num_sets: int, num_ways: int
) -> Optional[VectorReplacement]:
    """Engine for a policy *name* with ``make_replacement`` defaults.

    ``random`` gets the stock fixed stream (every fresh scalar instance
    restarts ``XorShift128(RANDOM_REPLACEMENT_SEED)``).  Returns None
    for unknown names or a non-power-of-two ``plru``.
    """
    if name == "random":
        table = FixedDrawTable(
            XorShift128(seed=RANDOM_REPLACEMENT_SEED), num_ways
        )
        return VectorRandom(num_elements, num_sets, num_ways, table)
    cls = _BY_NAME.get(name)
    if cls is None:
        return None
    if cls is VectorPLRU and num_ways & (num_ways - 1):
        return None
    return cls(num_elements, num_sets, num_ways)
