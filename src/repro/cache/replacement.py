"""Replacement policies for set-associative caches.

MBPTA-compliant caches optionally pair random placement with random
replacement (paper §2.1); deterministic designs conventionally use LRU.
All policies share a per-set-state interface so the cache core can stay
policy-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional

from repro.common.prng import XorShift128


class ReplacementPolicy(ABC):
    """Per-set replacement state machine.

    The cache core invokes :meth:`on_hit` / :meth:`on_fill` to keep the
    state current and :meth:`victim_way` to choose the way evicted on a
    conflict miss.  ``num_sets``/``num_ways`` fix the state dimensions.
    """

    name: str = "abstract"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways

    @abstractmethod
    def on_hit(self, set_index: int, way: int) -> None:
        """Record a hit on ``way`` of ``set_index``."""

    @abstractmethod
    def on_fill(self, set_index: int, way: int) -> None:
        """Record that ``way`` of ``set_index`` was (re)filled."""

    @abstractmethod
    def victim_way(self, set_index: int) -> int:
        """Choose the way to evict in ``set_index`` (all ways valid)."""

    def reset(self) -> None:
        """Forget all history (used on cache flush)."""
        self._init_state()

    @abstractmethod
    def _init_state(self) -> None:
        ...


class LRUReplacement(ReplacementPolicy):
    """True least-recently-used via per-set recency stacks."""

    name = "lru"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._init_state()

    def _init_state(self) -> None:
        # _stacks[s] lists ways from MRU (front) to LRU (back).
        self._stacks: List[List[int]] = [
            list(range(self.num_ways)) for _ in range(self.num_sets)
        ]

    def _touch(self, set_index: int, way: int) -> None:
        stack = self._stacks[set_index]
        stack.remove(way)
        stack.insert(0, way)

    def on_hit(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def victim_way(self, set_index: int) -> int:
        return self._stacks[set_index][-1]


class FIFOReplacement(ReplacementPolicy):
    """First-in first-out: eviction order follows fill order only."""

    name = "fifo"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._init_state()

    def _init_state(self) -> None:
        self._next: List[int] = [0] * self.num_sets

    def on_hit(self, set_index: int, way: int) -> None:
        pass  # hits do not affect FIFO order

    def on_fill(self, set_index: int, way: int) -> None:
        if way == self._next[set_index]:
            self._next[set_index] = (way + 1) % self.num_ways

    def victim_way(self, set_index: int) -> int:
        return self._next[set_index]


class NRUReplacement(ReplacementPolicy):
    """Not-recently-used with one reference bit per line."""

    name = "nru"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._init_state()

    def _init_state(self) -> None:
        self._referenced: List[List[bool]] = [
            [False] * self.num_ways for _ in range(self.num_sets)
        ]

    def _mark(self, set_index: int, way: int) -> None:
        bits = self._referenced[set_index]
        bits[way] = True
        if all(bits):
            for w in range(self.num_ways):
                bits[w] = w == way

    def on_hit(self, set_index: int, way: int) -> None:
        self._mark(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._mark(set_index, way)

    def victim_way(self, set_index: int) -> int:
        bits = self._referenced[set_index]
        for way, referenced in enumerate(bits):
            if not referenced:
                return way
        return 0  # unreachable: _mark guarantees a clear bit exists


#: Default victim-draw seed; every stock RandomReplacement instance
#: starts its XorShift128 stream here, which is what makes the draw
#: sequence reproducible across trials (and vectorizable: the batch
#: kernels precompute the same stream as a shared table).
RANDOM_REPLACEMENT_SEED = 0xC0FFEE


class RandomReplacement(ReplacementPolicy):
    """PRNG-driven random victim selection (MBPTA random replacement).

    One draw per conflict miss, in access order, from an
    :class:`XorShift128` stream seeded at
    :data:`RANDOM_REPLACEMENT_SEED` unless a ``prng`` is supplied or
    :meth:`reseed` is called.

    Which stream is in use (and where it currently is) is
    exposed through :meth:`stream_descriptor` / ``draws_consumed`` so
    the kernel envelope probe can tell whether a vector twin can
    reproduce the remaining draw sequence bit-for-bit.  The descriptor
    is execution metadata only — it never enters spec identity.
    """

    name = "random"

    def __init__(self, num_sets: int, num_ways: int,
                 prng: Optional[XorShift128] = None) -> None:
        super().__init__(num_sets, num_ways)
        if prng is not None:
            self._prng = prng
            self._stream = None  # externally-owned stream: position unknown
        else:
            self._prng = XorShift128(seed=RANDOM_REPLACEMENT_SEED)
            self._stream = ("xorshift", RANDOM_REPLACEMENT_SEED)
        self.draws_consumed = 0
        self._init_state()

    def _init_state(self) -> None:
        pass  # stateless apart from the draw stream

    def stream_descriptor(self) -> Optional[tuple]:
        """``("xorshift", seed)`` — or ``None``.

        ``None`` means the draw source is an externally-owned PRNG whose
        position cannot be reconstructed, so no vector twin exists.
        """
        return self._stream

    def reseed(self, seed: int) -> None:
        self._prng.reseed(seed)
        # After a reseed the stream is reconstructible from the seed
        # alone — but only for the generator the vector twin speaks.
        if isinstance(self._prng, XorShift128):
            self._stream = ("xorshift", seed)
        else:
            self._stream = None
        self.draws_consumed = 0

    def on_hit(self, set_index: int, way: int) -> None:
        pass

    def on_fill(self, set_index: int, way: int) -> None:
        pass

    def victim_way(self, set_index: int) -> int:
        way = self._prng.next_below(self.num_ways)
        self.draws_consumed += 1
        return way


class TreePLRUReplacement(ReplacementPolicy):
    """Tree pseudo-LRU: one bit per internal node of a binary tree.

    The standard hardware approximation of LRU for 4-8 ways (used by
    the ARM9 family among many others): on a hit/fill the bits along
    the way's path are pointed *away* from it; the victim follows the
    bits from the root.  Requires a power-of-two way count.
    """

    name = "plru"

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_ways & (num_ways - 1):
            raise ValueError(
                f"tree-PLRU needs a power-of-two way count, got {num_ways}"
            )
        super().__init__(num_sets, num_ways)
        self._levels = num_ways.bit_length() - 1
        self._init_state()

    def _init_state(self) -> None:
        # One bit per internal node, heap order (root at index 1).
        self._bits: List[List[int]] = [
            [0] * self.num_ways for _ in range(self.num_sets)
        ]

    def _touch(self, set_index: int, way: int) -> None:
        bits = self._bits[set_index]
        node = 1
        for level in range(self._levels - 1, -1, -1):
            branch = (way >> level) & 1
            bits[node] = 1 - branch  # point away from the touched way
            node = 2 * node + branch

    def on_hit(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def on_fill(self, set_index: int, way: int) -> None:
        self._touch(set_index, way)

    def victim_way(self, set_index: int) -> int:
        bits = self._bits[set_index]
        node = 1
        way = 0
        for _ in range(self._levels):
            branch = bits[node]
            way = (way << 1) | branch
            node = 2 * node + branch
        return way


_POLICIES = {
    LRUReplacement.name: LRUReplacement,
    FIFOReplacement.name: FIFOReplacement,
    NRUReplacement.name: NRUReplacement,
    RandomReplacement.name: RandomReplacement,
    TreePLRUReplacement.name: TreePLRUReplacement,
}


def make_replacement(name: str, num_sets: int, num_ways: int,
                     **kwargs) -> ReplacementPolicy:
    """Instantiate a replacement policy by name.

    Recognised names: ``lru``, ``fifo``, ``nru``, ``random``, ``plru``.
    """
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(num_sets, num_ways, **kwargs)
