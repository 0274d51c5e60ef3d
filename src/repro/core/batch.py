"""Vectorized AES-encryption timing engine.

The paper collects 10^7 AES timing samples per setup on a cycle-
accurate simulator.  Re-running a scalar simulator per encryption is
infeasible in Python at attack scale, so this engine factors the
computation the way the physics factors:

1. **Cold-line model (batched over seed epochs).**  The deterministic
   background activity (see :mod:`repro.workloads.interference`)
   evicts a *fixed* subset of the 160 AES table lines from L1 between
   encryptions — fixed given the placement policy and the seeds.  That
   subset (the "cold mask") is computed by replaying warm-up +
   background through the cache model, once per seed epoch (and, with
   random replacement, once per replacement realisation).  Every epoch
   a collection touches is one lane of a single
   :class:`~repro.kernels.cache.VectorCacheBatch` pass, each lane with
   its own seeds and its own replacement draw stream; the scalar
   replay through the real :class:`~repro.cache.core.SetAssociativeCache`
   stays as the oracle the batched pass is tested against.

2. **Per-encryption timing (one fused pass).**  An encryption's time
   is the fixed pipeline+hit baseline plus one L2-hit penalty per
   *distinct cold table line it touches* — exactly the quantity the
   scalar hierarchy would charge.
   :meth:`repro.crypto.aes.AES128.line_masks` encrypts up to
   ``chunk_size`` rows at a time and reduces each encryption's 160
   lookups on the fly to one 32-bit mask per table of the lines it
   touched; the cold lines of each state are packed the same way, so
   the charge is a popcount of their AND.  The masks share their
   rounds with :meth:`~repro.crypto.aes.AES128.encrypt_batch`, which
   is verified against the scalar cipher, and the tests pin the fused
   pass to the ``encrypt_batch`` + :func:`lookup_line_ids` pipeline it
   replaced.

RPCache's randomized interference is modelled faithfully to its
semantics: the deterministic cold lines caused by *other-process*
contention are removed (RPCache redirects those evictions to random
sets) and replaced by per-encryption evictions of random sets, which
hit random table lines.  Each eviction draw reads the touched line's
bit from the same masks.

3. **Block-structured randomness (intra-cell sharding).**  The sample
   budget is partitioned into *collection blocks* whose boundaries
   depend only on the setup and the engine config — never on how the
   work is split across workers.  Every block draws its plaintexts and
   interference noise from a private :class:`numpy.random.SeedSequence`
   child stream keyed by the block's absolute start position, so the
   samples of block ``[s, e)`` are a pure function of the engine's
   entropy root, the party, the campaign seed and ``s``.  A
   :class:`ShardPlan` groups whole blocks into contiguous shards.

4. **Profile sums in constant memory.**  The Bernstein attack (and
   Figure 4, a row of its victim profile) needs only per-(byte
   position, value) timing sums, so :meth:`AESTimingEngine.collect_sums`
   and :meth:`~AESTimingEngine.collect_shard_sums` reduce each run of
   samples to :class:`~repro.attack.bernstein.ProfileSums` as soon as
   it is computed, and :func:`merge_shard_sums` adds shards back
   **bit-identically** to the unsharded sums, for any shard count and
   any completion order.  Runs come from the same generator as
   :meth:`~AESTimingEngine.collect`, so the sums are those of the
   samples the goldens pin.

The consistency of (1)+(2) against the scalar hierarchy is covered by
integration tests (``tests/test_batch.py``), which also pin the batched
cold-line pass to the scalar oracle on every setup; the shard/serial
equivalence by the golden-trace suite (``tests/test_golden_traces.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.attack.bernstein import ProfileSums
from repro.common.prng import XorShift128
from repro.common.trace import MemoryAccess
from repro.cache.core import (
    ARM920T_L1_GEOMETRY,
    CacheGeometry,
    SetAssociativeCache,
)
from repro.cache.placement import make_placement
from repro.cache.replacement import make_replacement
from repro.cache.rpcache import RPCache
from repro.core.setups import SetupConfig
from repro.kernels.cache import VectorCacheBatch
from repro.kernels.placement import vector_placement
from repro.kernels.replacement import (
    FixedDrawTable,
    VectorRandom,
    XorShift128Lanes,
)
from repro.kernels.trials import make_vector_batch, vector_cache_support
from repro.crypto.aes import (
    AES128,
    DEFAULT_TABLE_BASE,
    LOOKUPS_PER_ENCRYPTION,
    lookup_table_ids,
)
from repro.workloads.interference import BackgroundWorkload, bernstein_background

#: Total distinct cache lines backing the five 1 KB AES tables.
NUM_TABLE_LINES = 160

#: 32-byte lines hold eight 4-byte table entries.
ENTRIES_PER_LINE = 8

VICTIM_PID = 1
OTHER_PID = 7

#: Epochs per batched cache pass in :meth:`ColdLineModel.epoch_states`.
#: Caps the pass's ``(lanes, sets, ways)`` state at a few MiB (about
#: 13 KiB per lane at the ARM920T L1 geometry) whatever the budget.
#: A 300,000-sample collection with random replacement already fills
#: one pass, so its peak memory equals that of any larger budget.
EPOCH_LANES = 256

#: Access steps whose sets one placement call maps for every lane.
_MAP_STEPS = 64

#: Mixed into an epoch's replacement seed to seed its victim draws.
_REPLACEMENT_SALT = 0x5EED_BA5E


def lookup_line_ids(lookup_bytes: np.ndarray) -> np.ndarray:
    """Map (N, 160) lookup byte indices to (N, 160) table line ids.

    Line id = table * 32 + byte // 8; tables are contiguous in memory
    so line ids also index the table region line-by-line.
    """
    if lookup_bytes.ndim != 2 or lookup_bytes.shape[1] != LOOKUPS_PER_ENCRYPTION:
        raise ValueError("lookup_bytes must have shape (N, 160)")
    table_offsets = lookup_table_ids().astype(np.int64) * 32
    return table_offsets[None, :] + (lookup_bytes.astype(np.int64) >> 3)


@dataclass
class TimingSamples:
    """A collected sample set for one party (victim or attacker)."""

    plaintexts: np.ndarray  # (N, 16) uint8
    timings: np.ndarray  # (N,) float
    key: bytes
    setup_name: str

    def __post_init__(self) -> None:
        if self.plaintexts.shape[0] != self.timings.shape[0]:
            raise ValueError("plaintexts and timings must align")

    @property
    def num_samples(self) -> int:
        return int(self.timings.shape[0])

    def key_xor_plaintexts(self) -> np.ndarray:
        """Plaintext bytes XORed with the key (study-phase indices)."""
        key = np.frombuffer(self.key, dtype=np.uint8)
        return self.plaintexts ^ key[None, :]


@dataclass(frozen=True)
class Shard:
    """One contiguous slice ``[start, end)`` of a cell's sample budget."""

    index: int
    num_shards: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad shard range [{self.start}, {self.end})")
        if not 0 <= self.index < self.num_shards:
            raise ValueError(
                f"shard index {self.index} outside 0..{self.num_shards - 1}"
            )

    @property
    def num_samples(self) -> int:
        return self.end - self.start


class ShardPlan:
    """A partition of ``[0, num_samples)`` into contiguous shards.

    Shard boundaries must land on *allowed* split points (for the AES
    engine: collection-block boundaries, so cold-mask epochs and RNG
    blocks are never torn across shards).  The plan is deterministic in
    its inputs; executing shards in any order and merging by shard
    index reproduces the unsharded computation bit for bit.
    """

    def __init__(self, num_samples: int, shards: Sequence[Shard]) -> None:
        shards = tuple(shards)
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not shards:
            raise ValueError("a plan needs at least one shard")
        expected = 0
        for i, shard in enumerate(shards):
            if shard.index != i or shard.num_shards != len(shards):
                raise ValueError("shard indexes must be 0..k-1 in order")
            if shard.start != expected:
                raise ValueError(
                    f"shard {i} starts at {shard.start}, expected {expected}"
                )
            expected = shard.end
        if expected != num_samples:
            raise ValueError(
                f"shards cover [0, {expected}), budget is {num_samples}"
            )
        self.num_samples = num_samples
        self.shards = shards

    def __iter__(self):
        return iter(self.shards)

    def __len__(self) -> int:
        return len(self.shards)

    def __getitem__(self, index: int) -> Shard:
        return self.shards[index]

    def __repr__(self) -> str:
        ranges = ", ".join(f"[{s.start},{s.end})" for s in self.shards)
        return f"ShardPlan({self.num_samples}: {ranges})"

    @classmethod
    def even(cls, num_samples: int, max_shards: int) -> "ShardPlan":
        """Near-equal split with unit granularity (no alignment rule)."""
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        k = min(max_shards, num_samples)
        edges = sorted({num_samples * i // k for i in range(k + 1)})
        return cls._from_edges(num_samples, edges)

    @classmethod
    def adaptive(
        cls,
        num_samples: int,
        max_shards: int,
        *,
        min_block: int = 1024,
        growth: float = 2.0,
        boundaries: Optional[Sequence[int]] = None,
    ) -> "ShardPlan":
        """Geometric split: small leading shards, growing tail.

        The first shard holds ~``min_block`` samples and each later
        shard is ``growth`` times its predecessor, so an early-stopping
        rule gets its first merged prefix after ``min_block`` samples
        instead of after ``num_samples / max_shards`` — while the tail
        still ships in a few large, low-overhead units.  When
        ``max_shards`` runs out before the geometric series covers the
        budget, the last shard absorbs the remainder.  With
        ``boundaries`` each cut snaps to the nearest allowed split
        point still to the right of the previous cut (the same rule as
        :meth:`from_boundaries`), so AES-engine plans stay
        block-aligned.  Like every plan, the geometry changes only how
        the budget is partitioned — position-keyed RNG streams keep the
        merged samples bit-identical to any other plan's.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        if min_block < 1:
            raise ValueError("min_block must be >= 1")
        if growth < 1.0:
            raise ValueError("growth must be >= 1.0")
        candidates = (
            sorted({b for b in boundaries if 0 < b < num_samples})
            if boundaries is not None
            else None
        )
        edges: List[int] = [0]
        block = float(min_block)
        while len(edges) < max_shards:
            target = edges[-1] + max(1, int(round(block)))
            if target >= num_samples:
                break
            if candidates is None:
                cut = target
            else:
                low = bisect.bisect_right(candidates, edges[-1])
                if low >= len(candidates):
                    break
                pos = bisect.bisect_left(candidates, target, low)
                choices = [
                    candidates[j]
                    for j in (pos - 1, pos)
                    if low <= j < len(candidates)
                ]
                if not choices:
                    break
                cut = min(choices, key=lambda c: (abs(c - target), c))
            edges.append(cut)
            block *= growth
        edges.append(num_samples)
        return cls._from_edges(num_samples, edges)

    @classmethod
    def from_boundaries(
        cls,
        num_samples: int,
        max_shards: int,
        boundaries: Sequence[int],
    ) -> "ShardPlan":
        """Balanced split whose cuts snap to allowed ``boundaries``.

        Each ideal cut (``i * num_samples / max_shards``) moves to the
        nearest allowed boundary still to the right of the previous
        cut; when no boundary fits, the plan simply has fewer shards.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if max_shards < 1:
            raise ValueError("max_shards must be >= 1")
        candidates = sorted({b for b in boundaries if 0 < b < num_samples})
        cuts: List[int] = []
        prev = 0
        for i in range(1, max_shards):
            target = i * num_samples / max_shards
            low = bisect.bisect_right(candidates, prev)
            if low >= len(candidates):
                break
            pos = bisect.bisect_left(candidates, target, low)
            choices = [
                candidates[j]
                for j in (pos - 1, pos)
                if low <= j < len(candidates)
            ]
            if not choices:
                continue
            best = min(choices, key=lambda c: (abs(c - target), c))
            cuts.append(best)
            prev = best
        return cls._from_edges(num_samples, [0] + cuts + [num_samples])

    @classmethod
    def _from_edges(cls, num_samples: int, edges: Sequence[int]) -> "ShardPlan":
        edges = sorted(set(edges))
        k = len(edges) - 1
        return cls(
            num_samples,
            [
                Shard(index=i, num_shards=k, start=edges[i], end=edges[i + 1])
                for i in range(k)
            ],
        )


@dataclass(frozen=True)
class ShardPolicy:
    """How a cell's budget is cut into shards (geometry only).

    The campaign runner owns one policy and hands it to every shardable
    kind's ``plan_shards`` hook, so the whole campaign shares one
    geometry discipline:

    * ``even`` — near-equal shards (the historical default): lowest
      per-unit overhead, but an early-stopping rule sees its first
      merged prefix only after ``total / max_shards`` samples.
    * ``adaptive`` — :meth:`ShardPlan.adaptive` geometry: leading
      shards of ~``min_block`` samples growing by ``growth``, so
      ``early_stop`` campaigns rule on the SPRT after the first small
      prefix while the tail still ships in large units.

    Policies choose *where* the cuts land, never what is computed:
    every policy merges bit-identically to every other (and to the
    unsharded run), because all randomness is keyed to absolute sample
    positions.
    """

    mode: str = "even"
    min_block: int = 1024
    growth: float = 2.0

    def __post_init__(self) -> None:
        if self.mode not in ("even", "adaptive"):
            raise ValueError(
                f"unknown shard policy {self.mode!r}; "
                "choose 'even' or 'adaptive'"
            )
        if self.min_block < 1:
            raise ValueError("min_block must be >= 1")
        if self.growth < 1.0:
            raise ValueError("growth must be >= 1.0")

    @classmethod
    def adaptive(
        cls, min_block: int = 1024, growth: float = 2.0
    ) -> "ShardPolicy":
        return cls(mode="adaptive", min_block=min_block, growth=growth)

    def plan(
        self,
        num_samples: int,
        max_shards: int,
        boundaries: Optional[Sequence[int]] = None,
    ) -> ShardPlan:
        """The policy's plan for one budget (optionally snap-aligned).

        ``min_block`` is clamped to the even-shard size
        (``num_samples // max_shards``) so a cell whose whole budget
        is below the configured block still shards — the policy's
        point is a *small lead shard*, and collapsing to a single
        shard would silently disable early stopping for exactly the
        small-budget cells that decide fastest.  The clamp makes the
        adaptive lead shard never larger than an even shard.
        """
        if self.mode == "adaptive":
            min_block = min(
                self.min_block, max(1, num_samples // max_shards)
            )
            return ShardPlan.adaptive(
                num_samples,
                max_shards,
                min_block=min_block,
                growth=self.growth,
                boundaries=boundaries,
            )
        if boundaries is None:
            return ShardPlan.even(num_samples, max_shards)
        return ShardPlan.from_boundaries(num_samples, max_shards, boundaries)

    def describe(self) -> str:
        """Compact geometry label for plans/progress (``--dry-run``)."""
        if self.mode == "even":
            return "even"
        return f"adaptive(min={self.min_block},x{self.growth:g})"


@dataclass
class ShardSums:
    """One shard's profile sums (see :func:`merge_shard_sums`)."""

    shard: Shard
    sums: ProfileSums
    key: bytes
    setup_name: str
    total_samples: int


def merge_shard_sums(
    parts: Sequence[ShardSums], *, partial: bool = False
) -> ProfileSums:
    """The profile sums of a whole collection, summed in shard-index
    order from parts given in **any** order.

    The parts must belong to one collection (same key/setup/budget)
    and tile ``[0, total_samples)`` exactly.  With ``partial=True``
    they may instead be a contiguous *prefix* of the plan (shards
    0..k-1 of n), and the result holds the sums of the first
    ``parts[k-1].shard.end`` samples — the streaming-merge substrate
    that lets reporting surface attack results before a cell
    finishes.  Because every shard's randomness is keyed to its
    absolute positions, the prefix equals the sums of the first
    samples of the full collection bit for bit.
    """
    if not parts:
        raise ValueError("no shards to merge")
    ordered = sorted(parts, key=lambda p: p.shard.index)
    first = ordered[0]
    expected_k = first.shard.num_shards
    if not partial and len(ordered) != expected_k:
        raise ValueError(
            f"have {len(ordered)} shards, plan had {expected_k}"
        )
    cursor = 0
    merged = None
    for i, part in enumerate(ordered):
        if part.shard.index != i:
            raise ValueError(f"duplicate or missing shard index {i}")
        if part.key != first.key or part.setup_name != first.setup_name:
            raise ValueError("shards come from different collections")
        if part.total_samples != first.total_samples:
            raise ValueError("shards disagree on the total budget")
        if part.shard.start != cursor:
            raise ValueError(
                f"shard {i} starts at {part.shard.start}, expected {cursor}"
            )
        cursor = part.shard.end
        merged = part.sums if merged is None else merged + part.sums
    if not partial and cursor != first.total_samples:
        raise ValueError(
            f"shards cover [0, {cursor}), budget is {first.total_samples}"
        )
    return merged


class ColdLineModel:
    """Per-epoch cache state for the table region.

    For one placement configuration and seed assignment, determines
    which table lines the background activity leaves cold in L1 at the
    start of each encryption, by replaying the access pattern through
    the cache models.  :meth:`epoch_states` replays many epochs at once
    through the vector cache kernel, one epoch per lane; the scalar
    :meth:`epoch_state` replays one epoch through the real
    :class:`~repro.cache.core.SetAssociativeCache` and is the oracle
    the batched path is tested against.
    """

    def __init__(
        self,
        setup: SetupConfig,
        background: BackgroundWorkload,
        table_base: int = DEFAULT_TABLE_BASE,
        geometry: CacheGeometry = ARM920T_L1_GEOMETRY,
    ) -> None:
        self.setup = setup
        self.background = background
        self.table_base = table_base
        self.geometry = geometry
        self.layout = geometry.layout()
        # One background interval, replayed by every epoch of the model.
        self._same_trace = list(background.same_process_trace(VICTIM_PID))
        self._other_trace = list(background.other_process_trace(OTHER_PID))
        # The same accesses as address arrays for the batched replay:
        # the victim's two warm-up table passes then its own buffers,
        # and the other process's buffers.
        self._table_addresses = np.asarray(
            self._table_line_addresses(), dtype=np.int64
        )
        self._victim_steps = np.concatenate([
            self._table_addresses,
            self._table_addresses,
            np.asarray([a.address for a in self._same_trace], dtype=np.int64),
        ])
        self._other_steps = np.asarray(
            [a.address for a in self._other_trace], dtype=np.int64
        )
        self._interference_memo: Dict[Tuple[int, int], int] = {}

    # -- cache construction -------------------------------------------------

    def _build_cache(self, victim_seed: int, other_seed: int,
                     replacement_seed: int = 0) -> SetAssociativeCache:
        if self.setup.l1_policy == "rpcache":
            # pids already select distinct permutation tables.
            return RPCache(self.geometry)
        placement = make_placement(self.setup.l1_policy, self.layout)
        if self.setup.l1_replacement == "random":
            replacement = make_replacement(
                "random",
                self.geometry.num_sets,
                self.geometry.num_ways,
                prng=XorShift128(replacement_seed ^ _REPLACEMENT_SALT),
            )
        else:
            replacement = make_replacement(
                self.setup.l1_replacement,
                self.geometry.num_sets,
                self.geometry.num_ways,
            )
        cache = SetAssociativeCache(self.geometry, placement, replacement)
        cache.set_seed(victim_seed, pid=VICTIM_PID)
        cache.set_seed(other_seed, pid=OTHER_PID)
        return cache

    def _table_line_addresses(self) -> List[int]:
        return [
            self.table_base + line * self.layout.line_size
            for line in range(NUM_TABLE_LINES)
        ]

    # -- the per-epoch state ---------------------------------------------------

    def epoch_state(
        self,
        victim_seed: int,
        other_seed: int,
        include_other: bool = True,
        replacement_seed: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(cold_mask, line_set) for one seed epoch, by scalar replay.

        ``cold_mask[l]`` — table line ``l`` is evicted from L1 by the
        per-interval background activity (so the next encryption pays
        an L2 hit on first touch).  ``line_set[l]`` — the L1 set the
        line occupies under the victim's mapping (used by the RPCache
        noise model).  With random replacement, ``replacement_seed``
        selects one realisation of the eviction choices — callers
        resample it periodically to model the per-interval variation;
        deterministic replacement never reads it.
        """
        cache = self._build_cache(victim_seed, other_seed, replacement_seed)
        addresses = self._table_line_addresses()
        # Warm-up: two passes so LRU order is the table-id order.
        for _ in range(2):
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
        # One background interval, application buffers then OS.
        for access in self._same_trace:
            cache.access(access)
        if include_other:
            for access in self._other_trace:
                cache.access(access)
        cold = np.array(
            [
                not cache.contains(address, pid=VICTIM_PID)
                for address in addresses
            ],
            dtype=bool,
        )
        line_set = np.array(
            [
                cache.lookup_set(MemoryAccess(address, pid=VICTIM_PID))
                for address in addresses
            ],
            dtype=np.int64,
        )
        return cold, line_set

    def epoch_states(
        self, epochs: Sequence[Tuple[int, int, bool, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(cold, line_set) of many epochs as ``(E, 160)`` arrays.

        ``epochs[i]`` is an ``epoch_state`` argument tuple
        ``(victim_seed, other_seed, include_other, replacement_seed)``
        and row ``i`` of each array equals ``epoch_state(*epochs[i])``
        bit for bit.  The epochs are the batch axis of a
        :class:`~repro.kernels.cache.VectorCacheBatch` pass (its
        RPCache twin for the RPCache setup), run over chunks of
        :data:`EPOCH_LANES` epochs so memory stays bounded for any
        number of epochs.
        """
        cold = np.empty((len(epochs), NUM_TABLE_LINES), dtype=bool)
        line_set = np.empty((len(epochs), NUM_TABLE_LINES), dtype=np.int64)
        for lo in range(0, len(epochs), EPOCH_LANES):
            chunk = epochs[lo:lo + EPOCH_LANES]
            rows = slice(lo, lo + len(chunk))
            cold[rows], line_set[rows] = self._replay_lanes(chunk)
        return cold, line_set

    def _vector_batch(
        self, epochs: Sequence[Tuple[int, int, bool, int]]
    ) -> VectorCacheBatch:
        """A fresh batch with one lane per epoch, seeded like its cache."""
        template = self._build_cache(0, 0)
        lanes = len(epochs)
        if self.setup.l1_replacement != "random":
            batch = make_vector_batch(template, lanes)
            if batch is None:
                raise ValueError(vector_cache_support(template))
        else:
            # Each epoch's cache owns its own seeded XorShift128, which
            # the generic envelope cannot see into; the model knows
            # every seed, so each lane replays its epoch's stream.
            streams = XorShift128Lanes(
                [epoch[3] ^ _REPLACEMENT_SALT for epoch in epochs]
            )
            num_ways = self.geometry.num_ways
            batch = VectorCacheBatch(
                self.geometry,
                vector_placement(template.placement),
                lanes,
                replacement=VectorRandom(
                    lanes, self.geometry.num_sets, num_ways,
                    FixedDrawTable(streams, num_ways),
                ),
            )
        for lane, (victim_seed, other_seed, _, _) in enumerate(epochs):
            batch.set_seed(lane, victim_seed, VICTIM_PID)
            batch.set_seed(lane, other_seed, OTHER_PID)
        return batch

    def _replay_lanes(
        self, epochs: Sequence[Tuple[int, int, bool, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        batch = self._vector_batch(epochs)
        self._replay_steps(batch, self._victim_steps, VICTIM_PID, None)
        include = np.array([bool(epoch[2]) for epoch in epochs])
        if include.any():
            active = None if include.all() else include
            self._replay_steps(batch, self._other_steps, OTHER_PID, active)
        hits, line_set = batch.probe_many(self._table_addresses, VICTIM_PID)
        return ~hits, line_set

    def _replay_steps(
        self,
        batch: VectorCacheBatch,
        addresses: np.ndarray,
        pid: int,
        active: Optional[np.ndarray],
    ) -> None:
        """Access ``addresses`` in order, in every (``active``) lane."""
        lines = addresses & ~np.int64(self.layout.line_size - 1)
        # Map the sets of _MAP_STEPS steps per call: the placement
        # hash's temporaries scale with lanes x steps.
        for lo in range(0, len(addresses), _MAP_STEPS):
            sets = batch.map_sets(addresses[lo:lo + _MAP_STEPS], pid)
            for step, line in enumerate(lines[lo:lo + _MAP_STEPS]):
                batch.access_mapped(
                    np.full(batch.num_trials, line), sets[:, step], pid,
                    active,
                )

    def estimate_interference_events(self, victim_seed: int,
                                     other_seed: int) -> int:
        """RPCache randomized evictions per steady-state interval.

        Replays several full intervals (table touch + application
        buffers + OS buffers) and counts the randomized evictions of
        the last one, so one-time cold-start conflicts are excluded.
        """
        if self.setup.l1_policy != "rpcache":
            return 0
        key = (victim_seed, other_seed)
        cached = self._interference_memo.get(key)
        if cached is not None:
            return cached
        cache = self._build_cache(victim_seed, other_seed)
        assert isinstance(cache, RPCache)
        addresses = self._table_line_addresses()
        before = 0
        for _ in range(4):
            before = cache.randomized_evictions
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
            for access in self._same_trace:
                cache.access(access)
            for access in self._other_trace:
                cache.access(access)
        events = cache.randomized_evictions - before
        if len(self._interference_memo) < 4096:
            self._interference_memo[key] = events
        return events


@dataclass
class EngineConfig:
    """Timing parameters of the vectorized engine."""

    #: Fixed cycles per encryption: pipeline work + the L1-hit cost of
    #: all 160 lookups and the surrounding instructions.
    base_cycles: float = 1480.0
    #: Extra cycles for a table lookup resolved in L2 (L1 miss).
    miss_penalty: float = 10.0
    table_base: int = DEFAULT_TABLE_BASE
    #: Rows per fused encryption + timing pass (bounds its
    #: temporaries); also caps the RNG block (see :attr:`rng_block`).
    chunk_size: int = 16384
    #: Encryptions per replacement-state realisation for caches with
    #: random replacement (the eviction choices vary per background
    #: interval; we resample them at this granularity).
    replacement_block: int = 1024
    #: RNG-block granularity: every multiple of this position starts a
    #: fresh per-block sample stream, and is therefore an allowed
    #: shard boundary.  Smaller = finer sharding of setups without
    #: natural epoch/realisation boundaries, at slightly more stream
    #: setup overhead.
    shard_block: int = 1024

    @property
    def rng_block(self) -> int:
        """The effective RNG-block quantum (also caps batch memory)."""
        return min(self.chunk_size, self.shard_block)


#: spawn_key tags separating the two parties' block streams.
_PARTY_TAGS = {"victim": 0x56C7, "attacker": 0xA77C}


class AESTimingEngine:
    """Collects attack-scale AES timing samples for one setup.

    Parameters
    ----------
    rng:
        Entropy source for the per-block sample streams: a
        :class:`numpy.random.Generator` (four words are drawn from it
        once, at construction), an int seed, a ``SeedSequence``, or
        None for the historical default seed.  Collection itself is a
        pure function of (entropy root, key, party, campaign seed,
        sample budget): calling :meth:`collect` twice with the same
        arguments returns identical samples, and sharded collection is
        bit-identical to serial collection.
    """

    def __init__(
        self,
        setup: SetupConfig,
        background: Optional[BackgroundWorkload] = None,
        config: Optional[EngineConfig] = None,
        rng=None,
    ) -> None:
        self.setup = setup
        self.background = (
            background if background is not None else default_background()
        )
        self.config = config if config is not None else EngineConfig()
        source = (
            rng
            if isinstance(rng, np.random.Generator)
            else np.random.default_rng(2018 if rng is None else rng)
        )
        #: Entropy words rooting every per-block sample stream.
        self._entropy: Tuple[int, ...] = tuple(
            int(word)
            for word in source.integers(0, 1 << 32, size=4, dtype=np.uint64)
        )
        self.rng = source
        self.cold_model = ColdLineModel(
            setup, self.background, table_base=self.config.table_base
        )

    # -- seed streams ---------------------------------------------------------

    def _seed_plan(self, num_samples: int, party: str,
                   campaign_seed: int) -> List[Tuple[int, int, int]]:
        """(start, end, victim_seed) epochs covering the sample range.

        ``campaign_seed`` identifies the machine/task; the attacker's
        study machine derives the *same* placement seeds as the victim
        exactly when the setup allows seed sharing.
        """
        if party not in ("victim", "attacker"):
            raise ValueError("party must be 'victim' or 'attacker'")
        shared = self.setup.shared_seed_between_parties
        party_salt = 0 if (shared or party == "victim") else 0x0BAD_5EED
        epoch_len = self.setup.reseed_every or num_samples
        plan = []
        start = 0
        epoch_index = 0
        while start < num_samples:
            end = min(start + epoch_len, num_samples)
            seed = (campaign_seed ^ party_salt) + 0x9E37 * epoch_index
            plan.append((start, end, seed & 0xFFFF_FFFF))
            start = end
            epoch_index += 1
        return plan

    # -- block structure -------------------------------------------------------

    def collection_blocks(self, num_samples: int) -> List[Tuple[int, int]]:
        """The ``(start, end)`` collection blocks tiling the budget.

        Boundaries are the union of seed-epoch starts, replacement-
        realisation starts (random replacement only) and multiples of
        the chunk size — every position at which the engine's timing
        state or RNG stream turns over.  They depend only on the setup
        and the engine config, never on shard count, which is what
        makes any block-aligned partition merge bit-identically.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        bounds = set(range(0, num_samples, self.config.rng_block))
        randomized = self.setup.l1_replacement == "random"
        for start, end, _ in self._seed_plan(num_samples, "victim", 0):
            bounds.add(start)
            if randomized:
                bounds.update(
                    range(start, end, self.config.replacement_block)
                )
        bounds.add(num_samples)
        edges = sorted(bounds)
        return list(zip(edges, edges[1:]))

    def shard_plan(
        self,
        num_samples: int,
        max_shards: int,
        policy: Optional[ShardPolicy] = None,
    ) -> ShardPlan:
        """A block-aligned :class:`ShardPlan` for ``num_samples``.

        ``policy`` selects the cut geometry (default: even); whatever
        it picks, the cuts snap to collection-block boundaries so
        cold-mask epochs and RNG blocks are never torn across shards.
        """
        boundaries = [start for start, _ in self.collection_blocks(num_samples)]
        policy = policy if policy is not None else ShardPolicy()
        return policy.plan(num_samples, max_shards, boundaries=boundaries)

    def _block_rng(
        self, party: str, campaign_seed: int, block_start: int
    ) -> np.random.Generator:
        """The private sample stream of the block starting at ``block_start``."""
        sequence = np.random.SeedSequence(
            entropy=self._entropy,
            spawn_key=(
                _PARTY_TAGS[party],
                campaign_seed & 0xFFFF_FFFF,
                (campaign_seed >> 32) & 0xFFFF_FFFF,
                block_start,
            ),
        )
        return np.random.default_rng(sequence)

    # -- collection --------------------------------------------------------------

    def collect(
        self,
        key: bytes,
        num_samples: int,
        party: str = "victim",
        campaign_seed: int = 0xC0DE,
    ) -> TimingSamples:
        """Simulate ``num_samples`` encryptions and their timings."""
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        plaintexts, timings = self._collect_range(
            key, num_samples, 0, num_samples, party, campaign_seed
        )
        return TimingSamples(
            plaintexts=plaintexts,
            timings=timings,
            key=key,
            setup_name=self.setup.name,
        )

    def collect_sums(
        self,
        key: bytes,
        num_samples: int,
        party: str = "victim",
        campaign_seed: int = 0xC0DE,
        index_key: Optional[bytes] = None,
    ) -> ProfileSums:
        """The profile sums of :meth:`collect`'s samples.

        Each sample is indexed by its plaintext, or with ``index_key``
        by ``plaintext ^ index_key`` (the study phase's index).  The
        sums equal :meth:`ProfileSums.from_samples` over the collected
        samples, but are accumulated run by run, so no more than one
        ``chunk_size`` of samples is ever held.
        """
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        return self._sum_range(key, num_samples, 0, num_samples, party,
                               campaign_seed, index_key)

    def collect_shard_sums(
        self,
        key: bytes,
        num_samples: int,
        shard: Shard,
        party: str = "victim",
        campaign_seed: int = 0xC0DE,
        index_key: Optional[bytes] = None,
    ) -> ShardSums:
        """One shard's :meth:`collect_sums`; merging every shard of a
        plan with :func:`merge_shard_sums` reproduces it byte for byte."""
        self._check_shard(num_samples, shard)
        return ShardSums(
            shard=shard,
            sums=self._sum_range(key, num_samples, shard.start, shard.end,
                                 party, campaign_seed, index_key),
            key=key,
            setup_name=self.setup.name,
            total_samples=num_samples,
        )

    def _check_shard(self, num_samples: int, shard: Shard) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if shard.end > num_samples:
            raise ValueError(
                f"shard ends at {shard.end}, budget is {num_samples}"
            )
        allowed = {start for start, _ in self.collection_blocks(num_samples)}
        allowed.add(num_samples)
        for position in (shard.start, shard.end):
            if position not in allowed:
                raise ValueError(
                    f"shard boundary {position} is not block-aligned "
                    "(use AESTimingEngine.shard_plan)"
                )

    def _collect_range(
        self,
        key: bytes,
        num_samples: int,
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(plaintexts, timings) for samples ``[lo, hi)`` of the budget."""
        plaintexts = np.empty((hi - lo, 16), dtype=np.uint8)
        timings = np.empty(hi - lo, dtype=float)
        for start, run_plaintexts, run_timings in self._sample_runs(
            key, num_samples, lo, hi, party, campaign_seed
        ):
            plaintexts[start:start + len(run_timings)] = run_plaintexts
            timings[start:start + len(run_timings)] = run_timings
        return plaintexts, timings

    def _sum_range(
        self,
        key: bytes,
        num_samples: int,
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
        index_key: Optional[bytes],
    ) -> ProfileSums:
        """:class:`ProfileSums` of samples ``[lo, hi)`` of the budget."""
        xor = (
            None if index_key is None
            else np.frombuffer(index_key, dtype=np.uint8)
        )
        sums = ProfileSums.zeros()
        for _, plaintexts, timings in self._sample_runs(
            key, num_samples, lo, hi, party, campaign_seed
        ):
            sums.add(plaintexts if xor is None else plaintexts ^ xor,
                     timings)
        return sums

    def _sample_runs(
        self,
        key: bytes,
        num_samples: int,
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Samples ``[lo, hi)`` of the budget, one run at a time.

        Yields ``(start, plaintexts, timings)`` per run of at most
        ``chunk_size`` samples, ``start`` relative to ``lo``.
        """
        aes = AES128(key)
        all_blocks = self.epoch_blocks(num_samples, party, campaign_seed,
                                       lo, hi)
        # The cold states of EPOCH_LANES blocks at a time (one batched
        # cache pass), so memory stays flat in the budget.  A row's
        # timing depends only on its own block and stream, never on
        # how rows are grouped into runs.
        for first in range(0, len(all_blocks), EPOCH_LANES):
            blocks = all_blocks[first:first + EPOCH_LANES]
            yield from self._block_runs(aes, blocks, lo, hi, party,
                                        campaign_seed)

    def _block_runs(
        self,
        aes: AES128,
        blocks: Sequence[Tuple[int, int, int, Tuple[int, int, bool, int]]],
        lo: int,
        hi: int,
        party: str,
        campaign_seed: int,
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """:meth:`_sample_runs` over the samples of some cold-state
        ``blocks`` (entries of :meth:`epoch_blocks`)."""
        rng_block = self.config.rng_block
        colds, line_sets = self.cold_model.epoch_states(
            [epoch for _, _, _, epoch in blocks]
        )
        cold_bits = _pack_line_masks(colds)
        targets = {
            index: self._eviction_targets(colds[index], line_sets[index])
            for index, (_, _, events, _) in enumerate(blocks)
            if events > 0
        }
        # RNG blocks: split each cold-state block at absolute rng_block
        # multiples.  Each owns a child stream keyed by its start
        # position, so output never depends on which shard computes
        # it.
        segments = []  # (out_start, out_end, cold-state block)
        for index, (block_start, block_end, _, _) in enumerate(blocks):
            rng_start = block_start
            while rng_start < block_end:
                rng_end = min(block_end,
                              (rng_start // rng_block + 1) * rng_block)
                if rng_end > lo and rng_start < hi:
                    segments.append((rng_start - lo, rng_end - lo, index))
                rng_start = rng_end

        for run in _runs(segments, self.config.chunk_size):
            run_start, run_end = run[0][0], run[-1][1]
            # Plaintexts come first in every stream; the generator is
            # kept for the block's interference draws, which follow.
            plaintexts = np.empty((run_end - run_start, 16), dtype=np.uint8)
            streams = []
            for start, end, _ in run:
                block_rng = self._block_rng(party, campaign_seed, start + lo)
                plaintexts[start - run_start:end - run_start] = (
                    block_rng.integers(0, 256, size=(end - start, 16),
                                       dtype=np.uint8)
                )
                streams.append(block_rng)
            masks = aes.line_masks(plaintexts)
            # Each row's cold lines, packed like its masks.
            owner = np.repeat(
                [index for _, _, index in run],
                [end - start for start, end, _ in run],
            )
            cold_hits = np.bitwise_count(masks & cold_bits[owner].T).sum(
                axis=0, dtype=np.int64
            )
            timings = (
                self.config.base_cycles + self.config.miss_penalty * cold_hits
            )
            for (start, end, index), block_rng in zip(run, streams):
                if index in targets:
                    timings[start - run_start:end - run_start] += (
                        self._interference_noise(
                            masks[:, start - run_start:end - run_start],
                            targets[index], blocks[index][2], block_rng,
                        )
                    )
            yield run_start, plaintexts, timings

    def epoch_blocks(
        self,
        num_samples: int,
        party: str,
        campaign_seed: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> List[Tuple[int, int, int, Tuple[int, int, bool, int]]]:
        """The cold-state blocks of a budget that overlap ``[lo, hi)``.

        Each entry is ``(start, end, interference_events, epoch)``:
        samples ``[start, end)`` share one cold state, the one
        ``epoch`` (an :meth:`ColdLineModel.epoch_state` argument tuple)
        yields.  A seed epoch is one block under deterministic
        replacement; random replacement resamples the eviction choices
        every ``replacement_block`` encryptions.
        """
        hi = num_samples if hi is None else hi
        randomized_replacement = self.setup.l1_replacement == "random"
        party_salt = 0 if party == "victim" else 0xA77A
        include_other = not self.setup.randomize_other_process
        blocks = []
        for start, end, victim_seed in self._seed_plan(
            num_samples, party, campaign_seed
        ):
            if end <= lo or start >= hi:
                continue
            other_seed = victim_seed ^ 0x7E57_0123  # OS runs under its own seed
            events = self.cold_model.estimate_interference_events(
                victim_seed, other_seed
            )
            block_len = (
                self.config.replacement_block
                if randomized_replacement
                else end - start
            )
            for block_start in range(start, end, block_len):
                block_end = min(block_start + block_len, end)
                if block_end <= lo or block_start >= hi:
                    continue
                epoch = (victim_seed, other_seed, include_other,
                         block_start ^ party_salt)
                blocks.append((block_start, block_end, events, epoch))
        return blocks

    # -- timing math ----------------------------------------------------------------

    def _eviction_targets(
        self, cold_mask: np.ndarray, line_set: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per L1 set, the table line a random eviction there costs.

        Random evictions in a set push out at most one table line of
        interest: the lowest-numbered warm line mapped there.  Returns
        that line's :meth:`~repro.crypto.aes.AES128.line_masks` row and
        bit per set; the bit is 0 where the set holds no warm line.
        """
        set_to_line = np.full(self.cold_model.geometry.num_sets, -1,
                              dtype=np.int64)
        for line in range(NUM_TABLE_LINES - 1, -1, -1):
            if not cold_mask[line]:
                set_to_line[line_set[line]] = line
        warm = set_to_line >= 0
        return (
            np.where(warm, set_to_line >> 5, 0),
            np.where(warm, np.left_shift(1, set_to_line & 31), 0),
        )

    def _interference_noise(
        self,
        masks: np.ndarray,
        targets: Tuple[np.ndarray, np.ndarray],
        events: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """RPCache random-set evictions: per-encryption extra misses.

        Each interference event evicts one line from a uniformly
        random set; when that set holds a (warm) table line, the next
        encryption pays a miss on it if it touches the line.
        """
        set_word, set_bit = targets
        n = masks.shape[1]
        draws = rng.integers(0, len(set_word), size=(n, events))
        words = masks[set_word[draws], np.arange(n)[:, None]]
        touched = np.count_nonzero(words & set_bit[draws], axis=1)
        return self.config.miss_penalty * touched.astype(float)


def _pack_line_masks(lines: np.ndarray) -> np.ndarray:
    """``(E, 160)`` per-line flags as ``(E, 5)`` int64 bitmasks.

    Bit ``j`` of column ``t`` is line ``32 t + j`` — the layout of
    :meth:`~repro.crypto.aes.AES128.line_masks`.
    """
    per_table = lines.reshape(len(lines), 5, 32).astype(np.int64)
    return (per_table << np.arange(32, dtype=np.int64)).sum(axis=2)


def _runs(segments: Sequence[tuple], max_rows: int) -> List[List[tuple]]:
    """Consecutive ``(start, end, ...)`` segments grouped into runs of
    at most ``max_rows`` rows (a longer segment runs alone)."""
    runs: List[List[tuple]] = []
    for segment in segments:
        if runs and segment[1] - runs[-1][0][0] <= max_rows:
            runs[-1].append(segment)
        else:
            runs.append([segment])
    return runs


def default_background() -> BackgroundWorkload:
    """The case-study background interference (see
    :func:`repro.workloads.interference.bernstein_background`)."""
    return bernstein_background()
