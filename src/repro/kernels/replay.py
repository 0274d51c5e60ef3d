"""Batched trace replay for the pwcet and missrate experiment kinds.

Two replay shapes, both bit-identical to the scalar per-access loops:

**Run-parallel hierarchy replay** (:class:`VectorHierarchyBatch`) —
pwcet cells run the *same* trace through ``R`` independently-seeded
two-level hierarchies (one per MBPTA run).  The batch keeps one
:class:`~repro.kernels.cache.VectorCacheBatch` per level (l1i/l1d/l2),
precomputes every access's set index under every run's seed, and steps
all runs in lock-step: the L2 is stepped with the L1 miss mask as its
``active`` set, so only the runs that actually missed in L1 touch L2
state — the exact scalar access path, ``R`` runs wide.  Random
replacement is in-envelope because every scalar run builds a fresh
hierarchy, restarting the same fixed draw stream (a shared table +
per-run counters reproduces it; see
:mod:`repro.kernels.replacement`).

**Set-parallel single-cache replay** (:func:`replay_missrate`) —
missrate cells run one trace through one cache.  There is no run axis
to batch over, but with a fixed seed the access→set mapping is static,
so accesses can be partitioned by set up front and replayed in rounds:
round ``r`` performs the ``r``-th access of every set at once.  Within
a set the original order is preserved and sets share no state, so
hits/misses are exactly the scalar ones.  Random replacement is *not*
in-envelope here — its draws are sequenced globally across sets, which
set-parallel rounds cannot reproduce — and the support probe says so
(``replacement:random-draws-globally-sequenced``), falling back to
scalar.

The ``*_support`` probes return ``None`` (in-envelope) or a
machine-readable reason string, surfaced by ``--dry-run`` and the
``kernel_fallback`` telemetry event.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.cache.core import SetAssociativeCache
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.placement import make_placement
from repro.cache.replacement import (
    FIFOReplacement,
    LRUReplacement,
    NRUReplacement,
    RandomReplacement,
    TreePLRUReplacement,
)
from repro.common.trace import AccessType
from repro.kernels.cache import VectorCacheBatch
from repro.kernels.placement import vector_placement
from repro.kernels.replacement import vector_replacement_by_name

#: Replacement names the hierarchy replay can reproduce.  ``random`` is
#: included: each scalar run's fresh hierarchy restarts the stock draw
#: stream, which the vector engine replays from a shared table.
_HIERARCHY_REPLACEMENTS = ("lru", "fifo", "nru", "plru", "random")


def hierarchy_support(config: HierarchyConfig) -> Optional[str]:
    """``None`` when a hierarchy config has a vector twin, else why not."""
    levels = (
        ("l1", config.l1_geometry, config.l1_placement, config.l1_replacement),
        ("l2", config.l2_geometry, config.l2_placement, config.l2_replacement),
    )
    for name, geometry, placement_name, replacement_name in levels:
        if replacement_name not in _HIERARCHY_REPLACEMENTS:
            return f"{name}:replacement-{replacement_name}-unsupported"
        if vector_replacement_by_name(
            replacement_name, 1, geometry.num_sets, geometry.num_ways
        ) is None:
            return f"{name}:replacement-{replacement_name}-unsupported"
        placement = make_placement(placement_name, geometry.layout())
        if vector_placement(placement) is None:
            return f"{name}:placement-{placement_name}-unsupported"
    return None


class _LevelBatch:
    """One cache level of the hierarchy batch, over ``R`` runs."""

    def __init__(self, geometry, placement_name: str, replacement_name: str,
                 num_runs: int) -> None:
        placement = make_placement(placement_name, geometry.layout())
        self.batch = VectorCacheBatch(
            geometry,
            vector_placement(placement),
            num_runs,
            replacement=vector_replacement_by_name(
                replacement_name, num_runs, geometry.num_sets,
                geometry.num_ways,
            ),
        )
        layout = geometry.layout()
        self._offset_mask = np.int64((1 << layout.offset_bits) - 1)

    def lines_of(self, addresses: np.ndarray) -> np.ndarray:
        return addresses & ~self._offset_mask

    def precompute_sets(self, addresses: np.ndarray,
                        pids: np.ndarray) -> Dict[int, np.ndarray]:
        """``pid -> (R, A)`` set matrix for every access address."""
        return {
            int(pid): self.batch.map_sets(addresses, int(pid))
            for pid in np.unique(pids)
        }


class VectorHierarchyBatch:
    """``num_runs`` independent two-level hierarchies in lock-step.

    Reproduces :class:`repro.cache.hierarchy.CacheHierarchy` exactly:
    IFETCH accesses go to l1i, the rest to l1d; L2 is consulted only on
    an L1 miss; latencies accumulate per level (l1_hit always, +l2_hit
    on L1 miss, +memory on L2 miss).
    """

    def __init__(self, config: HierarchyConfig, num_runs: int) -> None:
        reason = hierarchy_support(config)
        if reason is not None:
            raise ValueError(f"outside the vector envelope: {reason}")
        self.config = config
        self.num_runs = num_runs
        self.l1i = _LevelBatch(
            config.l1_geometry, config.l1_placement, config.l1_replacement,
            num_runs,
        )
        self.l1d = _LevelBatch(
            config.l1_geometry, config.l1_placement, config.l1_replacement,
            num_runs,
        )
        self.l2 = _LevelBatch(
            config.l2_geometry, config.l2_placement, config.l2_replacement,
            num_runs,
        )

    def set_seeds(self, run: int, seed: int,
                  pid: Optional[int] = None) -> None:
        """Scalar ``hierarchy.set_seeds`` for one run of the batch."""
        for level in (self.l1i, self.l1d, self.l2):
            level.batch.set_seed(run, seed, pid)

    def run_trace(self, trace) -> np.ndarray:
        """Total memory latency of ``trace`` per run (``(R,)`` int64).

        Call after all per-run seeds are set: the access→set mapping is
        precomputed once per (level, pid) under the final seeds.
        """
        accesses = list(trace)
        lat = self.config.latencies
        times = np.zeros(self.num_runs, dtype=np.int64)
        if not accesses:
            return times
        addresses = np.array([a.address for a in accesses], dtype=np.int64)
        pids = np.array([a.pid for a in accesses], dtype=np.int64)
        is_ifetch = np.array(
            [a.access_type is AccessType.IFETCH for a in accesses],
            dtype=bool,
        )
        l1_sets = {
            True: self.l1i.precompute_sets(addresses, pids),
            False: self.l1d.precompute_sets(addresses, pids),
        }
        l2_sets = self.l2.precompute_sets(addresses, pids)
        l1_lines = self.l1i.lines_of(addresses)
        l2_lines = self.l2.lines_of(addresses)
        full = np.full  # the per-step line broadcast
        for a in range(len(accesses)):
            pid = int(pids[a])
            ifetch = bool(is_ifetch[a])
            level = self.l1i if ifetch else self.l1d
            l1_hit = level.batch.access_mapped(
                full(self.num_runs, l1_lines[a]),
                l1_sets[ifetch][pid][:, a],
                pid,
            )
            times += lat.l1_hit
            l1_miss = ~l1_hit
            if l1_miss.any():
                l2_hit = self.l2.batch.access_mapped(
                    full(self.num_runs, l2_lines[a]),
                    l2_sets[pid][:, a],
                    pid,
                    active=l1_miss,
                )
                times[l1_miss] += lat.l2_hit
                times[l1_miss & ~l2_hit] += lat.memory
        return times


#: Replacement classes whose per-set state is independent across sets,
#: which is what set-parallel rounds require.
_SET_LOCAL_REPLACEMENTS = (
    LRUReplacement,
    FIFOReplacement,
    NRUReplacement,
    TreePLRUReplacement,
)


def missrate_support(cache) -> Optional[str]:
    """``None`` when a cache can take the set-parallel replay, else why."""
    if type(cache) is not SetAssociativeCache:
        return f"cache:subclass-{type(cache).__name__}"
    if not cache.write_allocate:
        return "cache:no-write-allocate"
    if cache._protected_ranges:
        return "cache:protected-ranges"
    replacement = cache.replacement
    if type(replacement) is RandomReplacement:
        # One draw per conflict miss *in global access order*: rounds
        # interleave sets and cannot reproduce the sequencing.
        return "replacement:random-draws-globally-sequenced"
    if type(replacement) not in _SET_LOCAL_REPLACEMENTS:
        label = getattr(replacement, "name", type(replacement).__name__)
        return f"replacement:{label}-unsupported"
    if vector_placement(cache.placement) is None:
        return f"placement:{cache.placement.name}-unsupported"
    return None


def replay_missrate(cache, trace) -> Tuple[int, int]:
    """``(accesses, misses)`` of replaying ``trace`` through ``cache``.

    ``cache`` must be factory-fresh, seeded, and inside
    :func:`missrate_support`'s envelope.  The cache object itself is
    only read (geometry, placement, seeds) — its scalar state is left
    untouched.
    """
    accesses = list(trace)
    total = len(accesses)
    if total == 0:
        return 0, 0
    geometry = cache.geometry
    layout = geometry.layout()
    num_sets, num_ways = geometry.num_sets, geometry.num_ways
    addresses = np.array([a.address for a in accesses], dtype=np.int64)
    pids = np.array([a.pid for a in accesses], dtype=np.int64)
    offset_mask = np.int64((1 << layout.offset_bits) - 1)
    lines = addresses & ~offset_mask
    u = addresses.astype(np.uint64)
    indices = (u >> np.uint64(layout.offset_bits)) & np.uint64(
        (1 << layout.index_bits) - 1
    )
    tags = u >> np.uint64(layout.offset_bits + layout.index_bits)
    seeds = np.empty(total, dtype=np.uint64)
    for pid in np.unique(pids):
        seeds[pids == pid] = np.uint64(cache.seeds.seed_for(int(pid)))
    sets = vector_placement(cache.placement).map_sets(tags, indices, seeds)

    # Stable partition by set, then by within-set rank: round r performs
    # the r-th access of every set at once, in-set order preserved.
    by_set = np.argsort(sets, kind="stable")
    counts = np.bincount(sets, minlength=num_sets)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = np.empty(total, dtype=np.int64)
    ranks[by_set] = np.arange(total) - starts[sets[by_set]]
    by_round = np.argsort(ranks, kind="stable")  # keeps set order per round
    round_sets = sets[by_round]
    round_lines = lines[by_round]
    round_counts = np.bincount(ranks[by_round])
    bounds = np.concatenate(([0], np.cumsum(round_counts)))

    # One engine lane per set: (E=num_sets, S=1, W) state.
    engine = vector_replacement_by_name(
        cache.replacement.name, num_sets, 1, num_ways
    )
    valid = np.zeros((num_sets, num_ways), dtype=bool)
    resident = np.zeros((num_sets, num_ways), dtype=np.int64)
    hits = 0
    for r in range(len(round_counts)):
        lane = round_sets[bounds[r]:bounds[r + 1]]
        line = round_lines[bounds[r]:bounds[r + 1]]
        zero = np.zeros(lane.shape, dtype=np.int64)
        lane_valid = valid[lane]
        match = lane_valid & (resident[lane] == line[:, None])
        hit = match.any(axis=1)
        hits += int(np.count_nonzero(hit))
        if hit.any():
            engine.touch_hits(
                lane[hit], zero[hit], np.argmax(match, axis=1)[hit]
            )
        miss = ~hit
        if miss.any():
            ml = lane[miss]
            invalid = ~valid[ml]
            ways = np.argmax(invalid, axis=1)
            conflict = ~invalid.any(axis=1)
            if conflict.any():
                ways[conflict] = engine.victim_ways(
                    ml[conflict], np.zeros_like(ml[conflict])
                )
            valid[ml, ways] = True
            resident[ml, ways] = line[miss]
            engine.touch_fills(ml, np.zeros_like(ml), ways)
    return total, total - hits
