"""Batched trace replay for the pwcet and missrate experiment kinds.

Three replay shapes, all bit-identical to the scalar per-access loops.
The pwcet cells run the *same* trace through ``R`` independently
seeded two-level hierarchies (one per MBPTA run); the missrate cells
run one trace through one cache.  Each shape is chosen per cache level
by its replacement policy:

**Lockstep** — every run advances by one access per step (at the L2,
only the runs that missed in L1).  Random replacement needs it: a
run's scalar cache consumes one draw per conflict miss in *global
access order*, whichever set it falls in, so each run's draws are
sequenced across sets and no per-set reordering keeps them.  The
setups' random L1s (mbpta, tscache) therefore stay lockstep.  Random
replacement is still in-envelope for the hierarchy: every scalar run
builds a fresh hierarchy, restarting the same fixed draw stream, which
a shared table plus per-run counters reproduces (see
:mod:`repro.kernels.replacement`).

**(run, set) rounds** — under a set-local policy (LRU, FIFO, NRU,
PLRU) each run's cache sets are independent state machines, and with
the run seeds fixed the access→set mapping is static.  So the
``(run, access)`` elements of one level split into ``(run, set)``
lanes, and round ``r`` performs the ``r``-th access of every lane at
once: within a lane the access order is kept, lanes share no state, so
every hit and miss is the scalar one.  The L1 (l1i and l1d, separate
lanes) is replayed first; the L2 is then replayed over the L1-miss
elements only — exactly the stream the scalar L2 sees.  Runs go in
blocks of a fixed element budget, which bounds the per-block index,
sort and lane-state arrays whatever the run budget.

**Set rounds** (:func:`replay_missrate`) — the same rounds with one
run: one cache, its accesses partitioned by set.  Random replacement
is out of its envelope for the lockstep reason above, and the support
probe says so (``replacement:random-draws-globally-sequenced``),
falling back to scalar.

Whatever the shapes, a run's latency over ``A`` accesses is
``A·l1_hit + l1_misses·l2_hit + l2_misses·memory``.

**One row per distinct platform** — before any shape runs, the
hierarchy batch groups its runs by their effective platform: the
per-pid seeds at the levels whose placement reads a seed (modulo does
not; random replacement adds nothing, since every run restarts the
same draw stream).  Each distinct platform is replayed as one row and
its time scattered back to its runs, so the modulo hierarchies
(deterministic, rpcache) and fixed-platform (``reseed=False``) budgets
replay a single row.

The ``*_support`` probes return ``None`` (in-envelope) or a
machine-readable reason string, surfaced by ``--dry-run`` and the
``kernel_fallback`` telemetry event.
"""

from __future__ import annotations

from typing import Optional, Tuple

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
from repro.common.trace import TraceArrays, trace_arrays
from repro.kernels.cache import VectorSeedRegister
from repro.kernels.placement import vector_placement
from repro.kernels.replacement import (
    VectorReplacement,
    vector_replacement_by_name,
)

#: Replacement names whose per-set state is independent across sets:
#: the levels that replay in rounds.
_SET_LOCAL_NAMES = ("lru", "fifo", "nru", "plru")

#: Replacement names the hierarchy replay can reproduce.  ``random`` is
#: included: each scalar run's fresh hierarchy restarts the stock draw
#: stream, which the vector engine replays from a shared table.
_HIERARCHY_REPLACEMENTS = _SET_LOCAL_NAMES + ("random",)

#: Most ``(run, access)`` elements one block of a rounds replay holds.
#: Fixed, not a knob: it trades a few extra rounds per block for a
#: bounded working set (the pwcet process's peak RSS).
_BLOCK_ELEMENTS = 1 << 15


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


def _address_fields(layout, addresses: np.ndarray):
    """``(lines, tags, indices)`` of int64 addresses under ``layout``."""
    lines = addresses & ~np.int64((1 << layout.offset_bits) - 1)
    u = addresses.astype(np.uint64)
    indices = (u >> np.uint64(layout.offset_bits)) & np.uint64(
        (1 << layout.index_bits) - 1
    )
    tags = u >> np.uint64(layout.offset_bits + layout.index_bits)
    return lines, tags, indices


class _Lanes:
    """Fresh state of ``num_lanes`` independent cache sets, one per lane.

    ``lines`` is ``(ways, lanes)``, so every way gathers contiguously;
    ``-1`` marks an empty way.  Nothing is ever invalidated here, so a
    lane's filled ways are a prefix of way order: ``filled`` is both
    their count and the first invalid way, which a scalar fill claims
    before it asks the replacement policy.  ``engine`` holds the
    replacement state, addressed by each lane's ``(row, set)``.
    """

    def __init__(self, engine: VectorReplacement, num_lanes: int) -> None:
        self.engine = engine
        self.num_ways = engine.num_ways
        self.lines = np.full((self.num_ways, num_lanes), -1, dtype=np.int64)
        self.filled = np.zeros(num_lanes, dtype=np.int64)
        self._way_ids = np.arange(self.num_ways)[:, None]

    def step(self, lanes, lines, rows, sets) -> np.ndarray:
        """One access on each of distinct ``lanes``; the hit mask."""
        engine = self.engine
        match = np.take(self.lines, lanes, axis=1) == lines
        hit = np.logical_or.reduce(match, axis=0)
        hits = np.flatnonzero(hit)
        if hits.size:
            # A line is resident at most once per set, so the hit way
            # is the one matching way.
            ways = (match[:, hits] * self._way_ids).sum(axis=0)
            engine.touch_hits(rows[hits], sets[hits], ways)
        miss = np.flatnonzero(~hit)
        if miss.size:
            fills = lanes[miss]
            ways = self.filled[fills]
            conflict = ways == self.num_ways
            if conflict.any():
                victims = miss[conflict]
                ways[conflict] = engine.victim_ways(rows[victims],
                                                    sets[victims])
            self.filled[fills[~conflict]] += 1
            self.lines[ways, fills] = lines[miss]
            engine.touch_fills(rows[miss], sets[miss], ways)
        return hit


def _replay_rounds(replacement_name: str, num_ways: int, keys: np.ndarray,
                   lines: np.ndarray) -> np.ndarray:
    """Hit mask of accesses to fresh sets named by ``keys``, in rounds.

    Each distinct key is one lane (a ``(run, set)`` pair, or a set);
    the accesses come in each lane's access order.  A stable partition
    by lane, then by rank within the lane, makes round ``r`` the
    ``r``-th access of every lane.  Only the lanes that occur get
    state.
    """
    total = keys.size
    if total == 0:
        return np.zeros(0, dtype=bool)
    by_lane = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_lane]
    first = np.ones(total, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    position = np.arange(total)
    lanes = np.empty(total, dtype=np.int64)
    lanes[by_lane] = np.cumsum(first) - 1
    ranks = np.empty(total, dtype=np.int64)
    ranks[by_lane] = position - np.maximum.accumulate(
        np.where(first, position, 0)
    )
    order = np.argsort(ranks, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(ranks)))).tolist()
    num_lanes = int(lanes[by_lane[-1]]) + 1
    state = _Lanes(
        vector_replacement_by_name(replacement_name, num_lanes, 1, num_ways),
        num_lanes,
    )
    lanes, lines = lanes[order], lines[order]
    zeros = np.zeros(total, dtype=np.int64)
    hit = np.empty(total, dtype=bool)
    for start, end in zip(bounds[:-1], bounds[1:]):
        lane = lanes[start:end]
        hit[order[start:end]] = state.step(lane, lines[start:end], lane,
                                           zeros[start:end])
    return hit


class _LevelBatch:
    """One cache level of the hierarchy batch, over ``R`` runs.

    A set-local level replays in ``(run, set)`` rounds, one block of
    runs at a time, with state for the block's lanes only.  A random
    level replays in lockstep over every run's ``(run, set)`` lanes.
    """

    def __init__(self, geometry, placement_name: str, replacement_name: str,
                 num_runs: int) -> None:
        self.geometry = geometry
        self.layout = geometry.layout()
        self.placement = vector_placement(
            make_placement(placement_name, self.layout)
        )
        self.replacement_name = replacement_name
        self.rounds = replacement_name in _SET_LOCAL_NAMES
        self.seeds = VectorSeedRegister(num_runs)

    def sets_of(self, trace: TraceArrays, seeds, runs,
                accesses) -> np.ndarray:
        """Set of each ``(run, access)`` pair under the run's seed for
        the access's pid (``runs`` and ``accesses`` broadcast;
        ``seeds`` maps each pid to its per-row seeds)."""
        _, tags, indices = _address_fields(self.layout, trace.addresses)
        if len(seeds) == 1:
            (pid_seeds,) = seeds.values()
            row_seeds = pid_seeds[runs]
        else:
            runs, accesses = np.broadcast_arrays(runs, accesses)
            access_pids = trace.pids[accesses]
            row_seeds = np.empty(runs.shape, dtype=np.uint64)
            for pid, pid_seeds in seeds.items():
                mine = access_pids == pid
                row_seeds[mine] = pid_seeds[runs[mine]]
        return self.placement.map_sets(tags[accesses], indices[accesses],
                                       row_seeds)

    def replay(self, trace: TraceArrays, active: np.ndarray,
               runs_of_rows: np.ndarray) -> np.ndarray:
        """Hit mask of the ``active`` ``(row, access)`` elements
        (inactive elements read False); row ``i`` replays run
        ``runs_of_rows[i]``'s seeds."""
        seeds = {
            pid: self.seeds.seeds_for(pid)[runs_of_rows]
            for pid in np.unique(trace.pids).tolist()
        }
        hits = np.zeros(active.shape, dtype=bool)
        lines, _, _ = _address_fields(self.layout, trace.addresses)
        num_runs, length = active.shape
        num_sets, num_ways = self.geometry.num_sets, self.geometry.num_ways
        if self.rounds:
            block = max(1, _BLOCK_ELEMENTS // length)
            for lo in range(0, num_runs, block):
                runs, accesses = np.nonzero(active[lo:lo + block])
                runs += lo
                sets = self.sets_of(trace, seeds, runs, accesses)
                hits[runs, accesses] = _replay_rounds(
                    self.replacement_name, num_ways,
                    runs * num_sets + sets, lines[accesses],
                )
            return hits
        state = _Lanes(
            vector_replacement_by_name(
                self.replacement_name, num_runs, num_sets, num_ways
            ),
            num_runs * num_sets,
        )
        steps = np.flatnonzero(active.any(axis=0))
        runs = np.arange(num_runs)
        # (steps, R): one contiguous row of sets per lockstep access.
        sets = self.sets_of(trace, seeds, runs[None, :], steps[:, None])
        for step, a in enumerate(steps.tolist()):
            mine = np.flatnonzero(active[:, a])
            step_sets = sets[step, mine]
            hits[mine, a] = state.step(
                mine * num_sets + step_sets, np.full(mine.size, lines[a]),
                mine, step_sets,
            )
        return hits


class VectorHierarchyBatch:
    """``num_runs`` independent two-level hierarchies, replayed together.

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
            level.seeds.set_seed(run, seed, pid)

    def distinct_runs(self, trace: TraceArrays):
        """``(runs_of_rows, row_of_run)``: one representative run per
        distinct effective platform, and each run's row among them.

        A run's platform is its per-pid seeds at the levels whose
        placement reads a seed.  Random replacement adds nothing: every
        run restarts the same fixed draw stream.  So runs with equal
        keys replay identically, and only one of each is replayed.
        """
        pids = np.unique(trace.pids).tolist()
        keys = [
            level.seeds.seeds_for(pid)
            for level in (self.l1i, self.l1d, self.l2)
            if level.placement.reads_seed
            for pid in pids
        ]
        if not keys:
            return np.zeros(1, dtype=np.int64), np.zeros(self.num_runs,
                                                         dtype=np.int64)
        _, runs_of_rows, row_of_run = np.unique(
            np.stack(keys, axis=1), axis=0, return_index=True,
            return_inverse=True,
        )
        return runs_of_rows, row_of_run.reshape(-1)

    def run_trace(self, trace) -> np.ndarray:
        """Total memory latency of ``trace`` per run (``(R,)`` int64).

        ``trace`` is a :class:`~repro.common.trace.Trace` or its
        :class:`~repro.common.trace.TraceArrays`.  Call after all
        per-run seeds are set: the access→set mapping is computed under
        the final seeds.  Each distinct platform (:meth:`distinct_runs`)
        is replayed once and its time scattered to its runs.
        """
        arrays = trace_arrays(trace)
        lat = self.config.latencies
        if not len(arrays):
            return np.zeros(self.num_runs, dtype=np.int64)
        runs_of_rows, row_of_run = self.distinct_runs(arrays)
        shape = (runs_of_rows.size, len(arrays))
        ifetch = np.broadcast_to(arrays.is_ifetch, shape)
        l1_miss = ~(self.l1i.replay(arrays, ifetch, runs_of_rows)
                    | self.l1d.replay(arrays, ~ifetch, runs_of_rows))
        l2_miss = l1_miss & ~self.l2.replay(arrays, l1_miss, runs_of_rows)
        times = np.full(shape[0], len(arrays) * lat.l1_hit, dtype=np.int64)
        times += l1_miss.sum(axis=1) * lat.l2_hit
        times += l2_miss.sum(axis=1) * lat.memory
        return times[row_of_run]


#: Replacement classes whose per-set state is independent across sets,
#: which is what set rounds require.
_SET_LOCAL_REPLACEMENTS = (
    LRUReplacement,
    FIFOReplacement,
    NRUReplacement,
    TreePLRUReplacement,
)


def missrate_support(cache) -> Optional[str]:
    """``None`` when a cache can take the set-round replay, else why."""
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

    ``trace`` is a :class:`~repro.common.trace.Trace` or its
    :class:`~repro.common.trace.TraceArrays`.  ``cache`` must be
    factory-fresh, seeded, and inside :func:`missrate_support`'s
    envelope.  The cache object itself is only read (geometry,
    placement, seeds) — its scalar state is left untouched.
    """
    arrays = trace_arrays(trace)
    total = len(arrays)
    if total == 0:
        return 0, 0
    geometry = cache.geometry
    lines, tags, indices = _address_fields(geometry.layout(),
                                           arrays.addresses)
    seeds = np.empty(total, dtype=np.uint64)
    for pid in np.unique(arrays.pids).tolist():
        seeds[arrays.pids == pid] = np.uint64(cache.seeds.seed_for(pid))
    sets = vector_placement(cache.placement).map_sets(tags, indices, seeds)
    hits = _replay_rounds(cache.replacement.name, geometry.num_ways, sets,
                          lines)
    return total, total - int(np.count_nonzero(hits))
