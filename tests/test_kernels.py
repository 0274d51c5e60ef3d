"""Scalar-vs-vector equivalence suite for :mod:`repro.kernels`.

The batch kernels are only allowed to change throughput, never a
single outcome.  This module pins that down property-style (seeded,
shrink-free generators, as in ``test_cache_properties.py``):

* every vectorized placement adapter reproduces its scalar policy's
  ``map_set`` exactly, over random geometries, tags, indices and
  seeds (broadcast shapes included), Random Modulo on both its
  per-(tag, seed) table path and its per-element path;
* :class:`~repro.kernels.cache.VectorCacheBatch` replays random
  per-trial access traces with the same hit/miss sequence and the
  same final resident lines as a bank of scalar LRU caches;
* the batched Prime+Probe / Evict+Time executors return the exact
  correct-guess counts of the scalar trial loop, with and without a
  per-trial ``seed_victim`` hook, and independently of how a block is
  tiled;
* every vectorized replacement engine (LRU, FIFO, NRU, tree-PLRU,
  random in fixed-stream, per-lane-stream and counter-stream modes)
  and the RPCache batch (permutation placement + interference
  redirection) replay conflict-heavy traces bit-identically to banks
  of scalar caches, and the per-lane XorShift128 streams equal the scalar
  generator draw for draw (unsupported bounds carry a reason);
* the capability probe refuses everything outside the envelope
  (an externally-owned replacement PRNG, consumed draw streams,
  protected ranges, subclasses, wide hashRP lines) with a
  machine-readable reason, so a cell can never resolve to an unfaithful
  kernel and a scalar fallback is never silent (``--dry-run`` column,
  ``kernel_fallback`` telemetry event);
* the trace-replay kernels (pwcet (run, set) rounds with a lockstep
  random L1, missrate set rounds) reproduce the scalar per-access loops
  exactly, replaying each distinct platform once, and the missrate
  workload traces are built once per process;
* the envelope probe alone picks each cell's kernel (a ``kernel``
  spec param is rejected), and with every probe refusing, the golden
  contention, pwcet and missrate cells reproduce their frozen values
  on the scalar fallback.
"""

import random

import numpy as np
import pytest

from repro.attack.evict_time import EvictTimeAttack
from repro.attack.prime_probe import PrimeProbeAttack
from repro.cache.core import CacheGeometry, SetAssociativeCache
from repro.cache.placement import make_placement
from repro.cache.replacement import (
    RandomReplacement,
    make_replacement,
)
from repro.cache.rpcache import RPCache
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.prng import XorShift128
from repro.common.trace import MemoryAccess
from repro.kernels import (
    VectorCacheBatch,
    make_vector_batch,
    supports_vector_cache,
    vector_cache_support,
    vector_placement,
)
from repro.kernels.replacement import (
    FixedDrawTable,
    VectorRandom,
    XorShift128Lanes,
    lane_stream_support,
)

from test_cache_properties import (
    GEOMETRIES,
    PLACEMENTS,
    random_cases,
    stable_seed,
)
from test_golden_traces import (
    GOLDEN_CONTENTION,
    GOLDEN_MISSRATE,
    GOLDEN_PWCET,
    contention_specs,
    missrate_specs,
    pwcet_specs,
)


def build_lru_cache(geometry, policy_name):
    return SetAssociativeCache(
        geometry,
        make_placement(policy_name, geometry.layout()),
        make_replacement("lru", geometry.num_sets, geometry.num_ways),
    )


class TestVectorPlacementEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("geometry", GEOMETRIES,
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_map_sets_matches_scalar(self, policy_name, geometry):
        layout = geometry.layout()
        policy = make_placement(policy_name, layout)
        adapter = vector_placement(policy)
        assert adapter is not None
        for rng in random_cases(
            seed=stable_seed("vec", policy_name, geometry.total_size),
            count=10,
        ):
            tags = np.array(
                [rng.getrandbits(layout.tag_bits) for _ in range(40)],
                dtype=np.uint64,
            )
            indices = np.array(
                [rng.randrange(geometry.num_sets) for _ in range(40)],
                dtype=np.uint64,
            )
            seeds = np.array(
                [rng.getrandbits(64) for _ in range(40)], dtype=np.uint64
            )
            got = adapter.map_sets(tags, indices, seeds)
            expected = [
                policy.map_set(int(t), int(i), int(s))
                for t, i, s in zip(tags, indices, seeds)
            ]
            assert got.tolist() == expected

    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    def test_broadcast_matches_pairwise(self, policy_name):
        """(A,) addresses x (T,) seeds broadcast to the (T, A) grid of
        scalar calls — the shape the cache kernel leans on."""
        geometry = GEOMETRIES[0]
        layout = geometry.layout()
        policy = make_placement(policy_name, layout)
        adapter = vector_placement(policy)
        rng = random.Random(stable_seed("bcast", policy_name))
        tags = np.array([rng.getrandbits(layout.tag_bits)
                         for _ in range(6)], dtype=np.uint64)
        indices = np.array([rng.randrange(geometry.num_sets)
                            for _ in range(6)], dtype=np.uint64)
        seeds = np.array([rng.getrandbits(64) for _ in range(5)],
                         dtype=np.uint64)
        grid = adapter.map_sets(
            tags[None, :], indices[None, :], seeds[:, None]
        )
        assert grid.shape == (5, 6)
        for t in range(5):
            for a in range(6):
                assert grid[t, a] == policy.map_set(
                    int(tags[a]), int(indices[a]), int(seeds[t])
                )


class TestRandomModuloTables:
    """Random Modulo maps few distinct ``(tag, seed)`` pairs through
    per-pair set tables and everything else element by element; both
    paths equal the scalar ``map_set``."""

    @staticmethod
    def check(geometry, tags, indices, seeds, table_path, page_size=4096):
        policy = make_placement("random_modulo", geometry.layout(),
                                page_size=page_size)
        adapter = vector_placement(policy)
        built = []
        tables = adapter._tables
        adapter._tables = lambda *args: built.append(1) or tables(*args)
        got = adapter.map_sets(tags, indices, seeds)
        assert bool(built) == table_path
        bt, bi, bs = np.broadcast_arrays(np.asarray(tags, np.uint64),
                                         np.asarray(indices, np.uint64),
                                         np.asarray(seeds, np.uint64))
        assert got.shape == bt.shape and got.dtype == np.int64
        expected = [policy.map_set(int(t), int(i), int(s))
                    for t, i, s in zip(bt.ravel(), bi.ravel(), bs.ravel())]
        assert got.ravel().tolist() == expected

    @staticmethod
    def draws(rng, count, bits):
        return np.array([rng.getrandbits(bits) for _ in range(count)],
                        dtype=np.uint64)

    @pytest.mark.parametrize("distinct_tags,table_path",
                             [(3, True), (None, False)],
                             ids=["few-tags", "all-distinct"])
    def test_outer_product(self, distinct_tags, table_path):
        """``(S, 1)`` accesses x ``(1, R)`` run seeds: the pwcet
        lockstep and epoch-replay shape."""
        geometry = GEOMETRIES[2]
        layout = geometry.layout()
        rng = random.Random(stable_seed("rm-outer", str(distinct_tags)))
        tags = self.draws(rng, 96, layout.tag_bits)
        if distinct_tags is not None:
            tags %= np.uint64(distinct_tags)
        indices = self.draws(rng, 96, layout.index_bits)
        seeds = self.draws(rng, 24, 64)
        self.check(geometry, tags[:, None], indices[:, None],
                   seeds[None, :], table_path)

    def test_per_element_seeds(self):
        """One seed per element (the contention trials): no table."""
        geometry = GEOMETRIES[0]
        layout = geometry.layout()
        rng = random.Random(stable_seed("rm-1d"))
        tags = self.draws(rng, 200, 2)
        self.check(geometry, tags, self.draws(rng, 200, layout.index_bits),
                   self.draws(rng, 200, 64), table_path=False)

    @pytest.mark.parametrize("tags_shape,table_path",
                             [((64, 1), True), ((64, 16), False)])
    def test_scalar_seed(self, tags_shape, table_path):
        geometry = GEOMETRIES[2]
        layout = geometry.layout()
        rng = random.Random(stable_seed("rm-scalar", str(tags_shape)))
        tags = self.draws(rng, int(np.prod(tags_shape)), 2).reshape(
            tags_shape)
        indices = self.draws(rng, 64 * 16, layout.index_bits).reshape(64, 16)
        self.check(geometry, tags, indices, np.uint64(rng.getrandbits(64)),
                   table_path)

    @pytest.mark.parametrize("tag_bits,table_path", [(1, True), (8, False)])
    def test_2048_sets(self, tag_bits, table_path):
        """2**11-entry tables: worth building only when few pairs cover
        many elements."""
        geometry = CacheGeometry(256 * 1024, 4, 32)
        layout = geometry.layout()
        assert geometry.num_sets == 2048
        rng = random.Random(stable_seed("rm-2048", tag_bits))
        tags = self.draws(rng, 2048, tag_bits)
        indices = self.draws(rng, 2048, layout.index_bits)
        self.check(geometry, tags[:, None], indices[:, None],
                   self.draws(rng, 4, 64)[None, :], table_path,
                   page_size=geometry.num_sets * geometry.line_size)


class TestVectorCacheEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("geometry", GEOMETRIES[:3],
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_trace_replay_bit_identical(self, policy_name, geometry):
        """Same per-trial traces, same hit sequence, same final state."""
        num_trials, steps = 8, 160
        for rng in random_cases(
            seed=stable_seed("trace", policy_name, geometry.total_size),
            count=3,
        ):
            scalars = []
            template = build_lru_cache(geometry, policy_name)
            batch = VectorCacheBatch(
                geometry, vector_placement(template.placement), num_trials
            )
            batch.init_seeds(template.seeds)
            for trial in range(num_trials):
                cache = build_lru_cache(geometry, policy_name)
                for pid in (1, 2):
                    seed = rng.getrandbits(32)
                    cache.set_seed(seed, pid=pid)
                    batch.set_seed(trial, seed, pid=pid)
                scalars.append(cache)
            lines = [rng.getrandbits(22) * geometry.line_size
                     for _ in range(24)]
            for _ in range(steps):
                pid = rng.choice((1, 2))
                addresses = np.array(
                    [rng.choice(lines) for _ in range(num_trials)],
                    dtype=np.int64,
                )
                got = batch.access(addresses, pid)
                expected = [
                    scalars[t].access(
                        MemoryAccess(int(addresses[t]), pid=pid)
                    ).hit
                    for t in range(num_trials)
                ]
                assert got.tolist() == expected
            for trial in range(num_trials):
                assert (
                    batch.resident_lines(trial)
                    == scalars[trial].resident_lines()
                )


def replay_trace_check(factory, num_trials=6, steps=200, seed_parts=()):
    """Replay a conflict-heavy random trace through ``num_trials``
    scalar caches and the matched vector batch; assert every hit bit
    and the final resident lines agree.  Returns the scalar caches so
    callers can assert the interesting path (draws, redirects) was
    actually exercised."""
    batch = make_vector_batch(factory(), num_trials)
    assert batch is not None
    scalars = [factory() for _ in range(num_trials)]
    return replay_pair_check(batch, scalars, steps, seed_parts)


def replay_pair_check(batch, scalars, steps=200, seed_parts=()):
    """:func:`replay_trace_check` over a ready batch and its scalar
    caches, one per trial (for trials whose caches differ)."""
    num_trials = len(scalars)
    geometry = scalars[0].geometry
    rng = random.Random(stable_seed("replay", *seed_parts))
    # ~2x capacity so conflict misses (the draw-consuming path) occur.
    pool = [rng.getrandbits(22) * geometry.line_size
            for _ in range(2 * geometry.num_sets * geometry.num_ways)]
    for _ in range(steps):
        pid = rng.choice((1, 2))
        addresses = np.array(
            [rng.choice(pool) for _ in range(num_trials)], dtype=np.int64
        )
        got = batch.access(addresses, pid)
        expected = [
            scalars[t].access(
                MemoryAccess(int(addresses[t]), pid=pid)
            ).hit
            for t in range(num_trials)
        ]
        assert got.tolist() == expected
    for trial in range(num_trials):
        assert batch.resident_lines(trial) == scalars[trial].resident_lines()
    return scalars


class TestReplacementEquivalence:
    """Every replacement engine, scalar vs vector, under conflict
    pressure — the draw-sequencing cases the original LRU-only suite
    never reached."""

    @pytest.mark.parametrize("replacement_name",
                             ("fifo", "nru", "plru", "random"))
    @pytest.mark.parametrize("policy_name", ("modulo", "random_modulo"))
    @pytest.mark.parametrize("geometry", GEOMETRIES[:3],
                             ids=lambda g: f"{g.total_size}B/{g.num_ways}w")
    def test_trace_replay_bit_identical(self, replacement_name,
                                        policy_name, geometry):
        def factory():
            return SetAssociativeCache(
                geometry,
                make_placement(policy_name, geometry.layout()),
                make_replacement(replacement_name, geometry.num_sets,
                                 geometry.num_ways),
            )

        scalars = replay_trace_check(
            factory,
            seed_parts=(replacement_name, policy_name, geometry.total_size),
        )
        if replacement_name == "random":
            # Guard against a degenerate trace: the fixed draw stream
            # must actually have been consumed for this to prove
            # anything about sequencing.
            assert scalars[0].replacement.draws_consumed > 0

    def test_per_lane_random_streams_bit_identical(self):
        """Random replacement where every trial's cache owns its own
        seeded XorShift128 (the Bernstein epoch caches): a per-lane
        draw table replays each trial's stream."""
        geometry = GEOMETRIES[0]
        seeds = [0, 1, 0x5EED_BA5E, (1 << 64) - 1, 0xA77A, 12345]

        def cache(seed):
            return SetAssociativeCache(
                geometry,
                make_placement("random_modulo", geometry.layout()),
                RandomReplacement(geometry.num_sets, geometry.num_ways,
                                  prng=XorShift128(seed)),
            )

        template = cache(0)
        lanes = len(seeds)
        batch = VectorCacheBatch(
            geometry, vector_placement(template.placement), lanes,
            replacement=VectorRandom(
                lanes, geometry.num_sets, geometry.num_ways,
                FixedDrawTable(XorShift128Lanes(seeds), geometry.num_ways),
            ),
        )
        scalars = replay_pair_check(
            batch, [cache(seed) for seed in seeds], seed_parts=("lanes",)
        )
        assert all(c.replacement.draws_consumed > 0 for c in scalars)

    def test_rpcache_trace_replay_bit_identical(self):
        """RPCache's permutation-table placement plus the randomized
        cross-process interference redirects, trial-parallel."""
        geometry = CacheGeometry(total_size=2048, num_ways=4, line_size=32)
        scalars = replay_trace_check(
            lambda: RPCache(geometry), seed_parts=("rpcache",)
        )
        # The interference stream must actually have fired.
        assert sum(c.randomized_evictions for c in scalars) > 0


class TestLaneStreams:
    """The vectorised per-lane XorShift128 behind per-epoch random
    replacement streams."""

    #: Small seeds, seeds near the 64-bit wrap (and negative ones,
    #: which the scalar reseed wraps the same way) and random ones.
    SEEDS = (
        list(range(64))
        + [(1 << 64) - 1 - i for i in range(64)]
        + [(1 << 63) + i - 32 for i in range(32)]
        + [-1 - i for i in range(32)]
        + [random.Random(5).getrandbits(64) for _ in range(64)]
    )

    @pytest.mark.parametrize("bound,draws", [(4, 1024), (2, 64), (128, 64),
                                             (1 << 32, 64)])
    def test_matches_scalar_next_below(self, bound, draws):
        assert len(self.SEEDS) >= 256
        lanes = XorShift128Lanes(self.SEEDS)
        got = np.stack([lanes.next_below(bound) for _ in range(draws)],
                       axis=1)
        for lane, seed in enumerate(self.SEEDS):
            prng = XorShift128(seed)
            expected = [prng.next_below(bound) for _ in range(draws)]
            assert got[lane].tolist() == expected, seed

    def test_integer_array_seeds_match_python_ints(self):
        seeds = np.array([0, 7, -3, 1 << 40], dtype=np.int64)
        from_array = XorShift128Lanes(seeds).next_below(4)
        from_ints = XorShift128Lanes([int(s) for s in seeds]).next_below(4)
        assert from_array.tolist() == from_ints.tolist()

    def test_per_lane_table_reads_each_lane_stream(self):
        seeds = [3, 4, 5]
        table = FixedDrawTable(XorShift128Lanes(seeds), 4)
        positions = np.array([0, 130, 7])
        got = table.take(positions, np.array([0, 1, 2]))
        for value, seed, position in zip(got, seeds, positions):
            prng = XorShift128(seed)
            draws = [prng.next_below(4) for _ in range(position + 1)]
            assert value == draws[-1]

    @pytest.mark.parametrize("bound,reason", [
        (3, "replacement:random-lanes-non-power-of-two-bound"),
        (6, "replacement:random-lanes-non-power-of-two-bound"),
        (1, "replacement:random-lanes-bound-out-of-range"),
        (1 << 33, "replacement:random-lanes-bound-out-of-range"),
    ])
    def test_unsupported_bound_has_envelope_reason(self, bound, reason):
        """Rejection sampling would desynchronise the lanes: such
        bounds are refused with a reason, never replayed wrongly."""
        assert lane_stream_support(bound) == reason
        assert lane_stream_support(4) is None
        with pytest.raises(ValueError, match=reason):
            XorShift128Lanes([1, 2]).next_below(bound)
        with pytest.raises(ValueError, match=reason):
            FixedDrawTable(XorShift128Lanes([1, 2]), bound)


def contention_geometry():
    return CacheGeometry(total_size=2048, num_ways=4, line_size=32)


def make_attack(attack_cls, policy_name, seed=2018, **kwargs):
    geometry = contention_geometry()

    def factory():
        return build_lru_cache(geometry, policy_name)

    return attack_cls(cache_factory=factory, seed=seed, **kwargs)


def per_trial_seeder(victim_pid=1, attacker_pid=2):
    def seeder(cache, trial):
        cache.set_seed(stable_seed("v", trial), pid=victim_pid)
        cache.set_seed(stable_seed("a", trial), pid=attacker_pid)

    return seeder


class TestTrialBlockEquivalence:
    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("hooked", [False, True],
                             ids=["fixed-seeds", "per-trial-seeds"])
    def test_prime_probe_counts_match(self, policy_name, hooked):
        seeder = per_trial_seeder() if hooked else None
        attack = make_attack(PrimeProbeAttack, policy_name, num_entries=16)
        assert attack._run_block_vector(0, 48, seeder) \
            == attack._run_block_scalar(0, 48, seeder)

    @pytest.mark.parametrize("policy_name", PLACEMENTS)
    @pytest.mark.parametrize("hooked", [False, True],
                             ids=["fixed-seeds", "per-trial-seeds"])
    def test_evict_time_counts_match(self, policy_name, hooked):
        seeder = per_trial_seeder() if hooked else None
        attack = make_attack(EvictTimeAttack, policy_name, num_entries=8)
        assert attack._run_block_vector(0, 12, seeder) \
            == attack._run_block_scalar(0, 12, seeder)

    def test_block_tiling_is_invisible(self):
        """Any block-aligned tiling sums to the whole-block count —
        the property sharded campaigns rely on."""
        attack = make_attack(PrimeProbeAttack, "random_modulo",
                             num_entries=16)
        seeder = per_trial_seeder()
        whole = attack.run_block(0, 40, 40, seeder).correct
        tiled = sum(
            attack.run_block(start, end, 40, seeder).correct
            for start, end in ((0, 7), (7, 16), (16, 33), (33, 40))
        )
        assert whole == tiled


class TestVectorEnvelope:
    def test_lru_cache_is_inside(self):
        assert supports_vector_cache(
            build_lru_cache(contention_geometry(), "random_modulo")
        )

    def _random_cache(self, **kwargs):
        geometry = contention_geometry()
        return SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            RandomReplacement(geometry.num_sets, geometry.num_ways,
                              **kwargs),
        )

    def test_stock_random_replacement_is_inside(self):
        """Every fresh stock instance restarts the same fixed draw
        stream, which the vector engine replays from a shared table."""
        assert supports_vector_cache(self._random_cache())

    def test_custom_prng_random_is_outside(self):
        """An externally-owned PRNG may have unknown state — the probe
        refuses with the documented reason."""
        cache = self._random_cache(prng=XorShift128(seed=99))
        assert vector_cache_support(cache) == \
            "replacement:random-custom-prng"

    def test_consumed_draw_stream_is_outside(self):
        """A cache whose replacement already drew is mid-stream; the
        shared-table replay would desequence it."""
        cache = self._random_cache()
        cache.replacement.victim_way(0)
        assert vector_cache_support(cache) == \
            "replacement:random-stream-consumed"

    def test_rpcache_is_inside(self):
        assert supports_vector_cache(RPCache(contention_geometry()))

    def test_rpcache_custom_tables_are_outside(self):
        rp = RPCache(contention_geometry())
        rp.assign_table(1, 5)
        assert vector_cache_support(rp) == "rpcache:custom-table-assignment"

    def test_rpcache_non_lru_replacement_is_outside(self):
        """The scalar RPCache fill consults victim_way twice per
        redirected conflict — safe only for stateless-read LRU."""
        rp = RPCache(contention_geometry(), replacement_name="random")
        assert vector_cache_support(rp) == "rpcache:replacement-random"

    def test_rpcache_consumed_interference_is_outside(self):
        rp = RPCache(contention_geometry())
        rp.randomized_evictions = 1
        assert vector_cache_support(rp) == \
            "rpcache:interference-stream-consumed"

    def test_protected_ranges_are_outside(self):
        cache = build_lru_cache(contention_geometry(), "modulo")
        cache.protect_range(0, 4096)
        assert not supports_vector_cache(cache)

    def test_subclass_is_outside(self):
        geometry = contention_geometry()

        class Widened(SetAssociativeCache):
            pass

        cache = Widened(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert not supports_vector_cache(cache)

    def test_wide_hashrp_lines_have_no_vector_twin(self):
        """line_bits > 32 would overflow uint64 shifts; the adapter
        refuses and the escape hatch covers it."""
        geometry = CacheGeometry(
            total_size=2048, num_ways=4, line_size=32, address_bits=40
        )
        policy = make_placement("hashrp", geometry.layout())
        assert vector_placement(policy) is None
        cache = SetAssociativeCache(
            geometry, policy,
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert not supports_vector_cache(cache)

    def test_hook_needing_real_cache_falls_back(self):
        """A seed_victim hook that touches more than set_seed pushes
        the block to the scalar path — same counts, via run_trial."""
        attack = make_attack(PrimeProbeAttack, "modulo", num_entries=16)

        def nosy_seeder(cache, trial):
            cache.set_seed(trial, pid=1)
            cache.flush()  # not part of the proxy surface

        assert attack._run_block_vector(0, 8, nosy_seeder) is None
        assert attack.run_block(0, 8, 8, nosy_seeder).correct \
            == attack._run_block_scalar(0, 8, nosy_seeder)


class TestKernelSeam:
    def test_kernel_param_rejected(self):
        """The envelope probe picks the kernel.  A leftover ``kernel``
        param would silently change the cell's spec_hash and seed
        stream, so it is refused, also off the wire."""
        base = ExperimentSpec(kind="prime_probe", setup="tscache",
                              num_samples=64, seed=2018)
        with pytest.raises(ValueError, match="'kernel' param"):
            ExperimentSpec(kind="prime_probe", setup="tscache",
                           params={"kernel": "vector"})
        with pytest.raises(ValueError, match="'kernel' param"):
            base.with_params(kernel="scalar")
        doc = base.to_doc()
        doc["params"].append(["kernel", "auto"])
        with pytest.raises(ValueError, match="'kernel' param"):
            ExperimentSpec.from_doc(doc)

    def test_golden_cells_on_scalar_fallback(self, monkeypatch):
        """With all three envelope probes refusing, every golden
        contention, pwcet and missrate cell runs its scalar reference
        path, reproduces its frozen values, and journals exactly one
        kernel_fallback event."""
        import repro.kernels.replay as replay_mod
        import repro.kernels.trials as trials_mod
        from repro.telemetry.sink import RecordingSink

        def refuse(_):
            return "test:probe-refused"

        monkeypatch.setattr(trials_mod, "vector_cache_support", refuse)
        monkeypatch.setattr(replay_mod, "hierarchy_support", refuse)
        monkeypatch.setattr(replay_mod, "missrate_support", refuse)
        specs = contention_specs() + pwcet_specs() + missrate_specs()
        sink = RecordingSink()
        for cell in CampaignRunner(telemetry=sink).run(specs):
            spec, payload = cell.spec, cell.payload
            if spec.kind == "pwcet":
                assert np.array_equal(
                    payload.times, np.array(GOLDEN_PWCET[spec.setup])
                )
            elif spec.kind == "missrate":
                key = (spec.param("policy"), spec.param("workload"),
                       spec.param("replacement"))
                assert (payload.accesses, payload.misses) \
                    == GOLDEN_MISSRATE[key]
            else:
                assert (payload.trials, payload.correct) \
                    == GOLDEN_CONTENTION[(spec.kind, spec.setup)]
        events = sink.of_type("kernel_fallback")
        assert sorted(event["cell"] for event in events) \
            == sorted(spec.cell_id for spec in specs)
        assert {(event["kernel"], event["reason"]) for event in events} \
            == {("scalar", "test:probe-refused")}

    def test_dry_run_plan_reports_resolved_kernels(self):
        runner = CampaignRunner()
        specs = [
            # rpcache, the random setups and the replay kinds are all
            # in-envelope: every cell resolves vector.
            ExperimentSpec(kind="prime_probe", setup="deterministic",
                           num_samples=8, seed=1),
            ExperimentSpec(kind="prime_probe", setup="rpcache",
                           num_samples=8, seed=1),
            ExperimentSpec(kind="prime_probe", setup="mbpta",
                           num_samples=8, seed=1),
            ExperimentSpec(kind="pwcet", setup="tscache",
                           num_samples=4, seed=1),
            ExperimentSpec(kind="missrate", seed=1,
                           params={"policy": "modulo",
                                   "workload": "stride"}),
            ExperimentSpec(kind="bernstein", setup="tscache",
                           num_samples=1024, seed=1),
        ]
        plans = runner.plan(specs)
        kernels = [plan.kernel for plan in plans]
        assert kernels == ["vector"] * 6
        assert all(plan.kernel_reason is None for plan in plans)

    def test_dry_run_plan_reports_fallback_reason(self):
        """A missrate cell with random replacement cannot replay
        set-parallel — the plan carries the machine-readable reason."""
        runner = CampaignRunner()
        spec = ExperimentSpec(
            kind="missrate", seed=1,
            params={"policy": "modulo", "workload": "stride",
                    "replacement": "random"},
        )
        plan = runner.plan([spec])[0]
        assert plan.kernel == "scalar"
        assert plan.kernel_reason == \
            "replacement:random-draws-globally-sequenced"

    def test_kernel_fallback_event_journaled(self):
        """Scalar fallbacks are never silent: the runner journals one
        schema-valid kernel_fallback event per falling-back cell."""
        from repro.telemetry.events import EVENT_SCHEMA
        from repro.telemetry.sink import RecordingSink

        sink = RecordingSink()
        runner = CampaignRunner(telemetry=sink)
        runner.run([
            ExperimentSpec(
                kind="missrate", seed=1,
                params={"policy": "modulo", "workload": "stride",
                        "replacement": "random"},
            ),
            ExperimentSpec(
                kind="missrate", seed=1,
                params={"policy": "modulo", "workload": "stride"},
            ),
        ])
        events = sink.of_type("kernel_fallback")
        assert len(events) == 1
        assert events[0]["kernel"] == "scalar"
        assert events[0]["reason"] == \
            "replacement:random-draws-globally-sequenced"
        assert EVENT_SCHEMA["kernel_fallback"] <= set(events[0])


class TestWorkloadMemo:
    """Each missrate workload trace is built once per process and
    shared read-only by every cell of that workload."""

    @pytest.fixture
    def fresh_memo(self, monkeypatch):
        from repro.campaigns import experiments

        monkeypatch.setattr(experiments, "_WORKLOAD_ARRAYS", {})
        return experiments

    def test_arrays_are_read_only(self, fresh_memo):
        arrays = fresh_memo.workload_arrays("random")
        for array in (arrays.addresses, arrays.pids, arrays.kinds):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_arrays_equal_a_fresh_build(self, fresh_memo):
        from repro.common.trace import trace_arrays

        for name, builder in fresh_memo.WORKLOAD_BUILDERS.items():
            memo = fresh_memo.workload_arrays(name)
            fresh = trace_arrays(builder())
            for field in ("addresses", "pids", "kinds"):
                assert np.array_equal(getattr(memo, field),
                                      getattr(fresh, field)), (name, field)
            assert fresh_memo.workload_arrays(name) is memo

    def test_grid_builds_each_workload_once(self, fresh_memo, monkeypatch):
        from repro.campaigns import build_campaign

        calls = {}
        for name, builder in list(fresh_memo.WORKLOAD_BUILDERS.items()):
            def counted(name=name, builder=builder):
                calls[name] = calls.get(name, 0) + 1
                return builder()

            monkeypatch.setitem(fresh_memo.WORKLOAD_BUILDERS, name, counted)
        specs = build_campaign("missrates")
        assert len(specs) == 16
        cells = CampaignRunner().run(specs)
        assert len(cells) == 16
        workloads = {spec.param("workload") for spec in specs}
        assert calls == {name: 1 for name in workloads}


class TestReplayKernels:
    """The batched trace-replay kernels, through the public experiment
    kinds (so seeding, trace construction and payload assembly are the
    campaign's own), against the kinds' scalar reference loops."""

    @pytest.mark.parametrize("setup", ("deterministic", "rpcache",
                                       "mbpta", "tscache"))
    @pytest.mark.parametrize("reseed", [True, False],
                             ids=["reseeding", "fixed-platform"])
    def test_pwcet_times_bit_identical(self, setup, reseed):
        from repro.campaigns.experiments import (
            _pwcet_times_scalar,
            _pwcet_trace,
            run_pwcet,
        )

        spec = ExperimentSpec(
            kind="pwcet", setup=setup, num_samples=5, seed=7,
            params={"analyse": False, "reseed": reseed},
        )
        scalar = _pwcet_times_scalar(spec, _pwcet_trace(spec), 0, 5)
        vector = run_pwcet(spec).times
        assert scalar.dtype == vector.dtype
        assert np.array_equal(scalar, vector)

    @pytest.mark.parametrize("policy", PLACEMENTS)
    @pytest.mark.parametrize("replacement", ("lru", "fifo", "nru", "plru"))
    def test_missrate_counters_bit_identical(self, policy, replacement):
        from repro.campaigns.experiments import (
            _missrate_counts_scalar,
            _missrate_inputs,
            run_missrate,
        )

        spec = ExperimentSpec(
            kind="missrate", seed=0x1234, num_samples=1,
            params={"policy": policy, "workload": "stride",
                    "replacement": replacement},
        )
        vector = run_missrate(spec)
        assert _missrate_counts_scalar(*_missrate_inputs(spec)) == \
            (vector.accesses, vector.misses)

    def test_missrate_interleaved_sets_bit_identical(self):
        """A reuse workload interleaves sets heavily — the round
        scheduler must preserve in-set access order exactly."""
        from repro.campaigns.experiments import (
            _missrate_counts_scalar,
            _missrate_inputs,
            run_missrate,
        )

        spec = ExperimentSpec(
            kind="missrate", seed=0x1234, num_samples=1,
            params={"policy": "random_modulo", "workload": "reuse",
                    "replacement": "plru"},
        )
        vector = run_missrate(spec)
        assert _missrate_counts_scalar(*_missrate_inputs(spec)) == \
            (vector.accesses, vector.misses)

    @staticmethod
    def _rounds_and_scalar(spec, trace, start, end):
        from repro.campaigns.experiments import (
            _pwcet_times_scalar,
            _pwcet_times_vector,
        )

        return (_pwcet_times_vector(spec, trace, start, end),
                _pwcet_times_scalar(spec, trace, start, end))

    @staticmethod
    def _mixed_trace():
        """IFETCH and data accesses under pids 0 and 1.

        Each pattern re-hits a line ``x`` in L1 between fills of four
        lines that share its L1 and modulo-L2 set, then evicts it from
        L1 only.  Its last access misses L2 only if the L2 never saw
        the L1 hits, so an L2 fed every access reads a different time.
        """
        from repro.common.trace import AccessType, Trace

        trace = Trace(name="mixed")
        patterns = (
            (0x0010_0000, AccessType.LOAD, 0),
            (0x0020_0040, AccessType.IFETCH, 1),
            (0x0030_0080, AccessType.STORE, 1),
            (0x0040_00C0, AccessType.IFETCH, 0),
        )
        for x, kind, pid in patterns:
            def touch(address):
                trace.append(MemoryAccess(address, kind, 4, pid))

            for k in range(1, 5):
                touch(x)
                touch(x + k * 0x10000)  # same L1 and modulo-L2 set
            for j in range(1, 5):
                touch(x + j * 0x1000)  # same L1 set, other L2 sets
            touch(x)
        return trace

    def test_rounds_match_scalar_on_every_setup(self):
        """Lockstep random L1 (mbpta, tscache) or L1 rounds
        (deterministic, rpcache), then L2 rounds over the L1 misses,
        at 32 runs."""
        from repro.campaigns.experiments import _pwcet_trace

        for setup in ("deterministic", "rpcache", "mbpta", "tscache"):
            spec = ExperimentSpec(kind="pwcet", setup=setup,
                                  num_samples=32, seed=31,
                                  params={"analyse": False})
            rounds, scalar = self._rounds_and_scalar(
                spec, _pwcet_trace(spec), 0, 32
            )
            assert np.array_equal(rounds, scalar), setup

    def test_fixed_platform_matches_scalar(self):
        """``reseed=False``: every run keeps the reset seeds."""
        for setup in ("deterministic", "rpcache", "mbpta", "tscache"):
            spec = ExperimentSpec(kind="pwcet", setup=setup,
                                  num_samples=8, seed=31,
                                  params={"analyse": False,
                                          "reseed": False})
            rounds, scalar = self._rounds_and_scalar(
                spec, self._mixed_trace(), 0, 8
            )
            assert np.array_equal(rounds, scalar), setup

    def test_shard_split_matches_whole_budget(self):
        from repro.campaigns.experiments import _pwcet_trace

        spec = ExperimentSpec(kind="pwcet", setup="mbpta", num_samples=32,
                              seed=31, params={"analyse": False})
        trace = _pwcet_trace(spec)
        head, _ = self._rounds_and_scalar(spec, trace, 0, 13)
        tail, _ = self._rounds_and_scalar(spec, trace, 13, 32)
        whole, scalar = self._rounds_and_scalar(spec, trace, 0, 32)
        assert np.array_equal(np.concatenate([head, tail]), whole)
        assert np.array_equal(whole, scalar)

    def test_mixed_kinds_and_pids_match_scalar(self):
        for setup in ("deterministic", "rpcache", "mbpta", "tscache"):
            spec = ExperimentSpec(kind="pwcet", setup=setup,
                                  num_samples=8, seed=31,
                                  params={"analyse": False})
            rounds, scalar = self._rounds_and_scalar(
                spec, self._mixed_trace(), 0, 8
            )
            assert np.array_equal(rounds, scalar), setup

    def test_per_pid_seeds_match_scalar(self):
        """Runs with a pid-1 seed override map each pid under its own
        seed, at every level."""
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.setups import setup_hierarchy_config
        from repro.kernels import VectorHierarchyBatch

        trace = self._mixed_trace()
        for setup in ("deterministic", "tscache"):
            config = setup_hierarchy_config(setup)
            batch = VectorHierarchyBatch(config, 6)
            scalar = []
            for run in range(6):
                batch.set_seeds(run, 1000 + run)
                batch.set_seeds(run, 77 * run + 5, pid=1)
                hierarchy = CacheHierarchy(config)
                hierarchy.set_seeds(1000 + run)
                hierarchy.set_seeds(77 * run + 5, pid=1)
                scalar.append(hierarchy.run_trace(trace))
            assert batch.run_trace(trace).tolist() == scalar, setup

    @pytest.fixture
    def replayed_rows(self, monkeypatch):
        """Rows each ``_LevelBatch.replay`` call sees, in call order."""
        from repro.kernels import replay

        rows = []
        original = replay._LevelBatch.replay

        def counted(level, trace, active, runs_of_rows):
            rows.append(active.shape[0])
            return original(level, trace, active, runs_of_rows)

        monkeypatch.setattr(replay._LevelBatch, "replay", counted)
        return rows

    @pytest.mark.parametrize("setup,rows", [
        ("deterministic", 1), ("rpcache", 1), ("mbpta", 300),
    ])
    def test_each_distinct_platform_replays_once(self, replayed_rows,
                                                 setup, rows):
        """Modulo placement never reads the seed, so the deterministic
        and rpcache hierarchies replay one row for 300 runs."""
        from repro.campaigns.experiments import (
            _pwcet_times_vector,
            _pwcet_trace,
        )

        spec = ExperimentSpec(kind="pwcet", setup=setup, num_samples=300,
                              seed=7, params={"analyse": False})
        times = _pwcet_times_vector(spec, _pwcet_trace(spec), 0, 300)
        assert times.shape == (300,)
        assert replayed_rows == [rows] * 3  # l1i, l1d, l2

    def test_fixed_platform_replays_one_row(self, replayed_rows):
        from repro.campaigns.experiments import (
            _pwcet_times_scalar,
            _pwcet_trace,
        )

        spec = ExperimentSpec(kind="pwcet", setup="mbpta", num_samples=6,
                              seed=7, params={"analyse": False,
                                              "reseed": False})
        rounds, scalar = self._rounds_and_scalar(spec, _pwcet_trace(spec),
                                                 0, 6)
        assert replayed_rows == [1] * 3
        assert np.array_equal(rounds, scalar)

    def test_repeated_seeds_replay_once_each(self, replayed_rows):
        """Runs sharing a seed share a row; each run still gets its own
        platform's time back."""
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.setups import setup_hierarchy_config
        from repro.kernels import VectorHierarchyBatch
        from repro.workloads.generators import multi_page_task_trace

        trace = multi_page_task_trace()
        seeds = [4, 9, 4, 31, 9, 4, 2]
        config = setup_hierarchy_config("tscache")
        batch = VectorHierarchyBatch(config, len(seeds))
        scalar = []
        for run, seed in enumerate(seeds):
            batch.set_seeds(run, seed)
            hierarchy = CacheHierarchy(config)
            hierarchy.set_seeds(seed)
            scalar.append(hierarchy.run_trace(trace))
        assert batch.run_trace(trace).tolist() == scalar
        assert replayed_rows == [len(set(seeds))] * 3
        assert len(set(scalar)) > 1

    def test_replay_reads_trace_arrays(self):
        """A Trace and its TraceArrays replay identically."""
        from repro.common.trace import trace_arrays
        from repro.core.setups import setup_hierarchy_config
        from repro.kernels import VectorHierarchyBatch

        trace = self._mixed_trace()
        times = []
        for replayed in (trace, trace_arrays(trace)):
            batch = VectorHierarchyBatch(setup_hierarchy_config("mbpta"), 4)
            for run in range(4):
                batch.set_seeds(run, run + 1)
            times.append(batch.run_trace(replayed))
        assert np.array_equal(*times)

    def test_hierarchy_support_reasons(self):
        import dataclasses

        from repro.core.setups import setup_hierarchy_config
        from repro.kernels import hierarchy_support

        for setup in ("deterministic", "rpcache", "mbpta", "tscache"):
            assert hierarchy_support(setup_hierarchy_config(setup)) is None
        config = dataclasses.replace(
            setup_hierarchy_config("deterministic"), l1_replacement="mru"
        )
        assert hierarchy_support(config) == \
            "l1:replacement-mru-unsupported"

    def test_missrate_support_reasons(self):
        from repro.kernels import missrate_support

        geometry = contention_geometry()
        cache = SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("random", geometry.num_sets,
                             geometry.num_ways),
        )
        assert missrate_support(cache) == \
            "replacement:random-draws-globally-sequenced"
        lru = SetAssociativeCache(
            geometry,
            make_placement("modulo", geometry.layout()),
            make_replacement("lru", geometry.num_sets, geometry.num_ways),
        )
        assert missrate_support(lru) is None
        lru.protect_range(0, 4096)
        assert missrate_support(lru) == "cache:protected-ranges"
