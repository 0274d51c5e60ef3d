"""Tests for intra-cell sharding: ShardPlan geometry (even and
adaptive), the engine's shard/serial bit-equivalence (determinism
matrix over shard counts, policies and completion orders), and merge
validation."""

import random

import numpy as np
import pytest

from repro.attack.bernstein import ProfileSums
from repro.core.batch import (
    AESTimingEngine,
    Shard,
    ShardPlan,
    ShardPolicy,
    merge_shard_sums,
)
from repro.core.setups import make_setup

from conftest import sums_bytes

KEY = bytes(range(16))


class TestShard:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            Shard(index=0, num_shards=1, start=5, end=5)
        with pytest.raises(ValueError):
            Shard(index=0, num_shards=1, start=-1, end=5)
        with pytest.raises(ValueError):
            Shard(index=2, num_shards=2, start=0, end=5)

    def test_num_samples(self):
        assert Shard(index=0, num_shards=1, start=3, end=10).num_samples == 7


class TestShardPlan:
    def test_even_split_covers_budget(self):
        plan = ShardPlan.even(100, 3)
        assert len(plan) == 3
        assert [(s.start, s.end) for s in plan] == [(0, 33), (33, 66),
                                                    (66, 100)]

    def test_even_more_shards_than_samples(self):
        plan = ShardPlan.even(2, 7)
        assert len(plan) == 2
        assert plan.num_samples == 2

    def test_single_shard(self):
        plan = ShardPlan.even(10, 1)
        assert len(plan) == 1
        assert (plan[0].start, plan[0].end) == (0, 10)

    def test_from_boundaries_snaps_cuts(self):
        plan = ShardPlan.from_boundaries(100, 2, boundaries=[30, 80])
        # Ideal cut 50 snaps to the nearest boundary (30).
        assert [(s.start, s.end) for s in plan] == [(0, 30), (30, 100)]

    def test_from_boundaries_no_usable_boundary(self):
        plan = ShardPlan.from_boundaries(100, 4, boundaries=[])
        assert len(plan) == 1

    def test_from_boundaries_caps_shard_count(self):
        plan = ShardPlan.from_boundaries(100, 8, boundaries=[40])
        assert len(plan) == 2

    def test_rejects_gaps_and_misordered_shards(self):
        good = [Shard(0, 2, 0, 5), Shard(1, 2, 5, 10)]
        ShardPlan(10, good)  # sanity
        with pytest.raises(ValueError, match="starts at"):
            ShardPlan(10, [Shard(0, 2, 0, 4), Shard(1, 2, 5, 10)])
        with pytest.raises(ValueError, match="0..k-1"):
            ShardPlan(10, [Shard(1, 2, 0, 5), Shard(0, 2, 5, 10)])
        with pytest.raises(ValueError, match="budget"):
            ShardPlan(12, good)

    def test_deterministic(self):
        bounds = list(range(0, 5000, 128))
        one = ShardPlan.from_boundaries(5000, 5, bounds)
        two = ShardPlan.from_boundaries(5000, 5, bounds)
        assert [(s.start, s.end) for s in one] == [
            (s.start, s.end) for s in two
        ]


class TestAdaptivePlan:
    def test_geometric_growth_until_budget(self):
        plan = ShardPlan.adaptive(240, 8, min_block=16, growth=2.0)
        assert [(s.start, s.end) for s in plan] == [
            (0, 16), (16, 48), (48, 112), (112, 240)
        ]
        sizes = [s.num_samples for s in plan]
        # Strictly growing: small lead for fast verdicts, big tail for
        # throughput.
        assert sizes == sorted(sizes)
        assert sizes[0] == 16

    def test_max_shards_caps_with_tail_absorbing_remainder(self):
        plan = ShardPlan.adaptive(10_000, 3, min_block=100, growth=2.0)
        assert len(plan) == 3
        assert [(s.start, s.end) for s in plan] == [
            (0, 100), (100, 300), (300, 10_000)
        ]

    def test_covers_budget_exactly(self):
        for total in (17, 100, 999, 4096):
            plan = ShardPlan.adaptive(total, 6, min_block=8, growth=1.7)
            assert plan.num_samples == total
            assert plan[0].start == 0
            assert plan[len(plan) - 1].end == total

    def test_growth_one_gives_fixed_blocks(self):
        plan = ShardPlan.adaptive(64, 4, min_block=16, growth=1.0)
        assert [s.num_samples for s in plan] == [16, 16, 16, 16]

    def test_small_budget_single_shard(self):
        plan = ShardPlan.adaptive(10, 4, min_block=16)
        assert len(plan) == 1

    def test_snaps_to_boundaries(self):
        plan = ShardPlan.adaptive(
            8192, 4, min_block=100, growth=2.0,
            boundaries=range(0, 8192, 1024),
        )
        for shard in plan:
            assert shard.start % 1024 == 0

    def test_no_usable_boundary_single_shard(self):
        plan = ShardPlan.adaptive(100, 4, min_block=10, boundaries=[])
        assert len(plan) == 1

    def test_deterministic(self):
        one = ShardPlan.adaptive(5000, 5, min_block=37, growth=1.9)
        two = ShardPlan.adaptive(5000, 5, min_block=37, growth=1.9)
        assert [(s.start, s.end) for s in one] == [
            (s.start, s.end) for s in two
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="min_block"):
            ShardPlan.adaptive(100, 4, min_block=0)
        with pytest.raises(ValueError, match="growth"):
            ShardPlan.adaptive(100, 4, growth=0.5)
        with pytest.raises(ValueError, match="max_shards"):
            ShardPlan.adaptive(100, 0)
        with pytest.raises(ValueError, match="num_samples"):
            ShardPlan.adaptive(0, 4)


class TestShardPolicyObject:
    def test_default_is_even(self):
        policy = ShardPolicy()
        assert policy.mode == "even"
        assert policy.describe() == "even"
        plan = policy.plan(100, 4)
        assert [s.num_samples for s in plan] == [25, 25, 25, 25]

    def test_adaptive_constructor_and_describe(self):
        policy = ShardPolicy.adaptive(min_block=16, growth=2.0)
        assert policy.describe() == "adaptive(min=16,x2)"
        plan = policy.plan(240, 4)
        assert plan[0].num_samples == 16

    def test_small_budget_still_shards_under_default_adaptive(self):
        """Regression: min_block=1024 (the default) on a 240-trial
        contention cell must not collapse to one shard — that would
        silently disable early stopping for exactly the cells that
        decide fastest.  The block is clamped to the even-shard size,
        so the adaptive lead shard is never larger than an even one."""
        plan = ShardPolicy.adaptive().plan(240, 8)
        assert len(plan) > 1
        assert plan[0].num_samples == 30  # 240 // 8
        sizes = [s.num_samples for s in plan]
        assert sizes[0] == min(sizes)

    def test_even_plan_honours_boundaries(self):
        policy = ShardPolicy()
        plan = policy.plan(100, 2, boundaries=[30, 80])
        assert [(s.start, s.end) for s in plan] == [(0, 30), (30, 100)]

    def test_rejects_unknown_mode_and_bad_values(self):
        with pytest.raises(ValueError, match="shard policy"):
            ShardPolicy(mode="fibonacci")
        with pytest.raises(ValueError, match="min_block"):
            ShardPolicy.adaptive(min_block=0)
        with pytest.raises(ValueError, match="growth"):
            ShardPolicy.adaptive(growth=0.9)


class TestEngineSharding:
    """The acceptance matrix: shard counts {1, 2, 7}, any completion
    order, serial == merged, per setup family."""

    @pytest.mark.parametrize("setup_name", ["deterministic", "tscache",
                                            "rpcache"])
    @pytest.mark.parametrize("num_shards", [1, 2, 7])
    def test_merge_bit_identical_to_serial(self, setup_name, num_shards):
        engine = AESTimingEngine(make_setup(setup_name), rng=11)
        n = 20_000
        serial = engine.collect(KEY, n, party="attacker")
        plan = engine.shard_plan(n, num_shards)
        parts = [
            engine.collect_shard_sums(KEY, n, shard, party="attacker",
                                      index_key=KEY)
            for shard in plan
        ]
        assert all(p.key == KEY and p.setup_name == setup_name
                   for p in parts)
        # Invariance to completion order: merge a shuffled part list.
        random.Random(num_shards).shuffle(parts)
        merged = merge_shard_sums(parts)
        assert sums_bytes(merged) == sums_bytes(ProfileSums.from_samples(
            serial.key_xor_plaintexts(), serial.timings
        ))

    @pytest.mark.parametrize("setup_name", ["deterministic", "tscache",
                                            "rpcache"])
    @pytest.mark.parametrize("policy", [
        ShardPolicy.adaptive(min_block=1024, growth=2.0),
        ShardPolicy.adaptive(min_block=2048, growth=3.0),
    ])
    def test_adaptive_merge_bit_identical_to_serial(self, setup_name,
                                                    policy):
        """The adaptive geometry changes only where the cuts land;
        merged sums must equal those of the serial samples (and
        therefore the even split) bit for bit, in any completion
        order."""
        engine = AESTimingEngine(make_setup(setup_name), rng=11)
        n = 20_000
        serial = engine.collect(KEY, n, party="attacker")
        plan = engine.shard_plan(n, 5, policy)
        assert len(plan) > 1
        sizes = [s.num_samples for s in plan]
        assert sizes[0] < sizes[-1], "lead shard must be the small one"
        parts = [
            engine.collect_shard_sums(KEY, n, shard, party="attacker",
                                      index_key=KEY)
            for shard in plan
        ]
        random.Random(len(plan)).shuffle(parts)
        merged = merge_shard_sums(parts)
        assert sums_bytes(merged) == sums_bytes(ProfileSums.from_samples(
            serial.key_xor_plaintexts(), serial.timings
        ))

    def test_adaptive_plan_is_block_aligned(self):
        """tscache epochs/realisations turn over every 1024 samples;
        adaptive cuts must still land on those boundaries."""
        engine = AESTimingEngine(make_setup("tscache"))
        plan = engine.shard_plan(
            16_384, 6, ShardPolicy.adaptive(min_block=100, growth=2.0)
        )
        allowed = {s for s, _ in engine.collection_blocks(16_384)}
        for shard in plan:
            assert shard.start in allowed or shard.start == 0

    def test_blocks_tile_budget(self):
        engine = AESTimingEngine(make_setup("tscache"))
        blocks = engine.collection_blocks(50_000)
        assert blocks[0][0] == 0
        assert blocks[-1][1] == 50_000
        for (_, end), (start, _) in zip(blocks, blocks[1:]):
            assert end == start

    def test_blocks_align_to_epochs_and_realisations(self):
        """tscache: reseed_every=1024 and replacement_block=1024, so
        every multiple of 1024 must be a boundary (cold-mask epochs
        never straddle shards)."""
        engine = AESTimingEngine(make_setup("tscache"))
        starts = {s for s, _ in engine.collection_blocks(8192)}
        assert starts.issuperset(range(0, 8192, 1024))

    def test_misaligned_shard_rejected(self):
        engine = AESTimingEngine(make_setup("tscache"))
        bad = Shard(index=0, num_shards=2, start=0, end=1000)
        with pytest.raises(ValueError, match="block-aligned"):
            engine.collect_shard_sums(KEY, 4096, bad)

    def test_shard_beyond_budget_rejected(self):
        engine = AESTimingEngine(make_setup("tscache"))
        bad = Shard(index=0, num_shards=1, start=0, end=8192)
        with pytest.raises(ValueError, match="budget"):
            engine.collect_shard_sums(KEY, 4096, bad)

    def test_collect_is_reproducible(self):
        """Collection is a pure function of (entropy, key, party,
        campaign seed, budget) — same call, same samples."""
        engine = AESTimingEngine(make_setup("mbpta"), rng=3)
        one = engine.collect(KEY, 4096)
        two = engine.collect(KEY, 4096)
        assert np.array_equal(one.timings, two.timings)
        assert np.array_equal(one.plaintexts, two.plaintexts)

    def test_parties_draw_distinct_streams(self):
        engine = AESTimingEngine(make_setup("deterministic"), rng=3)
        victim = engine.collect(KEY, 2048, party="victim")
        attacker = engine.collect(KEY, 2048, party="attacker")
        assert not np.array_equal(victim.plaintexts, attacker.plaintexts)


class TestMergeValidation:
    def _parts(self, n=4096, k=2):
        engine = AESTimingEngine(make_setup("tscache"), rng=5)
        plan = engine.shard_plan(n, k)
        return [engine.collect_shard_sums(KEY, n, s) for s in plan], engine

    def test_missing_shard_rejected(self):
        parts, _ = self._parts()
        with pytest.raises(ValueError, match="shards"):
            merge_shard_sums(parts[:1])

    def test_duplicate_shard_rejected(self):
        parts, _ = self._parts()
        with pytest.raises(ValueError, match="duplicate or missing"):
            merge_shard_sums([parts[0], parts[0]])

    def test_mixed_collections_rejected(self):
        parts, engine = self._parts()
        n = 4096
        plan = engine.shard_plan(n, 2)
        other = engine.collect_shard_sums(bytes(16), n, plan[1])
        with pytest.raises(ValueError, match="different collections"):
            merge_shard_sums([parts[0], other])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no shards"):
            merge_shard_sums([])
