"""Tests for the vectorized AES timing engine and its cold-line model,
including consistency against the scalar cache hierarchy."""

import dataclasses

import numpy as np
import pytest

from repro.attack.bernstein import ProfileSums
from repro.cache.core import ARM920T_L1_GEOMETRY
from repro.common.trace import MemoryAccess
from repro.core import batch as batch_module
from repro.core.batch import (
    NUM_TABLE_LINES,
    OTHER_PID,
    VICTIM_PID,
    AESTimingEngine,
    ColdLineModel,
    EngineConfig,
    Shard,
    default_background,
    lookup_line_ids,
)
from repro.core.setups import SETUP_NAMES, make_setup
from repro.crypto.aes import AES128, DEFAULT_TABLE_BASE

from conftest import sums_bytes


class TestLookupLineIds:
    def test_line_math(self):
        aes = AES128(bytes(range(16)))
        rng = np.random.default_rng(0)
        plaintexts = rng.integers(0, 256, size=(4, 16), dtype=np.uint8)
        _, lookup_bytes = aes.encrypt_batch(plaintexts)
        lines = lookup_line_ids(lookup_bytes)
        assert lines.shape == lookup_bytes.shape
        assert lines.min() >= 0
        assert lines.max() < NUM_TABLE_LINES
        # Position 0 is a Te0 lookup: line = byte >> 3.
        assert lines[0, 0] == lookup_bytes[0, 0] >> 3
        # Position 144 is the first Te4 lookup: line = 128 + byte >> 3.
        assert lines[0, 144] == 128 + (lookup_bytes[0, 144] >> 3)

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            lookup_line_ids(np.zeros((4, 100), dtype=np.uint8))


class TestColdLineModel:
    def test_deterministic_cold_pattern(self):
        """Under modulo: OS evicts Te1 lines 8-11 and 20-23, the app
        buffers evict Te2 lines 20-23 and 28-31 (see
        bernstein_background)."""
        model = ColdLineModel(make_setup("deterministic"), default_background())
        cold, line_set = model.epoch_state(1, 2, include_other=True)
        te1 = {int(l) - 32 for l in np.nonzero(cold[32:64])[0] + 32}
        te2 = {int(l) - 64 for l in np.nonzero(cold[64:96])[0] + 64}
        assert te1 == {8, 9, 10, 11, 20, 21, 22, 23}
        assert te2 == {20, 21, 22, 23, 28, 29, 30, 31}
        # Te0 and Te3 stay warm under modulo.
        assert not cold[0:32].any()
        assert not cold[96:128].any()

    def test_same_process_only_excludes_os_evictions(self):
        model = ColdLineModel(make_setup("deterministic"), default_background())
        cold, _ = model.epoch_state(1, 2, include_other=False)
        assert not cold[32:64].any()     # Te1 warm without the OS buffers
        assert cold[64:96].any()         # Te2 still evicted by app buffers

    def test_line_sets_in_range(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        _, line_set = model.epoch_state(5, 6)
        assert line_set.shape == (NUM_TABLE_LINES,)
        assert line_set.min() >= 0
        assert line_set.max() < ARM920T_L1_GEOMETRY.num_sets

    def test_rm_cold_depends_on_seed(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        cold_a, _ = model.epoch_state(1, 2)
        cold_b, _ = model.epoch_state(99, 100)
        assert not np.array_equal(cold_a, cold_b)

    def test_rm_cold_reproducible(self):
        model = ColdLineModel(make_setup("mbpta"), default_background())
        cold_a, _ = model.epoch_state(7, 8, replacement_seed=3)
        cold_b, _ = model.epoch_state(7, 8, replacement_seed=3)
        assert np.array_equal(cold_a, cold_b)

    def test_interference_events_only_for_rpcache(self):
        background = default_background()
        det = ColdLineModel(make_setup("deterministic"), background)
        assert det.estimate_interference_events(1, 2) == 0
        rp = ColdLineModel(make_setup("rpcache"), background)
        assert rp.estimate_interference_events(1, 2) > 0


def campaign_epochs(setup_name, per_party=16):
    """Epoch tuples of a 300k-sample cell's real seed plan: the first
    ``per_party`` blocks of each party, each with and without the
    other process's interval."""
    engine = AESTimingEngine(make_setup(setup_name))
    epochs = []
    for party in ("victim", "attacker"):
        blocks = engine.epoch_blocks(300_000, party, 0xC0DE)[:per_party]
        for _, _, _, (victim, other, _, replacement) in blocks:
            for include_other in (True, False):
                epochs.append((victim, other, include_other, replacement))
    return engine.cold_model, epochs


class TestEpochStates:
    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_batched_equals_scalar_oracle(self, setup_name):
        model, epochs = campaign_epochs(setup_name)
        if make_setup(setup_name).l1_replacement == "random":
            assert len(epochs) >= 64
            # Both parties' replacement salts are in the plan.
            assert len({epoch[3] for epoch in epochs}) == len(epochs) // 2
        cold, line_set = model.epoch_states(epochs)
        assert cold.shape == line_set.shape == (len(epochs), NUM_TABLE_LINES)
        assert cold.dtype == bool and line_set.dtype == np.int64
        for row, epoch in enumerate(epochs):
            expected_cold, expected_sets = model.epoch_state(*epoch)
            assert np.array_equal(cold[row], expected_cold), epoch
            assert np.array_equal(line_set[row], expected_sets), epoch
        # The replay must not be trivial: some epoch leaves lines cold.
        assert cold.any()

    def test_lane_chunks_are_invisible(self, monkeypatch):
        model, epochs = campaign_epochs("tscache", per_party=6)
        whole = model.epoch_states(epochs)
        monkeypatch.setattr(batch_module, "EPOCH_LANES", 5)
        chunked = model.epoch_states(epochs)
        assert np.array_equal(whole[0], chunked[0])
        assert np.array_equal(whole[1], chunked[1])

    def test_no_epochs(self):
        model, _ = campaign_epochs("deterministic")
        cold, line_set = model.epoch_states([])
        assert cold.shape == line_set.shape == (0, NUM_TABLE_LINES)


def record_epoch_batches(monkeypatch):
    """Record the epoch list of every ``epoch_states`` call."""
    calls = []
    original = ColdLineModel.epoch_states

    def recording(model, epochs):
        calls.append(list(epochs))
        return original(model, epochs)

    monkeypatch.setattr(ColdLineModel, "epoch_states", recording)
    return calls


class TestEpochBatching:
    @pytest.mark.parametrize("setup_name", ("mbpta", "tscache"))
    def test_shard_batches_only_overlapping_epochs(self, setup_name,
                                                   monkeypatch):
        engine = AESTimingEngine(make_setup(setup_name),
                                 rng=np.random.default_rng(3))
        key = bytes(range(16))
        full = engine.collect(key, 8192)
        calls = record_epoch_batches(monkeypatch)
        shard = Shard(index=1, num_shards=3, start=2048, end=5120)
        part = engine.collect_shard_sums(key, 8192, shard)
        expected = [
            epoch for start, end, _, epoch
            in engine.epoch_blocks(8192, "victim", 0xC0DE)
            if start < shard.end and end > shard.start
        ]
        assert calls == [expected]
        assert len(expected) == 3
        assert sums_bytes(part.sums) == sums_bytes(ProfileSums.from_samples(
            full.plaintexts[2048:5120], full.timings[2048:5120]
        ))

    def test_many_epochs_never_replay_scalar(self, monkeypatch):
        """More epochs than any memo could hold: every one is batched,
        in order, in passes of at most EPOCH_LANES epochs (so memory
        does not grow with the budget); none falls back to a scalar
        replay."""
        setup = dataclasses.replace(make_setup("tscache"), reseed_every=1)
        engine = AESTimingEngine(setup, rng=np.random.default_rng(4))
        scalar_calls = []
        original = ColdLineModel.epoch_state

        def counting(model, *args, **kwargs):
            scalar_calls.append(args)
            return original(model, *args, **kwargs)

        monkeypatch.setattr(ColdLineModel, "epoch_state", counting)
        batches = record_epoch_batches(monkeypatch)
        samples = engine.collect(bytes(range(16)), 4100)
        assert samples.num_samples == 4100
        expected = [
            epoch for _, _, _, epoch
            in engine.epoch_blocks(4100, "victim", 0xC0DE)
        ]
        assert len(expected) == 4100
        assert [epoch for batch in batches for epoch in batch] == expected
        assert max(len(batch) for batch in batches) == (
            batch_module.EPOCH_LANES
        )
        assert scalar_calls == []


def legacy_collect(engine, key, num_samples, party="victim",
                   campaign_seed=0xC0DE):
    """The pre-fused engine, as the oracle: per RNG block, encrypt with
    ``encrypt_batch``, map lookups with ``lookup_line_ids``, scatter
    them into an (n, 160) touched-line matrix, and take every cold
    state from the scalar ``epoch_state`` replay."""
    aes = AES128(key)
    config = engine.config
    num_sets = engine.cold_model.geometry.num_sets
    plaintexts, timings = [], []
    for start, end, events, epoch in engine.epoch_blocks(
        num_samples, party, campaign_seed
    ):
        cold, line_set = engine.cold_model.epoch_state(*epoch)
        set_to_line = np.full(num_sets, -1, dtype=np.int64)
        for line in range(NUM_TABLE_LINES - 1, -1, -1):
            if not cold[line]:
                set_to_line[line_set[line]] = line
        for rng_start in range(start, end, config.rng_block):
            rng_end = min(end, (rng_start // config.rng_block + 1)
                          * config.rng_block)
            rng = engine._block_rng(party, campaign_seed, rng_start)
            block = rng.integers(0, 256, size=(rng_end - rng_start, 16),
                                 dtype=np.uint8)
            lines = lookup_line_ids(aes.encrypt_batch(block)[1])
            n = len(block)
            accessed = np.zeros((n, NUM_TABLE_LINES), dtype=bool)
            accessed[np.arange(n)[:, None], lines] = True
            cold_hits = (accessed & cold[None, :]).sum(axis=1)
            block_timings = (config.base_cycles
                             + config.miss_penalty * cold_hits)
            if events > 0:
                evicted = set_to_line[rng.integers(0, num_sets,
                                                   size=(n, events))]
                valid = evicted >= 0
                touched = accessed[np.arange(n)[:, None],
                                   np.where(valid, evicted, 0)] & valid
                block_timings = block_timings + config.miss_penalty * (
                    touched.sum(axis=1).astype(float)
                )
            plaintexts.append(block)
            timings.append(block_timings)
    return np.concatenate(plaintexts), np.concatenate(timings)


class TestFusedTimingPass:
    """The fused encryption + cold-line pass against the per-block
    pipeline it replaced, on every setup."""

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    @pytest.mark.parametrize("party", ("victim", "attacker"))
    def test_matches_per_block_pipeline(self, setup_name, party):
        # Small chunks so one collection spans several compute runs,
        # some crossing cold-state blocks; the budget is not a
        # multiple of the chunk.
        config = EngineConfig(chunk_size=4096)
        engine = AESTimingEngine(make_setup(setup_name), config=config,
                                 rng=np.random.default_rng(21))
        key = bytes(range(3, 19))
        samples = engine.collect(key, 11_000, party=party)
        plaintexts, timings = legacy_collect(engine, key, 11_000, party)
        assert np.array_equal(samples.plaintexts, plaintexts)
        assert np.array_equal(samples.timings, timings)

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_shard_splitting_a_chunk_equals_collect_slice(self, setup_name):
        engine = AESTimingEngine(make_setup(setup_name),
                                 rng=np.random.default_rng(22))
        chunk = engine.config.chunk_size
        key = bytes(range(40, 56))
        total = 2 * chunk + 3000
        if setup_name == "rpcache":
            assert engine.epoch_blocks(total, "victim", 0xC0DE)[0][2] > 0
        full = engine.collect(key, total)
        # Starts mid-way through the first compute chunk and ends
        # mid-way through the second.
        shard = Shard(index=1, num_shards=3, start=5 * 1024,
                      end=chunk + 3 * 1024)
        plaintexts, timings = engine._collect_range(
            key, total, shard.start, shard.end, "victim", 0xC0DE
        )
        assert np.array_equal(plaintexts,
                              full.plaintexts[shard.start:shard.end])
        assert np.array_equal(timings, full.timings[shard.start:shard.end])


class TestEngineTimings:
    def test_timing_formula_matches_cold_model(self):
        """Engine timing == base + penalty * |unique cold lines touched|,
        with the cold mask taken from the scalar cache simulation."""
        setup = make_setup("deterministic")
        config = EngineConfig()
        engine = AESTimingEngine(setup, config=config,
                                 rng=np.random.default_rng(5))
        key = bytes(range(16))
        samples = engine.collect(key, 64)
        cold, _ = engine.cold_model.epoch_state(
            0xC0DE & 0xFFFFFFFF, (0xC0DE) ^ 0x7E57_0123, include_other=True
        )
        aes = AES128(key)
        _, lookup_bytes = aes.encrypt_batch(samples.plaintexts)
        lines = lookup_line_ids(lookup_bytes)
        for i in range(64):
            unique_cold = {
                int(l) for l in lines[i] if cold[l]
            }
            expected = config.base_cycles + config.miss_penalty * len(
                unique_cold
            )
            assert samples.timings[i] == pytest.approx(expected)

    def test_scalar_hierarchy_agrees_on_one_encryption(self):
        """Ground truth check: replay one encryption's lookup trace
        through the real scalar L1 after warm-up + background; the
        L1 misses must be exactly the unique cold lines the engine
        charges."""
        setup = make_setup("deterministic")
        background = default_background()
        model = ColdLineModel(setup, background)
        cold, _ = model.epoch_state(1, 2, include_other=True)

        cache = model._build_cache(1, 2)
        addresses = model._table_line_addresses()
        for _ in range(2):
            for address in addresses:
                cache.access(MemoryAccess(address, pid=VICTIM_PID))
        for access in background.same_process_trace(VICTIM_PID):
            cache.access(access)
        for access in background.other_process_trace(OTHER_PID):
            cache.access(access)

        aes = AES128(bytes(range(16)))
        _, lookups = aes.encrypt_block_traced(bytes(range(16, 32)))
        misses = 0
        for lookup in lookups:
            result = cache.access(
                MemoryAccess(lookup.address(DEFAULT_TABLE_BASE),
                             pid=VICTIM_PID)
            )
            if not result.hit:
                misses += 1
        lines = {lookup.table * 32 + (lookup.byte_index >> 3)
                 for lookup in lookups}
        expected_misses = sum(1 for line in lines if cold[line])
        assert misses == expected_misses

    def test_reseed_epochs_change_timing_distribution(self):
        """TSCache: different epochs use different seeds, so cold-line
        counts (hence timing levels) vary across epochs."""
        setup = make_setup("tscache")
        engine = AESTimingEngine(setup, rng=np.random.default_rng(6))
        samples = engine.collect(bytes(range(16)), 4096)
        first_epoch = samples.timings[:1024]
        # Distribution should vary across at least one epoch boundary.
        means = [samples.timings[i:i + 1024].mean() for i in range(0, 4096, 1024)]
        assert max(means) - min(means) > 0.5

    def test_invalid_party(self):
        engine = AESTimingEngine(make_setup("deterministic"))
        with pytest.raises(ValueError):
            engine.collect(bytes(16), 10, party="eavesdropper")

    def test_nonpositive_samples(self):
        engine = AESTimingEngine(make_setup("deterministic"))
        with pytest.raises(ValueError):
            engine.collect(bytes(16), 0)

    def test_key_xor_plaintexts(self):
        engine = AESTimingEngine(make_setup("deterministic"),
                                 rng=np.random.default_rng(8))
        key = bytes(range(16))
        samples = engine.collect(key, 16)
        xored = samples.key_xor_plaintexts()
        assert np.array_equal(
            xored[:, 0], samples.plaintexts[:, 0] ^ key[0]
        )
