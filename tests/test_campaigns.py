"""Tests for the campaign orchestration layer (repro.campaigns)."""

import os
import time

import numpy as np
import pytest

from repro.campaigns import (
    CampaignRunner,
    ExperimentSpec,
    bernstein_grid,
    build_campaign,
    campaign_keys,
    execute_cell,
    experiment_kinds,
    get_experiment,
    missrate_grid,
    pwcet_grid,
    register_experiment,
)
from repro.campaigns.cache import ResultCache
from repro.core.simulator import run_all_setups

from conftest import sums_bytes


class TestExperimentSpec:
    def test_params_sorted_and_frozen(self):
        spec = ExperimentSpec(
            kind="missrate", params=(("b", 2), ("a", 1))
        )
        assert spec.params == (("a", 1), ("b", 2))
        assert spec.param("a") == 1
        assert spec.param("missing", "default") == "default"

    def test_params_mapping_accepted(self):
        spec = ExperimentSpec(kind="missrate", params={"z": 1, "a": 2})
        assert spec.params == (("a", 2), ("z", 1))

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(kind="missrate", params=(("a", 1), ("a", 2)))

    def test_with_params_merges(self):
        spec = ExperimentSpec(kind="missrate", params=(("a", 1),))
        updated = spec.with_params(b=2)
        assert updated.params == (("a", 1), ("b", 2))
        assert spec.params == (("a", 1),)  # original untouched

    def test_hash_stable_across_param_order(self):
        one = ExperimentSpec(kind="bernstein", setup="tscache",
                             num_samples=10, seed=3,
                             params=(("a", 1), ("b", 2)))
        two = ExperimentSpec(kind="bernstein", setup="tscache",
                             num_samples=10, seed=3,
                             params=(("b", 2), ("a", 1)))
        assert one.spec_hash() == two.spec_hash()

    def test_hash_distinguishes_cells(self):
        base = ExperimentSpec(kind="bernstein", setup="tscache",
                              num_samples=10, seed=3)
        assert base.spec_hash() != base.with_params(x=1).spec_hash()
        for field, value in (("setup", "mbpta"), ("num_samples", 11),
                             ("seed", 4), ("kind", "pwcet")):
            import dataclasses
            other = dataclasses.replace(base, **{field: value})
            assert base.spec_hash() != other.spec_hash(), field

    def test_seed_streams_independent_per_cell(self):
        one = ExperimentSpec(kind="bernstein", setup="mbpta", seed=3)
        two = ExperimentSpec(kind="bernstein", setup="tscache", seed=3)
        state_one = one.seed_sequence().generate_state(4)
        state_two = two.seed_sequence().generate_state(4)
        assert not np.array_equal(state_one, state_two)

    def test_seed_streams_reproducible(self):
        spec = ExperimentSpec(kind="bernstein", setup="mbpta", seed=3)
        again = ExperimentSpec(kind="bernstein", setup="mbpta", seed=3)
        assert np.array_equal(
            spec.seed_sequence().generate_state(4),
            again.seed_sequence().generate_state(4),
        )

    def test_anagram_setups_get_distinct_streams(self):
        """Regression for the old per-setup salt
        (sum(ord(c)) % 1000), which collided for anagram names."""
        one = ExperimentSpec(kind="bernstein", setup="abcd", seed=2018)
        two = ExperimentSpec(kind="bernstein", setup="dcba", seed=2018)
        assert not np.array_equal(
            one.seed_sequence().generate_state(4),
            two.seed_sequence().generate_state(4),
        )


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = experiment_kinds()
        for name in ("bernstein", "pwcet", "missrate", "prime_probe",
                     "evict_time"):
            assert name in kinds

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            get_experiment("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("bernstein")(lambda spec: None)

    def test_custom_kind_roundtrip(self):
        @register_experiment("_test_echo")
        def _echo(spec):
            return {"seed": spec.seed}

        try:
            result = CampaignRunner().run(
                [ExperimentSpec(kind="_test_echo", seed=9)]
            )
            assert result.payloads() == [{"seed": 9}]
        finally:
            from repro.campaigns import registry
            del registry._REGISTRY["_test_echo"]

    def test_should_stop_requires_merge_partial(self):
        from repro.campaigns.registry import ExperimentKind

        with pytest.raises(ValueError, match="should_stop"):
            ExperimentKind(
                name="bad",
                run=lambda spec: None,
                summarize=lambda spec, p: {},
                should_stop=lambda spec, p: True,
            )

    def test_stop_rule_requires_should_stop(self):
        from repro.campaigns.registry import ExperimentKind

        with pytest.raises(ValueError, match="stop_rule"):
            ExperimentKind(
                name="bad",
                run=lambda spec: None,
                summarize=lambda spec, p: {},
                stop_rule=lambda spec: "rule",
            )


class TestMissRateKind:
    def test_known_workload(self):
        spec = ExperimentSpec(
            kind="missrate", seed=0x1234,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )
        payload = execute_cell(spec)
        assert payload.accesses == 12000
        assert 0.0 < payload.miss_rate < 1.0

    def test_unknown_workload_rejected(self):
        spec = ExperimentSpec(
            kind="missrate",
            params=(("policy", "modulo"), ("workload", "nope")),
        )
        with pytest.raises(ValueError, match="unknown workload"):
            execute_cell(spec)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            execute_cell(ExperimentSpec(kind="missrate"))


class TestPwcetKind:
    def test_tscache_compliant(self):
        spec = ExperimentSpec(
            kind="pwcet", setup="tscache", num_samples=120, seed=5
        )
        payload = execute_cell(spec)
        assert payload.times.size == 120
        assert payload.report is not None
        assert payload.report.compliant
        summary = get_experiment("pwcet").summarize(spec, payload)
        assert summary["compliant"] is True
        assert "pwcet_1e-12" in summary

    def test_analyse_false_collects_only(self):
        spec = ExperimentSpec(
            kind="pwcet", setup="deterministic", num_samples=5,
            params=(("reseed", False), ("analyse", False)),
        )
        payload = execute_cell(spec)
        assert payload.report is None
        # Deterministic platform, no reseeding: one repeated time.
        assert np.ptp(payload.times) == 0.0


class TestCampaignRunner:
    @pytest.fixture(scope="class")
    def small_specs(self):
        return bernstein_grid(
            num_samples=4_000, seed=7, setups=("deterministic", "tscache")
        )

    @pytest.fixture(scope="class")
    def serial_result(self, small_specs):
        return CampaignRunner(workers=1).run(small_specs)

    def test_parallel_bit_identical_to_serial(self, small_specs,
                                              serial_result):
        parallel = CampaignRunner(workers=2).run(small_specs)
        assert len(parallel) == len(serial_result)
        for ser, par in zip(serial_result, parallel):
            assert ser.spec == par.spec
            assert sums_bytes(ser.payload) == sums_bytes(par.payload)
            assert (
                ser.payload.report.remaining_key_space_log2
                == par.payload.report.remaining_key_space_log2
            )

    def test_results_in_spec_order(self, small_specs, serial_result):
        assert [c.spec.setup for c in serial_result] == [
            s.setup for s in small_specs
        ]

    def test_by_setup(self, serial_result):
        table = serial_result.by_setup()
        assert set(table) == {"deterministic", "tscache"}
        assert table["tscache"].report.key_fully_protected

    def test_summaries_flat_and_jsonable(self, serial_result):
        import json

        from repro.reporting import render_json

        summaries = serial_result.summaries()
        assert summaries[0]["kind"] == "bernstein"
        assert "remaining_key_space_log2" in summaries[0]
        json.loads(render_json(summaries))  # round-trips

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(workers=0)

    def test_unknown_kind_fails_before_execution(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            CampaignRunner().run([ExperimentSpec(kind="nope")])


class TestIntraCellSharding:
    """Runner-level sharding: bit-identical payloads, per-shard
    progress, order-independent merge."""

    @pytest.fixture(scope="class")
    def spec(self):
        return bernstein_grid(
            num_samples=8_000, seed=11, setups=("tscache",)
        )

    @pytest.fixture(scope="class")
    def serial(self, spec):
        return CampaignRunner(workers=1).run(spec)

    @pytest.mark.parametrize("max_shards", [2, 7])
    def test_sharded_serial_bit_identical(self, spec, serial, max_shards):
        sharded = CampaignRunner(max_shards_per_cell=max_shards).run(spec)
        ser, shd = serial.cells[0], sharded.cells[0]
        assert shd.num_shards > 1
        assert sums_bytes(ser.payload) == sums_bytes(shd.payload)
        assert ser.payload.victim_key == shd.payload.victim_key
        assert (
            ser.payload.report.remaining_key_space_log2
            == shd.payload.report.remaining_key_space_log2
        )

    def test_sharded_pool_bit_identical(self, spec, serial):
        pooled = CampaignRunner(workers=2, max_shards_per_cell=3).run(spec)
        assert sums_bytes(serial.cells[0].payload) == sums_bytes(
            pooled.cells[0].payload
        )

    def test_adaptive_policy_bit_identical(self, spec, serial):
        """Adaptive geometry changes shard boundaries only — the
        merged attack payload equals the serial run's bit for bit."""
        from repro.campaigns import ShardPolicy

        adaptive = CampaignRunner(
            max_shards_per_cell=4,
            shard_policy=ShardPolicy.adaptive(min_block=1024),
        ).run(spec)
        ser, ada = serial.cells[0], adaptive.cells[0]
        assert ada.num_shards > 1
        assert sums_bytes(ser.payload) == sums_bytes(ada.payload)
        assert (
            ser.payload.report.remaining_key_space_log2
            == ada.payload.report.remaining_key_space_log2
        )

    def test_shard_progress_events(self, spec):
        events = []
        CampaignRunner(
            max_shards_per_cell=4, progress=events.append
        ).run(spec)
        shard_events = [e for e in events if e.event == "shard"]
        cell_events = [e for e in events if e.event == "cell"]
        assert len(shard_events) > 1
        assert len(cell_events) == 1
        # Shards carry the work; the merged-cell event carries none.
        assert sum(e.work for e in shard_events) == 8_000
        assert cell_events[0].work == 0
        assert cell_events[0].result is not None
        assert "shard" in shard_events[0].label

    def test_pwcet_sharding_matches_serial(self):
        specs = pwcet_grid(num_samples=40, setups=("tscache",), seed=5)
        serial = CampaignRunner().run(specs)
        sharded = CampaignRunner(max_shards_per_cell=7).run(specs)
        assert np.array_equal(
            serial.cells[0].payload.times, sharded.cells[0].payload.times
        )

    def test_unshardable_kind_runs_whole(self):
        specs = missrate_grid(workloads=("reuse",), policies=("modulo",))
        events = []
        result = CampaignRunner(
            max_shards_per_cell=8, progress=events.append
        ).run(specs)
        assert result.cells[0].num_shards == 1
        assert [e.event for e in events] == ["cell"]
        assert events[0].work == 1  # sample-less cells weigh 1

    def test_invalid_max_shards_rejected(self):
        with pytest.raises(ValueError):
            CampaignRunner(max_shards_per_cell=0)


class TestProgressEvents:
    def test_cache_hit_emits_marked_event(self, tmp_path):
        """Regression: cache-restored cells must still reach the
        progress callback — marked ``from_cache`` and carrying their
        full work weight — so ETA math on resumed sweeps counts them
        complete instead of stalling."""
        spec = ExperimentSpec(
            kind="missrate", seed=0x1234,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )
        first_events = []
        CampaignRunner(
            cache_dir=str(tmp_path), progress=first_events.append
        ).run([spec])
        assert [e.from_cache for e in first_events] == [False]

        resumed_events = []
        CampaignRunner(
            cache_dir=str(tmp_path), progress=resumed_events.append
        ).run([spec])
        assert len(resumed_events) == 1
        event = resumed_events[0]
        assert event.event == "cell"
        assert event.from_cache
        assert event.work == 1
        assert event.result is not None and event.result.from_cache

    def test_whole_cell_event_carries_cell_weight(self):
        spec = ExperimentSpec(
            kind="pwcet", setup="tscache", num_samples=10, seed=5,
            params=(("analyse", False),),
        )
        events = []
        CampaignRunner(progress=events.append).run([spec])
        assert [(e.event, e.work) for e in events] == [("cell", 10)]


class TestResultCache:
    def test_repeated_spec_hits_cache(self, tmp_path):
        spec = ExperimentSpec(
            kind="missrate", seed=0x1234,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )
        first = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        second = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert not first.cells[0].from_cache
        assert second.cells[0].from_cache
        assert second.cache_hits == 1
        assert (
            first.cells[0].payload.miss_rate
            == second.cells[0].payload.miss_rate
        )

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = ExperimentSpec(kind="missrate", seed=1,
                              params=(("policy", "modulo"),
                                      ("workload", "reuse")))
        cache.put(spec, {"x": 1})
        assert cache.get(spec) == {"x": 1}
        assert cache.get(spec.with_params(extra=1)) is None

    def test_corrupt_entry_recomputed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = ExperimentSpec(
            kind="missrate", seed=0x1234,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )
        cache_file = tmp_path / (spec.spec_hash() + ".pkl")
        cache_file.write_bytes(b"not a pickle")
        result = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert not result.cells[0].from_cache
        assert result.cells[0].payload.accesses == 12000

    def test_corrupt_entry_quarantined_not_reparsed(self, tmp_path):
        """Regression: a torn cache document was treated as silently
        absent and re-parsed (and re-failed) on every later run.  It
        is now moved to ``corrupt/`` — evidence preserved, the path
        freed for the fresh recompute's entry."""
        cache = ResultCache(str(tmp_path))
        spec = ExperimentSpec(
            kind="missrate", seed=0x1234,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )
        cache_file = tmp_path / (spec.spec_hash() + ".pkl")
        cache_file.write_bytes(b"torn write")
        assert cache.get(spec) is None
        quarantined = os.listdir(tmp_path / "corrupt")
        assert len(quarantined) == 1
        assert quarantined[0].startswith(spec.spec_hash() + ".pkl")
        assert (tmp_path / "corrupt" / quarantined[0]).read_bytes() \
            == b"torn write"
        # The fresh run caches normally; the quarantined evidence does
        # not shadow or confuse the new entry.
        result = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert not result.cells[0].from_cache
        rerun = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert rerun.cells[0].from_cache

    def test_bernstein_entry_is_small_and_fixed_size(self, tmp_path):
        """A bernstein entry holds profile sums, not samples: under
        200 KB, the same size at 10x the budget, and the attack
        recomputed from a loaded entry is the one the run reported.
        A shard's partial payload is bounded the same way."""
        import pickle

        from repro.campaigns.experiments import (
            plan_bernstein_shards,
            run_bernstein_shard,
        )

        sizes = []
        for num_samples in (4_000, 40_000):
            cache_dir = tmp_path / str(num_samples)
            specs = bernstein_grid(
                num_samples=num_samples, seed=7, setups=("rpcache",)
            )
            result = CampaignRunner(cache_dir=str(cache_dir)).run(specs)
            (entry,) = cache_dir.glob("*.pkl")
            sizes.append(entry.stat().st_size)
            cached = ResultCache(str(cache_dir)).get(specs[0])
            payload = result.cells[0].payload
            assert sums_bytes(cached) == sums_bytes(payload)
            assert cached.report == payload.report
            shard = plan_bernstein_shards(specs[0], 2)[0]
            partial = pickle.dumps(
                run_bernstein_shard(specs[0], shard),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            assert len(partial) < 200_000
        assert sizes[0] == sizes[1] < 200_000


class TestResultCacheGC:
    def _spec(self, seed=1):
        return ExperimentSpec(
            kind="missrate", seed=seed,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )

    def _age(self, path, days):
        old = time.time() - days * 86400.0
        os.utime(path, (old, old))

    def test_sweeps_stale_entries_and_partials(self, tmp_path):
        import repro.core.batch as batch

        cache = ResultCache(str(tmp_path))
        old_spec, new_spec = self._spec(1), self._spec(2)
        cache.put(old_spec, {"x": 1})
        cache.put(new_spec, {"x": 2})
        shard = batch.Shard(index=0, num_shards=2, start=0, end=8)
        stale_shard_spec = self._spec(3)
        cache.put_shard(stale_shard_spec, shard, {"p": 1})
        self._age(cache._path(old_spec), days=10)
        self._age(cache._shard_path(stale_shard_spec, shard), days=10)
        stats = cache.gc(max_age_days=7)
        assert stats.removed_cells == 1
        assert stats.removed_partials == 1
        assert stats.freed_bytes > 0
        assert cache.get(old_spec) is None
        assert cache.get(new_spec) == {"x": 2}

    def test_sweeps_orphaned_partials_regardless_of_age(self, tmp_path):
        """A partial whose whole-cell entry landed should have been
        swept at merge time; gc removes the leftovers."""
        import repro.core.batch as batch

        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        shard = batch.Shard(index=0, num_shards=2, start=0, end=8)
        cache.put_shard(spec, shard, {"p": 1})
        cache.put(spec, {"done": True})
        # Simulate the crash window: re-create the partial after the
        # cell entry landed.
        cache.put_shard(spec, shard, {"p": 1})
        stats = cache.gc(max_age_days=7)
        assert stats.removed_partials == 1
        assert stats.removed_cells == 0
        assert cache.get(spec) == {"done": True}

    def test_keeps_partials_beside_early_stopped_entry(self, tmp_path):
        """A full-budget run ignores an early-stopped entry and may be
        mid-resume on exactly these partials: they are NOT orphans."""
        import repro.core.batch as batch

        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        cache.put(spec, {"decided": True}, early_stopped=True)
        shard = batch.Shard(index=0, num_shards=2, start=0, end=8)
        cache.put_shard(spec, shard, {"p": 1})
        stats = cache.gc(max_age_days=7)
        assert stats.removed_partials == 0
        assert cache.get_shards(spec, batch.ShardPlan(16, [
            shard, batch.Shard(index=1, num_shards=2, start=8, end=16),
        ])) == {0: {"p": 1}}

    def test_early_stop_marker_follows_entry_lifecycle(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        cache.put(spec, {"decided": True}, early_stopped=True)
        assert cache.is_early_stopped(spec)
        assert cache.get_record(spec) == ({"decided": True}, True)
        # A full-budget overwrite clears the marker.
        cache.put(spec, {"full": True})
        assert not cache.is_early_stopped(spec)
        assert cache.get_record(spec) == ({"full": True}, False)
        # gc removes the marker together with an aged-out entry.
        cache.put(spec, {"decided": True}, early_stopped=True)
        self._age(cache._path(spec), days=10)
        cache.gc(max_age_days=7)
        assert not cache.has(spec)
        assert not cache.is_early_stopped(spec)

    def test_orphan_marker_swept_only_once_stale(self, tmp_path):
        """A fresh marker without its entry is the put() in-flight
        window, not litter — gc must leave it alone."""
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        marker = cache._early_marker_path(spec.spec_hash())
        open(marker, "wb").close()
        cache.gc(max_age_days=7)
        assert os.path.exists(marker)
        # Even an everything-goes sweep respects the in-flight grace
        # window — a concurrent put() must never lose its marker.
        cache.gc(max_age_days=0)
        assert os.path.exists(marker)
        self._age(marker, days=10)
        cache.gc(max_age_days=7)
        assert not os.path.exists(marker)

    def test_orphan_marker_swept_before_max_age(self, tmp_path):
        """Regression: an orphaned marker is not an entry — keeping it
        for the full max_age_days made is_early_stopped() answer True
        for a spec hash with nothing cached, forcing every full-budget
        run at that hash into a spurious recompute.  Orphans go as
        soon as they outlive the put() grace window."""
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        marker = cache._early_marker_path(spec.spec_hash())
        open(marker, "wb").close()
        self._age(marker, days=0.01)  # ~15 min: past grace, << 7 days
        cache.gc(max_age_days=7)
        assert not os.path.exists(marker)
        assert not cache.is_early_stopped(spec)

    def test_entry_and_marker_swept_as_a_unit(self, tmp_path):
        """Regression (the gc/marker orphan): sweeping an aged
        early-stopped entry must take its sidecar marker with it, so a
        later full-budget run at the same spec hash computes, caches,
        and is served from cache — instead of finding a leftover
        marker that rejects the entry."""
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        cache.put(spec, {"decided": True}, early_stopped=True)
        self._age(cache._path(spec), days=10)
        self._age(cache._early_marker_path(spec.spec_hash()), days=10)
        stats = cache.gc(max_age_days=7)
        assert stats.removed_cells == 1
        assert not cache.has(spec)
        assert not cache.is_early_stopped(spec)
        # The full-budget run's fresh write is accepted and honoured.
        first = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert not first.cells[0].from_cache
        second = CampaignRunner(cache_dir=str(tmp_path)).run([spec])
        assert second.cells[0].from_cache
        assert not second.cells[0].early_stopped

    def test_keeps_fresh_unrelated_files(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        (tmp_path / "notes.txt").write_text("keep me")
        spec = self._spec()
        cache.put(spec, {"x": 1})
        stats = cache.gc(max_age_days=0.5)
        assert stats.removed_cells == 0
        assert (tmp_path / "notes.txt").exists()

    def test_age_zero_sweeps_everything_pkl(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(self._spec(), {"x": 1})
        self._age(cache._path(self._spec()), days=0.001)
        stats = cache.gc(max_age_days=0)
        assert stats.removed_cells == 1
        assert cache.get(self._spec()) is None

    def test_rejects_negative_age(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(str(tmp_path)).gc(-1)


class TestGrids:
    def test_campaign_keys_deterministic(self):
        assert campaign_keys(7) == campaign_keys(7)
        assert campaign_keys(7) != campaign_keys(8)

    def test_bernstein_grid_shares_keys(self):
        specs = bernstein_grid(num_samples=10, seed=7)
        assert [s.setup for s in specs] == [
            "deterministic", "rpcache", "mbpta", "tscache"
        ]
        keys = {(s.param("victim_key"), s.param("attacker_key"))
                for s in specs}
        assert len(keys) == 1  # same keys throughout (Figure 5)

    def test_pwcet_and_missrate_grids(self):
        assert len(pwcet_grid(num_samples=10)) == 4
        assert len(missrate_grid()) == 16

    def test_build_campaign_overrides(self):
        specs = build_campaign("bernstein", num_samples=123, seed=9)
        assert all(s.num_samples == 123 and s.seed == 9 for s in specs)

    def test_build_campaign_unknown(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            build_campaign("nope")


class TestRunAllSetups:
    def test_parallel_matches_serial(self):
        serial = run_all_setups(
            num_samples=3_000, rng_seed=7,
            setups=("deterministic", "tscache"),
        )
        parallel = run_all_setups(
            num_samples=3_000, rng_seed=7,
            setups=("deterministic", "tscache"), workers=2,
        )
        assert set(serial) == set(parallel) == {"deterministic", "tscache"}
        for name in serial:
            assert sums_bytes(serial[name]) == sums_bytes(parallel[name])
            assert serial[name].victim_key == parallel[name].victim_key

    def test_same_keys_across_setups(self):
        results = run_all_setups(
            num_samples=2_000, rng_seed=7,
            setups=("deterministic", "tscache"),
        )
        keys = {r.victim_key for r in results.values()}
        assert len(keys) == 1


# -- cross-process cache races and liveness leases ---------------------------


def _race_spec():
    return ExperimentSpec(
        kind="missrate", seed=77,
        params=(("policy", "modulo"), ("workload", "reuse")),
    )


def _race_payload(tag):
    # Large enough that a torn (non-atomic) write could interleave
    # with the other writer's bytes.
    return {"winner": tag, "blob": tag.encode() * 200_000}


def _race_put_entry(cache_dir, tag, barrier):
    cache = ResultCache(cache_dir)
    spec, payload = _race_spec(), _race_payload(tag)
    barrier.wait(timeout=30)
    for _ in range(25):
        cache.put(spec, payload)


def _race_put_shard(cache_dir, tag, barrier):
    from repro.core.batch import Shard

    cache = ResultCache(cache_dir)
    spec, payload = _race_spec(), _race_payload(tag)
    shard = Shard(index=0, num_shards=2, start=0, end=8)
    barrier.wait(timeout=30)
    for _ in range(25):
        cache.put_shard(spec, shard, payload)


class TestResultCacheWriteRace:
    """Two runners racing the same spec hash: atomic temp-file +
    rename writes must always leave one intact winner — never a torn
    or interleaved entry."""

    def _race(self, tmp_path, target):
        import multiprocessing as mp

        barrier = mp.Barrier(2)
        procs = [
            mp.Process(target=target, args=(str(tmp_path), tag, barrier))
            for tag in ("a", "b")
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0

    def test_concurrent_put_yields_one_intact_winner(self, tmp_path):
        self._race(tmp_path, _race_put_entry)
        cache = ResultCache(str(tmp_path))
        loaded = cache.get(_race_spec())
        assert loaded in (_race_payload("a"), _race_payload("b"))
        # Nothing was quarantined: every observable state was intact.
        assert not os.path.exists(str(tmp_path / "corrupt"))

    def test_concurrent_put_shard_yields_one_intact_winner(
        self, tmp_path
    ):
        from repro.core.batch import Shard, ShardPlan

        self._race(tmp_path, _race_put_shard)
        cache = ResultCache(str(tmp_path))
        plan = ShardPlan(16, [
            Shard(index=0, num_shards=2, start=0, end=8),
            Shard(index=1, num_shards=2, start=8, end=16),
        ])
        shards = cache.get_shards(_race_spec(), plan)
        assert shards[0] in (_race_payload("a"), _race_payload("b"))
        assert not os.path.exists(str(tmp_path / "corrupt"))


class TestResultCacheLeases:
    """GC liveness gating: two CLI campaigns can share one
    ``--cache-dir``, so the entries/partials/markers of a cell that
    one of them is actively working (fresh ``.lease``) must survive
    the other's sweep, however aggressive."""

    def _spec(self, seed=1):
        return ExperimentSpec(
            kind="missrate", seed=seed,
            params=(("policy", "modulo"), ("workload", "reuse")),
        )

    def _age(self, path, days):
        old = time.time() - days * 86400.0
        os.utime(path, (old, old))

    def test_fresh_lease_shields_aged_entry_partials_marker(
        self, tmp_path
    ):
        import repro.core.batch as batch

        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        cache.put(spec, {"decided": True}, early_stopped=True)
        shard = batch.Shard(index=0, num_shards=2, start=0, end=8)
        cache.put_shard(spec, shard, {"p": 1})
        spec_hash = spec.spec_hash()
        self._age(cache._path(spec), days=10)
        self._age(cache._shard_path(spec, shard), days=10)
        self._age(cache._early_marker_path(spec_hash), days=10)
        cache.touch_lease(spec)
        stats = cache.gc(max_age_days=7)
        assert stats.removed_cells == 0
        assert stats.removed_partials == 0
        assert cache.is_early_stopped(spec)
        assert cache.get_record(spec) == ({"decided": True}, True)
        # Released, the same sweep takes everything.
        cache.release_lease(spec)
        stats = cache.gc(max_age_days=7)
        assert stats.removed_cells == 1
        assert stats.removed_partials == 1
        assert not cache.has(spec)
        assert not cache.is_early_stopped(spec)

    def test_active_tenant_partials_survive_aggressive_gc(
        self, tmp_path
    ):
        """Campaign A is mid-run (partials on disk, lease fresh) when
        campaign B, sharing the same ``--cache-dir``, runs an
        everything-goes ``--cache-gc 0`` — A's resume state must
        survive."""
        import repro.core.batch as batch

        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        shard = batch.Shard(index=0, num_shards=2, start=0, end=8)
        cache.put_shard(spec, shard, {"p": 1})
        self._age(cache._shard_path(spec, shard), days=1)
        cache.touch_lease(spec)
        stats = cache.gc(max_age_days=0)
        assert stats.removed_partials == 0
        plan = batch.ShardPlan(16, [
            shard, batch.Shard(index=1, num_shards=2, start=8, end=16),
        ])
        assert cache.get_shards(spec, plan) == {0: {"p": 1}}
        cache.release_lease(spec)
        stats = cache.gc(max_age_days=0)
        assert stats.removed_partials == 1

    def test_stale_lease_is_swept_and_stops_shielding(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        cache.put(spec, {"x": 1})
        self._age(cache._path(spec), days=10)
        cache.touch_lease(spec)
        # A lease last touched a day ago belongs to a dead campaign:
        # it protects nothing and goes out as litter.
        self._age(cache._lease_path(spec.spec_hash()), days=1)
        stats = cache.gc(max_age_days=7)
        assert stats.removed_cells == 1
        assert not os.path.exists(cache._lease_path(spec.spec_hash()))

    def test_lease_api_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = self._spec()
        lease = cache._lease_path(spec.spec_hash())
        assert not os.path.exists(lease)
        cache.touch_lease(spec)
        assert os.path.exists(lease)
        cache.touch_lease(spec)  # refresh, not error
        cache.release_lease(spec)
        assert not os.path.exists(lease)
        cache.release_lease(spec)  # idempotent

    def test_mid_campaign_gc_cannot_sweep_live_partials(self, tmp_path):
        """Integration: a concurrent aggressive sweep fired in the
        middle of a sharded campaign (from a progress callback, i.e.
        between shard completions) must not take the campaign's own
        just-written partials — the engine keeps the lease fresh."""
        cache = ResultCache(str(tmp_path))
        spec = ExperimentSpec(
            kind="bernstein", setup="deterministic",
            num_samples=4096, seed=9,
        )
        solo = CampaignRunner().run([spec])
        swept = []

        def progress(ev):
            if ev.event == "shard":
                swept.append(cache.gc(max_age_days=0).removed_partials)

        result = CampaignRunner(
            cache_dir=str(tmp_path), progress=progress,
            max_shards_per_cell=2,
        ).run([spec])
        assert swept, "expected shard progress events"
        assert all(count == 0 for count in swept)
        assert sums_bytes(result.cells[0].payload) == sums_bytes(
            solo.cells[0].payload
        )
        # The finished campaign released its lease: nothing lingers
        # to shield the (now complete) entry from future sweeps.
        assert not os.path.exists(
            cache._lease_path(spec.spec_hash())
        )
