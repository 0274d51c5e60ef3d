"""Golden-trace regression tests for the AES timing engine.

Freezes a SHA-256 digest of the samples (plaintexts + timings) each
setup produces at a fixed seed, so **any** refactor of the timing
engine that changes its outputs — intentionally or not — fails loudly
here and forces a conscious digest update.  The same digests are
asserted over three execution paths:

* serial  — one ``AESTimingEngine.collect`` call,
* sharded — ``collect_shard_sums`` over even, adaptive and uneven
  plans, merged, equal byte for byte to the sums of the frozen
  samples,
* pooled  — a ``bernstein`` campaign cell through
  ``CampaignRunner(workers=N, max_shards_per_cell=M)``,

which is the acceptance proof that intra-cell sharding is
bit-identical to the serial path (the cells' profile sums byte for
byte, attack results equal).  The profile sums a campaign cell
carries are chained back to the frozen samples by
``TestShardedGoldens`` and ``TestProfileSumsGoldens``.

CI re-runs this module with ``REPRO_GOLDEN_WORKERS=2`` so the
process-pool path is exercised with real workers, and with
``REPRO_GOLDEN_BACKEND=workqueue`` to drive the campaign goldens
through a :class:`~repro.backends.workqueue.WorkQueueBackend` served
by real forked worker processes — proving cross-process
work-queue dispatch is bit-identical too.
"""

import contextlib
import functools
import hashlib
import os
import tempfile

import numpy as np
import pytest

from repro.attack.bernstein import (
    ProfileSums,
    TimingProfile,
    profile_from_samples,
)
from repro.campaigns import CampaignRunner, ExperimentSpec, bernstein_grid
from repro.core.batch import AESTimingEngine, ShardPolicy, merge_shard_sums
from repro.core.setups import SETUP_NAMES, make_setup

from conftest import sums_bytes

#: Worker count for the campaign-path goldens (CI sets 2 to exercise
#: real worker processes; default keeps local runs cheap on
#: single-CPU boxes).
GOLDEN_WORKERS = int(os.environ.get("REPRO_GOLDEN_WORKERS", "1"))

#: Execution backend for the campaign-path goldens: "local" (serial /
#: process pool from GOLDEN_WORKERS), "workqueue" (filesystem queue
#: + spawned worker processes), or "http" (a CoordinatorServer +
#: spawned ``repro worker --coordinator`` processes — no
#: shared-filesystem assumption).
GOLDEN_BACKEND = os.environ.get("REPRO_GOLDEN_BACKEND", "local")

#: Shard geometry for the campaign-path goldens: "even" (default) or
#: "adaptive" — CI runs an adaptive pass to prove the geometry change
#: cannot perturb a single frozen byte.
GOLDEN_SHARD_POLICY = os.environ.get("REPRO_GOLDEN_SHARD_POLICY", "even")

#: With REPRO_GOLDEN_ELASTIC=1 the workqueue goldens run under an
#: ElasticSupervisor scaling 1..3 workers instead of a fixed pool.
GOLDEN_ELASTIC = os.environ.get("REPRO_GOLDEN_ELASTIC", "") == "1"

#: With REPRO_GOLDEN_TELEMETRY=1 every golden campaign run journals
#: its events to a temp JSONL file, which is schema-validated (and
#: required to have dropped nothing) after the run — while the frozen
#: digests above prove telemetry never touches a payload byte.
GOLDEN_TELEMETRY = os.environ.get("REPRO_GOLDEN_TELEMETRY", "") == "1"


def golden_policy() -> ShardPolicy:
    if GOLDEN_SHARD_POLICY == "adaptive":
        # Small min_block so even the 10-trial contention cells shard;
        # AES-engine plans snap it up to their 1024-sample blocks.
        return ShardPolicy.adaptive(min_block=4, growth=2.0)
    return ShardPolicy()


@contextlib.contextmanager
def _golden_journal():
    """A RunJournal under REPRO_GOLDEN_TELEMETRY=1 (else None);
    schema-validated after a successful run."""
    if not GOLDEN_TELEMETRY:
        yield None
        return
    from repro.telemetry import RunJournal, load_journal, validate_journal

    fd, path = tempfile.mkstemp(
        prefix="repro-golden-journal-", suffix=".jsonl"
    )
    os.close(fd)
    journal = RunJournal(path)
    try:
        yield journal
        assert journal.dropped == 0
        events = load_journal(path)
        assert events, "telemetry-on golden run journaled nothing"
        assert validate_journal(events) == []
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass


@contextlib.contextmanager
def golden_runner(**kwargs):
    """A CampaignRunner on the backend CI asked for (env knobs above)."""
    kwargs.setdefault("shard_policy", golden_policy())
    with _golden_journal() as journal:
        kwargs["telemetry"] = journal
        if GOLDEN_BACKEND == "workqueue":
            from repro.backends import WorkQueueBackend

            with tempfile.TemporaryDirectory(
                prefix="repro-golden-q-"
            ) as qdir:
                if GOLDEN_ELASTIC:
                    backend = WorkQueueBackend(
                        qdir,
                        min_workers=1,
                        max_workers=max(3, GOLDEN_WORKERS),
                        lease_timeout=300.0,
                        idle_timeout=600.0,
                        telemetry=journal,
                    )
                else:
                    backend = WorkQueueBackend(
                        qdir,
                        spawn_workers=max(2, GOLDEN_WORKERS),
                        lease_timeout=300.0,
                        idle_timeout=600.0,
                        telemetry=journal,
                    )
                try:
                    yield CampaignRunner(backend=backend, **kwargs)
                finally:
                    backend.close()
        elif GOLDEN_BACKEND == "http":
            # The campaign goldens through a real HTTP coordinator: an
            # in-process CoordinatorServer over a temp queue directory,
            # drained by spawned ``repro worker --coordinator``
            # processes — CI's proof that the network transport
            # cannot perturb a single frozen byte.
            from repro.backends import CoordinatorServer, HttpQueueBackend

            with tempfile.TemporaryDirectory(
                prefix="repro-golden-q-"
            ) as qdir:
                with CoordinatorServer(qdir) as server:
                    backend = HttpQueueBackend(
                        server.url,
                        spawn_workers=max(2, GOLDEN_WORKERS),
                        lease_timeout=300.0,
                        idle_timeout=600.0,
                        telemetry=journal,
                    )
                    try:
                        yield CampaignRunner(backend=backend, **kwargs)
                    finally:
                        backend.close()
        else:
            yield CampaignRunner(workers=GOLDEN_WORKERS, **kwargs)

GOLDEN_KEY = bytes(range(16))
GOLDEN_SAMPLES = 4096
GOLDEN_ENGINE_SEED = 2018

#: sha256(plaintexts || timings-as-little-endian-f8) per setup, for
#: collect(GOLDEN_KEY, GOLDEN_SAMPLES, party="victim",
#: campaign_seed=0xC0DE) on an engine seeded with GOLDEN_ENGINE_SEED.
GOLDEN_DIGESTS = {
    "deterministic":
        "1c2bd9f11f6df7d898a5cadf3e8056d19f309943492dae0da985693f66e8e8ba",
    "rpcache":
        "6ea5c4e16a5d90975add24a045a2c9c3c3a495f3923ac466bb5b4a6886b72201",
    "mbpta":
        "e13d1d53dd871e9475c08b917a96792b1f0dff5cde7551996b69a2dc0be7c086",
    "tscache":
        "9875d9202787c917924f19a489b6541f268c71b2f343603131cd37e889230383",
}

#: (bits_determined, remaining_key_space_log2) of the Figure 5 grid at
#: 12288 samples, root seed 2018 (serial reference values).
GOLDEN_ATTACKS = {
    "deterministic": (0, 103.95604490555502),
    "rpcache": (0, 128.0),
    "mbpta": (0, 128.0),
    "tscache": (0, 128.0),
}

#: Frozen (trials, correct) of the contention-attack kinds at root
#: seed 2018 — one leaking and one protected setup per kind.  Every
#: trial draws from a position-keyed stream, so these exact counts
#: must reproduce on any backend, shard count and completion order.
GOLDEN_CONTENTION = {
    ("prime_probe", "deterministic"): (64, 64),
    ("prime_probe", "rpcache"): (64, 4),
    ("prime_probe", "mbpta"): (64, 64),
    ("prime_probe", "tscache"): (64, 5),
    ("evict_time", "deterministic"): (10, 10),
    ("evict_time", "rpcache"): (10, 0),
    ("evict_time", "mbpta"): (10, 10),
    ("evict_time", "tscache"): (10, 0),
}

#: Frozen per-run hierarchy latencies of a 6-run pwcet cell (default
#: trace shape, ``analyse=False``) at root seed 2018 — one cell per
#: setup, covering the deterministic hierarchies and the random
#: RM+hashRP ones (per-run reseeding included).  Every setup is inside
#: the envelope of :class:`repro.kernels.replay.VectorHierarchyBatch`,
#: which replays them; ``tests/test_kernels.py`` replays them again on
#: the scalar fallback.
GOLDEN_PWCET = {
    "deterministic": (73856.0,) * 6,
    "rpcache": (73856.0,) * 6,
    "mbpta": (77086.0, 72086.0, 72086.0, 78086.0, 72086.0, 72086.0),
    "tscache": (72086.0,) * 6,
}

#: Frozen (accesses, misses) of missrate cells at root seed 2018 —
#: spanning placements, set-local replacements, and one random-
#: replacement cell whose globally-sequenced draws keep it on the
#: documented scalar fallback.
GOLDEN_MISSRATE = {
    ("modulo", "stride", "lru"): (6144, 6144),
    ("random_modulo", "stride", "lru"): (6144, 6144),
    ("random_modulo", "reuse", "plru"): (12000, 2674),
    ("hashrp", "reuse", "nru"): (12000, 3235),
    ("xor_index", "stride", "fifo"): (6144, 6144),
    ("random_modulo", "stride", "random"): (6144, 6093),
}


def contention_specs():
    return [
        ExperimentSpec(
            kind=kind,
            setup=setup,
            num_samples=trials,
            seed=2018,
        )
        for (kind, setup), (trials, _) in sorted(GOLDEN_CONTENTION.items())
    ]


def pwcet_specs():
    return [
        ExperimentSpec(
            kind="pwcet", setup=setup, num_samples=6, seed=2018,
            params={"analyse": False},
        )
        for setup in sorted(GOLDEN_PWCET)
    ]


def missrate_specs():
    return [
        ExperimentSpec(
            kind="missrate", seed=2018, num_samples=1,
            params={"policy": policy, "workload": workload,
                    "replacement": replacement},
        )
        for policy, workload, replacement in sorted(GOLDEN_MISSRATE)
    ]


def sample_digest(samples) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(samples.plaintexts,
                                  dtype=np.uint8).tobytes())
    h.update(np.ascontiguousarray(samples.timings).astype("<f8").tobytes())
    return h.hexdigest()


def golden_engine(setup_name: str) -> AESTimingEngine:
    return AESTimingEngine(make_setup(setup_name), rng=GOLDEN_ENGINE_SEED)


class TestSerialGoldens:
    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_collect_matches_frozen_digest(self, setup_name):
        samples = golden_engine(setup_name).collect(
            GOLDEN_KEY, GOLDEN_SAMPLES, party="victim", campaign_seed=0xC0DE
        )
        assert sample_digest(samples) == GOLDEN_DIGESTS[setup_name], (
            f"{setup_name}: the timing engine's output changed — if this "
            "is intentional, refresh GOLDEN_DIGESTS (and expect cached "
            "campaign results to be stale)"
        )

    def test_digests_distinguish_setups(self):
        assert len(set(GOLDEN_DIGESTS.values())) == len(GOLDEN_DIGESTS)


@functools.lru_cache(maxsize=None)
def collect_index(setup_name, party):
    """``collect``'s samples as (profile index, timings); the victim's
    are checked against the frozen digest first."""
    samples = golden_engine(setup_name).collect(
        GOLDEN_KEY, GOLDEN_SAMPLES, party=party, campaign_seed=0xC0DE
    )
    if party == "victim":
        assert sample_digest(samples) == GOLDEN_DIGESTS[setup_name]
        return samples.plaintexts, samples.timings
    return samples.key_xor_plaintexts(), samples.timings


def index_key(party):
    return GOLDEN_KEY if party == "attacker" else None


def check_plan(engine, party, plan):
    """Every shard's sums, merged in a shuffled order, equal the sums
    of the frozen samples byte for byte; the first two shards, merged
    as a prefix, equal the sums of the samples they cover."""
    index, timings = collect_index(engine.setup.name, party)
    assert len(plan) >= 3, "plan must shard the budget past a prefix"
    parts = [
        engine.collect_shard_sums(
            GOLDEN_KEY, GOLDEN_SAMPLES, shard, party=party,
            campaign_seed=0xC0DE, index_key=index_key(party),
        )
        for shard in plan
    ]
    shuffled = parts[2:] + parts[:2][::-1]
    assert sums_bytes(merge_shard_sums(shuffled)) == sums_bytes(
        ProfileSums.from_samples(index, timings)
    )
    end = plan[1].end
    prefix = merge_shard_sums([parts[1], parts[0]], partial=True)
    assert sums_bytes(prefix) == sums_bytes(
        ProfileSums.from_samples(index[:end], timings[:end])
    )


class TestShardedGoldens:
    """An even and an adaptive plan: the merged shard sums are the
    sums of the samples ``GOLDEN_DIGESTS`` pins."""

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    @pytest.mark.parametrize("num_shards", [3])
    def test_sharded_collect_matches_frozen_digest(self, setup_name,
                                                   num_shards):
        engine = golden_engine(setup_name)
        check_plan(engine, "victim",
                   engine.shard_plan(GOLDEN_SAMPLES, num_shards))

    @pytest.mark.parametrize("setup_name", SETUP_NAMES)
    def test_adaptive_plan_matches_frozen_digest(self, setup_name):
        """Adaptive geometry moves shard cuts, never sample values."""
        engine = golden_engine(setup_name)
        check_plan(engine, "victim", engine.shard_plan(
            GOLDEN_SAMPLES, 4, ShardPolicy.adaptive(min_block=1024)
        ))


class TestProfileSumsGoldens:
    """The chain from the frozen samples to what a bernstein cell
    carries: the engine's chunked profile sums equal, byte for byte,
    the sums of the samples ``collect`` returns (which
    ``GOLDEN_DIGESTS`` pins), whole, merged from uneven shards in any
    order, and as a prefix; and the profile built from sums is the
    profile built from samples, bit for bit."""

    @pytest.fixture(params=SETUP_NAMES)
    def engine(self, request):
        return golden_engine(request.param)

    @pytest.fixture(params=["victim", "attacker"])
    def party(self, request):
        return request.param

    def test_sums_match_collected_samples(self, engine, party):
        index, timings = collect_index(engine.setup.name, party)
        sums = engine.collect_sums(
            GOLDEN_KEY, GOLDEN_SAMPLES, party=party, campaign_seed=0xC0DE,
            index_key=index_key(party),
        )
        assert sums_bytes(sums) == sums_bytes(
            ProfileSums.from_samples(index, timings)
        )
        from_sums = TimingProfile.from_sums(sums)
        from_samples = profile_from_samples(index, timings)
        for field in ("deviations", "counts", "mean_variances"):
            assert (
                getattr(from_sums, field).tobytes()
                == getattr(from_samples, field).tobytes()
            )
        assert from_sums.global_mean == from_samples.global_mean

    def test_uneven_shards_and_prefix_match(self, engine, party):
        plan = engine.shard_plan(
            GOLDEN_SAMPLES, 3, ShardPolicy.adaptive(min_block=1024)
        )
        sizes = [shard.num_samples for shard in plan]
        assert len(sizes) == 3 and len(set(sizes)) > 1
        check_plan(engine, party, plan)


class TestCampaignGoldens:
    """The acceptance criterion: a Bernstein cell with
    ``max_shards_per_cell > 1`` — on a process pool or a work queue
    served by independent worker processes (REPRO_GOLDEN_BACKEND) —
    produces byte-identical profile sums and identical attack results
    to the serial path."""

    @pytest.fixture(scope="class")
    def specs(self):
        return bernstein_grid(num_samples=12_288, seed=2018)

    @pytest.fixture(scope="class")
    def serial(self, specs):
        return CampaignRunner().run(specs)

    def test_serial_attack_matches_frozen_results(self, serial):
        for cell in serial:
            report = cell.payload.report
            expected_bits, expected_space = GOLDEN_ATTACKS[cell.spec.setup]
            assert report.bits_determined == expected_bits
            assert report.remaining_key_space_log2 == pytest.approx(
                expected_space, rel=1e-9
            )

    def test_sharded_pool_bit_identical_to_serial(self, specs, serial):
        with golden_runner(max_shards_per_cell=3) as runner:
            sharded = runner.run(specs)
        for ser, shd in zip(serial, sharded):
            assert ser.spec == shd.spec
            assert shd.num_shards > 1
            for party in ("victim_sums", "attacker_sums"):
                assert sums_bytes(getattr(ser.payload, party)) == (
                    sums_bytes(getattr(shd.payload, party))
                ), f"{ser.spec.setup}: {party} differ"
            assert ser.payload.victim_key == shd.payload.victim_key
            assert (
                ser.payload.report.remaining_key_space_log2
                == shd.payload.report.remaining_key_space_log2
            )
            assert (
                ser.payload.report.bits_determined
                == shd.payload.report.bits_determined
            )


class TestContentionGoldens:
    """The contention kinds under the same regime: frozen per-cell
    trial outcomes, asserted for the serial path and for a sharded run
    on whichever backend CI selected (process pool or a work queue
    served by real worker processes) — the acceptance
    proof that ``prime_probe``/``evict_time`` merged results are
    bit-identical across backends and shard counts."""

    @pytest.fixture(scope="class")
    def serial(self):
        return CampaignRunner().run(contention_specs())

    def test_serial_matches_frozen_outcomes(self, serial):
        for cell in serial:
            key = (cell.spec.kind, cell.spec.setup)
            assert (
                cell.payload.trials, cell.payload.correct
            ) == GOLDEN_CONTENTION[key], (
                f"{key}: contention trial outcomes changed — if this is "
                "intentional, refresh GOLDEN_CONTENTION"
            )

    def test_sharded_backend_bit_identical_to_serial(self, serial):
        with golden_runner(max_shards_per_cell=3) as runner:
            sharded = runner.run(contention_specs())
        for ser, shd in zip(serial, sharded):
            assert ser.spec == shd.spec
            assert shd.num_shards > 1
            assert ser.payload == shd.payload
            assert type(ser.payload) is type(shd.payload)


class TestReplayGoldens:
    """The trace-replay kinds under the golden regime: frozen per-run
    pwcet latencies and missrate counters, asserted on the serial path
    and (for the shardable pwcet cells) on CI's selected backend.
    The in-envelope cells run the batched replay kernels
    (:mod:`repro.kernels.replay`) and must reproduce the frozen values
    byte for byte — the random-replacement missrate cell takes the
    documented scalar fallback."""

    @pytest.fixture(scope="class")
    def pwcet_serial(self):
        return CampaignRunner().run(pwcet_specs())

    def test_pwcet_matches_frozen_latencies(self, pwcet_serial):
        for cell in pwcet_serial:
            expected = np.array(GOLDEN_PWCET[cell.spec.setup])
            assert np.array_equal(cell.payload.times, expected), (
                f"pwcet/{cell.spec.setup}: per-run latencies changed — "
                "if this is intentional, refresh GOLDEN_PWCET"
            )

    def test_pwcet_sharded_backend_bit_identical(self, pwcet_serial):
        with golden_runner(max_shards_per_cell=3) as runner:
            sharded = runner.run(pwcet_specs())
        for ser, shd in zip(pwcet_serial, sharded):
            assert ser.spec == shd.spec
            assert shd.num_shards > 1
            assert (
                ser.payload.times.tobytes() == shd.payload.times.tobytes()
            )

    def test_missrate_matches_frozen_counters(self):
        with golden_runner() as runner:
            cells = runner.run(missrate_specs())
        for cell in cells:
            key = (
                cell.spec.param("policy"),
                cell.spec.param("workload"),
                cell.spec.param("replacement"),
            )
            assert (
                cell.payload.accesses, cell.payload.misses
            ) == GOLDEN_MISSRATE[key], (
                f"missrate/{key}: counters changed — if this is "
                "intentional, refresh GOLDEN_MISSRATE"
            )
