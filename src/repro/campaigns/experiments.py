"""Built-in experiment kinds: the paper's evaluation grid as cells.

Each kind is a module-level function from :class:`ExperimentSpec` to a
picklable payload, registered under a stable name:

``bernstein``
    The full Bernstein case study (§6.1-§6.2.1) on one setup: reduce
    both parties' samples to profile sums, run the correlation attack,
    grade the key space.  Payload:
    :class:`repro.core.simulator.CaseStudyResult`, a fixed size at any
    sample count; shards carry :class:`~repro.core.batch.ShardSums`
    and merge by addition.  Figure 4 (timing deviation per value of
    one input byte) is a row of the deterministic cell's victim
    profile.
``pwcet``
    Execution times of the synthetic multi-page task over many runs
    (fresh seed per run, the MBPTA analysis-phase protocol) plus the
    EVT admission verdicts and pWCET curve (Figure 1).
``missrate``
    Miss rate of one placement policy on one synthetic workload
    (§6.2.3 overheads).
``prime_probe`` / ``evict_time``
    The §6.2.1 generalization: a contention attack's secret-guessing
    accuracy against one cache configuration, as independent trials
    (``num_samples`` = trial budget).  Payload:
    :class:`repro.attack.prime_probe.PrimeProbeResult` /
    :class:`repro.attack.evict_time.EvictTimeResult`.  Both kinds are
    shardable down to single trials (every trial draws from a
    position-keyed stream) and define a ``should_stop`` hook — a
    sequential probability ratio test on accuracy vs. chance — so a
    runner with ``early_stop=True`` cancels a cell's remaining trial
    shards once the leak/no-leak verdict is decided.

All randomness is drawn from the spec's private
:meth:`~repro.campaigns.spec.ExperimentSpec.seed_sequence`, so results
do not depend on execution order or worker placement.

The sample-range kinds (``bernstein``, ``pwcet``, ``prime_probe``,
``evict_time``) are additionally *shardable*: their
``plan_shards``/``run_shard``/``merge_shards`` hooks let
:class:`~repro.campaigns.runner.CampaignRunner` fan one big cell out
across the process pool (``max_shards_per_cell``) and merge the
partial payloads bit-identically to an unsharded run — each shard
worker reconstructs the cell's state from the spec alone, so no
coordination or shared mutable state is involved.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.campaigns.registry import KernelResolution, register_experiment
from repro.campaigns.spec import ExperimentSpec
from repro.cache.core import ARM920T_L1_GEOMETRY, SetAssociativeCache
from repro.cache.placement import make_placement
from repro.cache.replacement import make_replacement
from repro.common.trace import TraceArrays, trace_arrays
from repro.core.batch import (
    Shard,
    ShardPlan,
    ShardPolicy,
    ShardSums,
    merge_shard_sums,
)
from repro.core.setups import (
    SetupConfig,
    make_setup,
    make_setup_hierarchy,
    setup_hierarchy_config,
)
from repro.core.simulator import BernsteinCaseStudy, CaseStudyResult
from repro.mbpta.analysis import MBPTAAnalysis, MBPTAReport
from repro.workloads.generators import (
    matrix_walk_trace,
    multi_page_task_trace,
    pointer_chase_trace,
    random_trace,
    reuse_trace,
    stride_trace,
)
from repro.workloads.interference import (
    BackgroundWorkload,
    windowed_background,
)

# -- shared helpers ---------------------------------------------------------

#: SetupConfig fields a spec may override (the ablation axes).
SETUP_OVERRIDE_FIELDS = (
    "l1_replacement",
    "shared_seed_between_parties",
    "reseed_every",
)


def resolve_setup(spec: ExperimentSpec) -> SetupConfig:
    """The spec's setup with any ablation overrides applied."""
    if spec.setup is None:
        raise ValueError(f"experiment {spec.kind!r} needs a setup")
    setup = make_setup(spec.setup)
    params = spec.params_dict()
    overrides: Dict[str, Any] = {
        name: params[name]
        for name in SETUP_OVERRIDE_FIELDS
        if name in params
    }
    variant = params.get("variant")
    if overrides or variant:
        setup = dataclasses.replace(
            setup, name=variant or setup.name, **overrides
        )
    return setup


def resolve_background(spec: ExperimentSpec) -> Optional[BackgroundWorkload]:
    """An ablation background, or None for the case-study default."""
    window = spec.param("background_window_lines")
    if window is None:
        return None
    return windowed_background(int(window))


def _key_param(spec: ExperimentSpec, name: str) -> Optional[bytes]:
    value = spec.param(name)
    if value is None:
        return None
    key = bytes.fromhex(value)
    if len(key) != 16:
        raise ValueError(f"{name} must be 16 bytes, got {len(key)}")
    return key


def resolve_engine_kernel(spec: ExperimentSpec) -> KernelResolution:
    """Every engine-backed cell runs "vector".

    The AES timing engine has no scalar path: encryptions and timings
    are NumPy batches, and the per-epoch cold-line replay runs every
    epoch of a shard as one lane of a vector cache pass."""
    return KernelResolution("vector")


def resolve_pwcet_kernel(spec: ExperimentSpec) -> KernelResolution:
    """pwcet cells batch over runs when the setup's hierarchy config is
    inside the trace-replay envelope (vectorizable placements, fixed or
    per-run-restarting replacement streams)."""
    from repro.kernels.replay import hierarchy_support

    reason = hierarchy_support(setup_hierarchy_config(spec.setup))
    if reason is None:
        return KernelResolution("vector")
    return KernelResolution("scalar", reason)


def resolve_missrate_kernel(spec: ExperimentSpec) -> KernelResolution:
    """missrate cells replay in set rounds when the cache's per-set
    state is independent across sets; random replacement's globally
    sequenced draws keep it on the scalar path, with the reason
    recorded."""
    from repro.kernels.replay import missrate_support

    reason = missrate_support(_missrate_cache(spec))
    if reason is None:
        return KernelResolution("vector")
    return KernelResolution("scalar", reason)


# -- bernstein --------------------------------------------------------------

def _summarize_bernstein(spec: ExperimentSpec, payload: Any) -> Dict[str, Any]:
    report = payload.report
    leaking = sorted(
        o.byte_index for o in report.outcomes if o.num_surviving < 256
    )
    return {
        "bits_determined": report.bits_determined,
        "remaining_key_space_log2": round(
            report.remaining_key_space_log2, 2
        ),
        "brute_force_speedup_log2": round(
            report.brute_force_speedup_log2, 2
        ),
        "leaking_bytes": leaking,
        "key_fully_protected": report.key_fully_protected,
    }


def _bernstein_study(spec: ExperimentSpec):
    """The cell's case study, reconstructed identically anywhere.

    Every shard worker (and the merge step) builds the same object
    from the spec alone: same engine entropy root, same resolved keys.
    """
    return BernsteinCaseStudy(
        resolve_setup(spec),
        num_samples=spec.num_samples,
        background=resolve_background(spec),
        rng_seed=spec.seed_sequence(),
    )


def _engine_campaign_seed(spec: ExperimentSpec) -> int:
    return int(spec.param("engine_campaign_seed", 0xC0DE))


def plan_bernstein_shards(
    spec: ExperimentSpec,
    max_shards: int,
    policy: Optional[ShardPolicy] = None,
) -> ShardPlan:
    study = _bernstein_study(spec)
    return study.engine.shard_plan(spec.num_samples, max_shards, policy)


def run_bernstein_shard(
    spec: ExperimentSpec, shard: Shard
) -> Dict[str, ShardSums]:
    """Both parties' profile sums over one shard."""
    study = _bernstein_study(spec)
    victim_key, attacker_key = study.resolve_keys(
        _key_param(spec, "victim_key"), _key_param(spec, "attacker_key")
    )
    campaign_seed = _engine_campaign_seed(spec)
    return {
        "attacker": study.engine.collect_shard_sums(
            attacker_key, spec.num_samples, shard,
            party="attacker", campaign_seed=campaign_seed,
            index_key=attacker_key,
        ),
        "victim": study.engine.collect_shard_sums(
            victim_key, spec.num_samples, shard,
            party="victim", campaign_seed=campaign_seed,
        ),
    }


def merge_bernstein_shards(
    spec: ExperimentSpec,
    parts: Sequence[Dict[str, ShardSums]],
    *,
    partial: bool = False,
) -> CaseStudyResult:
    """The cell's result from the sum of its shards' sums."""
    study = _bernstein_study(spec)
    victim_key, _ = study.resolve_keys(
        _key_param(spec, "victim_key"), _key_param(spec, "attacker_key")
    )
    return CaseStudyResult(
        setup=study.setup,
        victim_sums=merge_shard_sums(
            [p["victim"] for p in parts], partial=partial
        ),
        attacker_sums=merge_shard_sums(
            [p["attacker"] for p in parts], partial=partial
        ),
        victim_key=victim_key,
    )


def merge_bernstein_partial(
    spec: ExperimentSpec, parts: Sequence[Dict[str, ShardSums]]
) -> CaseStudyResult:
    """The correlation attack over a contiguous prefix of the budget —
    an incremental Figure 5 data point at a smaller sample count."""
    return merge_bernstein_shards(spec, parts, partial=True)


@register_experiment(
    "bernstein",
    summarize=_summarize_bernstein,
    plan_shards=plan_bernstein_shards,
    run_shard=run_bernstein_shard,
    merge_shards=merge_bernstein_shards,
    merge_partial=merge_bernstein_partial,
    resolve_kernel=resolve_engine_kernel,
)
def run_bernstein(spec: ExperimentSpec):
    """One Figure 5 panel: the correlation attack against one setup.

    Params: ``victim_key``/``attacker_key`` (hex; drawn from the cell
    stream when absent), ``background_window_lines`` (interference
    ablation), ``engine_campaign_seed``, ``variant`` plus the
    :data:`SETUP_OVERRIDE_FIELDS` (setup ablations).
    """
    study = _bernstein_study(spec)
    return study.run(
        victim_key=_key_param(spec, "victim_key"),
        attacker_key=_key_param(spec, "attacker_key"),
        campaign_seed=_engine_campaign_seed(spec),
    )


# -- pwcet ------------------------------------------------------------------

@dataclass
class PwcetPayload:
    """Collected execution times plus the MBPTA verdicts."""

    times: np.ndarray
    report: Optional[MBPTAReport]


def _summarize_pwcet(
    spec: ExperimentSpec, payload: PwcetPayload
) -> Dict[str, Any]:
    record: Dict[str, Any] = {
        "runs": int(payload.times.size),
        "mean_cycles": round(float(payload.times.mean()), 1),
        "max_cycles": round(float(payload.times.max()), 1),
    }
    report = payload.report
    if report is not None:
        record.update(
            ljung_box_p=round(report.independence.p_value, 4),
            ks_p=round(report.identical_distribution.p_value, 4),
            compliant=report.compliant,
        )
        if report.curve is not None:
            record["pwcet_1e-12"] = round(report.pwcet(1e-12), 1)
    return record


def _pwcet_trace(spec: ExperimentSpec):
    return multi_page_task_trace(
        pages=int(spec.param("pages", 5)),
        lines_per_page=int(spec.param("lines_per_page", 128)),
        object_lines=int(spec.param("object_lines", 0)),
        object_offset=int(spec.param("object_offset", 0)),
        rewalk_lines=int(spec.param("rewalk_lines", 256)),
    )


def _pwcet_run_seed(root, run: int) -> int:
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=root.spawn_key + (run,)
    )
    return int(child.generate_state(1)[0])


def _pwcet_times_vector(
    spec: ExperimentSpec, trace, start: int, end: int
) -> Optional[np.ndarray]:
    """Batched replay of runs ``[start, end)``, or None outside the
    vector envelope.

    Each scalar run builds a *fresh* hierarchy (restarting every
    replacement draw stream), so the batch reproduces it with one
    seeded run per row — bit-identical latencies, ``R`` runs wide.
    """
    from repro.kernels.replay import VectorHierarchyBatch, hierarchy_support

    config = setup_hierarchy_config(spec.setup)
    if hierarchy_support(config) is not None:
        return None
    batch = VectorHierarchyBatch(config, end - start)
    if bool(spec.param("reseed", True)):
        root = spec.seed_sequence()
        for offset, run in enumerate(range(start, end)):
            batch.set_seeds(offset, _pwcet_run_seed(root, run))
    return batch.run_trace(trace).astype(np.float64)


def _pwcet_times_scalar(
    spec: ExperimentSpec, trace, start: int, end: int
) -> np.ndarray:
    """Runs ``[start, end)`` one fresh hierarchy at a time: the
    fallback outside the vector envelope and the reference the replay
    kernel is tested against."""
    reseed = bool(spec.param("reseed", True))
    root = spec.seed_sequence() if reseed else None
    times = np.empty(end - start)
    for offset, run in enumerate(range(start, end)):
        hierarchy = make_setup_hierarchy(spec.setup)
        if root is not None:
            hierarchy.set_seeds(_pwcet_run_seed(root, run))
        times[offset] = hierarchy.run_trace(trace)
    return times


def _pwcet_times(spec: ExperimentSpec, start: int, end: int) -> np.ndarray:
    """Execution times of runs ``[start, end)`` of the cell's budget.

    Run ``i`` reseeds from the ``i``-th child of the cell's seed
    stream — constructed directly by position (identical to
    ``seed_sequence().spawn(n)[i]``, without materialising the whole
    budget's children in every shard) — so a run's platform seed
    depends only on its position, never on which shard executes it or
    in what order.
    """
    trace = _pwcet_trace(spec)
    if end > start:
        times = _pwcet_times_vector(spec, trace, start, end)
        if times is not None:
            return times
    return _pwcet_times_scalar(spec, trace, start, end)


def _pwcet_payload(spec: ExperimentSpec, times: np.ndarray) -> PwcetPayload:
    report: Optional[MBPTAReport] = None
    if bool(spec.param("analyse", True)):
        analysis = MBPTAAnalysis(
            method=spec.param("method", "pot"),
            tail_fraction=float(spec.param("tail_fraction", 0.15)),
        )
        report = analysis.analyse(times)
    return PwcetPayload(times=times, report=report)


def plan_pwcet_shards(
    spec: ExperimentSpec,
    max_shards: int,
    policy: Optional[ShardPolicy] = None,
) -> ShardPlan:
    """Runs are independent, so any split (even or adaptive) merges."""
    return (policy or ShardPolicy()).plan(spec.num_samples, max_shards)


def run_pwcet_shard(spec: ExperimentSpec, shard: Shard) -> np.ndarray:
    return _pwcet_times(spec, shard.start, shard.end)


def merge_pwcet_shards(
    spec: ExperimentSpec, parts: Sequence[np.ndarray]
) -> PwcetPayload:
    return _pwcet_payload(spec, np.concatenate(list(parts)))


def merge_pwcet_partial(
    spec: ExperimentSpec, parts: Sequence[np.ndarray]
) -> PwcetPayload:
    """MBPTA verdicts over the runs collected so far (a prefix of the
    budget); the admission tests may legitimately fail on few runs —
    the runner treats partial-merge failures as skippable."""
    return _pwcet_payload(spec, np.concatenate(list(parts)))


@register_experiment(
    "pwcet",
    summarize=_summarize_pwcet,
    plan_shards=plan_pwcet_shards,
    run_shard=run_pwcet_shard,
    merge_shards=merge_pwcet_shards,
    merge_partial=merge_pwcet_partial,
    resolve_kernel=resolve_pwcet_kernel,
)
def run_pwcet(spec: ExperimentSpec) -> PwcetPayload:
    """MBPTA collection + analysis on one setup (``num_samples`` runs).

    Params: trace shape (``pages``, ``lines_per_page``,
    ``object_lines``, ``object_offset``, ``rewalk_lines``), ``reseed``
    (False = deterministic platform, no per-run reseeding),
    ``analyse`` (False = collect only), ``method``, ``tail_fraction``.
    """
    return _pwcet_payload(spec, _pwcet_times(spec, 0, spec.num_samples))


# -- contention attacks (prime_probe / evict_time) --------------------------

#: Default geometry for the contention-attack kinds: small enough that
#: a trial is cheap, structured like the paper's L1 (16 sets, 4 ways).
_CONTENTION_GEOMETRY = (2048, 4, 32)

#: spawn_key tag reserving the per-trial victim/attacker placement-seed
#: stream (trial RNG children use bare ``(trial,)`` suffixes — the
#: two-word suffix below never collides with them).
_CONTENTION_SEED_TAG = 0x7541_5EED

#: Per-kind default secret-space size (the paper's table sizes differ
#: per attack cost: Evict+Time builds ``num_entries`` caches per trial).
_CONTENTION_DEFAULT_ENTRIES = {"prime_probe": 16, "evict_time": 8}


def _contention_geometry(spec: ExperimentSpec):
    from repro.cache.core import CacheGeometry

    size, ways, line = _CONTENTION_GEOMETRY
    return CacheGeometry(
        total_size=int(spec.param("cache_bytes", size)),
        num_ways=int(spec.param("ways", ways)),
        line_size=int(spec.param("line_bytes", line)),
    )


def _contention_policy(spec: ExperimentSpec) -> str:
    """The L1 policy under attack: explicit param, or the setup's."""
    policy = spec.param("policy")
    if policy is not None:
        return str(policy)
    if spec.setup is None:
        raise ValueError(
            f"{spec.kind} cells need a setup or a 'policy' param"
        )
    return make_setup(spec.setup).l1_policy


def _contention_seeding(spec: ExperimentSpec) -> str:
    """Per-trial seed discipline: 'fixed', 'shared' or 'per_process'.

    Derived from the setup when not given explicitly: deterministic
    placement needs no seeds; randomized placement gets fresh per-trial
    seeds — shared between the parties when the setup lets an attacker
    run under the victim's seed (the MBPTACache hazard), unique per
    process otherwise (TSCache).
    """
    mode = spec.param("seeding")
    if mode is not None:
        if mode not in ("fixed", "shared", "per_process"):
            raise ValueError(
                f"unknown seeding mode {mode!r}; choose fixed, shared "
                "or per_process"
            )
        return str(mode)
    if spec.setup is None:
        return "fixed"
    setup = make_setup(spec.setup)
    if not setup.is_randomized:
        return "fixed"
    return "shared" if setup.shared_seed_between_parties else "per_process"


def _contention_cache_factory(spec: ExperimentSpec):
    geometry = _contention_geometry(spec)
    policy = _contention_policy(spec)
    if policy == "rpcache":
        from repro.cache.rpcache import RPCache

        return lambda: RPCache(geometry)
    # Default to the setup's replacement policy (MBPTA designs pair
    # random placement with random replacement, §2.1); the factory
    # builds a fresh cache per trial, and RandomReplacement's default
    # PRNG is fixed-seeded, so trial outcomes stay a pure function of
    # the trial index on every shard.
    replacement = spec.param("replacement")
    if replacement is None:
        replacement = (
            make_setup(spec.setup).l1_replacement
            if spec.setup is not None
            else "lru"
        )

    def factory():
        return SetAssociativeCache(
            geometry,
            make_placement(policy, geometry.layout()),
            make_replacement(
                replacement, geometry.num_sets, geometry.num_ways
            ),
        )

    return factory


def _contention_seeder(spec: ExperimentSpec):
    """The per-trial ``seed_victim`` hook, or None for fixed seeding.

    Seeds are drawn from a reserved child of the cell's seed stream,
    keyed by the absolute trial index — a pure function of (spec,
    trial), which keeps sharded runs bit-identical to serial ones.
    """
    mode = _contention_seeding(spec)
    if mode == "fixed":
        return None
    if _contention_policy(spec) == "rpcache":
        raise ValueError(
            "rpcache has no placement seeds (pids select permutation "
            "tables); use seeding='fixed'"
        )
    root = spec.seed_sequence()
    victim_pid = int(spec.param("victim_pid", 1))
    attacker_pid = int(spec.param("attacker_pid", 2))

    def seeder(cache, trial):
        child = np.random.SeedSequence(
            entropy=root.entropy,
            spawn_key=root.spawn_key + (_CONTENTION_SEED_TAG, trial),
        )
        victim_seed, attacker_seed = (
            int(word) for word in child.generate_state(2)
        )
        if mode == "shared":
            attacker_seed = victim_seed
        cache.set_seed(victim_seed, pid=victim_pid)
        cache.set_seed(attacker_seed, pid=attacker_pid)

    return seeder


def _contention_entries(spec: ExperimentSpec) -> int:
    return int(
        spec.param("num_entries", _CONTENTION_DEFAULT_ENTRIES[spec.kind])
    )


def _contention_attack_class(kind: str) -> type:
    """The single kind -> attack-class dispatch point."""
    from repro.attack.evict_time import EvictTimeAttack
    from repro.attack.prime_probe import PrimeProbeAttack

    classes = {
        "prime_probe": PrimeProbeAttack,
        "evict_time": EvictTimeAttack,
    }
    try:
        return classes[kind]
    except KeyError:
        raise ValueError(f"not a contention kind: {kind!r}") from None


def _contention_attack(spec: ExperimentSpec):
    cls = _contention_attack_class(spec.kind)
    kwargs = dict(
        cache_factory=_contention_cache_factory(spec),
        num_entries=_contention_entries(spec),
        victim_pid=int(spec.param("victim_pid", 1)),
        attacker_pid=int(spec.param("attacker_pid", 2)),
        seed=spec.seed_sequence(),
    )
    if spec.kind == "evict_time":
        kwargs["miss_penalty"] = int(spec.param("miss_penalty", 10))
    return cls(**kwargs)


def resolve_contention_kernel(spec: ExperimentSpec) -> KernelResolution:
    """The kernel a contention cell will actually execute on.

    Probes a freshly-built cache with the *same* capability check the
    attack applies per block; outside the vector envelope (e.g. a
    custom replacement PRNG, a wide hashRP) the cell falls back to
    scalar with the probe's reason attached."""
    from repro.kernels.trials import vector_cache_support

    reason = vector_cache_support(_contention_cache_factory(spec)())
    if reason is None:
        return KernelResolution("vector")
    return KernelResolution("scalar", reason)


def _summarize_contention(spec: ExperimentSpec, payload) -> Dict[str, Any]:
    return {
        "trials": payload.trials,
        "correct": payload.correct,
        "accuracy": round(payload.accuracy, 4),
        "chance": round(payload.chance_level, 4),
        "leaks": payload.leaks,
    }


def plan_contention_shards(
    spec: ExperimentSpec,
    max_shards: int,
    policy: Optional[ShardPolicy] = None,
) -> ShardPlan:
    """Trials are independent, so any split geometry is merge-safe.

    Under an adaptive policy the leading shards are small, which is
    what lets an ``early_stop`` run reach the SPRT's minimum trial
    count after the first unit instead of after ``budget/max_shards``.
    """
    return (policy or ShardPolicy()).plan(spec.num_samples, max_shards)


def run_contention_shard(spec: ExperimentSpec, shard: Shard):
    """Trial outcomes for one shard's range of the cell's budget."""
    attack = _contention_attack(spec)
    return attack.run_block(
        shard.start,
        shard.end,
        spec.num_samples,
        seed_victim=_contention_seeder(spec),
    )


def _contention_result_type(kind: str) -> type:
    return _contention_attack_class(kind).result_type


def merge_contention_shards(spec: ExperimentSpec, parts: Sequence[Any]):
    from repro.attack.trials import merge_trial_blocks

    return merge_trial_blocks(
        parts, result_type=_contention_result_type(spec.kind)
    )


def merge_contention_partial(spec: ExperimentSpec, parts: Sequence[Any]):
    """Accuracy over the contiguous trial prefix completed so far —
    the payload the ``should_stop`` hook rules on."""
    from repro.attack.trials import merge_trial_blocks

    return merge_trial_blocks(
        parts,
        partial=True,
        result_type=_contention_result_type(spec.kind),
    )


def _contention_stop_params(spec: ExperimentSpec):
    # The min-trials floor adapts to the budget: a cell whose whole
    # budget is below the fixed floor (the grid's evict_time cells)
    # could otherwise never evaluate its rule on any strict prefix —
    # the Wald boundaries control the error rates at any floor, the
    # floor only adds conservatism.
    default_min = min(16, max(4, spec.num_samples // 2))
    return (
        float(spec.param("stop_leak_factor", 4.0)),
        float(spec.param("stop_alpha", 1e-3)),
        int(spec.param("stop_min_trials", default_min)),
    )


def contention_should_stop(spec: ExperimentSpec, partial) -> bool:
    """Stop once the SPRT decides leak *or* no-leak on the prefix.

    The stop additionally requires the sequential decision to agree
    with the verdict the truncated payload will report
    (:attr:`ContentionResult.leaks`, the 3x-chance threshold): near
    the threshold the SPRT can decide while the prefix accuracy sits
    on the other side of 3x chance, and stopping there would report a
    verdict the decision does not back.  Clear-cut cells (all four
    paper setups) are never delayed by the extra check.
    """
    from repro.attack.trials import sequential_leak_test

    leak_factor, alpha, min_trials = _contention_stop_params(spec)
    verdict = sequential_leak_test(
        partial.trials,
        partial.correct,
        partial.chance_level,
        leak_factor=leak_factor,
        alpha=alpha,
        min_trials=min_trials,
    )
    return verdict is not None and verdict == partial.leaks


def contention_stop_rule(spec: ExperimentSpec) -> str:
    leak_factor, alpha, min_trials = _contention_stop_params(spec)
    chance = 1.0 / _contention_entries(spec)
    return (
        f"sprt acc vs chance={chance:.3g} "
        f"(leak={leak_factor:g}x, alpha={alpha:g}, min={min_trials})"
    )


@register_experiment(
    "prime_probe",
    summarize=_summarize_contention,
    plan_shards=plan_contention_shards,
    run_shard=run_contention_shard,
    merge_shards=merge_contention_shards,
    merge_partial=merge_contention_partial,
    should_stop=contention_should_stop,
    stop_rule=contention_stop_rule,
    resolve_kernel=resolve_contention_kernel,
)
def run_prime_probe(spec: ExperimentSpec):
    """Prime+Probe guessing accuracy on one cache configuration.

    Params: ``policy`` (placement name, default the setup's L1
    policy), ``seeding`` (``fixed``/``shared``/``per_process``,
    default derived from the setup), ``num_entries`` (default 16),
    ``cache_bytes``/``ways``/``line_bytes`` (geometry),
    ``replacement`` (default ``lru``), ``victim_pid``/``attacker_pid``,
    plus the stopping-rule knobs ``stop_leak_factor``/``stop_alpha``/
    ``stop_min_trials``.
    """
    return _contention_attack(spec).run(
        spec.num_samples, seed_victim=_contention_seeder(spec)
    )


@register_experiment(
    "evict_time",
    summarize=_summarize_contention,
    plan_shards=plan_contention_shards,
    run_shard=run_contention_shard,
    merge_shards=merge_contention_shards,
    merge_partial=merge_contention_partial,
    should_stop=contention_should_stop,
    stop_rule=contention_stop_rule,
    resolve_kernel=resolve_contention_kernel,
)
def run_evict_time(spec: ExperimentSpec):
    """Evict+Time guessing accuracy on one cache configuration.

    Same params as ``prime_probe`` plus ``miss_penalty``;
    ``num_entries`` defaults to 8 because each trial builds
    ``num_entries`` fresh caches (one per eviction target).
    """
    return _contention_attack(spec).run(
        spec.num_samples, seed_victim=_contention_seeder(spec)
    )


# -- missrate ---------------------------------------------------------------

#: The §6.2.3 synthetic workload suite (plus the alignment pathology).
WORKLOAD_BUILDERS: Dict[str, Callable[[], Any]] = {
    "stride": lambda: stride_trace(count=2048, stride=32, repeats=3),
    "reuse": lambda: reuse_trace(working_set=192, accesses=12000),
    "chase": lambda: pointer_chase_trace(
        num_nodes=480, node_size=32, hops=12000
    ),
    "random": lambda: random_trace(span=1 << 18, accesses=12000),
    "matrix": lambda: matrix_walk_trace(rows=96, cols=96, column_major=True),
    "thrash": lambda: pointer_chase_trace(
        num_nodes=768, node_size=64, hops=12000
    ),
}


#: Workload name -> its trace as read-only arrays, filled on first use.
#: Every builder is fixed by its name, so one build per process serves
#: every cell of that workload.
_WORKLOAD_ARRAYS: Dict[str, TraceArrays] = {}


def workload_arrays(workload: str) -> TraceArrays:
    """The :data:`WORKLOAD_BUILDERS` trace of ``workload``, built once
    per process."""
    arrays = _WORKLOAD_ARRAYS.get(workload)
    if arrays is None:
        try:
            builder = WORKLOAD_BUILDERS[workload]
        except KeyError:
            raise ValueError(
                f"unknown workload {workload!r}; "
                f"choose from {sorted(WORKLOAD_BUILDERS)}"
            ) from None
        arrays = trace_arrays(builder()).read_only()
        _WORKLOAD_ARRAYS[workload] = arrays
    return arrays


@dataclass
class MissRatePayload:
    """One policy x workload cell of the overheads table."""

    policy: str
    workload: str
    accesses: int
    misses: int
    miss_rate: float


def _summarize_missrate(
    spec: ExperimentSpec, payload: MissRatePayload
) -> Dict[str, Any]:
    return {
        "accesses": payload.accesses,
        "misses": payload.misses,
        "miss_rate_pct": round(payload.miss_rate * 100, 2),
    }


def _missrate_cache(spec: ExperimentSpec) -> SetAssociativeCache:
    """The cell's cache, fresh — shared by the runner and the kernel
    resolver's envelope probe."""
    policy = spec.param("policy")
    if policy is None:
        raise ValueError("missrate cells need 'policy' and 'workload' params")
    geometry = ARM920T_L1_GEOMETRY
    return SetAssociativeCache(
        geometry,
        make_placement(policy, geometry.layout()),
        make_replacement(
            spec.param("replacement", "lru"),
            geometry.num_sets,
            geometry.num_ways,
        ),
    )


def _missrate_inputs(spec: ExperimentSpec):
    """The cell's seeded cache and its workload's memoised trace arrays."""
    workload = spec.param("workload")
    if spec.param("policy") is None or workload is None:
        raise ValueError("missrate cells need 'policy' and 'workload' params")
    trace = workload_arrays(workload)
    cache = _missrate_cache(spec)
    cache.set_seed(spec.seed)
    return cache, trace


def _missrate_counts_scalar(cache, trace) -> Tuple[int, int]:
    """``(accesses, misses)`` of ``trace`` replayed one access at a
    time: the fallback outside the set-round envelope and the
    reference the replay kernel is tested against."""
    for access in trace:
        cache.access(access)
    return cache.stats.accesses, cache.stats.misses


@register_experiment(
    "missrate",
    summarize=_summarize_missrate,
    resolve_kernel=resolve_missrate_kernel,
)
def run_missrate(spec: ExperimentSpec) -> MissRatePayload:
    """Miss rate of one placement policy on one synthetic workload.

    Params: ``policy`` (placement name), ``workload`` (a
    :data:`WORKLOAD_BUILDERS` key), ``replacement`` (default ``lru``).
    The cache seed is the spec's root ``seed`` so the table matches
    the historical fixed-seed (0x1234) measurements when asked to.
    """
    from repro.kernels.replay import missrate_support, replay_missrate

    cache, trace = _missrate_inputs(spec)
    if missrate_support(cache) is None:
        accesses, misses = replay_missrate(cache, trace)
    else:
        accesses, misses = _missrate_counts_scalar(cache, trace)
    return MissRatePayload(
        policy=spec.param("policy"),
        workload=spec.param("workload"),
        accesses=accesses,
        misses=misses,
        miss_rate=misses / accesses if accesses else 0.0,
    )
