"""Scalar vs. vector kernel throughput, tracked in BENCH_kernels.json.

Measures the batched NumPy kernels (:mod:`repro.kernels`) against the
scalar loops on the hot paths — contention-attack trial blocks, trace
replay (pwcet (run, set) rounds, missrate set rounds), the Random
Modulo set map (per-(tag, seed) tables against per-element Benes
routing), the missrate grid's memoised trace builds, the Bernstein
engine's per-epoch cold-line replay and its fused AES timing pass
(against the per-block pipeline it replaced) — building each cell
exactly the way a campaign does (same specs, same per-trial seed
hooks, same epoch seed plan).  Every measured pair is also asserted
bit-identical — a benchmark that drifted from the scalar semantics
would fail, not report a bogus speedup.

Results go three places:

* a titled block through the shared bench reporting
  (``benchmarks/results.txt``);
* machine-readable ``BENCH_kernels.json`` at the repo root — the
  tracked perf trajectory, refreshed whenever the kernels change;
* the exit code, when ``--check-floor`` is given: nonzero if *any*
  setup's speedup falls below its own per-setup floor (the CI perf
  gate — per-setup, so a regression in one envelope corner cannot
  hide behind another setup's headline number).

Run with::

    PYTHONPATH=src python benchmarks/bench_kernels.py --check-floor
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

import numpy as np

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.campaigns import ExperimentSpec
from repro.campaigns.experiments import (
    WORKLOAD_BUILDERS,
    _WORKLOAD_ARRAYS,
    _contention_attack,
    _contention_seeder,
    _missrate_counts_scalar,
    _missrate_inputs,
    _pwcet_run_seed,
    _pwcet_times,
    _pwcet_times_scalar,
    _pwcet_trace,
    resolve_contention_kernel,
    resolve_engine_kernel,
    resolve_missrate_kernel,
    resolve_pwcet_kernel,
    run_missrate,
    workload_arrays,
)
from repro.campaigns.grids import missrate_grid
from repro.core.batch import (
    NUM_TABLE_LINES,
    AESTimingEngine,
    lookup_line_ids,
)
from repro.cache.placement import make_placement
from repro.core.setups import make_setup, setup_hierarchy_config
from repro.crypto.aes import AES128
from repro.kernels.placement import vector_placement
from repro.kernels.replay import _address_fields, replay_missrate
from benchmarks.reporting import emit

DEFAULT_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_kernels.json")

#: The measured grid: campaign-shaped contention cells, each with its
#: own conservative CI floor (kept well under the tracked speedups so
#: runner jitter never flakes the build).  The "deterministic" setups
#: are the original acceptance targets (pure LRU); "tscache" stock
#: pairs random placement with random replacement (in-envelope since
#: the draw-sequencing kernels landed), "rpcache" exercises the
#: permutation-table placement plus interference redirection, and
#: "mbpta" the RM+hashRP random hierarchy.  Trial budgets are sized so
#: the batched kernel's fixed per-block overhead amortizes the way
#: real campaign blocks do.
SETUPS = (
    # (kind, setup, params, trials, floor)
    ("prime_probe", "deterministic", (), 256, 2.5),
    ("prime_probe", "tscache", (("replacement", "lru"),), 256, 2.5),
    ("prime_probe", "tscache", (), 256, 2.0),
    ("prime_probe", "rpcache", (), 256, 2.0),
    ("prime_probe", "mbpta", (), 256, 2.0),
    ("evict_time", "deterministic", (), 96, 2.5),
    ("evict_time", "tscache", (), 96, 2.0),
)

#: Trace-replay cells: pwcet replays runs of a two-level hierarchy
#: ((run, set) rounds, with a lockstep L1 under random replacement),
#: missrate replays one cache in set rounds.  The 300-run pwcet rows
#: are the campaign's own budget: ``mbpta`` takes the lockstep L1 plus
#: L2 rounds, ``deterministic`` rounds at both levels.  Modest floors —
#: replay speedups scale with the run budget / trace shape.
REPLAYS = (
    # (kind, setup-or-policy label, params, budget, floor)
    ("pwcet", "tscache", (("analyse", False),), 48, 2.0),
    ("pwcet", "deterministic", (("analyse", False),), 48, 2.0),
    ("pwcet", "mbpta", (("analyse", False),), 300, 5.0),
    ("pwcet", "deterministic", (("analyse", False),), 300, 5.0),
    ("missrate", "random_modulo", (("workload", "reuse"),), 1, 1.0),
)

#: Random Modulo set mapping at the pwcet lockstep shape (the mbpta
#: L1: every access of the task trace under each of 300 run seeds):
#: every element routed through the Benes network (the reference)
#: against the per-(tag, seed) set tables plus one gather.
RANDOM_MODULO_MAP = ("mbpta", 300, 3.0)

#: The §6.2.3 grid's trace builds: every cell rebuilding its workload
#: trace (the reference) against the per-process memo, which builds
#: each of the grid's workloads once.  Both sides replay with the same
#: set-round kernel, so the row times the trace builds.
MISSRATE_TRACE_FLOOR = 1.5


#: Bernstein epoch replay: the scalar ``ColdLineModel.epoch_state``
#: loop against one batched ``epoch_states`` call, over the victim's
#: epochs of a campaign-default 300 000-sample cell (293 epochs: seed
#: epochs under TSCache, replacement realisations under MBPTA).  The
#: plan is the campaign's own, so ``--trials-scale`` leaves it alone.
#: The randomized setups are the ones with many epochs per cell.
EPOCH_REPLAYS = (
    # (setup, samples, floor)
    ("mbpta", 300_000, 5.0),
    ("tscache", 300_000, 5.0),
)


#: Bernstein timing assembly: the per-1024-row ``encrypt_batch`` +
#: ``lookup_line_ids`` + touched-line scatter pipeline against the
#: engine's fused ``line_masks`` pass, over one campaign-default
#: 300 000-sample victim collection (plaintext draws and the cold-line
#: replay included on both sides).  "rpcache" adds the per-encryption
#: interference draws.
AES_TIMINGS = (
    # (setup, samples, floor)
    ("deterministic", 300_000, 2.0),
    ("rpcache", 300_000, 2.0),
)


def _bench_spec(kind, setup, params, samples) -> ExperimentSpec:
    return ExperimentSpec(
        kind=kind, setup=setup, num_samples=samples, seed=2018,
        params=params,
    )


def _time_block(count_correct, repeats: int) -> tuple:
    """(best seconds, correct count) of ``count_correct()``, one full
    trial block."""
    best = float("inf")
    correct = None
    for _ in range(repeats):
        started = time.perf_counter()
        block_correct = count_correct()
        best = min(best, time.perf_counter() - started)
        if correct is None:
            correct = block_correct
        elif correct != block_correct:
            raise AssertionError("non-deterministic trial block")
    return best, correct


def _time_fn(fn, repeats: int) -> tuple:
    """(best seconds, first result) of ``fn()`` over ``repeats`` runs."""
    best = float("inf")
    result = None
    for i in range(repeats):
        started = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - started)
        if i == 0:
            result = out
    return best, result


def _row(kind, setup, params, budget, floor, resolved,
         check, scalar_s, vector_s) -> dict:
    return {
        "kind": kind,
        "setup": setup,
        "params": [list(item) for item in params],
        "trials": budget,
        "resolved_kernel": resolved.kernel,
        "fallback_reason": resolved.reason,
        "floor": floor,
        "correct": check,
        "scalar_s": round(scalar_s, 5),
        "vector_s": round(vector_s, 5),
        "scalar_trials_per_s": round(budget / scalar_s, 1),
        "vector_trials_per_s": round(budget / vector_s, 1),
        "speedup": round(scalar_s / vector_s, 2),
    }


def _bench_contention(kind, setup, params, trials, floor, repeats) -> dict:
    spec = _bench_spec(kind, setup, params, trials)
    seeder = _contention_seeder(spec)
    resolved = resolve_contention_kernel(spec)
    attack = _contention_attack(spec)
    scalar_s, scalar_correct = _time_block(
        lambda: attack._run_block_scalar(0, trials, seeder), repeats
    )
    vector_s, vector_correct = _time_block(
        lambda: attack.run_block(0, trials, trials, seeder).correct,
        repeats,
    )
    if scalar_correct != vector_correct:
        raise AssertionError(
            f"{kind}/{setup}: vector kernel diverged from scalar "
            f"({vector_correct} vs {scalar_correct} correct)"
        )
    return _row(kind, setup, params, trials, floor, resolved,
                scalar_correct, scalar_s, vector_s)


def _bench_pwcet(setup, params, runs, floor, repeats) -> dict:
    spec = _bench_spec("pwcet", setup, params, runs)
    resolved = resolve_pwcet_kernel(spec)
    scalar_s, scalar_times = _time_fn(
        lambda: _pwcet_times_scalar(spec, _pwcet_trace(spec), 0, runs),
        repeats,
    )
    vector_s, vector_times = _time_fn(
        lambda: _pwcet_times(spec, 0, runs), repeats
    )
    if not np.array_equal(scalar_times, vector_times):
        raise AssertionError(
            f"pwcet/{setup}: vector replay diverged from scalar"
        )
    return _row("pwcet", setup, params, runs, floor, resolved,
                int(scalar_times.sum()), scalar_s, vector_s)


def _bench_missrate(policy, params, floor, repeats) -> dict:
    spec = ExperimentSpec(
        kind="missrate", num_samples=1, seed=0x1234,
        params=(("policy", policy),) + params,
    )
    resolved = resolve_missrate_kernel(spec)
    # One shared trace on both sides: the row times replay only.
    trace = workload_arrays(spec.param("workload"))

    def fresh_cache():
        return _missrate_inputs(spec)[0]

    scalar_s, (accesses, misses) = _time_fn(
        lambda: _missrate_counts_scalar(fresh_cache(), trace), repeats
    )
    vector_s, vector_counts = _time_fn(
        lambda: replay_missrate(fresh_cache(), trace), repeats
    )
    if (accesses, misses) != vector_counts:
        raise AssertionError(
            f"missrate/{policy}: vector replay diverged from scalar"
        )
    return _row("missrate", policy, params, 1, floor, resolved,
                misses, scalar_s, vector_s)


def _bench_random_modulo(setup, runs, floor, repeats) -> dict:
    spec = _bench_spec("pwcet", setup, (("analyse", False),), runs)
    resolved = resolve_pwcet_kernel(spec)
    config = setup_hierarchy_config(setup)
    layout = config.l1_geometry.layout()
    adapter = vector_placement(make_placement(config.l1_placement, layout))
    _, tags, indices = _address_fields(layout, _pwcet_trace(spec).addresses)
    root = spec.seed_sequence()
    seeds = np.array([_pwcet_run_seed(root, run) for run in range(runs)],
                     dtype=np.uint64)
    grid = (tags[:, None], indices[:, None], seeds[None, :])
    scalar_s, per_element = _time_fn(
        lambda: adapter.map_elements(*grid), repeats
    )
    vector_s, tabled = _time_fn(lambda: adapter.map_sets(*grid), repeats)
    if not np.array_equal(per_element, tabled):
        raise AssertionError(
            "placement/random_modulo: set tables diverged from the "
            "per-element network"
        )
    return _row("placement", config.l1_placement, (), runs, floor, resolved,
                int(per_element.sum()), scalar_s, vector_s)


def _bench_missrate_trace(floor, repeats) -> dict:
    specs = missrate_grid()
    resolved = resolve_missrate_kernel(specs[0])

    def rebuilt():
        counts = []
        for spec in specs:
            cache = _missrate_inputs(spec)[0]
            trace = WORKLOAD_BUILDERS[spec.param("workload")]()
            counts.append(replay_missrate(cache, trace))
        return counts

    def memoised():
        _WORKLOAD_ARRAYS.clear()
        counts = []
        for spec in specs:
            payload = run_missrate(spec)
            counts.append((payload.accesses, payload.misses))
        return counts

    scalar_s, scalar_counts = _time_fn(rebuilt, repeats)
    vector_s, vector_counts = _time_fn(memoised, repeats)
    if scalar_counts != vector_counts:
        raise AssertionError(
            "missrate_trace/grid: memoised traces diverged from rebuilt"
        )
    return _row("missrate_trace", "grid", (), len(specs), floor, resolved,
                sum(misses for _, misses in scalar_counts),
                scalar_s, vector_s)


def _bench_epoch_states(setup, samples, floor, repeats) -> dict:
    spec = _bench_spec("bernstein", setup, (), samples)
    resolved = resolve_engine_kernel(spec)
    engine = AESTimingEngine(make_setup(setup))
    model = engine.cold_model
    epochs = [
        epoch for _, _, _, epoch
        in engine.epoch_blocks(samples, "victim", 0xC0DE)
    ]

    def scalar():
        states = [model.epoch_state(*epoch) for epoch in epochs]
        return (np.stack([cold for cold, _ in states]),
                np.stack([sets for _, sets in states]))

    scalar_s, (scalar_cold, scalar_sets) = _time_fn(scalar, repeats)
    vector_s, (vector_cold, vector_sets) = _time_fn(
        lambda: model.epoch_states(epochs), repeats
    )
    if not (np.array_equal(scalar_cold, vector_cold)
            and np.array_equal(scalar_sets, vector_sets)):
        raise AssertionError(
            f"epoch_states/{setup}: batched replay diverged from scalar"
        )
    return _row("epoch_states", setup, (), len(epochs), floor, resolved,
                int(scalar_cold.sum()), scalar_s, vector_s)


def _per_block_timings(engine, key, samples) -> np.ndarray:
    """A victim collection's timings the pre-fused way: per RNG block,
    encrypt, map every lookup to its line, scatter into an (n, 160)
    touched matrix and reduce it against the cold lines."""
    aes = AES128(key)
    config = engine.config
    num_sets = engine.cold_model.geometry.num_sets
    blocks = engine.epoch_blocks(samples, "victim", 0xC0DE)
    colds, line_sets = engine.cold_model.epoch_states(
        [epoch for _, _, _, epoch in blocks]
    )
    timings = np.empty(samples)
    for (start, end, events, _), cold, line_set in zip(
        blocks, colds, line_sets
    ):
        for rng_start in range(start, end, config.rng_block):
            rng_end = min(end, (rng_start // config.rng_block + 1)
                          * config.rng_block)
            rng = engine._block_rng("victim", 0xC0DE, rng_start)
            block = rng.integers(0, 256, size=(rng_end - rng_start, 16),
                                 dtype=np.uint8)
            lines = lookup_line_ids(aes.encrypt_batch(block)[1])
            n = len(block)
            rows = np.arange(n)[:, None]
            accessed = np.zeros((n, NUM_TABLE_LINES), dtype=bool)
            accessed[rows, lines] = True
            cold_hits = (accessed & cold[None, :]).sum(axis=1)
            out = config.base_cycles + config.miss_penalty * cold_hits
            if events > 0:
                set_to_line = np.full(num_sets, -1, dtype=np.int64)
                for line in range(NUM_TABLE_LINES - 1, -1, -1):
                    if not cold[line]:
                        set_to_line[line_set[line]] = line
                evicted = set_to_line[
                    rng.integers(0, num_sets, size=(n, events))
                ]
                valid = evicted >= 0
                touched = accessed[rows, np.where(valid, evicted, 0)] & valid
                out = out + config.miss_penalty * touched.sum(axis=1).astype(
                    float
                )
            timings[rng_start:rng_end] = out
    return timings


def _bench_aes_timings(setup, samples, floor, repeats) -> dict:
    spec = _bench_spec("bernstein", setup, (), samples)
    resolved = resolve_engine_kernel(spec)
    engine = AESTimingEngine(make_setup(setup))
    key = bytes(range(16))
    scalar_s, scalar_timings = _time_fn(
        lambda: _per_block_timings(engine, key, samples), repeats
    )
    vector_s, vector_timings = _time_fn(
        lambda: engine.collect(key, samples).timings, repeats
    )
    if not np.array_equal(scalar_timings, vector_timings):
        raise AssertionError(
            f"aes_timings/{setup}: fused pass diverged from the "
            "per-block pipeline"
        )
    return _row("aes_timings", setup, (), samples, floor, resolved,
                int(scalar_timings.sum()), scalar_s, vector_s)


def run_benchmark(trials_scale: float = 1.0, repeats: int = 3) -> dict:
    """Measure every setup; returns the BENCH_kernels.json document."""
    rows = []
    for kind, setup, params, base_trials, floor in SETUPS:
        trials = max(8, int(base_trials * trials_scale))
        rows.append(
            _bench_contention(kind, setup, params, trials, floor, repeats)
        )
    for kind, label, params, budget, floor in REPLAYS:
        if kind == "pwcet":
            runs = max(4, int(budget * trials_scale))
            rows.append(_bench_pwcet(label, params, runs, floor, repeats))
        else:
            rows.append(_bench_missrate(label, params, floor, repeats))
    rows.append(_bench_random_modulo(*RANDOM_MODULO_MAP, repeats))
    rows.append(_bench_missrate_trace(MISSRATE_TRACE_FLOOR, repeats))
    for setup, samples, floor in EPOCH_REPLAYS:
        rows.append(_bench_epoch_states(setup, samples, floor, repeats))
    for setup, samples, floor in AES_TIMINGS:
        rows.append(_bench_aes_timings(setup, samples, floor, repeats))
    return {
        "bench": "kernels",
        "schema": 2,
        "repeats": repeats,
        "setups": rows,
        "max_speedup": max(row["speedup"] for row in rows),
    }


#: History entries kept in BENCH_kernels.json — enough to see a
#: regression trend without the file growing forever.
HISTORY_LIMIT = 50


def _row_label(row: dict) -> str:
    """``kind/setup`` plus params and budget: unique per grid row."""
    params = "".join(f" {key}={value}" for key, value in row["params"])
    return f"{row['kind']}/{row['setup']}{params} ({row['trials']})"


def append_history(doc: dict, json_path: str) -> dict:
    """Fold the prior file's run history into ``doc``.

    Every run appends one stamped summary entry (UTC stamp, max
    speedup, per-setup speedups) to a ``history`` list carried across
    rewrites, so a speedup regression shows as a *trajectory* — not
    just a pass/fail against the static floor.  A missing or corrupt
    prior file starts a fresh history.
    """
    history = []
    try:
        with open(json_path) as handle:
            history = json.load(handle).get("history", [])
    except (OSError, ValueError):
        pass
    if not isinstance(history, list):
        history = []
    history.append({
        "stamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "max_speedup": doc["max_speedup"],
        "speedups": {_row_label(row): row["speedup"] for row in doc["setups"]},
    })
    doc["history"] = history[-HISTORY_LIMIT:]
    return doc


def check_floors(doc: dict, scale: float) -> List[str]:
    """Per-setup floor failures (empty = gate green).

    Each row is gated against ``scale`` times its own floor; scalar
    fallback rows (if any appear in the grid) are exempt — there is
    nothing to gate when the resolver says the cell runs scalar.
    """
    failures = []
    for row in doc["setups"]:
        if row["resolved_kernel"] != "vector":
            continue
        floor = row["floor"] * scale
        if row["speedup"] < floor:
            failures.append(
                f"{row['kind']}/{row['setup']}: speedup "
                f"{row['speedup']:.2f}x below its {floor:.2f}x floor"
            )
    return failures


def report(doc: dict) -> None:
    lines = []
    for row in doc["setups"]:
        extra = (
            " " + ",".join(f"{k}={v}" for k, v in row["params"])
            if row["params"] else ""
        )
        kernel = row["resolved_kernel"]
        if row.get("fallback_reason"):
            kernel += f" ({row['fallback_reason']})"
        lines.append(
            f"{row['kind']}/{row['setup']}{extra}: "
            f"{row['trials']} trials, "
            f"scalar {row['scalar_trials_per_s']:.0f}/s, "
            f"vector {row['vector_trials_per_s']:.0f}/s "
            f"(speedup {row['speedup']:.2f}x, floor {row['floor']:.1f}x, "
            f"correct={row['correct']}, kernel={kernel})"
        )
    lines.append(f"max speedup: {doc['max_speedup']:.2f}x")
    emit("Trial kernels: scalar vs vector throughput", lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=DEFAULT_JSON_PATH, metavar="PATH",
        help="where to write the machine-readable results "
             "(default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument(
        "--trials-scale", type=float, default=1.0, metavar="X",
        help="multiply every setup's trial budget by X",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per (setup, kernel); best-of wins",
    )
    parser.add_argument(
        "--check-floor", type=float, default=None, metavar="SCALE",
        nargs="?", const=1.0,
        help="exit nonzero if any setup's speedup falls below SCALE "
             "times its per-setup floor (default SCALE=1.0; the CI "
             "perf gate — floors are conservative so runner jitter "
             "never flakes the build)",
    )
    args = parser.parse_args(argv)

    doc = run_benchmark(trials_scale=args.trials_scale,
                        repeats=args.repeats)
    report(doc)
    append_history(doc, args.json)
    with open(args.json, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"wrote {args.json}")

    if args.check_floor is not None:
        failures = check_floors(doc, args.check_floor)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
