"""Elastic workers A/B: draining an uneven campaign grid.

The scenario adaptive sharding + elastic workers were built for: a
campaign whose cells carry wildly different budgets (the contention
grids' prime_probe vs. evict_time cells, early-stopped cells next to
full-budget ones).  A fixed single worker serializes everything behind
the big cells; an :class:`~repro.backends.workqueue.ElasticSupervisor`
grows the pool while units queue and retires workers once the queue
drains.

The work units here are *latency-bound* (each unit sleeps a fixed time
per sample) rather than CPU-bound, so the benchmark measures what the
orchestration layer controls — queue wait, scaling latency, retirement
— independent of how many cores the host happens to have.  Payloads
are still asserted bit-identical between the two modes, and the
supervisor's scaling stats are reported alongside the wall times.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_elastic.py -q
"""

import os
import sys
import time

import pytest

# Workers resolve this module by name (kind_module in the task doc),
# and `benchmarks.reporting` below needs the repo root too, whatever
# the working directory.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.backends import WorkQueueBackend
from repro.campaigns import (
    CampaignRunner,
    ExperimentSpec,
    ShardPolicy,
    register_experiment,
)
from benchmarks.reporting import emit

#: Seconds of simulated work per sample (sleep, not compute).  Large
#: enough that the elastic win clears worker-startup cost with
#: margin.
UNIT_SECONDS = 0.25

#: The uneven grid: per-cell budgets in samples.  One big cell up
#: front, a long tail of small ones — the shape that starves a fixed
#: pool (everything queues behind the big cell) and leaves idle
#: workers once the tail is gone.
CELL_BUDGETS = (12, 2, 8, 2, 4, 2)


def _probe_plan(spec, max_shards, policy=None):
    return (policy or ShardPolicy()).plan(spec.num_samples, max_shards)


def _probe_shard(spec, shard):
    time.sleep(shard.num_samples * UNIT_SECONDS)
    return [(shard.start, shard.end)]


def _probe_merge(spec, parts):
    ranges = [r for part in parts for r in part]
    cursor = 0
    for start, end in ranges:
        assert start == cursor, "shards must tile the budget"
        cursor = end
    assert cursor == spec.num_samples
    return ranges


@register_experiment(
    "bench_elastic_probe",
    summarize=lambda spec, payload: {"units": len(payload)},
    plan_shards=_probe_plan,
    run_shard=_probe_shard,
    merge_shards=_probe_merge,
)
def _probe_run(spec):
    time.sleep(spec.num_samples * UNIT_SECONDS)
    return [(0, spec.num_samples)]


def _grid():
    return [
        ExperimentSpec(
            kind="bench_elastic_probe", num_samples=budget,
            seed=2018, params=(("cell", index),),
        )
        for index, budget in enumerate(CELL_BUDGETS)
    ]


def _drain(tmp_path, label, **backend_kwargs):
    """One full campaign through a work queue; returns (wall, result,
    supervisor stats or None)."""
    backend = WorkQueueBackend(
        str(tmp_path / label),
        lease_timeout=120.0,
        idle_timeout=300.0,
        **backend_kwargs,
    )
    started = time.perf_counter()
    try:
        result = CampaignRunner(
            max_shards_per_cell=4,
            shard_policy=ShardPolicy.adaptive(min_block=1, growth=2.0),
            backend=backend,
        ).run(_grid())
        wall = time.perf_counter() - started
        stats = (
            backend.supervisor.stats if backend.supervisor else None
        )
    finally:
        backend.close()
    return wall, result, stats


@pytest.mark.benchmark(group="elastic")
def test_elastic_pool_drains_uneven_grid_faster(benchmark, tmp_path):
    def run():
        fixed_wall, fixed_result, _ = _drain(
            tmp_path, "fixed", spawn_workers=1
        )
        elastic_wall, elastic_result, stats = _drain(
            tmp_path, "elastic", min_workers=1, max_workers=3
        )
        return fixed_wall, fixed_result, elastic_wall, elastic_result, stats

    fixed_wall, fixed_result, elastic_wall, elastic_result, stats = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    total = sum(CELL_BUDGETS) * UNIT_SECONDS
    lines = [
        f"grid: {len(CELL_BUDGETS)} cells, budgets {list(CELL_BUDGETS)} "
        f"({total:.1f}s of serialized unit latency)",
        f"fixed 1 worker : wall {fixed_wall:.2f}s",
        f"elastic 1..3   : wall {elastic_wall:.2f}s "
        f"(speedup {fixed_wall / elastic_wall:.2f}x)",
        f"supervisor: spawned {stats.spawned}, retired {stats.retired}, "
        f"peak {stats.peak_workers} worker(s)",
    ]
    emit("Elastic workers: uneven-grid drain (A/B vs fixed worker)",
         lines)

    # Identical payloads: scaling changes scheduling, never results.
    assert fixed_result.payloads() == elastic_result.payloads()
    # The pool actually scaled beyond one worker...
    assert stats.peak_workers > 1
    # ...and the elastic drain beat the fixed single worker.
    assert elastic_wall < fixed_wall
