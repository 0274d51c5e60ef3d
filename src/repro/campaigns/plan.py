"""Campaign planning: shard geometry, kernel resolution, dry runs.

Everything a campaign decides *before* executing anything lives here:
how a cell's budget is cut into shards (honouring the runner's
:class:`~repro.core.batch.ShardPolicy`), which execution kernel a cell
resolves to, and the per-cell :class:`CellPlan` that ``--dry-run``
prints and a distributed dispatcher would enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.campaigns.cache import ResultCache
from repro.campaigns.registry import ExperimentKind, get_experiment
from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import ShardPlan, ShardPolicy


def resolved_kernel(
    kind: ExperimentKind, spec: ExperimentSpec
) -> Tuple[Optional[str], Optional[str]]:
    """``(kernel, fallback_reason)`` from the kind's resolver, or
    ``(None, None)`` when the kind does not report one."""
    if kind.resolve_kernel is None:
        return None, None
    resolved = kind.resolve_kernel(spec)
    return resolved.kernel, resolved.reason


def shard_plan_for(
    spec: ExperimentSpec,
    max_shards: int,
    policy: ShardPolicy,
) -> Optional[ShardPlan]:
    """The cell's shard plan, or None to execute it whole."""
    if max_shards <= 1:
        return None
    kind = get_experiment(spec.kind)
    if not kind.shardable or spec.num_samples <= 0:
        return None
    plan = kind.plan_shards(spec, max_shards, policy)
    return plan if len(plan) > 1 else None


@dataclass(frozen=True)
class CellPlan:
    """One cell's execution plan (the ``--dry-run`` unit of output)."""

    spec: ExperimentSpec
    #: A whole-cell cache entry exists: the cell will be restored.
    cached: bool
    #: The shard plan a fresh execution would use (None = runs whole).
    plan: Optional[ShardPlan] = None
    #: Shards with persisted partials (restored, not recomputed).
    shards_cached: int = 0
    #: Human-readable stopping rule for early-stop-capable kinds
    #: (None = the kind defines no ``should_stop`` hook).
    stop_rule: Optional[str] = None
    #: Shard-geometry label (the runner's :class:`ShardPolicy`) for
    #: sharded cells; None when the cell runs whole.
    geometry: Optional[str] = None
    #: The execution kernel ("vector"/"scalar") the cell resolves to
    #: — the kind's ``resolve_kernel`` verdict; None when the kind
    #: does not report one.  Informational: kernels change
    #: throughput, never payloads.
    kernel: Optional[str] = None
    #: Machine-readable reason the cell falls back to the scalar
    #: kernel (None when in-envelope or not reported) — shown in the
    #: ``--dry-run`` kernel column and journaled as a
    #: ``kernel_fallback`` event so fallbacks are never silent.
    kernel_reason: Optional[str] = None

    @property
    def num_shards(self) -> int:
        return len(self.plan) if self.plan is not None else 1


def plan_cells(
    specs: Sequence[ExperimentSpec],
    *,
    cache: Optional[ResultCache],
    max_shards: int,
    policy: ShardPolicy,
    early_stop: bool,
) -> List[CellPlan]:
    """What a run over ``specs`` would do, without executing anything.

    For each cell: whether the whole-cell cache already covers it, the
    shard plan a fresh execution would use, and how many of those
    shards have persisted partials — the ``--dry-run`` view of a
    campaign (what a distributed run would dispatch).
    """
    plans: List[CellPlan] = []
    for spec in specs:
        kind = get_experiment(spec.kind)
        cached = cache.has(spec) if cache else False
        if cached and not early_stop and cache.is_early_stopped(spec):
            # Mirror run(): an early-stopped entry does not satisfy
            # a full-budget runner, so the cell would recompute.
            cached = False
        shard_plan = None if cached else shard_plan_for(
            spec, max_shards, policy
        )
        shards_cached = (
            cache.count_shards(spec, shard_plan)
            if cache and shard_plan is not None
            else 0
        )
        # Only advertise a stopping rule the run would apply: a
        # runner without early_stop executes the full budget, and
        # the plan must say so.
        stop_rule = None
        if early_stop and kind.should_stop is not None:
            stop_rule = (
                kind.stop_rule(spec)
                if kind.stop_rule is not None
                else "enabled"
            )
        geometry = None if shard_plan is None else policy.describe()
        kernel, kernel_reason = resolved_kernel(kind, spec)
        plans.append(CellPlan(
            spec=spec,
            cached=cached,
            plan=shard_plan,
            shards_cached=shards_cached,
            stop_rule=stop_rule,
            geometry=geometry,
            kernel=kernel,
            kernel_reason=kernel_reason,
        ))
    return plans
