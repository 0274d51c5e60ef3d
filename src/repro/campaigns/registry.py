"""Experiment-kind registry.

An *experiment kind* maps an :class:`~repro.campaigns.spec.ExperimentSpec`
to a result payload.  Kinds are module-level functions registered by
name so :func:`~repro.campaigns.runner.execute_cell` can be shipped to
``ProcessPoolExecutor`` workers by reference (closures would not
pickle).  The built-in kinds live in
:mod:`repro.campaigns.experiments`; benchmarks and downstream users may
register their own with :func:`register_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import Shard, ShardPlan, ShardPolicy


@dataclass(frozen=True)
class KernelResolution:
    """The kernel a cell will execute on, with the fallback reason.

    ``reason`` is a stable machine-readable string, set exactly when
    the cell falls back to the scalar path (the envelope probe's
    verdict) — surfaced in the ``--dry-run`` kernel column and
    journaled as a ``kernel_fallback`` telemetry event so scalar
    fallbacks are never silent.
    """

    kernel: str
    reason: Optional[str] = None


#: ``plan_shards`` hooks take ``(spec, max_shards, policy=None)`` — the
#: optional :class:`~repro.core.batch.ShardPolicy` selects the cut
#: geometry (even/adaptive); None means the kind's default (even).
RunFn = Callable[[ExperimentSpec], Any]
SummarizeFn = Callable[[ExperimentSpec, Any], Dict[str, Any]]
PlanShardsFn = Callable[[ExperimentSpec, int, Optional[ShardPolicy]],
                        ShardPlan]
RunShardFn = Callable[[ExperimentSpec, Shard], Any]
MergeShardsFn = Callable[[ExperimentSpec, Sequence[Any]], Any]
MergePartialFn = Callable[[ExperimentSpec, Sequence[Any]], Any]
ShouldStopFn = Callable[[ExperimentSpec, Any], bool]
StopRuleFn = Callable[[ExperimentSpec], str]
ResolveKernelFn = Callable[[ExperimentSpec], KernelResolution]


@dataclass(frozen=True)
class ExperimentKind:
    """A named experiment: a cell runner plus a summary projector.

    A kind may additionally be *shardable*: ``plan_shards`` partitions
    one cell's budget into a :class:`~repro.core.batch.ShardPlan`,
    ``run_shard`` computes one shard's partial payload, and
    ``merge_shards`` (given the partials **in shard order**) rebuilds
    the exact payload ``run`` would have produced.  Like ``run``, the
    shard hooks must be module-level functions so process-pool workers
    can unpickle them by reference.
    """

    name: str
    run: RunFn
    #: Projects a payload to flat JSON-able fields for tables/JSON.
    summarize: SummarizeFn
    plan_shards: Optional[PlanShardsFn] = None
    run_shard: Optional[RunShardFn] = None
    merge_shards: Optional[MergeShardsFn] = None
    #: Optional streaming hook: merges a contiguous *prefix* of shard
    #: partials (0..k-1 of n) into a payload-shaped preview so the
    #: runner can surface incremental results before the cell
    #: finishes.  Best-effort — the runner swallows its failures.
    merge_partial: Optional[MergePartialFn] = None
    #: Optional early-stopping hook, evaluated by the runner (when
    #: ``early_stop=True``) on each merged contiguous-prefix payload:
    #: return True once the cell's verdict is statistically decided
    #: and its remaining shards should be cancelled.  Requires
    #: ``merge_partial`` (the hook's input is its output).
    should_stop: Optional[ShouldStopFn] = None
    #: Optional human-readable description of the stopping rule for
    #: one spec (test kind, thresholds) — surfaced by ``--dry-run``.
    stop_rule: Optional[StopRuleFn] = None
    #: Optional: which execution kernel ("vector"/"scalar") the cell
    #: will actually run on, as the kind's envelope probe decides it —
    #: surfaced by ``--dry-run`` so a fallback is visible before
    #: dispatch.  Purely informational: kernels never change results.
    resolve_kernel: Optional[ResolveKernelFn] = None

    @property
    def shardable(self) -> bool:
        return self.run_shard is not None

    def __post_init__(self) -> None:
        hooks = (self.plan_shards, self.run_shard, self.merge_shards)
        if any(h is not None for h in hooks) and None in hooks:
            raise ValueError(
                f"kind {self.name!r} must define all of plan_shards/"
                "run_shard/merge_shards, or none"
            )
        if self.merge_partial is not None and self.run_shard is None:
            raise ValueError(
                f"kind {self.name!r} defines merge_partial but is not "
                "shardable"
            )
        if self.should_stop is not None and self.merge_partial is None:
            raise ValueError(
                f"kind {self.name!r} defines should_stop but no "
                "merge_partial to evaluate it on"
            )
        if self.stop_rule is not None and self.should_stop is None:
            raise ValueError(
                f"kind {self.name!r} defines stop_rule without "
                "should_stop"
            )


_REGISTRY: Dict[str, ExperimentKind] = {}


def _default_summarize(spec: ExperimentSpec, payload: Any) -> Dict[str, Any]:
    return {"payload": repr(payload)}


def register_experiment(
    name: str,
    *,
    summarize: Optional[SummarizeFn] = None,
    plan_shards: Optional[PlanShardsFn] = None,
    run_shard: Optional[RunShardFn] = None,
    merge_shards: Optional[MergeShardsFn] = None,
    merge_partial: Optional[MergePartialFn] = None,
    should_stop: Optional[ShouldStopFn] = None,
    stop_rule: Optional[StopRuleFn] = None,
    resolve_kernel: Optional[ResolveKernelFn] = None,
) -> Callable[[RunFn], RunFn]:
    """Decorator registering ``fn`` as the runner for kind ``name``."""

    def decorator(fn: RunFn) -> RunFn:
        if name in _REGISTRY:
            raise ValueError(f"experiment kind {name!r} already registered")
        _REGISTRY[name] = ExperimentKind(
            name=name,
            run=fn,
            summarize=summarize or _default_summarize,
            plan_shards=plan_shards,
            run_shard=run_shard,
            merge_shards=merge_shards,
            merge_partial=merge_partial,
            should_stop=should_stop,
            stop_rule=stop_rule,
            resolve_kernel=resolve_kernel,
        )
        return fn

    return decorator


def get_experiment(name: str) -> ExperimentKind:
    """Look up a kind, loading the built-ins on first use."""
    if name not in _REGISTRY:
        # Built-in kinds register on import; deferred to avoid a cycle
        # with repro.core.simulator.
        import repro.campaigns.experiments  # noqa: F401
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment kind {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def experiment_kinds() -> Tuple[str, ...]:
    import repro.campaigns.experiments  # noqa: F401

    return tuple(sorted(_REGISTRY))
