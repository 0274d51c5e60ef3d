"""Single-campaign execution: the classic ``CampaignRunner`` facade.

A *campaign* is a list of :class:`ExperimentSpec` cells.  The
:class:`CampaignRunner` turns them into self-describing work units —
one per whole cell, or one per :class:`~repro.core.batch.Shard` of a
sharded cell — and executes them on an
:class:`~repro.backends.base.ExecutionBackend`:

* ``workers=1`` → :class:`~repro.backends.local.SerialBackend`
  (in-process, spec order — the reference semantics),
* ``workers>1`` → :class:`~repro.backends.local.ProcessPoolBackend`,
* any explicit ``backend=`` — e.g.
  :class:`~repro.backends.workqueue.WorkQueueBackend`, which ships
  units to independent ``repro worker`` processes through a
  filesystem queue.

Results are bit-identical on every backend and for any completion
order, because each unit draws exclusively from randomness keyed to
its spec (and, for shards, to absolute sample positions) — never from
shared mutable state.

This module is the *single-campaign facade* over the layered campaign
engine; the pieces live in focused modules:

* :mod:`repro.campaigns.cache` — :class:`ResultCache` (durability:
  whole-cell entries, per-shard partials, early-stop markers, gc with
  liveness leases),
* :mod:`repro.campaigns.plan` — :class:`CellPlan` and the shard/kernel
  planning helpers (the ``--dry-run`` layer),
* :mod:`repro.campaigns.results` — :class:`CellResult`,
  :class:`ProgressEvent`, :class:`CampaignResult`,
* :mod:`repro.campaigns.engine` — :class:`CampaignExecution`, the
  backend-agnostic per-campaign state machine this runner drives over
  exactly one backend.

**Durability** (``cache_dir``): finished cells are skipped on re-runs
(keyed by :meth:`ExperimentSpec.spec_hash`), and *per-shard partials*
are persisted as each shard completes — an interrupted big cell
resumes mid-cell from its completed shards instead of recollecting
them.  All cache writes are atomic (temp file + fsync + rename), so a
crash can never leave a truncated entry that poisons later hits.

**Early stopping** (``early_stop=True``): kinds may define a
``should_stop`` hook that rules on each merged contiguous-prefix
payload; once it fires, the cell's remaining shards are cancelled on
the backend (each built-in backend drops its not-yet-running units —
stragglers already executing are discarded on arrival) and the cell
finishes early with the decided prefix as its payload, marked
:attr:`CellResult.early_stopped` and cached at its decided-at sample
count (an entry only other early-stop runs accept — a full-budget
runner recomputes it).

**Progress**: the ``progress`` callback receives a
:class:`ProgressEvent` for every completed unit — each shard, each
cell, each cache-restored cell *and* each cache-restored shard (marked
``from_cache`` so ETA math can count them complete without letting
their zero cost skew the throughput estimate).  With
``stream_partials=True``, kinds that define a ``merge_partial`` hook
additionally emit ``"partial"`` events carrying the merged payload of
the contiguous shard prefix completed so far — incremental
attack/pWCET results long before the cell finishes.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    List,
    Optional,
    Sequence,
)

from repro.campaigns.cache import ResultCache
from repro.campaigns.engine import CampaignExecution
from repro.campaigns.plan import CellPlan, plan_cells, shard_plan_for
from repro.campaigns.registry import get_experiment
from repro.campaigns.results import CampaignResult, ProgressFn
from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import ShardPlan, ShardPolicy

if TYPE_CHECKING:  # runtime import is deferred: backends import us
    from repro.backends.base import ExecutionBackend


def execute_cell(spec: ExperimentSpec) -> Any:
    """Run one cell and return its payload (module-level: picklable)."""
    return get_experiment(spec.kind).run(spec)


class CampaignRunner:
    """Executes campaigns of experiment cells.

    Parameters
    ----------
    workers:
        Sizes the default backend: 1 = serial in-process execution,
        >1 = a process pool of that size.  Ignored when ``backend``
        is given.  Payloads are identical either way.
    cache_dir:
        Directory for the on-disk result cache; None disables caching
        (including per-shard partials and mid-cell resume).
    progress:
        Optional callback invoked with each :class:`ProgressEvent` —
        per-shard and per-cell completions, in completion order when
        parallel, cache restores included (marked ``from_cache``).
    max_shards_per_cell:
        Upper bound on the intra-cell fan-out of shardable kinds; 1
        disables sharding.  All backends and shard counts produce
        bit-identical payloads.
    backend:
        An explicit :class:`~repro.backends.base.ExecutionBackend` to
        run units on (e.g. a
        :class:`~repro.backends.workqueue.WorkQueueBackend`).  The
        caller owns its lifecycle — the runner submits and drains but
        never closes it, so one backend can serve many campaigns.
    shard_policy:
        The :class:`~repro.core.batch.ShardPolicy` every shardable
        kind's ``plan_shards`` hook receives — ``even`` (default) or
        ``adaptive`` geometry (small leading shards growing
        geometrically, so early-stop campaigns decide on the first
        small prefix).  Geometry never changes payloads: all policies
        merge bit-identically.
    stream_partials:
        Emit ``"partial"`` progress events with the merged payload of
        each cell's contiguous completed-shard prefix (kinds with a
        ``merge_partial`` hook only).  Best-effort: a failing partial
        merge is skipped, never fatal.
    early_stop:
        Evaluate each kind's optional ``should_stop`` hook on the
        merged contiguous-prefix payload as shards complete; once it
        fires, the cell's remaining shards are cancelled on the
        backend (best effort — already-running units may still finish
        and are discarded) and the cell finishes with the decided
        prefix payload, marked :attr:`CellResult.early_stopped`.  The
        cache stores that early-stopped payload (with its decided-at
        sample count) as the cell's entry; it satisfies later
        ``early_stop=True`` runners, while a full-budget runner
        recomputes (and overwrites) it.  Only sharded cells can stop
        early — a whole-cell unit has no partials to rule on.
    telemetry:
        Optional :class:`~repro.telemetry.sink.TelemetrySink`
        receiving typed span events (unit queued/done with phase
        timings, merges, cache hits and partial restores, early-stop
        decisions, campaign start/end) alongside the ``progress``
        callback.  Default None builds no events at all; enabling it
        never changes a payload byte.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[str] = None,
        progress: Optional[ProgressFn] = None,
        max_shards_per_cell: int = 1,
        backend: Optional["ExecutionBackend"] = None,
        shard_policy: Optional[ShardPolicy] = None,
        stream_partials: bool = False,
        early_stop: bool = False,
        telemetry=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_shards_per_cell < 1:
            raise ValueError("max_shards_per_cell must be >= 1")
        self.workers = workers
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.max_shards_per_cell = max_shards_per_cell
        self.backend = backend
        self.shard_policy = (
            shard_policy if shard_policy is not None else ShardPolicy()
        )
        self.stream_partials = stream_partials
        self.early_stop = early_stop
        #: Optional :class:`repro.telemetry.sink.TelemetrySink`.
        #: Default None is *zero-cost*: no event dict is ever built.
        #: Enabling it is bit-identity-neutral — events observe
        #: execution, payloads never depend on them.
        self.telemetry = telemetry

    # -- planning ----------------------------------------------------------

    def _shard_plan(self, spec: ExperimentSpec) -> Optional[ShardPlan]:
        """The cell's shard plan, or None to execute it whole."""
        return shard_plan_for(
            spec, self.max_shards_per_cell, self.shard_policy
        )

    def plan(self, specs: Sequence[ExperimentSpec]) -> List[CellPlan]:
        """What :meth:`run` would do, without executing anything.

        For each cell: whether the whole-cell cache already covers it,
        the shard plan a fresh execution would use, and how many of
        those shards have persisted partials — the ``--dry-run`` view
        of a campaign (what a distributed run would dispatch).
        """
        return plan_cells(
            specs,
            cache=self.cache,
            max_shards=self.max_shards_per_cell,
            policy=self.shard_policy,
            early_stop=self.early_stop,
        )

    # -- execution ---------------------------------------------------------

    def _backend_label(self) -> str:
        if self.backend is not None:
            return type(self.backend).__name__
        return "serial" if self.workers == 1 else f"pool({self.workers})"

    def _make_backend(self, num_units: int) -> "ExecutionBackend":
        from repro.backends.local import ProcessPoolBackend, SerialBackend

        if self.workers == 1 or num_units == 1:
            return SerialBackend()
        return ProcessPoolBackend(min(self.workers, num_units))

    def run(self, specs: Sequence[ExperimentSpec]) -> CampaignResult:
        """Execute every cell, returning results in spec order."""
        execution = CampaignExecution(
            specs,
            cache=self.cache,
            max_shards_per_cell=self.max_shards_per_cell,
            shard_policy=self.shard_policy,
            stream_partials=self.stream_partials,
            early_stop=self.early_stop,
            progress=self.progress,
            telemetry=self.telemetry,
            backend_label=self._backend_label(),
        )
        execution.begin()
        units = execution.take_units()
        if units:
            backend = self.backend
            owns_backend = backend is None
            if backend is None:
                backend = self._make_backend(len(units))
            try:
                for unit in units:
                    backend.submit(unit)
                    execution.note_queued(unit)
                # Completion order (backend-defined), so finished
                # cells hit the cache and the progress callback
                # immediately instead of waiting behind a slow earlier
                # cell.  Shard partials are keyed by shard index, so
                # merges are completion-order independent.
                for result in backend.completions():
                    cancel = execution.on_result(result)
                    if cancel:
                        backend.cancel_units(cancel)
            finally:
                if owns_backend:
                    backend.close()
        return execution.finish()
