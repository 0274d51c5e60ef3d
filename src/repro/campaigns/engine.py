"""The per-campaign execution state machine.

:class:`CampaignExecution` is one campaign's complete cell
book-keeping — cache restore, shard merge, streaming partials, early
stopping, progress and telemetry — with the *backend driving* factored
out.  :class:`~repro.campaigns.runner.CampaignRunner` submits its
units to one backend and feeds completions back.  Payloads are
bit-identical across backends and completion orders: every merge is
keyed by shard index, never arrival order.

The driving protocol::

    execution.begin()                # cache restores, settles, plans
    for unit in execution.take_units():
        backend.submit(unit)
        execution.note_queued(unit)
    for result in backend.completions():
        cancel = execution.on_result(result)   # unit ids to cancel
        if cancel:
            backend.cancel_units(cancel)
    result = execution.finish()      # asserts all cells settled
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.campaigns.cache import ResultCache
from repro.campaigns.plan import resolved_kernel, shard_plan_for
from repro.campaigns.registry import ExperimentKind, get_experiment
from repro.campaigns.results import (
    CampaignResult,
    CellResult,
    ProgressEvent,
    ProgressFn,
    cell_weight,
)
from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import Shard, ShardPlan, ShardPolicy

if TYPE_CHECKING:  # runtime import is deferred: backends import us
    from repro.backends.base import WorkUnit


@dataclass
class CellState:
    """Book-keeping for one not-yet-finished cell."""

    index: int
    spec: ExperimentSpec
    kind: ExperimentKind
    plan: Optional[ShardPlan] = None
    parts: Dict[int, Any] = field(default_factory=dict)
    elapsed: float = 0.0
    restored: int = 0
    #: Shards covered by the last merged contiguous prefix (streamed
    #: and/or evaluated for early stopping).
    partial_done: int = 0
    #: Sample work already reported through shard progress events.
    reported_work: int = 0
    #: unit_id per shard index (cancellation bookkeeping).
    unit_ids: Dict[int, str] = field(default_factory=dict)
    #: The cell finished (merged, restored or early-stopped); any
    #: straggler shard results still arriving are discarded.
    done: bool = False


class CampaignExecution:
    """One campaign's cells, driven to completion by unit results.

    Parameters mirror :class:`~repro.campaigns.runner.CampaignRunner`,
    which delegates here.
    """

    def __init__(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        cache: Optional[ResultCache] = None,
        max_shards_per_cell: int = 1,
        shard_policy: Optional[ShardPolicy] = None,
        stream_partials: bool = False,
        early_stop: bool = False,
        progress: Optional[ProgressFn] = None,
        telemetry=None,
        backend_label: str = "serial",
    ) -> None:
        if max_shards_per_cell < 1:
            raise ValueError("max_shards_per_cell must be >= 1")
        self.specs = list(specs)
        self.cache = cache
        self.max_shards_per_cell = max_shards_per_cell
        self.shard_policy = (
            shard_policy if shard_policy is not None else ShardPolicy()
        )
        self.stream_partials = stream_partials
        self.early_stop = early_stop
        self.progress = progress
        self.telemetry = telemetry
        self.backend_label = backend_label
        self._results: List[Optional[CellResult]] = [None] * len(self.specs)
        self._units: List["WorkUnit"] = []
        self._by_id: Dict[str, Tuple[CellState, Optional[Shard]]] = {}
        #: Wall-clock submit time per outstanding unit id — the
        #: queued→running phase split in unit_done spans.
        self._queued_at: Dict[str, float] = {}
        self._started: Optional[float] = None
        self._begun = False

    # -- telemetry ---------------------------------------------------------

    def _emit(self, type_: str, **fields: Any) -> None:
        """Emit one telemetry event (no-op without a sink)."""
        if self.telemetry is None:
            return
        from repro.telemetry.events import make_event

        self.telemetry.emit(make_event(type_, **fields))

    def _report(self, event: ProgressEvent) -> None:
        if self.progress is not None:
            self.progress(event)

    # -- lifecycle ---------------------------------------------------------

    @property
    def total_work(self) -> int:
        return sum(cell_weight(spec) for spec in self.specs)

    @property
    def done(self) -> bool:
        """All cells settled (results in place for every spec)."""
        return all(result is not None for result in self._results)

    def begin(self) -> None:
        """Validate, restore from cache, settle, and plan units.

        After this, :meth:`take_units` yields
        the units a backend must execute; an all-cached campaign
        yields none and is immediately :attr:`done`.
        """
        assert not self._begun, "begin() called twice"
        self._begun = True
        # Validate kinds up front: a typo should fail before any
        # (possibly hours-long) cell executes.
        for spec in self.specs:
            get_experiment(spec.kind)
        self._started = time.monotonic()
        self._emit(
            "campaign_start",
            cells=len(self.specs),
            backend=self.backend_label,
            total_work=self.total_work,
        )
        pending: List[CellState] = []
        for index, spec in enumerate(self.specs):
            cached = None
            if self.cache is not None and (
                self.early_stop or not self.cache.is_early_stopped(spec)
            ):
                # An early-stopped entry holds a truncated decided-at
                # payload; a runner that did not opt into early
                # stopping promised the full budget, so it recomputes
                # (and overwrites) instead of loading it.
                cached = self.cache.get_record(spec)
            if cached is not None:
                payload, was_early_stopped = cached
                self._results[index] = CellResult(
                    spec=spec, payload=payload, elapsed=0.0,
                    from_cache=True, early_stopped=was_early_stopped,
                )
                self._emit(
                    "cache_hit", cell=spec.cell_id, kind=spec.kind,
                )
                self._report(ProgressEvent(
                    event="cell",
                    spec=spec,
                    elapsed=0.0,
                    work=cell_weight(spec),
                    from_cache=True,
                    result=self._results[index],
                ))
                continue
            cell = CellState(
                index=index,
                spec=spec,
                kind=get_experiment(spec.kind),
                plan=shard_plan_for(
                    spec, self.max_shards_per_cell, self.shard_policy
                ),
            )
            if self.cache is not None:
                # Liveness lease: gc must not sweep this cell's
                # partials or markers while the campaign works it.
                self.cache.touch_lease(spec)
            if self.telemetry is not None:
                # Resolve only when a sink listens: probing the vector
                # envelope builds a template cache, and the default
                # telemetry=None path stays zero-cost.
                kernel, reason = resolved_kernel(cell.kind, spec)
                if reason is not None:
                    self._emit(
                        "kernel_fallback",
                        cell=spec.cell_id,
                        kernel=kernel,
                        reason=reason,
                    )
            self._restore_shards(cell)
            if cell.plan is not None and len(cell.parts) == len(cell.plan):
                # Every shard was persisted before the interruption;
                # only the merge is left.
                self._finish_cell(cell, self._merge(cell))
            else:
                pending.append(cell)
        if pending and self.early_stop:
            # Shard partials restored from the cache may already carry
            # a decidable prefix — settle those cells before
            # dispatching any of their remaining shards.
            for cell in pending:
                self._after_prefix_grew(cell)
            pending = [cell for cell in pending if not cell.done]
        self._make_units(pending)

    def finish(self) -> CampaignResult:
        """Close the campaign (all cells must be settled)."""
        assert self._begun, "finish() before begin()"
        assert self.done, "finish() with unsettled cells"
        self._queued_at.clear()
        self._emit(
            "campaign_end",
            cells=len(self.specs),
            elapsed=(
                time.monotonic() - self._started
                if self._started is not None else 0.0
            ),
        )
        return CampaignResult(
            cells=[r for r in self._results if r is not None]
        )

    # -- unit plumbing -----------------------------------------------------

    def _make_units(self, pending: Sequence[CellState]) -> None:
        from repro.backends.base import WorkUnit

        for cell in pending:
            stem = f"c{cell.index:04d}-{cell.spec.spec_hash()[:12]}"
            if cell.plan is None:
                unit = WorkUnit(unit_id=stem, spec=cell.spec)
                self._by_id[unit.unit_id] = (cell, None)
                self._units.append(unit)
                continue
            for shard in cell.plan:
                unit_id = f"{stem}.{shard.start}-{shard.end}"
                cell.unit_ids[shard.index] = unit_id
                if shard.index in cell.parts:
                    continue  # restored from a persisted partial
                unit = WorkUnit(
                    unit_id=unit_id,
                    spec=cell.spec,
                    shard=shard,
                )
                self._by_id[unit_id] = (cell, shard)
                self._units.append(unit)

    def take_units(self) -> List["WorkUnit"]:
        """All not-yet-dispatched units (drains the internal queue)."""
        units, self._units = self._units, []
        return units

    def note_queued(self, unit: "WorkUnit") -> None:
        """Record one unit's submission (telemetry span start)."""
        if self.telemetry is None:
            return
        cell, _ = self._by_id[unit.unit_id]
        self._queued_at[unit.unit_id] = time.time()
        self._emit(
            "unit_queued",
            unit=unit.unit_id,
            cell=cell.spec.cell_id,
            kind=cell.spec.kind,
        )

    # -- unit completion ---------------------------------------------------

    def on_result(self, result: Any) -> List[str]:
        """Feed one completed unit; returns unit ids to cancel.

        The returned ids are shards made obsolete by an early-stop
        decision — the driver forwards them to its backend's
        ``cancel_units``.
        """
        entry = self._by_id.get(result.unit.unit_id)
        if entry is None:
            return []
        cell, shard = entry
        if self.telemetry is not None:
            self._emit_unit_done(cell, result)
        if cell.done:
            # A straggler of an early-stopped cell (its unit was
            # already running when the cancel landed).
            return []
        if shard is None:
            cell.elapsed = result.elapsed
            self._finish_cell(cell, result.payload)
            return []
        self._shard_done(cell, shard, result.payload, result.elapsed)
        if len(cell.parts) == len(cell.plan):
            self._finish_cell(cell, self._merge(cell))
            return []
        return self._after_prefix_grew(cell)

    def _emit_unit_done(self, cell: CellState, result: Any) -> None:
        """Close one unit's span: phase split + worker timings.

        ``queue_wait`` is submit-to-execution-start, from the worker's
        own wall clock when it stamped timings (clamped at 0 against
        cross-host clock skew); the remaining fields ride straight
        from the result doc.
        """
        unit_id = result.unit.unit_id
        queued = self._queued_at.pop(unit_id, None)
        queue_wait = None
        timings = result.timings
        if queued is not None:
            started = (timings or {}).get("started")
            reference = started if started is not None else time.time()
            queue_wait = max(0.0, reference - queued)
        fields: Dict[str, Any] = dict(
            unit=unit_id,
            cell=cell.spec.cell_id,
            kind=cell.spec.kind,
            attempts=getattr(result, "attempts", 1),
            elapsed=result.elapsed,
        )
        if getattr(result, "worker", None) is not None:
            fields["worker"] = result.worker
        if queue_wait is not None:
            fields["queue_wait"] = round(queue_wait, 6)
        if timings is not None:
            fields["timings"] = dict(timings)
        self._emit("unit_done", **fields)

    def _merge(self, cell: CellState) -> Any:
        """Merge a sharded cell's partials (shard order, not completion
        order) into the payload an unsharded run would produce."""
        assert cell.plan is not None
        start = time.perf_counter()
        parts = [cell.parts[i] for i in range(len(cell.plan))]
        payload = cell.kind.merge_shards(cell.spec, parts)
        seconds = time.perf_counter() - start
        cell.elapsed += seconds
        self._emit(
            "merge",
            cell=cell.spec.cell_id,
            shards=len(parts),
            seconds=round(seconds, 6),
        )
        return payload

    def _finish_cell(
        self,
        cell: CellState,
        payload: Any,
        *,
        early_stopped: bool = False,
    ) -> None:
        cell.done = True
        if self.cache:
            self.cache.put(cell.spec, payload, early_stopped=early_stopped)
            if cell.plan is not None and not early_stopped:
                # The full-budget entry supersedes the partials.  An
                # early-stopped cell keeps its persisted shards: a
                # later full-budget run rejects the truncated entry
                # and resumes from exactly those partials instead of
                # recomputing them (gc's orphan rule protects them
                # for the same reason).
                self.cache.clear_shards(cell.spec)
            self.cache.release_lease(cell.spec)
        num_shards = len(cell.plan) if cell.plan else 1
        self._results[cell.index] = CellResult(
            spec=cell.spec,
            payload=payload,
            elapsed=cell.elapsed,
            num_shards=num_shards,
            shards_restored=cell.restored,
            early_stopped=early_stopped,
        )
        self._emit(
            "cell_done",
            cell=cell.spec.cell_id,
            kind=cell.spec.kind,
            elapsed=round(cell.elapsed, 6),
            shards=num_shards,
            early_stopped=early_stopped,
        )
        # Sharded cells already reported their work shard by shard;
        # the cell event carries only what they did not — 0 normally,
        # the cancelled remainder when the cell stopped early.
        if cell.plan is None:
            work = cell_weight(cell.spec)
        else:
            work = max(0, cell_weight(cell.spec) - cell.reported_work)
        self._report(ProgressEvent(
            event="cell",
            spec=cell.spec,
            elapsed=cell.elapsed,
            work=work,
            result=self._results[cell.index],
        ))

    def _restore_shards(self, cell: CellState) -> None:
        """Adopt persisted shard partials from an interrupted run."""
        if self.cache is None or cell.plan is None:
            return
        restored_before = cell.restored
        for index, payload in sorted(
            self.cache.get_shards(cell.spec, cell.plan).items()
        ):
            cell.parts[index] = payload
            cell.restored += 1
            cell.reported_work += cell.plan[index].num_samples
            self._report(ProgressEvent(
                event="shard",
                spec=cell.spec,
                elapsed=0.0,
                work=cell.plan[index].num_samples,
                from_cache=True,
                shard=cell.plan[index],
            ))
        if cell.restored > restored_before:
            self._emit(
                "partial_restore",
                cell=cell.spec.cell_id,
                shards=cell.restored - restored_before,
                of=len(cell.plan),
            )

    def _shard_done(
        self, cell: CellState, shard: Shard, payload: Any, elapsed: float
    ) -> None:
        cell.parts[shard.index] = payload
        cell.elapsed += elapsed
        cell.reported_work += shard.num_samples
        # Persist before reporting: once an observer saw the shard
        # complete, a crash must not lose it.
        if self.cache is not None:
            self.cache.put_shard(cell.spec, shard, payload)
            self.cache.touch_lease(cell.spec)
        self._report(ProgressEvent(
            event="shard",
            spec=cell.spec,
            elapsed=elapsed,
            work=shard.num_samples,
            shard=shard,
        ))

    def _after_prefix_grew(self, cell: CellState) -> List[str]:
        """React to a grown contiguous shard prefix: stream the merged
        preview and/or rule on early stopping.  One merge serves both;
        merge failures are skippable for previews but disable stopping
        too (an undecidable prefix is simply not decided).  Returns
        the unit ids an early-stop decision makes obsolete."""
        if cell.plan is None:
            return []
        wants_stream = (
            self.stream_partials and cell.kind.merge_partial is not None
        )
        wants_stop = (
            self.early_stop and cell.kind.should_stop is not None
        )
        if not (wants_stream or wants_stop):
            return []
        done = 0
        while done in cell.parts:
            done += 1
        if done <= cell.partial_done or done >= len(cell.plan):
            # No new contiguous prefix (or the cell is about to merge
            # for real anyway).
            return []
        cell.partial_done = done
        try:
            payload = cell.kind.merge_partial(
                cell.spec, [cell.parts[i] for i in range(done)]
            )
        except Exception:
            return []  # an unmergeable prefix is simply not ruled on
        if wants_stream:
            # A failing summary only skips the preview line — it must
            # not block the stopping decision, which needs nothing but
            # the merged payload.
            try:
                summary = cell.kind.summarize(cell.spec, payload)
            except Exception:
                pass
            else:
                self._report(ProgressEvent(
                    event="partial",
                    spec=cell.spec,
                    elapsed=0.0,
                    work=0,
                    partial=payload,
                    summary=summary,
                    shards_done=done,
                    shards_total=len(cell.plan),
                ))
        if not wants_stop:
            return []
        try:
            stop = bool(cell.kind.should_stop(cell.spec, payload))
        except Exception:
            return []  # an erroring rule must never fail the campaign
        if not stop:
            return []
        remaining = [
            unit_id
            for index, unit_id in cell.unit_ids.items()
            if index not in cell.parts
        ]
        # decided_at: the trial count the verdict was reached at — the
        # end of the merged contiguous prefix the rule fired on.
        self._emit(
            "early_stop",
            cell=cell.spec.cell_id,
            decided_at=cell.plan[done - 1].end,
            cancelled=len(remaining),
        )
        self._finish_cell(cell, payload, early_stopped=True)
        return remaining
