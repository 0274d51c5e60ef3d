"""Campaign progress and result types.

The vocabulary shared by
:class:`~repro.campaigns.runner.CampaignRunner`, its
:class:`~repro.campaigns.engine.CampaignExecution` and the progress
renderers in :mod:`repro.reporting`: what one finished cell looks like
(:class:`CellResult`), what one unit of progress looks like
(:class:`ProgressEvent`), and how a whole campaign's cells are
collected (:class:`CampaignResult`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.campaigns.registry import get_experiment
from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import Shard

ProgressFn = Callable[["ProgressEvent"], None]


@dataclass
class CellResult:
    """One executed (or cache-restored) cell."""

    spec: ExperimentSpec
    payload: Any
    #: Compute seconds: one timed execution for whole cells; for
    #: sharded cells the *sum* over freshly-computed shards plus the
    #: merge — i.e. total CPU cost, which exceeds wall clock when
    #: shards ran concurrently (cache restores report 0).
    elapsed: float
    from_cache: bool = False
    #: Shards the cell was split into (1 = executed whole).
    num_shards: int = 1
    #: Shards restored from persisted partials instead of recomputed.
    shards_restored: int = 0
    #: The cell's ``should_stop`` hook decided its verdict on a
    #: contiguous shard prefix; the payload covers only the samples up
    #: to that decision point (its decided-at count), and the
    #: remaining shards were cancelled, never computed.
    early_stopped: bool = False

    def summary(self) -> Dict[str, Any]:
        """Flat JSON-able record: spec identity + kind-specific fields."""
        record: Dict[str, Any] = {
            "kind": self.spec.kind,
            "setup": self.spec.setup,
            "num_samples": self.spec.num_samples,
            "seed": self.spec.seed,
            "elapsed_s": round(self.elapsed, 3),
            "from_cache": self.from_cache,
        }
        if self.early_stopped:
            record["early_stopped"] = True
        record.update(dict(self.spec.params))
        kind = get_experiment(self.spec.kind)
        record.update(kind.summarize(self.spec, self.payload))
        return record


@dataclass(frozen=True)
class ProgressEvent:
    """One completed unit of campaign progress.

    ``event`` is ``"cell"`` (a cell finished — fresh, merged, or
    cache-restored), ``"shard"`` (one shard of a sharded cell finished
    or was restored from a persisted partial), or ``"partial"`` (a
    streaming merge of the contiguous shard prefix completed so far —
    carries ``partial``/``summary``, see
    :attr:`CampaignRunner.stream_partials`).  ``work`` is the number
    of samples this event newly completes: shard events carry their
    shard's size and the final merged-cell event carries whatever the
    shards did not already report — 0 for a fully-computed sharded
    cell, the *skipped* remainder for an early-stopped one — so
    consumers summing ``work`` never double-count and always reach the
    campaign total (partial events carry 0 — they re-package work
    already counted shard by shard); cells executed whole (or restored
    from cache) carry the full cell weight.  ``elapsed`` is the unit's
    compute seconds (for a sharded cell's final event: the sum over
    its shards plus the merge — CPU cost, not wall clock).
    """

    event: str
    spec: ExperimentSpec
    elapsed: float
    work: int
    from_cache: bool = False
    shard: Optional[Shard] = None
    result: Optional[CellResult] = None
    #: "partial" events: merged payload of shards ``0..shards_done-1``.
    partial: Optional[Any] = None
    #: "partial" events: the kind's flat summary of ``partial``.
    summary: Optional[Dict[str, Any]] = None
    #: "partial" events: contiguous shards merged, out of shards_total.
    shards_done: int = 0
    shards_total: int = 0

    @property
    def label(self) -> str:
        """Human-readable unit label for progress lines."""
        if self.event == "partial":
            return (
                f"{self.spec.cell_id} "
                f"partial {self.shards_done}/{self.shards_total}"
            )
        if self.shard is not None:
            # The range doubles as a shard-size readout, so progress
            # lines show adaptive geometry (small lead, growing tail).
            return (
                f"{self.spec.cell_id} "
                f"shard {self.shard.index + 1}/{self.shard.num_shards} "
                f"[{self.shard.start},{self.shard.end})"
            )
        return self.spec.cell_id


def cell_weight(spec: ExperimentSpec) -> int:
    """Progress weight of one cell (≥ 1 even for sample-less kinds)."""
    return max(spec.num_samples, 1)


@dataclass
class CampaignResult:
    """All cells of one campaign, in spec order."""

    cells: List[CellResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[CellResult]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def payloads(self) -> List[Any]:
        return [cell.payload for cell in self.cells]

    def by_setup(self) -> Dict[str, Any]:
        """``{setup name: payload}`` (requires unique setups)."""
        table: Dict[str, Any] = {}
        for cell in self.cells:
            name = cell.spec.setup
            if name is None:
                raise ValueError(f"cell {cell.spec.cell_id} has no setup")
            if name in table:
                raise ValueError(f"duplicate setup {name!r} in campaign")
            table[name] = cell.payload
        return table

    def summaries(self) -> List[Dict[str, Any]]:
        return [cell.summary() for cell in self.cells]

    @property
    def total_elapsed(self) -> float:
        """Sum of per-cell compute time (not wall clock when parallel)."""
        return sum(cell.elapsed for cell in self.cells)

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.from_cache)
