"""The execution-backend protocol: where campaign work units run.

:class:`~repro.campaigns.runner.CampaignRunner` is backend-agnostic:
it turns a campaign into self-describing :class:`WorkUnit` s (one per
whole cell, or one per shard of a sharded cell), submits them to an
:class:`ExecutionBackend`, and consumes :class:`WorkResult` s in
whatever order the backend completes them.  Because every unit's
randomness is keyed to the spec (and, for shards, to absolute sample
positions), the merged campaign payloads are bit-identical no matter
which backend ran the units or in what order they finished — the
golden-trace suite asserts exactly that over all three built-ins:

* :class:`~repro.backends.local.SerialBackend` — in-process, in
  submission order (the reference semantics);
* :class:`~repro.backends.local.ProcessPoolBackend` — a
  ``ProcessPoolExecutor`` on this host;
* :class:`~repro.backends.workqueue.WorkQueueBackend` — a filesystem
  work queue dispatching units to independent ``repro worker``
  processes (any host sharing the directory), with lease-based
  dead-worker detection and automatic re-enqueue.

Contract
--------

``submit`` enqueues units; ``completions`` yields one
:class:`WorkResult` per outstanding unit and returns when all are
drained (failures raise).  A backend may be reused for several
submit/drain rounds; ``close`` releases its resources (pools,
worker processes).  Backends never share mutable state with units —
a unit must be executable from its wire form alone (see
:meth:`WorkUnit.to_doc`).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional, Tuple

from repro.campaigns.registry import ExperimentKind, get_experiment
from repro.campaigns.spec import ExperimentSpec
from repro.core.batch import Shard


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable piece of campaign work: a cell, or one shard.

    ``unit_id`` is the caller's handle (and the work-queue file stem):
    unique within one submit/drain round, filename-safe.  The unit is
    *self-describing* — :meth:`to_doc`/:meth:`from_doc` round-trip it
    through JSON so a worker process with no shared state can execute
    it from the document alone.
    """

    unit_id: str
    spec: ExperimentSpec
    shard: Optional[Shard] = None

    @property
    def label(self) -> str:
        if self.shard is None:
            return self.spec.cell_id
        return (
            f"{self.spec.cell_id} "
            f"shard {self.shard.index + 1}/{self.shard.num_shards}"
        )

    def to_doc(self) -> dict:
        """JSON-able wire form (the work-queue task file content)."""
        kind = get_experiment(self.spec.kind)
        doc: dict = {
            "unit_id": self.unit_id,
            "spec": self.spec.to_doc(),
            # Importing this module in the worker re-runs the kind's
            # ``register_experiment`` side effect, so kinds registered
            # outside the built-ins (benchmarks) stay dispatchable.
            "kind_module": kind.run.__module__,
            "shard": None,
        }
        if self.shard is not None:
            doc["shard"] = {
                "index": self.shard.index,
                "num_shards": self.shard.num_shards,
                "start": self.shard.start,
                "end": self.shard.end,
            }
        return doc

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "WorkUnit":
        shard_doc = doc.get("shard")
        shard = (
            Shard(
                index=int(shard_doc["index"]),
                num_shards=int(shard_doc["num_shards"]),
                start=int(shard_doc["start"]),
                end=int(shard_doc["end"]),
            )
            if shard_doc
            else None
        )
        return cls(
            unit_id=doc["unit_id"],
            spec=ExperimentSpec.from_doc(doc["spec"]),
            shard=shard,
        )


@dataclass(frozen=True)
class WorkResult:
    """One completed unit: its payload plus execution metadata."""

    unit: WorkUnit
    payload: Any
    #: Compute seconds on the executing worker.
    elapsed: float
    #: Identity of the executing worker, when the backend knows one.
    worker: Optional[str] = None
    #: 1 + the number of times the unit was re-enqueued before this
    #: result arrived (lease expiries under the work queue).
    attempts: int = 1
    #: Execution-only phase timings stamped by the worker (wall-clock
    #: start/end, CPU seconds, host) — telemetry metadata that rides
    #: the wire next to the payload but never enters spec identity or
    #: the payload bytes.
    timings: Optional[Mapping[str, Any]] = None


def resolve_unit_kind(unit: WorkUnit) -> ExperimentKind:
    kind = get_experiment(unit.spec.kind)
    if unit.shard is not None and not kind.shardable:
        raise ValueError(
            f"kind {kind.name!r} is not shardable but unit "
            f"{unit.unit_id!r} carries a shard"
        )
    return kind


def execute_unit(unit: WorkUnit) -> Tuple[Any, float]:
    """(payload, compute seconds) for one unit, in this process."""
    kind = resolve_unit_kind(unit)
    start = time.perf_counter()
    if unit.shard is None:
        payload = kind.run(unit.spec)
    else:
        payload = kind.run_shard(unit.spec, unit.shard)
    return payload, time.perf_counter() - start


def stamp_timings(started: float, cpu_started: float) -> "dict":
    """The execution-phase timing doc every executor stamps.

    ``started``/``cpu_started`` are ``time.time()`` /
    ``time.process_time()`` readings taken just before the unit ran.
    One shared builder so local backends and both worker transports
    produce the same keys (the journal's span fields).
    """
    import socket

    return {
        "started": started,
        "ended": time.time(),
        "cpu": time.process_time() - cpu_started,
        "host": socket.gethostname(),
    }


class ExecutionBackend(abc.ABC):
    """Submit work units, drain completions, release resources."""

    @abc.abstractmethod
    def submit(self, unit: WorkUnit) -> None:
        """Enqueue one unit for execution."""

    @abc.abstractmethod
    def completions(self) -> Iterator[WorkResult]:
        """Yield results for every outstanding unit, then return.

        Completion order is backend-defined (serial: submission
        order).  A unit whose execution fails raises out of the
        iterator — campaign payloads are deterministic, so retrying a
        *clean* failure cannot help (crashed/lost workers are a
        different matter: the work queue re-enqueues those).
        """

    @abc.abstractmethod
    def cancel(self) -> None:
        """Drop units not yet handed to a worker (best effort)."""

    def cancel_units(self, unit_ids: Iterable[str]) -> None:
        """Drop *specific* outstanding units, best effort.

        The early-stopping path: once a cell's verdict is decided, the
        runner cancels its remaining shards by id.  A cancelled unit
        is never yielded by :meth:`completions`; a unit already
        executing when the cancel lands may still run to completion —
        backends either suppress its result (local backends) or sweep
        the straggler's files on later polls and at close (work
        queue), and the caller must tolerate not hearing about it
        either way.  The
        default is a no-op: the caller already discards results it no
        longer cares about, so a backend without cancellation support
        merely wastes the cancelled units' compute.
        """

    def close(self) -> None:
        """Release pools/workers.  Idempotent; the default is a no-op."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
