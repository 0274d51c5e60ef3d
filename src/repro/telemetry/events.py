"""The campaign telemetry event vocabulary.

Every record a :class:`~repro.telemetry.sink.TelemetrySink` carries is
a flat JSON object with two universal fields — ``ts`` (unix seconds,
float) and ``type`` — plus the per-type payload fields listed in
:data:`EVENT_SCHEMA`.  The vocabulary is deliberately small and typed:
an analyzer (``repro trace``), the metrics folder
(:class:`~repro.telemetry.metrics.MetricsSink`) and the CI journal
validator all key off the same table, so an emitter inventing an
undeclared event type or dropping a required field fails validation
instead of silently producing unanalyzable journals.

Extra fields beyond the required set are allowed — emitters attach
context (worker hosts, phase timings) that analyzers use when present
— but the required core of each type is frozen here.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping, Optional

#: type → required payload fields (beyond the universal ``ts``/``type``).
#: The comments give each event's emitter and meaning.
EVENT_SCHEMA: Dict[str, frozenset] = {
    # -- campaign lifecycle (CampaignRunner) ---------------------------------
    "campaign_start": frozenset({"cells", "backend"}),
    "campaign_end": frozenset({"cells", "elapsed"}),
    # A whole-cell cache hit: no unit was ever queued.
    "cache_hit": frozenset({"cell"}),
    # Durable shard partials restored for a cell resuming mid-flight.
    "partial_restore": frozenset({"cell", "shards"}),
    # -- the unit span (CampaignRunner) --------------------------------------
    # queued → (leased/running on a worker) → merged; the span's phase
    # timings ride in unit_done (queue_wait plus the worker-stamped
    # wall/CPU timings from the result doc).
    "unit_queued": frozenset({"unit", "cell"}),
    "unit_done": frozenset({"unit", "cell", "attempts", "elapsed"}),
    # Merging a grown contiguous shard prefix into the cell payload.
    "merge": frozenset({"cell", "shards", "seconds"}),
    # Early stop decided on a merged prefix; decided_at carries the
    # trial count the decision was made at.
    "early_stop": frozenset({"cell", "decided_at", "cancelled"}),
    # A cell resolved to the scalar kernel; reason is the
    # machine-readable envelope-probe verdict (never a silent fallback).
    "kernel_fallback": frozenset({"cell", "kernel", "reason"}),
    "cell_done": frozenset({"cell", "elapsed"}),
    # -- queue fault recovery (WorkQueueBackend / HttpQueueBackend) ----------
    # A lease aged past half its timeout without expiring — the early
    # warning that a worker is struggling (one per unit attempt).
    "heartbeat_gap": frozenset({"unit", "age"}),
    "lease_expired": frozenset({"unit", "age", "attempt"}),
    # The unit going back to tasks/ with a bumped attempt number.
    "requeue": frozenset({"unit", "attempt"}),
    # A torn/corrupt result document preserved in corrupt/.
    "quarantine": frozenset({"unit", "path"}),
    # -- fleet scaling (ElasticSupervisor) -----------------------------------
    # One scaling decision with the queue-pressure inputs that drove
    # it: pending tasks, busy leases, own pool size, computed target.
    "scale": frozenset({"action", "pending", "busy", "own", "target"}),
    "worker_spawn": frozenset({"worker", "host"}),
    "worker_retire": frozenset({"worker", "host"}),
    "worker_crash": frozenset({"worker", "host", "returncode"}),
}


def make_event(type_: str, **fields: Any) -> Dict[str, Any]:
    """Build one event doc, stamped with the wall clock.

    Unknown types are built anyway (validation is the journal
    reader's job, not the hot emission path's) — but every in-tree
    emitter sticks to :data:`EVENT_SCHEMA`.
    """
    doc: Dict[str, Any] = {"ts": time.time(), "type": type_}
    doc.update(fields)
    return doc


def validate_event(doc: Mapping[str, Any]) -> Optional[str]:
    """One event's schema violation as a message, or None when valid."""
    type_ = doc.get("type")
    if not isinstance(type_, str):
        return "event has no 'type' field"
    if not isinstance(doc.get("ts"), (int, float)):
        return f"{type_}: missing/non-numeric 'ts'"
    required = EVENT_SCHEMA.get(type_)
    if required is None:
        return f"unknown event type {type_!r}"
    missing = sorted(required - set(doc))
    if missing:
        return f"{type_}: missing required field(s) {', '.join(missing)}"
    return None


def validate_journal(
    events: "list[Mapping[str, Any]]",
) -> List[str]:
    """Schema violations across a whole journal (empty = valid)."""
    errors: List[str] = []
    for index, doc in enumerate(events):
        error = validate_event(doc)
        if error is not None:
            errors.append(f"event {index}: {error}")
    return errors
