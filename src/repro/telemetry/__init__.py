"""Campaign telemetry: structured tracing, metrics, run journals,
and fleet introspection.

Everything here is opt-in and observer-only: campaigns run with
``telemetry=None`` by default (zero event construction on the hot
path), and enabling a sink never changes a payload byte — phase
timings travel in execution-only result-doc metadata, outside spec
identity.
"""

from repro.telemetry.events import (
    EVENT_SCHEMA,
    make_event,
    validate_event,
    validate_journal,
)
from repro.telemetry.sink import (
    MultiSink,
    NullSink,
    RecordingSink,
    RunJournal,
    TelemetrySink,
    load_journal,
    read_journal,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSink,
    percentile,
    replay_journal,
)
from repro.telemetry.analyze import TraceReport, render_trace
from repro.telemetry.status import (
    coordinator_status,
    queue_dir_status,
    render_status,
)

__all__ = [
    "EVENT_SCHEMA",
    "make_event",
    "validate_event",
    "validate_journal",
    "TelemetrySink",
    "NullSink",
    "MultiSink",
    "RecordingSink",
    "RunJournal",
    "read_journal",
    "load_journal",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "percentile",
    "replay_journal",
    "TraceReport",
    "render_trace",
    "queue_dir_status",
    "coordinator_status",
    "render_status",
]
