"""Shared result reporting for every experiment consumer.

One place for the three output shapes the toolkit produces:

* aligned text tables (:func:`format_table`) for CLI commands and
  benchmark summaries,
* JSON documents (:func:`render_json`) that tolerate NumPy scalars,
  arrays, bytes and dataclasses, for machine-readable campaign output,
* run-stamped results files (:class:`ResultsFile`) — append-only
  records where each process run is delimited by a header, so a file
  that accumulates across many invocations stays legible,
* streaming campaign progress (:class:`CampaignProgress`) — a
  :class:`~repro.campaigns.results.ProgressFn` that prints one
  progress/ETA line per completed cell or shard.

The benchmark harness (``benchmarks/reporting.py``) and the campaign
CLI both route through this module instead of hand-rolling printing.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from datetime import datetime, timezone
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TextIO,
)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    padding: int = 2,
) -> str:
    """Render rows as a left-aligned monospace table.

    Every cell is stringified; column widths fit the longest cell.
    """
    string_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in string_rows:
        if len(row) != len(widths):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(widths)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    gap = " " * padding

    def line(cells: Sequence[str]) -> str:
        return gap.join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in string_rows)
    return "\n".join(out)


def json_default(obj: Any) -> Any:
    """``json.dumps`` fallback covering the types experiments emit."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (bytes, bytearray)):
        return obj.hex()
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    # NumPy scalars and arrays, without importing numpy eagerly.
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable"
    )


def render_json(payload: Any, *, indent: Optional[int] = 2) -> str:
    """Serialize ``payload`` to JSON, tolerating NumPy/dataclasses."""
    return json.dumps(payload, indent=indent, default=json_default)


def format_duration(seconds: float) -> str:
    """Compact human-readable duration (``820ms``, ``47s``, ``3m12s``,
    ``2h05m``).

    Negative inputs (clock skew between the hosts stamping a span)
    clamp to ``0s``.  Sub-second durations render in milliseconds, and
    positive values below a millisecond render ``<1ms`` — a span that
    took *some* time must never read as taking none.
    """
    if seconds <= 0.0:
        return "0s"
    if seconds < 1.0:
        millis = int(round(seconds * 1000.0))
        if millis < 1:
            return "<1ms"
        if millis < 1000:
            return f"{millis}ms"
        # 0.9996s rounds up to 1000ms: fall through to the whole-
        # second path rather than rendering "1000ms".
    whole = int(round(max(0.0, seconds)))
    if whole < 60:
        return f"{whole}s"
    minutes, secs = divmod(whole, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class CampaignProgress:
    """Streams one progress/ETA line per completed campaign unit.

    Wire an instance as :class:`~repro.campaigns.runner.CampaignRunner`'s
    ``progress`` callback.  It weights progress by sample counts (so a
    half-done 10^6-sample cell moves the needle more than a finished
    toy cell), and it treats cache-restored units specially: they
    count toward completion immediately, but — because they cost ~0
    compute — they are **excluded from the throughput estimate**, so
    resuming a cached sweep neither stalls the ETA at a bogus value
    nor collapses it to zero.  The math is guarded against the
    degenerate shapes resumed/distributed sweeps produce: zero-weight
    campaigns, all-cache-hit campaigns (no fresh work ever → no rate →
    ``eta --``/``done``, never a division by zero), and clocks that
    have not advanced.

    ``"partial"`` events (streamed merged-prefix previews) print a
    result line with a few summary fields instead of progress math —
    they carry no new work.

    Parameters
    ----------
    total_cells / total_work:
        Campaign size; build both from the spec list with
        :func:`campaign_totals`.
    stream:
        Output stream (default stderr, keeping stdout clean for
        tables/JSON).
    clock:
        Injectable time source for tests.
    worker_gauge:
        Optional live worker source: returning a number (e.g.
        ``WorkQueueBackend.live_worker_count``) gains every progress
        line a ``workers N`` column — the operator's view of an
        elastic pool growing and draining.  Returning a host→count
        mapping (``workers_by_host`` on the queue backends) renders
        the fleet total with a per-host breakdown whenever more than
        one host is serving.  Errors and None readings simply omit
        the column.
    """

    #: Summary fields shown on a partial-preview line, at most.
    PARTIAL_SUMMARY_FIELDS = 3

    def __init__(
        self,
        total_cells: int,
        total_work: int,
        stream: Optional[TextIO] = None,
        clock=time.monotonic,
        worker_gauge: Optional[
            Callable[[], "Optional[int | Mapping[str, int]]"]
        ] = None,
    ) -> None:
        self.total_cells = max(0, total_cells)
        self.total_work = max(1, total_work)
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.worker_gauge = worker_gauge
        self.started = clock()
        self.cells_done = 0
        self.work_done = 0
        #: Work completed by fresh computation (ETA rate basis).
        self.fresh_work_done = 0

    def _workers_suffix(self) -> str:
        if self.worker_gauge is None:
            return ""
        try:
            count = self.worker_gauge()
        except Exception:
            return ""  # a broken gauge must never break progress
        if count is None:
            return ""
        if isinstance(count, Mapping):
            # A host whose pool drained to zero mid-campaign is stale
            # bookkeeping, not fleet state — drop it rather than
            # rendering a noisy "hostB:0".
            live = {
                host: n for host, n in count.items() if n > 0
            }
            total = sum(live.values())
            if len(live) > 1:
                hosts = ", ".join(
                    f"{host}:{n}" for host, n in sorted(live.items())
                )
                return f" | workers {total} ({hosts})"
            return f" | workers {total}"
        return f" | workers {count}"

    def eta_seconds(self) -> Optional[float]:
        """Remaining seconds (≥ 0), or None with no fresh unit done
        yet — cache restores alone never produce a rate."""
        if self.fresh_work_done <= 0:
            return None
        rate = self.fresh_work_done / max(1e-9, self.clock() - self.started)
        return max(0.0, (self.total_work - self.work_done) / rate)

    def _prefix(self) -> str:
        percent = 100.0 * self.work_done / self.total_work
        return (
            f"[{self.cells_done}/{self.total_cells} cells, {percent:3.0f}%]"
        )

    def _print_partial(self, event) -> None:
        summary = dict(event.summary or {})
        fields = ", ".join(
            f"{key}={value}"
            for key, value in list(summary.items())
            [: self.PARTIAL_SUMMARY_FIELDS]
        )
        detail = f": {fields}" if fields else ""
        print(
            f"{self._prefix()} {event.label}{detail}"
            f"{self._workers_suffix()}",
            file=self.stream,
        )

    def __call__(self, event) -> None:
        if getattr(event, "event", "cell") == "partial":
            # Previews carry no new work — progress state is untouched.
            self._print_partial(event)
            return
        if event.event == "cell":
            self.cells_done += 1
        result = getattr(event, "result", None)
        early_stopped = bool(getattr(result, "early_stopped", False))
        work = max(0, event.work)
        self.work_done = min(self.total_work, self.work_done + work)
        # Early-stopped cell events carry the *skipped* remainder of
        # their budget: it completes the campaign's progress but cost
        # no compute, so — like cache restores — it must not inflate
        # the throughput estimate.
        if not event.from_cache and not early_stopped:
            self.fresh_work_done += work
        if event.from_cache:
            origin = "cached"
        elif early_stopped:
            decided = getattr(
                getattr(result, "payload", None), "trials", None
            )
            at = f" @ {decided}" if decided is not None else ""
            origin = f"early-stop{at}, {event.elapsed:.1f}s"
        else:
            origin = f"{event.elapsed:.1f}s"
        eta = self.eta_seconds()
        remaining = (
            f"eta {format_duration(eta)}"
            if eta is not None and self.work_done < self.total_work
            else ("done" if self.work_done >= self.total_work else "eta --")
        )
        print(
            f"{self._prefix()} "
            f"{event.label} ({origin}) | "
            f"elapsed {format_duration(self.clock() - self.started)} | "
            f"{remaining}{self._workers_suffix()}",
            file=self.stream,
        )


def campaign_totals(specs: Sequence[Any]) -> tuple:
    """(total_cells, total_work) for a spec list — the
    :class:`CampaignProgress` constructor arguments."""
    from repro.campaigns.results import cell_weight

    return len(specs), sum(cell_weight(spec) for spec in specs)


def format_feed_line(event: Mapping[str, Any]) -> str:
    """One ``repro watch`` line from a campaign-service feed event.

    Feed events are the scheduler's serialized
    :class:`~repro.campaigns.results.ProgressEvent` docs (cell / shard
    / partial, see ``CampaignScheduler.status_doc``); the rendering
    mirrors :class:`CampaignProgress` lines — label, work, compute
    seconds — with cache restores and streamed partial summaries
    called out.
    """
    kind = event.get("event", "?")
    label = event.get("label") or event.get("cell", "?")
    parts = [f"[{event.get('seq', '?'):>4}]", f"{kind:<7}", label]
    if event.get("from_cache"):
        parts.append("(cached)")
    elif kind != "partial":
        parts.append(f"({format_duration(float(event.get('elapsed', 0.0)))})")
    if kind == "partial" and event.get("summary"):
        summary = event["summary"]
        interesting = {
            k: v for k, v in summary.items()
            if k not in ("kind", "setup", "num_samples", "seed",
                         "elapsed_s", "from_cache")
        }
        if interesting:
            parts.append(
                " ".join(f"{k}={v}" for k, v in interesting.items())
            )
    return " ".join(str(p) for p in parts)


def run_header(note: str = "") -> str:
    """A one-line delimiter stamping one process run of a results file."""
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    command = " ".join(sys.argv) or "(interactive)"
    suffix = f"  {note}" if note else ""
    return f"#### run {stamp} · {command}{suffix} ####"


class ResultsFile:
    """Append-only results record, stamped once per process run.

    The first block emitted by a process writes a :func:`run_header`
    delimiter before its content, so successive runs appending to the
    same file remain distinguishable (previously the benchmark results
    file grew forever with no indication of where one run ended and
    the next began).
    """

    def __init__(self, path: str, *, echo: bool = True) -> None:
        self.path = path
        self.echo = echo
        self._stamped = False

    def emit(self, title: str, lines: Iterable[str]) -> None:
        """Print a titled block and append it to the results file."""
        block = [f"== {title} =="] + list(lines) + [""]
        text = "\n".join(block)
        if self.echo:
            print(text)
        with open(self.path, "a") as handle:
            if not self._stamped:
                handle.write("\n" + run_header() + "\n\n")
                self._stamped = True
            handle.write(text + "\n")


def emit_block(
    title: str,
    lines: Iterable[str],
    *,
    path: Optional[str] = None,
) -> None:
    """One-shot convenience: print a block, optionally append to a file."""
    if path is not None:
        ResultsFile(path).emit(title, lines)
        return
    block: List[str] = [f"== {title} =="] + list(lines) + [""]
    print("\n".join(block))
