"""Tests for the shared reporting module (repro.reporting)."""

import dataclasses
import io
import json

import numpy as np
import pytest

from repro.reporting import (
    CampaignProgress,
    ResultsFile,
    campaign_totals,
    emit_block,
    format_duration,
    format_table,
    render_json,
    run_header,
)


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "value"],
                             [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].index("1") == lines[3].index("2")  # aligned column

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [["only one"]])

    def test_cells_stringified(self):
        table = format_table(["x"], [[1.5], [None]])
        assert "1.5" in table and "None" in table


class TestRenderJson:
    def test_numpy_and_bytes(self):
        doc = render_json({
            "array": np.arange(3),
            "scalar": np.float64(1.5),
            "blob": b"\x01\x02",
        })
        parsed = json.loads(doc)
        assert parsed["array"] == [0, 1, 2]
        assert parsed["scalar"] == 1.5
        assert parsed["blob"] == "0102"

    def test_dataclass_and_set(self):
        @dataclasses.dataclass
        class Point:
            x: int
            y: int

        parsed = json.loads(render_json({
            "point": Point(1, 2), "tags": {"b", "a"},
        }))
        assert parsed["point"] == {"x": 1, "y": 2}
        assert parsed["tags"] == ["a", "b"]

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            render_json({"f": object()})


class TestResultsFile:
    def test_stamps_header_once_per_process(self, tmp_path, capsys):
        path = tmp_path / "results.txt"
        results = ResultsFile(str(path))
        results.emit("first", ["line 1"])
        results.emit("second", ["line 2"])
        text = path.read_text()
        assert text.count("#### run ") == 1
        assert text.index("#### run ") < text.index("== first ==")
        assert "== second ==" in text
        out = capsys.readouterr().out
        assert "== first ==" in out and "line 1" in out

    def test_new_process_run_appends_new_header(self, tmp_path):
        path = tmp_path / "results.txt"
        ResultsFile(str(path)).emit("run A", ["a"])
        # A fresh ResultsFile models a fresh process run.
        ResultsFile(str(path)).emit("run B", ["b"])
        text = path.read_text()
        assert text.count("#### run ") == 2
        assert text.index("run A") < text.index("run B")

    def test_echo_disabled(self, tmp_path, capsys):
        results = ResultsFile(str(tmp_path / "r.txt"), echo=False)
        results.emit("quiet", ["x"])
        assert capsys.readouterr().out == ""


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _event(event="cell", work=100, from_cache=False, elapsed=1.0,
           label="bernstein:tscache"):
    """Duck-typed stand-in for results.ProgressEvent."""

    class E:
        pass

    e = E()
    e.event = event
    e.work = work
    e.from_cache = from_cache
    e.elapsed = elapsed
    e.label = label
    return e


class TestCampaignProgress:
    def test_emits_progress_and_eta_lines(self):
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(4, 400, stream=stream, clock=clock)
        clock.now = 10.0
        progress(_event(work=100))
        clock.now = 20.0
        progress(_event(work=100))
        lines = stream.getvalue().splitlines()
        assert "[1/4 cells" in lines[0]
        # 100 work units per 10s; 300 remaining after the first cell.
        assert "eta 30s" in lines[0]
        assert "[2/4 cells" in lines[1]
        assert "eta 20s" in lines[1]
        assert "elapsed 20s" in lines[1]

    def test_cache_hits_marked_and_excluded_from_rate(self):
        """Regression (progress/ETA on resumed sweeps): a cache-hit
        cell must emit a marked event that advances completion without
        polluting the throughput estimate — its zero-cost 'work' would
        otherwise make the ETA collapse toward zero."""
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(3, 300, stream=stream, clock=clock)
        clock.now = 1.0
        progress(_event(work=100, from_cache=True, elapsed=0.0))
        lines = stream.getvalue().splitlines()
        assert "(cached)" in lines[0]
        # No fresh compute yet: ETA must be unknown, not 0.
        assert "eta --" in lines[0]
        assert progress.eta_seconds() is None
        # One fresh cell by t=11 -> 100 fresh units per 11s wall; 100
        # units remain -> 11s.  The 100 cached units count toward
        # completion but never toward the numerator of the rate.
        clock.now = 11.0
        progress(_event(work=100))
        assert progress.eta_seconds() == pytest.approx(11.0, rel=1e-6)
        assert "eta 11s" in stream.getvalue().splitlines()[1]

    def test_shard_events_count_work_not_cells(self):
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(1, 100, stream=stream, clock=clock)
        clock.now = 5.0
        progress(_event(event="shard", work=50,
                        label="bernstein:tscache shard 1/2"))
        line = stream.getvalue().splitlines()[0]
        assert "[0/1 cells" in line
        assert "50%" in line
        assert "shard 1/2" in line
        clock.now = 10.0
        progress(_event(event="shard", work=50,
                        label="bernstein:tscache shard 2/2"))
        clock.now = 10.5
        progress(_event(event="cell", work=0))
        final = stream.getvalue().splitlines()[-1]
        assert "[1/1 cells, 100%]" in final
        assert "done" in final

    def test_campaign_totals(self):
        from repro.campaigns import ExperimentSpec

        specs = [
            ExperimentSpec(kind="bernstein", setup="tscache",
                           num_samples=1000),
            ExperimentSpec(kind="missrate",
                           params=(("policy", "modulo"),
                                   ("workload", "reuse"))),
        ]
        cells, work = campaign_totals(specs)
        assert cells == 2
        assert work == 1001  # sample-less cells still weigh 1


class TestWorkerGauge:
    """The optional live worker-count column (elastic work queues)."""

    def test_gauge_appends_worker_column(self):
        stream = io.StringIO()
        counts = iter([2, 3])
        progress = CampaignProgress(
            2, 200, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: next(counts),
        )
        progress(_event(work=100))
        progress(_event(work=100))
        lines = stream.getvalue().splitlines()
        assert lines[0].endswith("| workers 2")
        assert lines[1].endswith("| workers 3")

    def test_none_reading_omits_column(self):
        stream = io.StringIO()
        progress = CampaignProgress(
            1, 100, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: None,
        )
        progress(_event(work=100))
        assert "workers" not in stream.getvalue()

    def test_broken_gauge_never_breaks_progress(self):
        stream = io.StringIO()

        def gauge():
            raise RuntimeError("pool gone")

        progress = CampaignProgress(
            1, 100, stream=stream, clock=_FakeClock(),
            worker_gauge=gauge,
        )
        progress(_event(work=100))
        assert "workers" not in stream.getvalue()
        assert "100%" in stream.getvalue()

    def test_gauge_on_partial_lines_too(self):
        stream = io.StringIO()
        progress = CampaignProgress(
            1, 100, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: 2,
        )
        event = _event(event="partial", work=0,
                       label="bernstein:tscache partial 1/4")
        event.summary = {"mean_cycles": 1500.0}
        progress(event)
        assert stream.getvalue().splitlines()[0].endswith("| workers 2")

    def test_no_gauge_by_default(self):
        stream = io.StringIO()
        progress = CampaignProgress(1, 100, stream=stream,
                                    clock=_FakeClock())
        progress(_event(work=100))
        assert "workers" not in stream.getvalue()

    def test_host_mapping_renders_fleet_breakdown(self):
        stream = io.StringIO()
        progress = CampaignProgress(
            1, 100, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: {"hostA": 2, "hostB": 3},
        )
        progress(_event(work=100))
        assert stream.getvalue().splitlines()[0].endswith(
            "| workers 5 (hostA:2, hostB:3)"
        )

    def test_host_drained_to_zero_disappears(self):
        """A host whose elastic pool drained mid-campaign drops out of
        the gauge entirely — never rendered as a noisy 'hostB:0'."""
        stream = io.StringIO()
        readings = iter([
            {"hostA": 2, "hostB": 3},
            {"hostA": 2, "hostB": 0},
        ])
        progress = CampaignProgress(
            2, 200, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: next(readings),
        )
        progress(_event(work=100))
        progress(_event(work=100))
        lines = stream.getvalue().splitlines()
        assert lines[0].endswith("| workers 5 (hostA:2, hostB:3)")
        # One live host left: total only, no parenthesised breakdown.
        assert lines[1].endswith("| workers 2")
        assert "hostB" not in lines[1]

    def test_all_hosts_drained_reads_zero(self):
        stream = io.StringIO()
        progress = CampaignProgress(
            1, 100, stream=stream, clock=_FakeClock(),
            worker_gauge=lambda: {"hostA": 0},
        )
        progress(_event(work=100))
        line = stream.getvalue().splitlines()[0]
        assert line.endswith("| workers 0")
        assert "hostA" not in line


class TestCampaignProgressGuards:
    """Degenerate campaign shapes must never divide by zero or print
    nonsense ETA lines (all-cache-hit resumes, zero-weight grids,
    stalled clocks)."""

    def test_zero_weight_campaign(self):
        stream = io.StringIO()
        progress = CampaignProgress(0, 0, stream=stream,
                                    clock=_FakeClock())
        progress(_event(work=0))  # must not raise
        line = stream.getvalue().splitlines()[0]
        assert "[1/0 cells" in line
        assert progress.eta_seconds() is None

    def test_all_cache_hit_campaign_says_done_not_eta(self):
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(2, 200, stream=stream, clock=clock)
        for _ in range(2):
            progress(_event(work=100, from_cache=True, elapsed=0.0))
        lines = stream.getvalue().splitlines()
        # No fresh work was ever done: the rate is undefined, but the
        # campaign is complete — "done", never a division by zero or
        # a bogus "eta 0s".
        assert progress.eta_seconds() is None
        assert lines[-1].endswith("done")
        assert "eta" not in lines[-1]

    def test_stalled_clock_eta_finite_and_nonnegative(self):
        progress = CampaignProgress(1, 100, stream=io.StringIO(),
                                    clock=_FakeClock())
        progress(_event(work=50))  # clock never advanced
        eta = progress.eta_seconds()
        assert eta is not None and eta >= 0.0

    def test_overshooting_work_clamps(self):
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(1, 100, stream=stream, clock=clock)
        clock.now = 1.0
        progress(_event(work=250))  # more work than the plan knew of
        line = stream.getvalue().splitlines()[0]
        assert "100%" in line
        assert progress.eta_seconds() == 0.0

    def test_partial_events_print_summary_without_progress_math(self):
        stream = io.StringIO()
        clock = _FakeClock()
        progress = CampaignProgress(1, 100, stream=stream, clock=clock)
        event = _event(event="partial", work=0,
                       label="bernstein:tscache partial 2/4")
        event.summary = {"bits_determined": 12,
                         "remaining_key_space_log2": 96.5,
                         "leaking_bytes": [0, 5],
                         "hidden": "overflow-field"}
        progress(event)
        line = stream.getvalue().splitlines()[0]
        assert "partial 2/4" in line
        assert "bits_determined=12" in line
        assert "hidden" not in line  # capped at a few fields
        # Previews advance nothing.
        assert progress.cells_done == 0
        assert progress.work_done == 0
        assert progress.fresh_work_done == 0


class TestFormatDuration:
    def test_ranges(self):
        assert format_duration(3) == "3s"
        assert format_duration(59.4) == "59s"
        assert format_duration(192) == "3m12s"
        assert format_duration(7500) == "2h05m"
        assert format_duration(-5) == "0s"

    def test_negative_and_zero_clamp(self):
        """Clock skew between span-stamping hosts can make a span
        negative: clamp, never render '-2s'."""
        assert format_duration(-0.001) == "0s"
        assert format_duration(0.0) == "0s"

    def test_sub_second_renders_millis(self):
        assert format_duration(0.25) == "250ms"
        assert format_duration(0.001) == "1ms"

    def test_sub_millisecond_never_reads_as_nothing(self):
        assert format_duration(0.0004) == "<1ms"
        assert format_duration(1e-9) == "<1ms"

    def test_millis_rounding_up_falls_to_seconds(self):
        # 999.6ms would round to "1000ms": must read as a second.
        assert format_duration(0.9996) == "1s"
        assert format_duration(0.9994) == "999ms"


class TestHelpers:
    def test_run_header_shape(self):
        header = run_header("note")
        assert header.startswith("#### run ")
        assert header.endswith("####")
        assert "note" in header

    def test_emit_block_without_path(self, capsys):
        emit_block("title", ["a", "b"])
        out = capsys.readouterr().out
        assert out.startswith("== title ==")

    def test_emit_block_with_path(self, tmp_path, capsys):
        path = tmp_path / "out.txt"
        emit_block("title", ["a"], path=str(path))
        assert "== title ==" in path.read_text()
        assert "== title ==" in capsys.readouterr().out
