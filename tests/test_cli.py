"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import build_parser, main
from repro.common.trace import Trace
from repro.common.traceio import save_trace_file


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_defaults(self):
        args = build_parser().parse_args(["attack", "tscache"])
        assert args.setup == "tscache"
        assert args.samples == 100_000

    def test_unknown_setup_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "newcache"])

    def test_setup_choices_follow_registry(self):
        """Choices derive from SETUP_NAMES, not hard-coded copies."""
        from repro.core.setups import SETUP_NAMES

        for name in SETUP_NAMES:
            assert build_parser().parse_args(
                ["pwcet", name]).setup == name

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "bernstein"])
        # None = "not given": lets --max-workers detect a conflicting
        # explicit --workers; the effective fixed-pool default is 1.
        assert args.workers is None
        assert args.max_shards == 1
        assert args.samples is None
        assert not args.json
        assert not args.quiet

    def test_campaign_max_shards(self):
        args = build_parser().parse_args(
            ["campaign", "bernstein", "--max-shards", "4"]
        )
        assert args.max_shards == 4

    def test_campaign_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "nope"])

    def test_campaign_backend_flags(self):
        args = build_parser().parse_args([
            "campaign", "bernstein", "--backend", "workqueue",
            "--queue-dir", "/tmp/q", "--workers", "2",
            "--lease-timeout", "30", "--dry-run", "--stream-partials",
        ])
        assert args.backend == "workqueue"
        assert args.queue_dir == "/tmp/q"
        assert args.lease_timeout == 30.0
        assert args.dry_run and args.stream_partials
        assert args.idle_timeout == 600.0  # no-workers watchdog default

    def test_campaign_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "bernstein", "--backend", "carrier-pigeon"]
            )

    def test_campaign_early_stop_and_cache_gc_flags(self):
        args = build_parser().parse_args([
            "campaign", "contention", "--early-stop",
            "--cache-gc", "30", "--cache-dir", "/tmp/c",
        ])
        assert args.name == "contention"
        assert args.early_stop
        assert args.cache_gc == 30.0

    def test_campaign_name_optional_for_cache_gc(self):
        args = build_parser().parse_args(
            ["campaign", "--cache-gc", "7", "--cache-dir", "/tmp/c"]
        )
        assert args.name is None
        assert args.cache_gc == 7.0

    def test_campaign_shard_policy_flags(self):
        args = build_parser().parse_args(["campaign", "contention"])
        assert args.shard_policy == "even"
        # None = "not given": a geometry knob without --shard-policy
        # adaptive is rejected instead of silently ignored.
        assert args.shard_min_block is None
        assert args.shard_growth is None
        args = build_parser().parse_args([
            "campaign", "contention", "--shard-policy", "adaptive",
            "--shard-min-block", "16", "--shard-growth", "3",
        ])
        assert args.shard_policy == "adaptive"
        assert args.shard_min_block == 16
        assert args.shard_growth == 3.0
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "contention", "--shard-policy", "spiral"]
            )

    def test_campaign_elastic_worker_flags(self):
        args = build_parser().parse_args(["campaign", "contention"])
        # None = "not given", so a lone --min-workers can be rejected
        # instead of silently ignored; the effective floor is 1.
        assert args.min_workers is None
        assert args.max_workers is None
        args = build_parser().parse_args([
            "campaign", "contention", "--backend", "workqueue",
            "--min-workers", "1", "--max-workers", "3",
        ])
        assert args.min_workers == 1
        assert args.max_workers == 3

    def test_worker_transport_flags(self):
        args = build_parser().parse_args(
            ["worker", "--queue", "/tmp/q", "--max-idle", "5"]
        )
        assert args.queue == "/tmp/q"
        assert args.coordinator is None
        assert args.max_idle == 5.0
        args = build_parser().parse_args(
            ["worker", "--coordinator", "http://host:8642"]
        )
        assert args.queue is None
        assert args.coordinator == "http://host:8642"

    def test_worker_needs_exactly_one_transport(self, capsys):
        """``repro worker`` must be told where its work lives —
        exactly one of --queue / --coordinator."""
        assert main(["worker"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["worker", "--queue", "/tmp/q",
                     "--coordinator", "http://host:8642"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_coordinator_parser_defaults(self):
        args = build_parser().parse_args(
            ["coordinator", "--queue-dir", "/tmp/q"]
        )
        assert args.queue_dir == "/tmp/q"
        assert args.port == 8642
        # Loopback only unless asked: the coordinator has no
        # authentication, so remote workers need an explicit --host.
        assert args.host == "127.0.0.1"
        assert args.min_workers is None
        assert args.max_workers is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["coordinator"])  # queue-dir required

    @pytest.mark.parametrize("command", ["serve", "submit", "watch"])
    def test_campaign_service_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--queue-dir", "q"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_campaign_http_backend_flags(self):
        args = build_parser().parse_args([
            "campaign", "contention",
            "--backend", "http", "--coordinator", "http://host:8642",
        ])
        assert args.backend == "http"
        assert args.coordinator == "http://host:8642"


class TestCommands:
    def test_setups(self, capsys):
        assert main(["setups"]) == 0
        out = capsys.readouterr().out
        for name in ("deterministic", "rpcache", "mbpta", "tscache"):
            assert name in out

    def test_attack_small(self, capsys):
        assert main(["attack", "tscache", "--samples", "4000"]) == 0
        out = capsys.readouterr().out
        assert "remaining key space" in out

    def test_pwcet(self, capsys):
        assert main(["pwcet", "tscache", "--runs", "120"]) == 0
        out = capsys.readouterr().out
        assert "compliant: True" in out
        assert "P(exceed)" in out

    def test_properties(self, capsys):
        assert main(["properties"]) == 0
        out = capsys.readouterr().out
        assert "random_modulo" in out

    def test_campaign_missrates_table(self, capsys):
        assert main(["campaign", "missrates"]) == 0
        out = capsys.readouterr().out
        assert "miss_rate_pct" in out
        assert "random_modulo" in out
        assert "16 cells" in out

    def test_campaign_json_with_cache(self, capsys, tmp_path):
        argv = ["campaign", "missrates", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["campaign"] == "missrates"
        assert len(first["cells"]) == 16
        assert first["cache_hits"] == 0
        # Re-run: every cell restored from the on-disk cache.
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache_hits"] == 16
        assert [c["miss_rate_pct"] for c in first["cells"]] == [
            c["miss_rate_pct"] for c in second["cells"]
        ]

    def test_campaign_pwcet_small(self, capsys):
        assert main(["campaign", "pwcet", "--samples", "60"]) == 0
        out = capsys.readouterr().out
        assert "compliant" in out
        assert "tscache" in out

    def test_campaign_emits_progress_eta_lines(self, capsys):
        """Acceptance: ``repro campaign`` streams progress/ETA lines
        (to stderr, keeping stdout clean for the table)."""
        assert main(["campaign", "missrates"]) == 0
        captured = capsys.readouterr()
        progress_lines = [
            line for line in captured.err.splitlines() if "cells," in line
        ]
        assert len(progress_lines) == 16
        assert "eta" in progress_lines[0]
        assert "[16/16 cells, 100%]" in progress_lines[-1]
        assert "done" in progress_lines[-1]
        assert "cells," not in captured.out

    def test_campaign_quiet_suppresses_progress(self, capsys):
        assert main(["campaign", "missrates", "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_campaign_max_shards_bit_identical(self, capsys):
        base = ["campaign", "pwcet", "--samples", "40", "--json", "--quiet"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + ["--max-shards", "3"]) == 0
        sharded = json.loads(capsys.readouterr().out)
        assert [c["mean_cycles"] for c in serial["cells"]] == [
            c["mean_cycles"] for c in sharded["cells"]
        ]
        assert [c["pwcet_1e-12"] for c in serial["cells"]
                if "pwcet_1e-12" in c] == [
            c["pwcet_1e-12"] for c in sharded["cells"]
            if "pwcet_1e-12" in c
        ]

    def test_campaign_dry_run_plans_without_executing(self, capsys,
                                                      tmp_path):
        argv = ["campaign", "pwcet", "--samples", "40", "--dry-run",
                "--max-shards", "3", "--cache-dir", str(tmp_path),
                "--quiet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "compute" in out
        assert "shard ranges" in out
        # Nothing executed: the cache stayed empty.
        assert [n for n in tmp_path.iterdir()] == []
        # After a real run, the dry run reports every cell cached and
        # zero units to dispatch.
        assert main(["campaign", "pwcet", "--samples", "40",
                     "--cache-dir", str(tmp_path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 work unit(s) to dispatch" in out
        assert "compute" not in out

    def test_campaign_workqueue_backend_end_to_end(self, capsys,
                                                   tmp_path):
        """`repro campaign --backend workqueue` matches the serial
        table through real worker processes."""
        base = ["campaign", "pwcet", "--samples", "40", "--json",
                "--quiet"]
        assert main(base) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(base + [
            "--backend", "workqueue", "--workers", "2",
            "--max-shards", "2", "--queue-dir", str(tmp_path / "q"),
        ]) == 0
        queued = json.loads(capsys.readouterr().out)
        assert [c["mean_cycles"] for c in serial["cells"]] == [
            c["mean_cycles"] for c in queued["cells"]
        ]

    def test_campaign_contention_table(self, capsys):
        assert main(["campaign", "contention", "--samples", "24",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "leaks" in out
        assert "prime_probe" in out and "evict_time" in out
        assert "8 cells" in out

    def test_campaign_dry_run_shows_stopping_rule(self, capsys):
        assert main(["campaign", "contention", "--dry-run",
                     "--max-shards", "4", "--early-stop",
                     "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "early stop" in out
        assert "sprt" in out
        # Without --early-stop the run would use the full budget, and
        # the plan says so.
        assert main(["campaign", "contention", "--dry-run",
                     "--max-shards", "4", "--quiet"]) == 0
        assert "sprt" not in capsys.readouterr().out
        # Kinds without a should_stop hook show no rule either way.
        assert main(["campaign", "pwcet", "--dry-run", "--samples", "40",
                     "--early-stop", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "early stop" in out
        assert "sprt" not in out

    def test_campaign_dry_run_shows_shard_geometry(self, capsys):
        assert main(["campaign", "contention", "--dry-run",
                     "--max-shards", "4", "--shard-policy", "adaptive",
                     "--shard-min-block", "16", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "geometry" in out
        assert "adaptive(min=16,x2)" in out
        assert "[0,16)" in out  # the small lead shard of the plan
        assert main(["campaign", "contention", "--dry-run",
                     "--max-shards", "4", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "even" in out
        assert "adaptive" not in out

    def test_campaign_bad_elastic_bounds_rejected_cleanly(self, capsys):
        """Bad worker bounds exit 2 with a message — no traceback, no
        leaked temp queue directory or worker processes."""
        assert main(["campaign", "contention", "--backend", "workqueue",
                     "--min-workers", "5", "--max-workers", "3",
                     "--quiet"]) == 2
        assert "min-workers" in capsys.readouterr().err
        assert main(["campaign", "contention", "--backend", "workqueue",
                     "--max-workers", "0", "--quiet"]) == 2
        assert "max-workers" in capsys.readouterr().err
        # A floor without a ceiling is rejected, not silently ignored.
        assert main(["campaign", "contention", "--backend", "workqueue",
                     "--min-workers", "4", "--quiet"]) == 2
        assert "needs --max-workers" in capsys.readouterr().err

    def test_campaign_max_workers_conflicts_with_local_backends(
        self, capsys
    ):
        """--max-workers on an explicitly local backend is an error,
        not a silently ignored flag."""
        assert main(["campaign", "contention", "--backend", "serial",
                     "--max-workers", "3", "--quiet"]) == 2
        assert "workqueue" in capsys.readouterr().err

    def test_campaign_http_backend_needs_coordinator(self, capsys):
        """--backend http without a coordinator URL is an error with a
        hint on how to start one."""
        assert main(["campaign", "contention", "--backend", "http",
                     "--quiet"]) == 2
        assert "repro coordinator" in capsys.readouterr().err
        # And a coordinator URL on an explicitly local backend is an
        # error, not a silently ignored flag.
        assert main(["campaign", "contention", "--backend", "serial",
                     "--coordinator", "http://host:8642",
                     "--quiet"]) == 2
        assert "--backend http" in capsys.readouterr().err

    def test_campaign_max_workers_conflicts_with_http(self, capsys):
        """Dispatcher-side elastic bounds make no sense over HTTP —
        the pool lives next to the coordinator."""
        assert main(["campaign", "contention", "--backend", "http",
                     "--coordinator", "http://host:8642",
                     "--max-workers", "3", "--quiet"]) == 2
        assert "coordinator-side" in capsys.readouterr().err

    def test_campaign_max_workers_implies_workqueue(self, capsys):
        """--max-workers without --backend runs the elastic work queue
        (visible through the live worker column on stderr), and the
        output reports the elastic bounds, not a fixed count."""
        assert main(["campaign", "contention", "--samples", "24",
                     "--max-workers", "2", "--max-shards", "2",
                     "--early-stop", "--json"]) == 0
        captured = capsys.readouterr()
        assert "work queue" in captured.err
        assert "elastic 1..2" in captured.err
        assert "workers" in captured.err
        assert json.loads(captured.out)["workers"] == "1..2"

    def test_campaign_fixed_and_elastic_pools_conflict(self, capsys):
        """An explicit --workers alongside --max-workers is an error,
        not a silently dropped flag."""
        assert main(["campaign", "contention", "--workers", "8",
                     "--max-workers", "2", "--quiet"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_campaign_bad_shard_policy_values_rejected(self, capsys):
        assert main(["campaign", "contention", "--shard-policy",
                     "adaptive", "--shard-min-block", "0",
                     "--quiet"]) == 2
        assert "min_block" in capsys.readouterr().err
        assert main(["campaign", "contention", "--shard-policy",
                     "adaptive", "--shard-growth", "0.5",
                     "--quiet"]) == 2
        assert "growth" in capsys.readouterr().err

    def test_campaign_geometry_knobs_need_adaptive_policy(self, capsys):
        """A geometry knob on the even policy is an error, not a
        silently dropped flag."""
        assert main(["campaign", "contention", "--shard-min-block",
                     "16", "--quiet"]) == 2
        assert "adaptive" in capsys.readouterr().err
        assert main(["campaign", "contention", "--shard-growth", "3",
                     "--quiet"]) == 2
        assert "adaptive" in capsys.readouterr().err

    def test_campaign_adaptive_early_stop_matches_even_verdicts(
        self, capsys
    ):
        """Adaptive sharding decides the same verdicts on fewer
        trials, through the real CLI path."""
        base = ["campaign", "contention", "--samples", "96", "--json",
                "--quiet", "--max-shards", "4", "--early-stop"]
        assert main(base) == 0
        even = json.loads(capsys.readouterr().out)
        assert main(base + ["--shard-policy", "adaptive",
                            "--shard-min-block", "16"]) == 0
        adaptive = json.loads(capsys.readouterr().out)
        by_cell = lambda doc: {
            (c["kind"], c["setup"]): c for c in doc["cells"]
        }
        even_cells, adaptive_cells = by_cell(even), by_cell(adaptive)
        assert sum(
            c["trials"] for c in adaptive_cells.values()
        ) < sum(c["trials"] for c in even_cells.values())
        for key, cell in adaptive_cells.items():
            assert cell["leaks"] == even_cells[key]["leaks"]

    def test_campaign_early_stop_end_to_end(self, capsys):
        """--early-stop decides leaking cells below the full budget
        and reports the decided-at trial count."""
        base = ["campaign", "contention", "--samples", "96", "--json"]
        assert main(base + ["--quiet"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(base + ["--max-shards", "8", "--early-stop"]) == 0
        captured = capsys.readouterr()
        stopped = json.loads(captured.out)
        assert "early-stop @" in captured.err
        by_cell = lambda doc: {
            (c["kind"], c["setup"]): c for c in doc["cells"]
        }
        full_cells, stopped_cells = by_cell(full), by_cell(stopped)
        early = [c for c in stopped["cells"] if c.get("early_stopped")]
        assert early, "no contention cell stopped early"
        for key, cell in stopped_cells.items():
            assert cell["leaks"] == full_cells[key]["leaks"]
            assert cell["trials"] <= full_cells[key]["trials"]

    def test_campaign_cache_gc_standalone(self, capsys, tmp_path):
        import os
        import time

        # Populate the cache, then backdate one entry past the cutoff.
        assert main(["campaign", "missrates", "--quiet",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        entries = sorted(tmp_path.iterdir())
        assert entries
        old = time.time() - 30 * 86400
        os.utime(entries[0], (old, old))
        assert main(["campaign", "--cache-gc", "7",
                     "--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert "removed 1 cell entry" in err
        assert len(sorted(tmp_path.iterdir())) == len(entries) - 1

    def test_campaign_cache_gc_requires_cache_dir(self, capsys):
        assert main(["campaign", "--cache-gc", "7"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_campaign_cache_gc_rejects_negative_days(self, capsys,
                                                     tmp_path):
        assert main(["campaign", "--cache-gc", "-1",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_campaign_dry_run_skips_cache_gc(self, capsys, tmp_path):
        """A dry run must not delete anything — the gc sweep is
        deferred, not executed."""
        assert main(["campaign", "missrates", "--quiet",
                     "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        import os
        import time

        entries = sorted(tmp_path.iterdir())
        old = time.time() - 30 * 86400
        for entry in entries:
            os.utime(entry, (old, old))
        assert main(["campaign", "missrates", "--dry-run", "--quiet",
                     "--cache-gc", "7", "--cache-dir",
                     str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "skipping --cache-gc" in captured.err
        assert sorted(tmp_path.iterdir()) == entries

    def test_campaign_requires_name_without_gc(self, capsys):
        assert main(["campaign"]) == 2
        assert "campaign name required" in capsys.readouterr().err

    def test_worker_exits_on_stop_sentinel(self, tmp_path):
        from repro.backends.workqueue import ensure_queue_dirs

        queue = tmp_path / "q"
        ensure_queue_dirs(str(queue))
        (queue / "stop").write_bytes(b"")
        assert main(["worker", "--queue", str(queue), "--quiet"]) == 0

    def test_simulate(self, capsys, tmp_path):
        trace = Trace.from_addresses(
            [0x1000 + i * 32 for i in range(64)] * 2
        )
        path = str(tmp_path / "t.trc")
        save_trace_file(trace, path)
        assert main(["simulate", path, "--setup", "tscache",
                     "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "128 accesses" in out
        assert "l1d" in out


class TestRuntimeDependencies:
    def test_pwcet_campaign_runs_without_scipy(self):
        """The runtime is NumPy plus the standard library: a whole
        pwcet campaign (Ljung-Box and KS admission included) never
        imports scipy, which only the test suites use."""
        script = textwrap.dedent("""
            import sys
            from repro.cli import main
            status = main(["campaign", "pwcet", "--samples", "40",
                           "--json", "--quiet"])
            assert status == 0, status
            assert "scipy" not in sys.modules, "scipy was imported"
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["cells"]
