#!/usr/bin/env python3
"""End-to-end benchmark of ``repro campaign``, run from cold processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-bernstein --seconds 25
    python3 perfbench/run.py --workload paper-short --seed 7 --trace 1
    python3 perfbench/run.py --workload all

Each iteration of a workload launches fresh ``python -m repro campaign``
processes (plus, for ``contention-http``, a ``repro coordinator``),
times them from outside, reads every process's CPU time and peak RSS
from ``wait4``, and checks every cell of the ``--json`` output
(``checks.py``).  Iterations repeat until ``--seconds`` is spent; the
reported value of each metric is its median over the iterations.

``--trace 1`` runs the same untraced iterations, then one traced
iteration whose campaign processes run ``repro.cli.main`` in-process
under ``tracer.py``, plus a ``python -X importtime`` probe, and reports
the per-layer metrics instead.  See README.md for the glossary.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (cells) and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import GRID_CELLS, check_campaign, load_reference  # noqa: E402

#: Worker processes of the queue workloads (the benchmark host has 2
#: CPUs; no workload uses more).
WORKERS = 2
#: Intra-cell shards of the queue workloads: 8 contention cells become
#: 32 units, enough for queue-wait percentiles.
MAX_SHARDS = 4
#: Every process is killed once the run has used this much wall time,
#: so a hung worker cannot hold the benchmark past its 180 s limit.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    campaigns: Tuple[str, ...]
    backend: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    "fig5-bernstein": Workload(
        ("bernstein",), "serial",
        "Figure 5; compute-bound in core.batch epoch replay, AES batches "
        "and the attack; the only workload epoch batching moves"),
    "paper-short": Workload(
        ("pwcet", "missrates", "contention"), "serial",
        "Figure 1 and 6.2 in three cold processes; mostly set-up "
        "(imports), the rest kernels, mbpta and trace generation"),
    "contention-queue": Workload(
        ("contention",), "workqueue",
        "paper-short's trial kernels on a 2-worker sharded work queue "
        "with a fresh result cache: dispatch, worker start, cache I/O"),
    "contention-http": Workload(
        ("contention",), "http",
        "the same cells through a local repro coordinator and 2 HTTP "
        "workers: the coordinator transport"),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
)


# -- processes ---------------------------------------------------------------

@dataclass
class Proc:
    """One finished process, as measured from outside."""

    wall: float
    cpu: float
    rss_mib: float
    status: int
    stdout: str
    stderr: str


class Launcher:
    """Starts and reaps the benchmark's child processes.

    Children run with ``PYTHONPATH`` pointing at the checkout's
    ``src`` and ``TMPDIR`` inside the run's work directory, in their
    own session so a timeout can kill a process with its workers.
    """

    def __init__(self, work: str) -> None:
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["TMPDIR"] = work
        self._serial = 0

    def fresh_dir(self, tag: str) -> str:
        self._serial += 1
        path = os.path.join(self.work, f"{self._serial:03d}-{tag}")
        os.makedirs(path)
        return path

    def start(self, argv: List[str]) -> Tuple[subprocess.Popen, float, str]:
        logs = self.fresh_dir("proc")
        with open(os.path.join(logs, "out"), "wb") as out, \
                open(os.path.join(logs, "err"), "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, env=self.env, cwd=ROOT,
                start_new_session=True,
            )
        return proc, started, logs

    def finish(self, handle: Tuple[subprocess.Popen, float, str]) -> Proc:
        proc, started, logs = handle
        timeout = max(1.0, self.deadline - time.monotonic())
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(os.path.join(logs, "out")) as out, \
                open(os.path.join(logs, "err")) as err:
            stdout, stderr = out.read(), err.read()
        return Proc(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            # ru_maxrss is KiB on Linux; wait4 reports the largest of
            # the child and every descendant it waited for.
            rss_mib=usage.ru_maxrss / 1024.0,
            status=proc.returncode, stdout=stdout, stderr=stderr,
        )

    def run(self, argv: List[str]) -> Proc:
        return self.finish(self.start(argv))


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _wait_listening(port: int, proc: subprocess.Popen,
                    timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and proc.poll() is None:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=0.1).close()
            return
        except OSError:
            time.sleep(0.01)
    raise RuntimeError(f"coordinator did not listen on port {port}")


# -- one workload iteration --------------------------------------------------

@dataclass
class Iteration:
    wall: float
    procs: List[Proc]
    #: (campaign, wall_seconds or None, cells) per campaign process.
    campaigns: List[Tuple[str, Optional[float], List[Dict[str, Any]]]]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    trace_stats: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Every process, the coordinator included, exited 0."""
        return all(p.status == 0 for p in self.procs)

    def metrics(self) -> Dict[str, float]:
        run = sum(w for _, w, _ in self.campaigns if w is not None)
        campaign_walls = sum(p.wall for p in self.procs[:len(self.campaigns)])
        return {
            "wall_s": self.wall,
            "setup_s": campaign_walls - run,
            "run_s": run,
            "cpu_s": sum(p.cpu for p in self.procs),
            "peak_rss_mb": max(p.rss_mib for p in self.procs),
        }


def campaign_argv(name: str, workload: Workload, seed: Optional[int],
                  scratch: str, coordinator: Optional[str],
                  trace_stats: Optional[str]) -> List[str]:
    args = ["campaign", name, "--json", "--quiet"]
    if seed is not None:
        args += ["--seed", str(seed)]
    if workload.backend == "serial":
        args += ["--backend", "serial"]
    else:
        args += ["--workers", str(WORKERS), "--max-shards", str(MAX_SHARDS),
                 "--cache-dir", os.path.join(scratch, "cache")]
        if workload.backend == "workqueue":
            args += ["--backend", "workqueue",
                     "--queue-dir", os.path.join(scratch, "queue")]
        else:
            args += ["--backend", "http", "--coordinator", coordinator]
        if trace_stats is not None:
            args += ["--journal", os.path.join(scratch, "journal.jsonl")]
    if trace_stats is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, os.path.join(HERE, "tracer.py"), trace_stats,
            "--", *args]


def run_iteration(launcher: Launcher, workload: Workload,
                  seed: Optional[int], reference: Dict[str, Any],
                  traced: bool = False) -> Iteration:
    scratch = launcher.fresh_dir("iteration")
    campaign_procs: List[Proc] = []
    stats_paths: List[str] = []
    coordinator = None
    url = None
    started = time.perf_counter()
    try:
        if workload.backend == "http":
            port = _free_port()
            coordinator = launcher.start([
                sys.executable, "-m", "repro", "coordinator",
                "--queue-dir", os.path.join(scratch, "coordinator"),
                "--port", str(port), "--host", "127.0.0.1", "--quiet",
            ])
            url = f"http://127.0.0.1:{port}"
            _wait_listening(port, coordinator[0])
        for index, name in enumerate(workload.campaigns):
            stats = None
            if traced:
                stats = os.path.join(scratch, f"trace-{index}.json")
                stats_paths.append(stats)
            campaign_procs.append(launcher.run(campaign_argv(
                name, workload, seed, scratch, url, stats)))
    finally:
        procs = list(campaign_procs)
        if coordinator is not None:
            # SIGINT is the coordinator's clean shutdown.
            if coordinator[0].poll() is None:
                coordinator[0].send_signal(signal.SIGINT)
            procs.append(launcher.finish(coordinator))
    iteration = Iteration(wall=time.perf_counter() - started, procs=procs,
                          campaigns=[])
    for name, proc in zip(workload.campaigns, campaign_procs):
        wall_seconds, cells = None, []
        try:
            doc = json.loads(proc.stdout)
            wall_seconds, cells = float(doc["wall_seconds"]), doc["cells"]
        except (ValueError, KeyError, TypeError):
            print(f"{name}: exit {proc.status}, unparsable output\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
        iteration.campaigns.append((name, wall_seconds, cells))
        iteration.attempted += GRID_CELLS[name]
        if proc.status != 0:
            iteration.failures += [f"{name}: exit {proc.status}"] \
                * GRID_CELLS[name]
        else:
            iteration.failures += check_campaign(name, cells, seed, reference)
    for path in stats_paths:
        if os.path.exists(path):
            with open(path) as handle:
                iteration.trace_stats.append(json.load(handle))
    return iteration


def measure(launcher: Launcher, workload: Workload, seed: Optional[int],
            seconds: float, reference: Dict[str, Any],
            label: str) -> List[Iteration]:
    """Untraced iterations until ``seconds`` is spent (at least one;
    no iteration starts that would be expected to overrun)."""
    iterations: List[Iteration] = []
    started = time.perf_counter()
    while True:
        iteration = run_iteration(launcher, workload, seed, reference)
        iterations.append(iteration)
        m = iteration.metrics()
        print(f"{label} #{len(iterations)}: wall {m['wall_s']:.3f}s "
              f"setup {m['setup_s']:.3f}s run {m['run_s']:.3f}s "
              f"cpu {m['cpu_s']:.3f}s rss {m['peak_rss_mb']:.1f}MiB "
              f"failed {len(iteration.failures)}", file=sys.stderr)
        for failure in iteration.failures[:5]:
            print(f"  FAILED {failure}", file=sys.stderr)
        elapsed = time.perf_counter() - started
        if elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            return iterations


def warm_up(launcher: Launcher) -> None:
    """Compile bytecode and fault in the interpreter's shared libraries
    once, untimed: a user pays neither on every run."""
    proc = launcher.run([
        sys.executable, "-c",
        "import repro.cli, repro.campaigns.experiments, repro.backends, "
        "repro.kernels.replay, repro.kernels.trials, repro.telemetry",
    ])
    if proc.status != 0:
        raise RuntimeError(f"cannot import repro:\n{proc.stderr[-2000:]}")


# -- per-layer metrics ---------------------------------------------------------

def import_times(launcher: Launcher, repeats: int = 3) -> Dict[str, float]:
    """Median ``-X importtime`` self times of ``import repro.cli``:
    everything it imports beyond a bare interpreter start, and the
    scipy and numpy shares of that."""

    def profile(code: str) -> Dict[str, int]:
        proc = launcher.run([sys.executable, "-X", "importtime", "-c", code])
        modules = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    modules[parts[2].strip()] = int(parts[0].split(":")[1])
                except ValueError:
                    continue  # the header line
        return modules

    baseline = profile("pass")
    samples: Dict[str, List[float]] = {"repro_cli": [], "scipy": [],
                                       "numpy": []}
    for _ in range(repeats):
        added = {name: us for name, us in profile("import repro.cli").items()
                 if name not in baseline}
        samples["repro_cli"].append(sum(added.values()) / 1e6)
        for package in ("scipy", "numpy"):
            samples[package].append(sum(
                us for name, us in added.items()
                if name == package or name.startswith(package + ".")
            ) / 1e6)
    return {name: statistics.median(values)
            for name, values in samples.items()}


def layer_metrics(traced: Iteration, untraced_wall: float,
                  imports: Dict[str, float]) -> List[Tuple[str, str, float,
                                                           bool]]:
    """(name, unit, value, measured) per per-layer metric.  ``measured``
    is False where the workload bypasses the layer (printed ``n/a``;
    the JSON carries 0)."""
    layers: Dict[str, List[float]] = {}
    distinct = 0
    kernels: Dict[str, int] = {}
    journal: Optional[Dict[str, Any]] = None
    for stats in traced.trace_stats:
        for name, totals in stats["layers"].items():
            merged = layers.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(totals):
                merged[i] += value
        distinct += stats["epoch_state_distinct"]
        for kernel, cells in stats["kernels"].items():
            kernels[kernel] = kernels.get(kernel, 0) + cells
        if "journal" in stats:
            journal = stats["journal"]

    def calls(layer: str) -> int:
        return int(layers.get(layer, [0])[0])

    def total(layer: str) -> float:
        return layers.get(layer, [0, 0.0])[1]

    def self_time(layer: str) -> float:
        return layers.get(layer, [0, 0.0, 0.0])[2]

    def units(layer: str) -> int:
        return int(layers.get(layer, [0, 0.0, 0.0, 0])[3])

    run_s = traced.metrics()["run_s"]
    cells = [cell for _, _, batch in traced.campaigns for cell in batch]
    # Rendering runs after the runner's clock stops, outside run_s.
    covered = sum(self_time(name) for name in layers
                  if name != "reporting.render")

    queued = journal is not None and journal["units"] > 0

    def unit_stat(key: str) -> Tuple[float, bool]:
        value = journal.get(key) if queued else None
        return (0.0, False) if value is None else (value, True)

    rows = [
        ("import.repro_cli_s", "s", imports["repro_cli"], True),
        ("import.scipy_s", "s", imports["scipy"], imports["scipy"] > 0),
        ("import.numpy_s", "s", imports["numpy"], imports["numpy"] > 0),
    ]
    rows += [
        ("batch.collect_calls", "count", calls("batch.collect"),
         calls("batch.collect")),
        ("batch.collect_self_s", "s", self_time("batch.collect"),
         calls("batch.collect")),
        ("batch.epoch_state_calls", "count", calls("batch.epoch_state"),
         calls("batch.epoch_state")),
        ("batch.epoch_state_distinct", "count", distinct,
         calls("batch.epoch_state")),
        ("batch.epoch_state_s", "s", total("batch.epoch_state"),
         calls("batch.epoch_state")),
        ("batch.epoch_state_share", "ratio",
         total("batch.epoch_state") / run_s if run_s else 0.0,
         calls("batch.epoch_state")),
        ("batch.interference_s", "s", total("batch.interference"),
         calls("batch.interference")),
        ("aes.encryptions", "count", units("aes.encrypt_batch"),
         calls("aes.encrypt_batch")),
        ("aes.encrypt_batch_s", "s", total("aes.encrypt_batch"),
         calls("aes.encrypt_batch")),
        ("cache.scalar_accesses", "count", calls("cache.access"),
         calls("cache.access")),
        ("attack.profile_s", "s", total("attack.profile"),
         calls("attack.profile")),
        ("attack.correlate_s", "s", total("attack.correlate"),
         calls("attack.correlate")),
        ("kernels.hierarchy_runs", "count", units("kernels.hierarchy"),
         calls("kernels.hierarchy")),
        ("kernels.hierarchy_replay_s", "s", total("kernels.hierarchy"),
         calls("kernels.hierarchy")),
        ("kernels.missrate_accesses", "count", units("kernels.missrate"),
         calls("kernels.missrate")),
        ("kernels.missrate_replay_s", "s", total("kernels.missrate"),
         calls("kernels.missrate")),
        ("kernels.trials", "count", units("kernels.trial_block"),
         calls("kernels.trial_block")),
        ("kernels.trial_block_s", "s", total("kernels.trial_block"),
         calls("kernels.trial_block")),
        ("kernels.vector_cells", "count", kernels.get("vector", 0), True),
        ("kernels.scalar_cells", "count", kernels.get("scalar", 0), True),
        ("workloads.trace_accesses", "count", units("workloads.trace_gen"),
         calls("workloads.trace_gen")),
        ("workloads.trace_gen_s", "s", total("workloads.trace_gen"),
         calls("workloads.trace_gen")),
        ("mbpta.analyse_s", "s", total("mbpta.analyse"),
         calls("mbpta.analyse")),
        ("mbpta.ljung_box_s", "s", total("mbpta.ljung_box"),
         calls("mbpta.ljung_box")),
        ("mbpta.ks_s", "s", total("mbpta.ks"), calls("mbpta.ks")),
        ("mbpta.fit_s", "s", total("mbpta.fit"), calls("mbpta.fit")),
        ("campaigns.cells", "count", len(cells), True),
        ("campaigns.units", "count",
         journal["units"] if queued else calls("campaigns.unit"), True),
        ("campaigns.cell_max_s", "s",
         max((c.get("elapsed_s", 0.0) for c in cells), default=0.0),
         bool(cells)),
        ("campaigns.merge_calls", "count", calls("campaigns.merge"),
         calls("campaigns.merge")),
        ("campaigns.merge_s", "s", total("campaigns.merge"),
         calls("campaigns.merge")),
        ("campaigns.cache_puts", "count", calls("campaigns.cache_put"),
         calls("campaigns.cache_put")),
        ("campaigns.cache_put_s", "s", total("campaigns.cache_put"),
         calls("campaigns.cache_put")),
        ("backends.submit_s", "s", total("backends.submit"),
         calls("backends.submit")),
    ]
    rows += [
        (f"backends.{key}_s", "s", *unit_stat(key))
        for key in ("queue_wait_p50", "queue_wait_p90",
                    "unit_run_p50", "unit_run_p90")
    ]
    rows += [
        ("backends.requeues", "count",
         journal["requeues"] if queued else 0, queued),
        ("backends.worker_busy_frac", "ratio",
         journal["unit_cpu"] / (WORKERS * run_s) if queued and run_s
         else 0.0, queued),
        ("reporting.render_s", "s", total("reporting.render"),
         calls("reporting.render")),
        ("trace.overhead_s", "s", traced.wall - untraced_wall, True),
        ("trace.untraced_s", "s", run_s - covered, True),
    ]
    return [(name, unit, float(value), bool(measured))
            for name, unit, value, measured in rows]


# -- reporting -----------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(name: str, seed: Optional[int], seconds: float,
                 trace: bool, launcher: Launcher,
                 reference: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    iterations = measure(launcher, workload, seed, seconds, reference, name)
    seed_label = "paper" if seed is None else seed
    print(f"\n== {name} (seed {seed_label}, {len(iterations)} "
          f"untraced iteration(s), {workload.backend} backend)")
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        traced = run_iteration(launcher, workload, seed, reference,
                               traced=True)
        untraced_wall = statistics.median(
            i.metrics()["wall_s"] for i in iterations)
        for metric, unit, value, measured in layer_metrics(
                traced, untraced_wall, import_times(launcher)):
            metrics[metric] = {"value": value, "unit": unit}
            shown = _fmt(value) if measured else "n/a"
            print(f"  {metric:<28} {shown:>12} {unit}")
        iterations.append(traced)
    else:
        for metric, unit in END_TO_END:
            values = [i.metrics()[metric] for i in iterations]
            median = statistics.median(values)
            metrics[metric] = {"value": median, "unit": unit}
            print(f"  {metric:<14} {_fmt(median):>12} {unit:<6} "
                  f"(min {_fmt(min(values))}, max {_fmt(max(values))})")
    attempted = sum(i.attempted for i in iterations)
    failures = [f for i in iterations for f in i.failures]
    print(f"  {'failed_frac':<14} {_fmt(len(failures) / attempted):>12} "
          f"ratio  ({len(failures)} of {attempted} cells)")
    return {
        "correct": all(i.clean for i in iterations) and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="root seed passed to every campaign "
                             "(default: each campaign's paper seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    reference = load_reference()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = os.path.join(ROOT, ".perfbench-work")
    work = os.path.join(work_root, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        warm_up(Launcher(work))
        # One launcher per workload: each gets its own time limit.
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace),
                                      Launcher(os.path.join(work, name)),
                                      reference)
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run's directory is still there
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
