"""Traced ``repro`` CLI process for the benchmark's per-layer run.

Usage::

    python perfbench/tracer.py STATS.json -- campaign NAME [options]

Runs ``repro.cli.main`` on the given arguments in this process, with
the public callables of each layer wrapped from outside the program:
module functions, methods (on every subclass that defines them) and
the experiment registry's kind hooks.  Each wrapper records a call
count, total time and self time (total minus the time of wrapped calls
nested inside it) in memory; the totals are written to ``STATS.json``
once, at exit.  The CLI writes its usual stdout, so the caller
parses the campaign's ``--json`` output exactly as for an untraced
process.

Also recorded: the kernel the campaign's dry-run plan advertises per
cell, and — when the arguments include ``--journal`` — the per-unit
queue wait, run time and CPU read back from the journal with the
``repro.telemetry`` readers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: A layer's totals: [calls, total seconds, self seconds, work units].
Totals = List[float]


class Tracer:
    """In-memory span totals per layer, with per-thread nesting."""

    def __init__(self) -> None:
        self.layers: Dict[str, Totals] = {}
        self.epoch_keys: set = set()
        self._local = threading.local()

    def _totals(self, layer: str) -> Totals:
        return self.layers.setdefault(layer, [0, 0.0, 0.0, 0])

    def timed(self, layer: str,
              units: Optional[Callable[..., int]] = None) -> Callable:
        """Wrap a callable as a span of ``layer``.

        ``units(result, *args, **kwargs)`` optionally counts the work
        one call did (accesses, trials, encryptions).
        """
        totals = self._totals(layer)
        local = self._local

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack = local.__dict__.setdefault("stack", [])
                stack.append(0.0)
                started = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - started
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - nested
                if units is not None:
                    totals[3] += units(result, *args, **kwargs)
                return result

            return wrapper

        return decorate

    def counted(self, layer: str) -> Callable:
        """Wrap a hot callable with a bare call counter (no clock)."""
        totals = self._totals(layer)

        def decorate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                totals[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        return decorate


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def patch_method(cls: type, name: str, wrap: Callable) -> None:
    """Wrap ``name`` on ``cls`` and every subclass that overrides it."""
    for klass in _subclasses(cls):
        if name in vars(klass):
            setattr(klass, name, wrap(vars(klass)[name]))


def patch_function(module: Any, name: str, wrap: Callable) -> None:
    """Wrap a module function everywhere it was imported by name."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer.

    Every module that defines a subclass of a wrapped class, or imports
    a wrapped function by name, is loaded first so the patch reaches it.
    """
    import repro.cli  # noqa: F401
    import repro.core.simulator  # noqa: F401
    from repro import reporting
    from repro.attack import bernstein
    from repro.backends import base, coordinator, local, workqueue  # noqa: F401
    from repro.cache import rpcache  # noqa: F401
    from repro.cache.core import SetAssociativeCache
    from repro.campaigns import experiments  # noqa: F401
    from repro.campaigns import registry
    from repro.campaigns.cache import ResultCache
    from repro.core.batch import AESTimingEngine, ColdLineModel
    from repro.crypto.aes import AES128
    from repro.kernels import replay, trials
    from repro.mbpta import stats_tests
    from repro.mbpta.analysis import MBPTAAnalysis
    from repro.workloads import generators

    timed = tracer.timed

    # core.batch / crypto / cache / attack: the Bernstein engine.
    for name in ("collect", "collect_shard"):
        patch_method(AESTimingEngine, name, timed("batch.collect"))

    def epoch_key(result, model, victim_seed, other_seed,
                  include_other=True, replacement_seed=0):
        # The memo's own normalisation: deterministic replacement
        # never reads the replacement seed.
        if model.setup.l1_replacement != "random":
            replacement_seed = 0
        tracer.epoch_keys.add((model.setup.name, victim_seed, other_seed,
                               include_other, replacement_seed))
        return 0

    patch_method(ColdLineModel, "epoch_state",
                 timed("batch.epoch_state", units=epoch_key))
    patch_method(ColdLineModel, "estimate_interference_events",
                 timed("batch.interference"))
    patch_method(AES128, "encrypt_batch", timed(
        "aes.encrypt_batch",
        units=lambda result, aes, plaintexts: len(plaintexts)))
    patch_method(SetAssociativeCache, "access",
                 tracer.counted("cache.access"))
    patch_function(bernstein, "profile_from_samples",
                   timed("attack.profile"))
    patch_method(bernstein.BernsteinAttack, "run", timed("attack.correlate"))

    # kernels: batched replay and trial executors.
    patch_method(replay.VectorHierarchyBatch, "run_trace", timed(
        "kernels.hierarchy",
        units=lambda result, batch, trace: batch.num_runs))
    patch_function(replay, "replay_missrate", timed(
        "kernels.missrate", units=lambda result, cache, trace: result[0]))

    def block_trials(result, attack, start, end, seed_victim):
        return 0 if result is None else end - start

    for name in ("run_prime_probe_block", "run_evict_time_block"):
        patch_function(trials, name,
                       timed("kernels.trial_block", units=block_trials))

    # workloads: synthetic trace generators.
    for name in ("stride_trace", "reuse_trace", "pointer_chase_trace",
                 "random_trace", "matrix_walk_trace",
                 "multi_page_task_trace"):
        patch_function(generators, name, timed(
            "workloads.trace_gen",
            units=lambda result, *args, **kwargs: len(result)))

    # mbpta: admission tests and EVT fit.
    patch_method(MBPTAAnalysis, "analyse", timed("mbpta.analyse"))
    patch_method(MBPTAAnalysis, "fit", timed("mbpta.fit"))
    patch_function(stats_tests, "ljung_box", timed("mbpta.ljung_box"))
    patch_function(stats_tests, "ks_two_sample", timed("mbpta.ks"))

    # campaigns: the registry's kind hooks, merges and cache writes.
    # Units are counted, not timed: a span around a whole unit would
    # claim every unattributed second inside it as its own self time.
    count_unit = tracer.counted("campaigns.unit")
    # The registry exposes lookups only; swapping in a wrapped kind is
    # the one write the tracer needs.
    for name, kind in list(registry._REGISTRY.items()):
        hooks = {"run": count_unit(kind.run)}
        if kind.shardable:
            hooks["run_shard"] = count_unit(kind.run_shard)
            hooks["merge_shards"] = timed("campaigns.merge")(
                kind.merge_shards)
        registry._REGISTRY[name] = dataclasses.replace(kind, **hooks)
    for name in ("put", "put_shard"):
        patch_method(ResultCache, name, timed("campaigns.cache_put"))

    # backends: unit submission on every transport.
    patch_method(base.ExecutionBackend, "submit", timed("backends.submit"))

    # reporting: the table/JSON render.
    for name in ("render_json", "format_table"):
        patch_function(reporting, name, timed("reporting.render"))


def _option(argv: List[str], flag: str) -> Optional[str]:
    return argv[argv.index(flag) + 1] if flag in argv else None


def dry_run_kernels(argv: List[str]) -> Dict[str, int]:
    """Cells per kernel as the campaign's ``--dry-run`` plan reports."""
    from repro.campaigns import CampaignRunner, build_campaign

    seed = _option(argv, "--seed")
    specs = build_campaign(argv[1], seed=None if seed is None else int(seed))
    kernels: Dict[str, int] = {}
    for plan in CampaignRunner().plan(specs):
        kernel = plan.kernel or "-"
        kernels[kernel] = kernels.get(kernel, 0) + 1
    return kernels


def journal_units(path: str) -> Dict[str, Any]:
    """Per-unit numbers of a finished run journal."""
    from repro.telemetry import load_journal, percentile

    waits, runs, cpu, requeues = [], [], 0.0, 0
    for event in load_journal(path):
        if event.get("type") == "unit_done":
            runs.append(float(event["elapsed"]))
            if event.get("queue_wait") is not None:
                waits.append(float(event["queue_wait"]))
            cpu += float((event.get("timings") or {}).get("cpu", 0.0))
        elif event.get("type") == "requeue":
            requeues += 1
    units: Dict[str, Any] = {"units": len(runs), "unit_cpu": cpu,
                             "requeues": requeues}
    for name, values in (("queue_wait", waits), ("unit_run", runs)):
        values.sort()
        for q in (50, 90):
            units[f"{name}_p{q}"] = (percentile(values, q / 100)
                                     if values else None)
    return units


def main(argv: List[str]) -> int:
    if len(argv) < 4 or argv[1] != "--" or argv[2] != "campaign":
        print(__doc__, file=sys.stderr)
        return 2
    stats_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro import cli

    status = cli.main(cli_argv)
    stats: Dict[str, Any] = {
        "layers": {name: list(totals)
                   for name, totals in tracer.layers.items()},
        "epoch_state_distinct": len(tracer.epoch_keys),
        "kernels": dry_run_kernels(cli_argv),
    }
    journal = _option(cli_argv, "--journal")
    if journal is not None:
        stats["journal"] = journal_units(journal)
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
