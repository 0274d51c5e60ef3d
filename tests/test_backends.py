"""Tests for repro.backends: the execution-backend protocol, the
filesystem work queue (dispatch, leases, dead-worker re-enqueue), and
the durable-partials/resume machinery they unlock in the runner.

The invariant under test throughout: campaign payloads are
bit-identical no matter which backend ran the units, in what order
they finished, how often a unit was re-enqueued, or whether a run was
interrupted and resumed from persisted shard partials.
"""

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.backends import (
    ElasticSupervisor,
    ProcessPoolBackend,
    SerialBackend,
    WorkQueueBackend,
    WorkUnit,
    worker_loop,
)
from repro.backends import workqueue as wq
from repro.backends.workqueue import (
    LEASES_DIR,
    RESULTS_DIR,
    TASKS_DIR,
    WORKERS_DIR,
    ensure_queue_dirs,
)
from repro.campaigns import CampaignRunner, ExperimentSpec, contention_grid
from repro.campaigns.cache import ResultCache
from repro.core.batch import Shard, ShardPolicy


def timing_spec(num_samples=4096, setup="deterministic", seed=9):
    return ExperimentSpec(
        kind="timing_samples", setup=setup,
        num_samples=num_samples, seed=seed,
    )


def missrate_spec():
    return ExperimentSpec(
        kind="missrate", seed=0x1234,
        params=(("policy", "modulo"), ("workload", "reuse")),
    )


def run_worker_once(queue_dir, **kwargs):
    """Drain the queue synchronously with an in-process worker."""
    kwargs.setdefault("max_idle", 0.3)
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("echo", False)
    return worker_loop(queue_dir, **kwargs)


class TestWorkUnitWire:
    def test_doc_round_trip_preserves_identity(self):
        spec = timing_spec()
        shard = Shard(index=1, num_shards=4, start=1024, end=2048)
        unit = WorkUnit(unit_id="u1", spec=spec, shard=shard)
        rebuilt = WorkUnit.from_doc(json.loads(json.dumps(unit.to_doc())))
        assert rebuilt.unit_id == "u1"
        assert rebuilt.spec.spec_hash() == spec.spec_hash()
        assert rebuilt.spec.seed_sequence().entropy == \
            spec.seed_sequence().entropy
        assert rebuilt.shard == shard

    def test_doc_names_registering_module(self):
        unit = WorkUnit(unit_id="u", spec=missrate_spec())
        doc = unit.to_doc()
        assert doc["kind_module"] == "repro.campaigns.experiments"
        assert doc["shard"] is None

    def test_cell_unit_label(self):
        unit = WorkUnit(unit_id="u", spec=missrate_spec())
        assert "missrate" in unit.label


class TestSpecWire:
    def test_round_trip_equal_hash_and_stream(self):
        spec = ExperimentSpec(
            kind="bernstein", setup="tscache", num_samples=10, seed=3,
            params=(("victim_key", "ab" * 16),),
        )
        rebuilt = ExperimentSpec.from_doc(
            json.loads(json.dumps(spec.to_doc()))
        )
        assert rebuilt == spec
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert np.array_equal(
            rebuilt.seed_sequence().generate_state(4),
            spec.seed_sequence().generate_state(4),
        )


class TestLocalBackends:
    """Explicit Serial/ProcessPool backends reproduce the default
    runner paths bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner(max_shards_per_cell=3).run([timing_spec()])

    @pytest.mark.parametrize("make_backend", [
        SerialBackend, lambda: ProcessPoolBackend(2)
    ])
    def test_bit_identical_to_default(self, reference, make_backend):
        with make_backend() as backend:
            result = CampaignRunner(
                max_shards_per_cell=3, backend=backend
            ).run([timing_spec()])
        assert np.array_equal(
            reference.cells[0].payload.timings,
            result.cells[0].payload.timings,
        )
        assert np.array_equal(
            reference.cells[0].payload.plaintexts,
            result.cells[0].payload.plaintexts,
        )

    def test_backend_reusable_across_campaigns(self, reference):
        backend = SerialBackend()
        runner = CampaignRunner(max_shards_per_cell=3, backend=backend)
        first = runner.run([timing_spec()])
        second = runner.run([timing_spec()])
        assert np.array_equal(
            first.cells[0].payload.timings,
            second.cells[0].payload.timings,
        )

    def test_pool_backend_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(0)

    def test_serial_cancel_drops_pending(self):
        backend = SerialBackend()
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        backend.cancel()
        assert list(backend.completions()) == []

    def test_serial_cancel_units_is_selective(self):
        backend = SerialBackend()
        for unit_id in ("a", "b", "c"):
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        backend.cancel_units(["b"])
        done = [r.unit.unit_id for r in backend.completions()]
        assert done == ["a", "c"]

    def test_serial_cancel_units_mid_drain(self):
        """Cancelling during the drain (the early-stop call pattern)
        prevents the remaining named units from ever executing."""
        backend = SerialBackend()
        for unit_id in ("a", "b", "c"):
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        stream = backend.completions()
        first = next(stream)
        assert first.unit.unit_id == "a"
        backend.cancel_units(["b", "c"])
        assert list(stream) == []

    def test_pool_cancel_units_before_drain(self):
        with ProcessPoolBackend(2) as backend:
            for unit_id in ("a", "b"):
                backend.submit(
                    WorkUnit(unit_id=unit_id, spec=missrate_spec())
                )
            backend.cancel_units(["a"])
            done = [r.unit.unit_id for r in backend.completions()]
        assert done == ["b"]

    def test_pool_aborted_drain_does_not_leak_futures(self):
        """A drain that raises (worker error) must not leak its
        remaining futures into the reused backend's next round."""
        bad = ExperimentSpec(
            kind="missrate", params=(("policy", "modulo"),)
        )
        with ProcessPoolBackend(2) as backend:
            backend.submit(WorkUnit(unit_id="bad", spec=bad))
            backend.submit(WorkUnit(unit_id="ok", spec=missrate_spec()))
            with pytest.raises(ValueError, match="workload"):
                list(backend.completions())
            backend.submit(WorkUnit(unit_id="ok2", spec=missrate_spec()))
            done = [r.unit.unit_id for r in backend.completions()]
        assert done == ["ok2"]


class TestWorkQueueDispatch:
    def test_in_process_worker_round_trip(self, tmp_path):
        """Submit → worker drains queue → completions stream back."""
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        backend.submit(WorkUnit(unit_id="cell", spec=missrate_spec()))
        assert run_worker_once(str(tmp_path)) == 1
        results = list(backend.completions())
        assert len(results) == 1
        assert results[0].payload.accesses == 12000
        assert results[0].attempts == 1
        assert results[0].worker is not None
        # Queue fully drained: no task/lease/result litter left.
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(tmp_path / sub) == []

    def test_spawned_workers_bit_identical(self, tmp_path):
        """The acceptance path: real forked worker processes
        serve sharded units; the merged payload matches serial."""
        spec = timing_spec(num_samples=2048)
        serial = CampaignRunner(max_shards_per_cell=2).run([spec])
        backend = WorkQueueBackend(
            str(tmp_path), spawn_workers=2,
            lease_timeout=60, idle_timeout=120,
        )
        try:
            queued = CampaignRunner(
                max_shards_per_cell=2, backend=backend
            ).run([spec])
        finally:
            backend.close()
        assert np.array_equal(
            serial.cells[0].payload.timings,
            queued.cells[0].payload.timings,
        )
        assert np.array_equal(
            serial.cells[0].payload.plaintexts,
            queued.cells[0].payload.plaintexts,
        )

    def test_duplicate_submit_rejected(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path))
        unit = WorkUnit(unit_id="u", spec=missrate_spec())
        backend.submit(unit)
        with pytest.raises(ValueError, match="already submitted"):
            backend.submit(unit)

    def test_cancel_removes_pending_tasks(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path))
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        backend.cancel()
        assert os.listdir(tmp_path / TASKS_DIR) == []
        assert list(backend.completions()) == []

    def test_cancel_units_withdraws_named_tasks(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        for unit_id in ("a", "b"):
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        backend.cancel_units(["a"])
        assert os.listdir(tmp_path / TASKS_DIR) == ["b.json"]
        run_worker_once(str(tmp_path))
        done = [r.unit.unit_id for r in backend.completions()]
        assert done == ["b"]

    def test_cancel_units_sweeps_landed_result(self, tmp_path):
        """A result that arrived before the cancel must not be
        replayed if the id is reused later."""
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        run_worker_once(str(tmp_path))
        assert os.listdir(tmp_path / RESULTS_DIR) == ["u.pkl"]
        backend.cancel_units(["u"])
        assert os.listdir(tmp_path / RESULTS_DIR) == []
        assert list(backend.completions()) == []

    def test_worker_exits_on_stop_sentinel(self, tmp_path):
        ensure_queue_dirs(str(tmp_path))
        (tmp_path / "stop").write_bytes(b"")
        assert worker_loop(str(tmp_path), echo=False) == 0


class TestWorkQueueFaults:
    """Worker crash → lease expiry → re-enqueue, and the failure modes
    around it."""

    def _stale_claim(self, queue_dir, unit_id, age=3600.0):
        """Simulate a worker that claimed a unit and died: the task
        doc sits in leases/ with a long-stopped heartbeat."""
        task = os.path.join(queue_dir, TASKS_DIR, unit_id + ".json")
        lease = os.path.join(queue_dir, LEASES_DIR, unit_id + ".json")
        os.rename(task, lease)
        stale = time.time() - age
        os.utime(lease, (stale, stale))

    def test_dead_worker_unit_reenqueued_bit_identical(self, tmp_path):
        """A unit whose worker died is re-enqueued after its lease
        expires, and the retry's payload is bit-identical."""
        reference = CampaignRunner().run([missrate_spec()])
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=0.2, poll_interval=0.05,
            max_attempts=3, idle_timeout=60,
        )
        unit = WorkUnit(unit_id="doomed", spec=missrate_spec())
        backend.submit(unit)
        self._stale_claim(str(tmp_path), "doomed")
        # A healthy worker joins while the dispatcher is already
        # polling; it only ever sees the unit once re-enqueued.
        thread = threading.Thread(
            target=run_worker_once,
            args=(str(tmp_path),),
            kwargs={"max_idle": 30.0},
        )
        thread.start()
        try:
            results = list(backend.completions())
        finally:
            (tmp_path / "stop").write_bytes(b"")
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(results) == 1
        assert results[0].attempts == 2
        assert results[0].payload.miss_rate == \
            reference.cells[0].payload.miss_rate

    def test_attempt_budget_exhaustion_raises(self, tmp_path):
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=0.1, poll_interval=0.05,
            max_attempts=1, idle_timeout=60,
        )
        backend.submit(WorkUnit(unit_id="doomed", spec=missrate_spec()))
        self._stale_claim(str(tmp_path), "doomed")
        with pytest.raises(RuntimeError, match="budget is exhausted"):
            list(backend.completions())

    def test_clean_failure_raises_with_worker_traceback(self, tmp_path):
        """An execution error is not retried: the worker publishes the
        traceback and the dispatcher raises it."""
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        bad = ExperimentSpec(kind="missrate", params=(("policy", "modulo"),))
        backend.submit(WorkUnit(unit_id="bad", spec=bad))
        run_worker_once(str(tmp_path))
        with pytest.raises(RuntimeError, match="workload"):
            list(backend.completions())

    def test_idle_timeout_names_the_fix(self, tmp_path):
        """No workers at all → a diagnosable error, not a silent hang."""
        backend = WorkQueueBackend(
            str(tmp_path), poll_interval=0.05, idle_timeout=0.3,
        )
        backend.submit(WorkUnit(unit_id="waiting", spec=missrate_spec()))
        with pytest.raises(RuntimeError, match="repro worker --queue"):
            list(backend.completions())

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueueBackend(str(tmp_path), lease_timeout=0)
        with pytest.raises(ValueError):
            WorkQueueBackend(str(tmp_path), max_attempts=0)

    def test_reused_queue_dir_does_not_replay_stale_failure(self,
                                                            tmp_path):
        """Regression: unit ids are deterministic, so a reused queue
        directory must not hand a new campaign an old error result
        (or an old task/lease) under the same id."""
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        bad = ExperimentSpec(kind="missrate", params=(("policy", "modulo"),))
        backend.submit(WorkUnit(unit_id="u", spec=bad))
        run_worker_once(str(tmp_path))
        with pytest.raises(RuntimeError):
            list(backend.completions())
        # The error result was consumed, not left to rot.
        assert os.listdir(tmp_path / RESULTS_DIR) == []
        # A fresh campaign reuses the directory and the unit id.
        fresh = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        fresh.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        run_worker_once(str(tmp_path))
        results = list(fresh.completions())
        assert results[0].payload.accesses == 12000

    def test_lost_claim_answer_redelivers_the_same_unit(self, tmp_path):
        """Regression: a claim whose answer never reached the worker
        (the coordinator died between stamping the lease and replying)
        must not orphan the unit until its lease times out — the
        retried request, which carries the same claim id, gets that
        same unit back."""
        store = wq.DirectoryQueueStore(str(tmp_path))
        store.submit({"unit_id": "u1", "attempt": 1})
        store.submit({"unit_id": "u2", "attempt": 1})
        store.claim("w1", "h", "c1")  # the answer is lost
        again = store.claim("w1", "h", "c1")["unit"]
        assert again["unit_id"] == "u1" and again["worker"] == "w1"
        # Another worker is not handed w1's lease.
        assert store.claim("w2", "h", "c1")["unit"]["unit_id"] == "u2"

    def test_new_claim_never_returns_a_received_unit(self, tmp_path):
        """A unit the worker received (and then dropped or finished)
        is not handed back by its next claim, which has a new id."""
        store = wq.DirectoryQueueStore(str(tmp_path))
        store.submit({"unit_id": "u1", "attempt": 1})
        assert store.claim("w1", "h", "c1")["unit"]["unit_id"] == "u1"
        assert store.claim("w1", "h", "c2")["unit"] is None
        assert store.claim("w1", "h")["unit"] is None

    def test_lost_claim_skipped_not_fatal(self, tmp_path, monkeypatch):
        """Regression: a worker whose freshly-claimed lease was
        re-enqueued from under it (stale task mtime) must move on,
        not crash."""
        # The rename claim "wins" a unit whose lease file is gone.
        monkeypatch.setattr(wq, "_claim_next", lambda queue_dir: "ghost")
        store = wq.DirectoryQueueStore(str(tmp_path))
        assert store.claim("w1", "h")["unit"] is None
        assert wq.worker_loop(
            str(tmp_path), worker_id="w1", poll_interval=0.01,
            max_idle=0.05, echo=False,
        ) == 0

    def test_dropped_unit_resets_idle_clock(self, tmp_path, monkeypatch):
        """A unit whose result was dropped (lease lost, stale attempt)
        still counts as work: ``max_idle`` is measured from its end,
        not from the last published unit."""
        store = wq.DirectoryQueueStore(str(tmp_path))
        store.submit({"unit_id": "u", "attempt": 1})
        finished = []

        def slow_dropped(store, doc, worker_id):
            time.sleep(0.3)
            finished.append(time.monotonic())
            return None

        monkeypatch.setattr(wq, "_execute_claimed", slow_dropped)
        assert wq.worker_loop(
            str(tmp_path), worker_id="w1", poll_interval=0.01,
            max_idle=0.2, echo=False,
        ) == 0
        assert len(finished) == 1
        assert time.monotonic() - finished[0] >= 0.2

    def test_release_lease_spares_successor(self, tmp_path):
        """Regression: a slow predecessor finishing late must not
        unlink the lease a successor worker is actively
        heartbeating."""
        from repro.backends.workqueue import _release_lease

        lease = tmp_path / "u.json"
        lease.write_text(json.dumps({"worker": "successor"}))
        _release_lease(str(lease), "slow-predecessor")
        assert lease.exists()
        _release_lease(str(lease), "successor")
        assert not lease.exists()


class TestHeartbeatLiveness:
    """Regression: a heartbeat thread dying was silent — the lease
    went stale and the dispatcher re-enqueued a unit that a healthy
    worker was still executing, with no record of why.  Now the thread
    records its death in the lease doc, forces the lease stale so the
    re-enqueue is prompt, and the worker aborts the unit instead of
    publishing under a lease it no longer keeps alive."""

    def _boom(self, path):
        raise RuntimeError("simulated heartbeat thread crash")

    def _stamped_lease(self, tmp_path):
        """A directory store holding lease ``u`` stamped by ``w1``."""
        store = wq.DirectoryQueueStore(str(tmp_path))
        lease = tmp_path / LEASES_DIR / "u.json"
        lease.write_text(json.dumps({"worker": "w1"}))
        return store, lease

    def test_thread_death_recorded_in_lease_doc(self, tmp_path,
                                                monkeypatch):
        store, lease = self._stamped_lease(tmp_path)
        monkeypatch.setattr(wq, "_touch", self._boom)
        heartbeat = wq._Heartbeat("u", 0.01, store, "w1")
        with heartbeat:
            assert heartbeat.failed.wait(timeout=10.0)
        doc = json.loads(lease.read_text())
        assert doc["heartbeat_alive"] is False
        assert doc["worker"] == "w1"  # the rest of the doc survives
        # Forced stale: the dispatcher expires it on its next poll
        # instead of waiting out the whole lease timeout.
        assert time.time() - os.stat(lease).st_mtime > 3600

    def test_transient_oserror_keeps_beating(self, tmp_path,
                                             monkeypatch):
        """An EIO/NFS hiccup must not read as thread death."""
        store, _ = self._stamped_lease(tmp_path)

        def hiccup(path):
            raise OSError("transient")

        monkeypatch.setattr(wq, "_touch", hiccup)
        heartbeat = wq._Heartbeat("u", 0.01, store, "w1")
        with heartbeat:
            time.sleep(0.1)
        assert not heartbeat.failed.is_set()

    def test_lost_lease_is_not_thread_death(self, tmp_path,
                                            monkeypatch):
        """Lease gone = re-enqueued from under us; the thread exits
        quietly and the late result still counts (first wins)."""
        store, _ = self._stamped_lease(tmp_path)

        def gone(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(wq, "_touch", gone)
        heartbeat = wq._Heartbeat("u", 0.01, store, "w1")
        with heartbeat:
            time.sleep(0.1)
        assert not heartbeat.failed.is_set()

    def test_worker_aborts_unit_when_heartbeat_dies(self, tmp_path,
                                                    monkeypatch):
        # Short lease timeout → the task doc carries a fast (0.05s)
        # heartbeat interval.  The unit waits until the beat thread
        # has crashed before it computes, so the abort never races
        # the unit's run time.
        backend = WorkQueueBackend(str(tmp_path), lease_timeout=0.2)
        backend.submit(WorkUnit(unit_id="u", spec=timing_spec()))
        claimed = backend.store.claim("w1", "h")["unit"]
        assert claimed["unit_id"] == "u"
        crashed = threading.Event()
        waits = []

        def boom(path):
            crashed.set()
            self._boom(path)

        def execute_after_crash(unit):
            waits.append(crashed.wait(timeout=10.0))
            return real_execute(unit)

        real_execute = wq.execute_unit
        monkeypatch.setattr(wq, "_touch", boom)
        monkeypatch.setattr(wq, "execute_unit", execute_after_crash)
        assert wq._execute_claimed(backend.store, claimed, "w1") is None
        assert waits == [True]
        # Aborted: no result published, and the stale lease hands the
        # unit straight back to the dispatcher's expiry pass.
        assert os.listdir(tmp_path / RESULTS_DIR) == []
        lease_ages = backend.store.poll(["u"], [])["lease_ages"]
        assert lease_ages["u"] > backend.lease_timeout


class TestRequeueCollectsLateResults:
    """Regression (expiry vs. late-result race): a result file landing
    while its lease is being expired means the unit *finished* — it
    must be collected, not re-enqueued, and must never burn an attempt
    from (or exhaust) ``max_attempts``."""

    def _claim_stale(self, queue_dir, unit_id, age=3600.0):
        task = os.path.join(queue_dir, TASKS_DIR, unit_id + ".json")
        lease = os.path.join(queue_dir, LEASES_DIR, unit_id + ".json")
        os.rename(task, lease)
        stale = time.time() - age
        os.utime(lease, (stale, stale))

    def _publish(self, queue_dir, unit_id, payload):
        from repro.common.fsio import atomic_write_bytes

        atomic_write_bytes(
            os.path.join(queue_dir, RESULTS_DIR, unit_id + ".pkl"),
            pickle.dumps({
                "worker": "slow-but-alive",
                "attempt": 1,
                "ok": True,
                "payload": payload,
                "elapsed": 9.9,
            }),
        )

    def test_landed_result_collected_without_burning_attempt(
        self, tmp_path
    ):
        reference = CampaignRunner().run([missrate_spec()])
        # max_attempts=1: the old code would raise "budget exhausted"
        # for a unit whose result was sitting on disk.
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=0.1, max_attempts=1,
            idle_timeout=60,
        )
        backend.submit(WorkUnit(unit_id="slow", spec=missrate_spec()))
        self._claim_stale(str(tmp_path), "slow")
        # The artificially slow worker publishes just as the lease
        # expires (its heartbeat died long ago, mtime is stale).
        self._publish(str(tmp_path), "slow",
                      reference.cells[0].payload)
        collected = backend._requeue_expired(
            backend.store.poll(["slow"], [])["lease_ages"]
        )
        assert [r.unit.unit_id for r in collected] == ["slow"]
        assert collected[0].attempts == 1
        assert (collected[0].payload.miss_rate
                == reference.cells[0].payload.miss_rate)
        assert backend._outstanding == {}
        # The dead owner's lease is litter once the unit is done.
        assert os.listdir(tmp_path / LEASES_DIR) == []
        assert os.listdir(tmp_path / TASKS_DIR) == []

    def test_slow_worker_race_through_completions(self, tmp_path):
        """Integration shape: the result lands from a thread while the
        dispatcher polls an expired lease; the campaign completes with
        attempts=1 instead of raising."""
        reference = CampaignRunner().run([missrate_spec()])
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=0.5, poll_interval=0.05,
            max_attempts=1, idle_timeout=60,
        )
        backend.submit(WorkUnit(unit_id="slow", spec=missrate_spec()))
        self._claim_stale(str(tmp_path), "slow", age=0.4)

        def slow_worker():
            self._publish(str(tmp_path), "slow",
                          reference.cells[0].payload)

        thread = threading.Thread(target=slow_worker)
        thread.start()
        try:
            results = list(backend.completions())
        finally:
            thread.join(timeout=10)
        assert len(results) == 1
        assert results[0].attempts == 1


class TestCancelLeasedUnits:
    """Regression: cancel_units only unlinked task/result files — a
    unit already claimed kept its lease (an orphan in ``leases/``) and
    its straggler result was never swept."""

    def test_cancel_removes_lease_of_claimed_unit(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        for unit_id in ("claimed", "pending"):
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        assert wq._claim_next(str(tmp_path)) == "claimed"
        backend.cancel_units(["claimed", "pending"])
        assert os.listdir(tmp_path / TASKS_DIR) == []
        assert os.listdir(tmp_path / LEASES_DIR) == []
        # Only the claimed unit can ever produce a straggler result;
        # tracking never-claimed ids would grow the sweep set (and
        # its per-poll unlink attempts) forever on a long-lived
        # backend.
        assert backend._cancelled_ids == {"claimed"}

    def test_straggler_result_swept_at_close(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        assert wq._claim_next(str(tmp_path)) == "u"
        backend.cancel_units(["u"])
        # The worker we could not interrupt publishes afterwards.
        from repro.common.fsio import atomic_write_bytes

        atomic_write_bytes(
            os.path.join(str(tmp_path), RESULTS_DIR, "u.pkl"),
            pickle.dumps({"ok": True, "payload": None, "elapsed": 0.0}),
        )
        backend.close()
        assert os.listdir(tmp_path / RESULTS_DIR) == []

    def test_straggler_result_swept_on_next_poll(self, tmp_path):
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        for unit_id in ("cancelled", "kept"):
            backend.submit(WorkUnit(unit_id=unit_id, spec=missrate_spec()))
        assert wq._claim_next(str(tmp_path)) == "cancelled"
        backend.cancel_units(["cancelled"])
        from repro.common.fsio import atomic_write_bytes

        atomic_write_bytes(
            os.path.join(str(tmp_path), RESULTS_DIR, "cancelled.pkl"),
            pickle.dumps({"ok": True, "payload": None, "elapsed": 0.0}),
        )
        run_worker_once(str(tmp_path))  # serves the surviving unit
        done = [r.unit.unit_id for r in backend.completions()]
        assert done == ["kept"]
        assert os.listdir(tmp_path / RESULTS_DIR) == []


class _FakeProc:
    """Stand-in worker process for deterministic supervisor tests."""

    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None:
            self.returncode = 0
        return self.returncode

    def terminate(self):
        self.returncode = -15

    def kill(self):
        self.returncode = -9


class TestElasticSupervisor:
    """Deterministic (tick-driven, fake-process) tests of the scaling
    policy; the real-process path is covered by
    TestElasticEndToEnd."""

    def _supervisor(self, tmp_path, monkeypatch, clock, **kwargs):
        spawned = []

        def fake_spawn(worker_args, worker_id, poll_interval, log_dir):
            spawned.append(worker_id)
            return _FakeProc(), os.path.join(log_dir, worker_id + ".log")

        monkeypatch.setattr(wq, "_spawn_worker_process", fake_spawn)
        kwargs.setdefault("min_workers", 1)
        kwargs.setdefault("max_workers", 3)
        kwargs.setdefault("idle_grace", 10.0)
        supervisor = ElasticSupervisor(
            str(tmp_path), clock=clock, **kwargs
        )
        return supervisor, spawned

    def _enqueue(self, tmp_path, *unit_ids):
        ensure_queue_dirs(str(tmp_path))
        for unit_id in unit_ids:
            (tmp_path / TASKS_DIR / f"{unit_id}.json").write_text("{}")

    def test_keeps_min_workers_warm(self, tmp_path, monkeypatch):
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0
        )
        supervisor.tick()
        assert len(spawned) == 1
        supervisor.tick()
        assert len(spawned) == 1  # no thrash on an idle queue

    def test_spawns_nothing_while_queue_stopped(self, tmp_path,
                                                monkeypatch):
        """Every worker exits on the queue-wide stop sentinel, so
        spawning toward min_workers under it would only churn."""
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0
        )
        stop = tmp_path / wq.STOP_SENTINEL
        stop.write_bytes(b"")
        supervisor.tick()
        supervisor.tick()
        assert spawned == []
        stop.unlink()
        supervisor.tick()
        assert len(spawned) == 1

    def test_scales_up_with_queue_depth_capped_at_max(self, tmp_path,
                                                      monkeypatch):
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0
        )
        self._enqueue(tmp_path, "a", "b", "c", "d", "e")
        supervisor.tick()
        assert len(spawned) == 3  # max_workers cap
        assert supervisor.stats.peak_workers == 3

    def test_retires_surplus_after_idle_grace(self, tmp_path,
                                              monkeypatch):
        now = [0.0]
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0], idle_grace=5.0
        )
        self._enqueue(tmp_path, "a", "b", "c")
        supervisor.tick()
        assert len(spawned) == 3
        # Queue drains: surplus must persist for idle_grace first.
        for name in os.listdir(tmp_path / TASKS_DIR):
            os.unlink(tmp_path / TASKS_DIR / name)
        supervisor.tick()
        assert len(supervisor._procs) == 3  # grace not yet elapsed
        now[0] = 6.0
        supervisor.tick()
        assert len(supervisor._procs) == 1  # drained to min_workers
        assert supervisor.stats.retired == 2
        # Retirement is graceful: per-worker sentinels, no kill.
        stops = [n for n in os.listdir(tmp_path / WORKERS_DIR)
                 if n.endswith(".stop")]
        assert len(stops) == 2

    def test_reap_cleans_retired_worker_litter(self, tmp_path,
                                               monkeypatch):
        now = [0.0]
        supervisor, _ = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0], idle_grace=0.5
        )
        self._enqueue(tmp_path, "a", "b")
        supervisor.tick()
        for name in os.listdir(tmp_path / TASKS_DIR):
            os.unlink(tmp_path / TASKS_DIR / name)
        supervisor.tick()
        now[0] = 1.0
        supervisor.tick()
        assert supervisor._retiring
        # The retiring worker exits; the next tick reaps its sentinel.
        for proc in supervisor._retiring.values():
            proc.returncode = 0
        supervisor.tick()
        assert not supervisor._retiring
        assert not [n for n in os.listdir(tmp_path / WORKERS_DIR)
                    if n.endswith(".stop")]

    def test_busy_leases_keep_workers_alive(self, tmp_path,
                                            monkeypatch):
        """No pending tasks but live leases: the pool must not shrink
        below what is still executing."""
        now = [0.0]
        supervisor, _ = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0], idle_grace=0.5
        )
        self._enqueue(tmp_path, "a", "b")
        supervisor.tick()
        assert len(supervisor._procs) == 2
        # Both units claimed: tasks -> leases.
        for name in list(os.listdir(tmp_path / TASKS_DIR)):
            os.rename(tmp_path / TASKS_DIR / name,
                      tmp_path / LEASES_DIR / name)
        now[0] = 10.0
        supervisor.tick()
        assert len(supervisor._procs) == 2

    def test_busy_external_workers_not_double_served(self, tmp_path,
                                                     monkeypatch):
        """A lease stamped by an external worker is already being
        served — it must not read as demand and spawn a redundant
        local worker per busy external one."""
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0, min_workers=0
        )
        self._enqueue(tmp_path, "pending")
        for unit, worker in (("a", "ext-1"), ("b", "ext-2")):
            (tmp_path / LEASES_DIR / f"{unit}.json").write_text(
                json.dumps({"worker": worker})
            )
        supervisor.tick()
        assert len(spawned) == 1  # one pending unit → one worker

    def test_fresh_external_worker_serves_stale_does_not(self, tmp_path,
                                                        monkeypatch):
        """An external worker with a fresh ``workers/<id>.json`` is
        serving capacity: it suppresses one spawn and shows in the
        fleet view under the host its info doc advertises.  Once that
        heartbeat is older than ``heartbeat_fresh`` it is neither."""
        for fresh in (True, False):
            queue = tmp_path / ("fresh" if fresh else "stale")
            supervisor, spawned = self._supervisor(
                queue, monkeypatch, clock=lambda: 0.0, min_workers=0
            )
            self._enqueue(queue, "a", "b")
            info = queue / WORKERS_DIR / "ext.json"
            info.write_text(json.dumps({"worker_id": "ext",
                                        "host": "delta"}))
            if not fresh:
                old = time.time() - 10 * supervisor.heartbeat_fresh
                os.utime(info, (old, old))
            supervisor.tick()
            assert len(spawned) == (1 if fresh else 2)
            by_host = supervisor.workers_by_host()
            assert by_host.get("delta") == (1 if fresh else None)
            assert sum(by_host.values()) == len(spawned) + fresh

    def test_unstamped_lease_counts_as_demand(self, tmp_path,
                                              monkeypatch):
        """The claim-to-stamp window is attributed conservatively."""
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0, min_workers=0
        )
        self._enqueue(tmp_path, "pending")
        (tmp_path / LEASES_DIR / "claimed.json").write_text("{}")
        supervisor.tick()
        assert len(spawned) == 2

    def test_check_health_raises_on_crash_loop(self, tmp_path,
                                               monkeypatch):
        supervisor, _ = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: 0.0
        )
        for _ in range(3):
            supervisor.tick()
            for proc in supervisor._procs.values():
                proc.returncode = 1  # crash
            supervisor._reap()
        with pytest.raises(RuntimeError, match="crashed within"):
            supervisor.check_health()

    def test_isolated_crashes_do_not_abort_a_long_campaign(
        self, tmp_path, monkeypatch
    ):
        """Three crashes spread far apart (each recovered by respawn)
        are not a crash loop — the campaign must keep running."""
        now = [0.0]
        supervisor, _ = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0]
        )
        for _ in range(3):
            supervisor.tick()
            for proc in supervisor._procs.values():
                proc.returncode = 1
            supervisor._reap()
            now[0] += 3600.0  # an hour between incidents
        supervisor.check_health()  # must not raise

    def test_persistent_spawn_failure_surfaces_with_traceback(
        self, tmp_path, monkeypatch
    ):
        """Spawn raising every tick produces no processes and no
        abnormal exits; check_health must still diagnose it instead
        of letting the idle watchdog fire a misleading message."""
        now = [0.0]
        supervisor, _ = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0]
        )
        self._enqueue(tmp_path, "a")

        def broken_spawn(worker_args, worker_id, poll_interval, log_dir):
            raise OSError("fork: resource temporarily unavailable")

        monkeypatch.setattr(wq, "_spawn_worker_process", broken_spawn)
        supervisor._guarded_tick()
        # A brief blip is tolerated (the heartbeat's own rule)...
        supervisor.check_health()
        # ...continuous failure past the grace window is not.
        now[0] = supervisor.tick_failure_grace + 1.0
        supervisor._guarded_tick()
        with pytest.raises(RuntimeError, match="cannot scale"):
            supervisor.check_health()
        assert "fork" in supervisor.last_error

    def test_transient_tick_blip_recovers(self, tmp_path, monkeypatch):
        now = [0.0]
        supervisor, spawned = self._supervisor(
            tmp_path, monkeypatch, clock=lambda: now[0]
        )
        self._enqueue(tmp_path, "a")
        good_spawn = wq._spawn_worker_process

        def broken_spawn(worker_args, worker_id, poll_interval, log_dir):
            raise OSError("transient")

        monkeypatch.setattr(wq, "_spawn_worker_process", broken_spawn)
        supervisor._guarded_tick()
        monkeypatch.setattr(wq, "_spawn_worker_process", good_spawn)
        supervisor._guarded_tick()  # recovers: failure window resets
        now[0] = supervisor.tick_failure_grace + 1.0
        supervisor.check_health()  # must not raise
        assert spawned

    def test_validates_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            ElasticSupervisor(str(tmp_path), min_workers=3, max_workers=2)
        with pytest.raises(ValueError):
            ElasticSupervisor(str(tmp_path), min_workers=-1, max_workers=2)
        with pytest.raises(ValueError):
            ElasticSupervisor(str(tmp_path), max_workers=0)

    def test_backend_rejects_conflicting_pool_modes(self, tmp_path):
        with pytest.raises(ValueError, match="mutually exclusive"):
            WorkQueueBackend(
                str(tmp_path), spawn_workers=2, max_workers=3
            )
        with pytest.raises(ValueError, match="min_workers"):
            WorkQueueBackend(str(tmp_path), min_workers=1)


class TestWorkerRetirementSentinel:
    def test_worker_exits_on_own_stop_sentinel(self, tmp_path):
        ensure_queue_dirs(str(tmp_path))
        (tmp_path / WORKERS_DIR / "w1.stop").write_bytes(b"")
        assert worker_loop(str(tmp_path), worker_id="w1",
                           echo=False) == 0

    def test_other_workers_unaffected_by_foreign_sentinel(self,
                                                          tmp_path):
        """w1's retirement sentinel must not retire w2 — w2 drains the
        queue and exits on idle instead."""
        backend = WorkQueueBackend(str(tmp_path), idle_timeout=30)
        backend.submit(WorkUnit(unit_id="u", spec=missrate_spec()))
        (tmp_path / WORKERS_DIR / "w1.stop").write_bytes(b"")
        assert run_worker_once(str(tmp_path), worker_id="w2") == 1
        assert len(list(backend.completions())) == 1

    def test_worker_touches_liveness_heartbeat(self, tmp_path):
        ensure_queue_dirs(str(tmp_path))
        run_worker_once(str(tmp_path), worker_id="w1", max_idle=0.2)
        info = tmp_path / WORKERS_DIR / "w1.json"
        assert info.exists()
        assert time.time() - os.stat(info).st_mtime < 60.0


class TestElasticEndToEnd:
    """Real forked worker processes under the supervisor: an
    elastic pool serves a sharded campaign bit-identically and leaves
    a clean queue behind."""

    def test_elastic_pool_bit_identical_and_clean(self, tmp_path):
        spec = timing_spec(num_samples=4096)
        serial = CampaignRunner(max_shards_per_cell=4).run([spec])
        backend = WorkQueueBackend(
            str(tmp_path), min_workers=1, max_workers=2,
            lease_timeout=120, idle_timeout=300,
        )
        try:
            elastic = CampaignRunner(
                max_shards_per_cell=4,
                shard_policy=ShardPolicy.adaptive(min_block=1024),
                backend=backend,
            ).run([spec])
            stats = backend.supervisor.stats
            assert stats.spawned >= 1
            assert backend.live_worker_count() >= 1
        finally:
            backend.close()
        assert np.array_equal(
            serial.cells[0].payload.timings,
            elastic.cells[0].payload.timings,
        )
        assert np.array_equal(
            serial.cells[0].payload.plaintexts,
            elastic.cells[0].payload.plaintexts,
        )
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(tmp_path / sub) == []


def _spawn_idle_worker(queue_dir):
    """Fork one local worker on ``queue_dir`` and wait until it
    serves, i.e. until its fork-time set-up is complete."""
    ensure_queue_dirs(queue_dir)
    proc, log_path = wq._spawn_worker_process(
        ("--queue", queue_dir), "w", 0.05,
        os.path.join(queue_dir, WORKERS_DIR),
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        with open(log_path) as handle:
            if "serving" in handle.read():
                return proc
        assert proc.poll() is None, "worker exited before serving"
        time.sleep(0.01)
    proc.kill()
    proc.wait()
    raise AssertionError("forked worker never started serving")


def _env_with_sys_path():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return env


class TestForkedWorkerHygiene:
    """Local workers are forks of the dispatcher: they must not share
    its buffered output, its descriptors or its signal handlers."""

    def test_unflushed_parent_stdout_appears_once(self, tmp_path):
        """Text sitting in the dispatcher's stdout buffer at the fork
        is the dispatcher's alone: the worker neither flushes it nor
        writes it again at exit."""
        queue = str(tmp_path / "q")
        script = textwrap.dedent("""
            import os
            import sys
            from repro.backends import workqueue as wq
            queue = sys.argv[1]
            wq.ensure_queue_dirs(queue)
            sys.stdout.write("unflushed-marker\\n")
            assert os.fstat(1).st_size == 0, "stdout must be buffered"
            proc, _ = wq._spawn_worker_process(
                ("--queue", queue, "--max-idle", "0.2"), "w", 0.05,
                queue + "/workers",
            )
            sys.exit(proc.wait(timeout=60))
        """)
        env = _env_with_sys_path()
        env.pop("PYTHONUNBUFFERED", None)
        out_path = tmp_path / "out.txt"
        with open(out_path, "w") as out:
            subprocess.run(
                [sys.executable, "-c", script, queue], stdout=out,
                env=env, timeout=120, check=True,
            )
        log = (tmp_path / "q" / WORKERS_DIR / "w.log").read_text()
        assert "exiting after 0 unit(s)" in log
        assert out_path.read_text() == "unflushed-marker\n"
        assert "unflushed-marker" not in log

    def test_worker_does_not_hold_parent_listening_socket(self, tmp_path):
        """A worker forked by ``repro coordinator`` must not keep the
        coordinator's port: closing and rebinding it while the worker
        lives succeeds."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        proc = _spawn_idle_worker(str(tmp_path))
        try:
            listener.close()
            again = socket.socket()
            try:
                again.bind(("127.0.0.1", port))
                again.listen()
            finally:
                again.close()
            assert proc.poll() is None
        finally:
            proc.kill()
            proc.wait()

    def test_terminate_stops_idle_worker_without_kill(self, tmp_path):
        """SIGTERM is back at its default in the child even when the
        dispatcher ignores it, so the stop ladder's terminate step
        suffices for an idle worker."""
        previous = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            proc = _spawn_idle_worker(str(tmp_path))
        finally:
            signal.signal(signal.SIGTERM, previous)
        killed = []
        real_kill = proc.kill
        proc.kill = lambda: killed.append(True) or real_kill()
        wq._stop_proc(proc, deadline=time.monotonic())
        assert killed == []
        assert proc.returncode == -signal.SIGTERM


class TestColdCliWorker:
    """Workers on other hosts start cold with ``python -m repro
    worker``: that entry point serves a campaign bit-identically."""

    def test_cli_worker_matches_serial(self, tmp_path):
        specs = contention_grid(
            num_samples=32, setups=("deterministic", "tscache")
        )
        serial = CampaignRunner(max_shards_per_cell=2).run(specs)
        queue = str(tmp_path / "q")
        backend = WorkQueueBackend(queue, lease_timeout=60, idle_timeout=120)
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker", "--queue", queue,
                "--max-idle", "60", "--poll", "0.05", "--quiet",
            ],
            env=_env_with_sys_path(),
        )
        try:
            queued = CampaignRunner(
                max_shards_per_cell=2, backend=backend
            ).run(specs)
        finally:
            backend.store.set_stop(True)
            backend.close()
            try:
                status = worker.wait(timeout=60)
            finally:
                worker.kill()
        assert status == 0
        assert [c.spec.spec_hash() for c in queued.cells] == \
            [c.spec.spec_hash() for c in serial.cells]
        for ours, reference in zip(queued.cells, serial.cells):
            assert pickle.dumps(ours.payload) == \
                pickle.dumps(reference.payload)


class TestDurableShardPartials:
    """ResultCache's per-shard store: exact-identity matching, crash
    tolerance, sweeping."""

    def plan_for(self, spec, max_shards):
        from repro.campaigns.registry import get_experiment

        return get_experiment(spec.kind).plan_shards(spec, max_shards)

    def test_put_get_clear_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = timing_spec()
        plan = self.plan_for(spec, 4)
        cache.put_shard(spec, plan[1], {"x": 1})
        restored = cache.get_shards(spec, plan)
        assert restored == {1: {"x": 1}}
        assert cache.count_shards(spec, plan) == 1
        cache.clear_shards(spec)
        assert cache.get_shards(spec, plan) == {}

    def test_partials_from_other_plan_ignored(self, tmp_path):
        """A partial keyed to a different shard layout must not be
        mis-merged into this plan."""
        cache = ResultCache(str(tmp_path))
        spec = timing_spec()
        plan4 = self.plan_for(spec, 4)
        plan2 = self.plan_for(spec, 2)
        cache.put_shard(spec, plan4[0], "from-4-way-plan")
        assert cache.get_shards(spec, plan2) == {}

    def test_corrupt_partial_degrades_to_recompute(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = timing_spec()
        plan = self.plan_for(spec, 4)
        cache.put_shard(spec, plan[0], {"good": True})
        path = cache._shard_path(spec, plan[1])
        with open(path, "wb") as handle:
            handle.write(b"torn pickle")
        assert cache.get_shards(spec, plan) == {0: {"good": True}}

    def test_writes_leave_no_temp_litter(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = timing_spec()
        cache.put(spec, {"payload": 1})
        cache.put_shard(spec, self.plan_for(spec, 4)[0], {"p": 1})
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_crashed_write_preserves_old_entry(self, tmp_path):
        """put() is write-then-rename: a writer dying mid-write leaves
        the previous (valid) entry untouched."""
        cache = ResultCache(str(tmp_path))
        spec = timing_spec()
        cache.put(spec, {"generation": 1})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("simulated crash mid-serialisation")

        with pytest.raises(RuntimeError):
            cache.put(spec, Unpicklable())
        assert cache.get(spec) == {"generation": 1}
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]


class TestMidCellResume:
    """Interrupting a sharded cell and re-running completes from the
    persisted partials instead of recollecting finished shards."""

    class Abort(Exception):
        pass

    def _interrupt_after(self, n_shards):
        seen = {"shards": 0}

        def progress(event):
            if event.event == "shard" and not event.from_cache:
                seen["shards"] += 1
                if seen["shards"] >= n_shards:
                    raise TestMidCellResume.Abort()

        return progress

    def test_resume_uses_partials_and_matches_serial(self, tmp_path):
        spec = timing_spec()  # 4096 samples → 4 shards of 1024
        reference = CampaignRunner(max_shards_per_cell=4).run([spec])

        with pytest.raises(TestMidCellResume.Abort):
            CampaignRunner(
                cache_dir=str(tmp_path), max_shards_per_cell=4,
                progress=self._interrupt_after(2),
            ).run([spec])

        events = []
        result = CampaignRunner(
            cache_dir=str(tmp_path), max_shards_per_cell=4,
            progress=events.append,
        ).run([spec])
        restored = [e for e in events
                    if e.event == "shard" and e.from_cache]
        fresh = [e for e in events
                 if e.event == "shard" and not e.from_cache]
        assert len(restored) == 2, "persisted shards must be adopted"
        assert len(fresh) == 2, "finished shards must not be recollected"
        assert result.cells[0].shards_restored == 2
        assert np.array_equal(
            reference.cells[0].payload.timings,
            result.cells[0].payload.timings,
        )
        assert np.array_equal(
            reference.cells[0].payload.plaintexts,
            result.cells[0].payload.plaintexts,
        )
        # The whole-cell entry supersedes the partials: they are swept.
        assert not [n for n in os.listdir(tmp_path) if ".shard." in n]
        # And a third run restores the whole cell from cache.
        final = CampaignRunner(
            cache_dir=str(tmp_path), max_shards_per_cell=4
        ).run([spec])
        assert final.cells[0].from_cache

    def test_fully_persisted_cell_needs_only_the_merge(self, tmp_path):
        spec = timing_spec()
        with pytest.raises(TestMidCellResume.Abort):
            CampaignRunner(
                cache_dir=str(tmp_path), max_shards_per_cell=4,
                progress=self._interrupt_after(4),
            ).run([spec])
        events = []
        result = CampaignRunner(
            cache_dir=str(tmp_path), max_shards_per_cell=4,
            progress=events.append,
        ).run([spec])
        assert not [e for e in events
                    if e.event == "shard" and not e.from_cache]
        assert result.cells[0].shards_restored == 4


class TestDryRunPlan:
    def test_plan_reports_cache_and_shard_state(self, tmp_path):
        sharded = timing_spec()
        whole = missrate_spec()
        runner = CampaignRunner(
            cache_dir=str(tmp_path), max_shards_per_cell=4
        )
        plans = runner.plan([sharded, whole])
        assert [p.cached for p in plans] == [False, False]
        assert plans[0].num_shards == 4
        assert plans[1].plan is None and plans[1].num_shards == 1

        # Persist two shards (interrupted run), then re-plan.
        with pytest.raises(TestMidCellResume.Abort):
            CampaignRunner(
                cache_dir=str(tmp_path), max_shards_per_cell=4,
                progress=TestMidCellResume()._interrupt_after(2),
            ).run([sharded])
        plans = runner.plan([sharded, whole])
        assert plans[0].shards_cached == 2 and not plans[0].cached

        # Finish everything, then re-plan: all cached.
        CampaignRunner(
            cache_dir=str(tmp_path), max_shards_per_cell=4
        ).run([sharded, whole])
        plans = runner.plan([sharded, whole])
        assert [p.cached for p in plans] == [True, True]

    def test_plan_validates_kinds(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            CampaignRunner().plan([ExperimentSpec(kind="nope")])

    def test_plan_executes_nothing(self, tmp_path):
        events = []
        CampaignRunner(
            cache_dir=str(tmp_path), progress=events.append
        ).plan([missrate_spec()])
        assert events == []


class TestStreamingPartials:
    def test_partial_events_stream_prefix_merges(self):
        spec = timing_spec()
        events = []
        result = CampaignRunner(
            max_shards_per_cell=4, progress=events.append,
            stream_partials=True,
        ).run([spec])
        partials = [e for e in events if e.event == "partial"]
        # Serial completion order: previews after shards 1, 2, 3 (the
        # 4th completes the cell for real).
        assert [e.shards_done for e in partials] == [1, 2, 3]
        assert all(e.shards_total == 4 for e in partials)
        assert all(e.work == 0 for e in partials)
        full = result.cells[0].payload
        for event in partials:
            assert "mean_cycles" in event.summary
            n = event.partial.num_samples
            assert n == event.shards_done * 1024
            # The preview is exactly the prefix of the final payload.
            assert np.array_equal(event.partial.timings, full.timings[:n])

    def test_partial_attack_previews_report_key_space(self):
        """Incremental attack results surface before the cell ends."""
        from repro.campaigns import bernstein_grid

        specs = bernstein_grid(
            num_samples=6144, seed=11, setups=("tscache",)
        )
        events = []
        CampaignRunner(
            max_shards_per_cell=3, progress=events.append,
            stream_partials=True,
        ).run(specs)
        partials = [e for e in events if e.event == "partial"]
        assert partials, "bernstein must stream attack previews"
        for event in partials:
            assert "remaining_key_space_log2" in event.summary
            assert event.partial.report is not None

    def test_partials_off_by_default(self):
        events = []
        CampaignRunner(
            max_shards_per_cell=4, progress=events.append
        ).run([timing_spec()])
        assert not [e for e in events if e.event == "partial"]


class TestEarlyStopAcrossBackends:
    """Runner-level early stopping: the ``should_stop`` hook decides a
    cell on its merged shard prefix, the remaining units are cancelled
    with backend-specific semantics, and the verdict matches a
    full-length run on every backend."""

    SPEC = ExperimentSpec(
        kind="prime_probe", setup="deterministic",
        num_samples=64, seed=2018,
    )

    @pytest.fixture(scope="class")
    def full(self):
        return CampaignRunner().run([self.SPEC]).cells[0]

    def test_serial_stops_and_skips_remaining_shards(self, full):
        events = []
        result = CampaignRunner(
            max_shards_per_cell=8, early_stop=True,
            progress=events.append,
        ).run([self.SPEC]).cells[0]
        assert result.early_stopped
        assert result.payload.trials < 64
        assert result.payload.leaks == full.payload.leaks
        # Serial order: the SPRT decides on the first prefix >= its
        # 16-trial minimum, i.e. after 2 of the 8 eight-trial shards;
        # the cancelled remainder never executes.
        executed = [e for e in events if e.event == "shard"]
        assert len(executed) == 2
        # Progress still reaches the full campaign weight: the final
        # cell event carries the skipped remainder.
        assert sum(e.work for e in events) == 64

    @pytest.mark.parametrize("make_backend", [
        lambda tmp: ProcessPoolBackend(2),
        lambda tmp: WorkQueueBackend(
            str(tmp), spawn_workers=2, lease_timeout=60, idle_timeout=120,
        ),
    ])
    def test_parallel_backends_same_verdict(self, full, make_backend,
                                            tmp_path):
        """Concurrent completion order may move the decision point,
        but the verdict (and the prefix-equals-serial property) hold
        on the pool and the work queue alike."""
        backend = make_backend(tmp_path)
        try:
            result = CampaignRunner(
                max_shards_per_cell=8, early_stop=True, backend=backend,
            ).run([self.SPEC]).cells[0]
        finally:
            backend.close()
        assert result.payload.trials <= 64
        assert result.payload.leaks == full.payload.leaks
        if result.early_stopped:
            assert result.payload.trials < 64
        if isinstance(backend, WorkQueueBackend):
            # Cancelled units must leave no stray task, orphaned lease
            # or straggler result behind once the workers stopped.
            for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
                assert os.listdir(tmp_path / sub) == []

    def test_adaptive_sharding_decides_on_fewer_samples(self, full):
        """The acceptance criterion for adaptive shard sizing: with a
        bounded shard count, an even split hands the SPRT its first
        prefix only after total/N trials, while the adaptive geometry
        reaches the rule's minimum after its small lead shard — same
        verdict, fewer executed samples."""
        spec = ExperimentSpec(
            kind="prime_probe", setup="deterministic",
            num_samples=240, seed=2018,
        )
        even_events, adaptive_events = [], []
        even = CampaignRunner(
            max_shards_per_cell=4, early_stop=True,
            progress=even_events.append,
        ).run([spec]).cells[0]
        adaptive = CampaignRunner(
            max_shards_per_cell=4, early_stop=True,
            shard_policy=ShardPolicy.adaptive(min_block=16, growth=2.0),
            progress=adaptive_events.append,
        ).run([spec]).cells[0]
        assert even.early_stopped and adaptive.early_stopped
        assert adaptive.payload.leaks == even.payload.leaks
        # Even 240/4 → 60-trial shards: the verdict cannot land before
        # 60 trials.  Adaptive [16,32,64,128] decides after 16.
        assert even.payload.trials == 60
        assert adaptive.payload.trials == 16
        assert adaptive.payload.trials < even.payload.trials

        def executed(events):
            return sum(e.work for e in events if e.event == "shard")

        assert executed(adaptive_events) < executed(even_events)
        # Both still report the full campaign weight (skipped
        # remainder rides on the cell event).
        assert sum(e.work for e in even_events) == 240
        assert sum(e.work for e in adaptive_events) == 240

    def test_early_stop_off_keeps_full_budget(self, full):
        result = CampaignRunner(
            max_shards_per_cell=8
        ).run([self.SPEC]).cells[0]
        assert not result.early_stopped
        assert result.payload == full.payload

    def test_whole_cell_units_never_stop_early(self, full):
        """Unsharded cells have no partials to rule on."""
        result = CampaignRunner(early_stop=True).run([self.SPEC]).cells[0]
        assert not result.early_stopped
        assert result.payload == full.payload

    def test_restored_prefix_can_decide_before_dispatch(self, tmp_path):
        """Cached shard partials from an interrupted run are enough to
        stop a cell without dispatching any new unit."""
        cache_dir = str(tmp_path / "cache")
        events = []
        # Seed the cache with the first two shards (the deciding
        # prefix) by running them through a throwaway runner.
        runner = CampaignRunner(
            cache_dir=cache_dir, max_shards_per_cell=8,
            early_stop=True,
        )
        first = runner.run([self.SPEC]).cells[0]
        assert first.early_stopped
        # Wipe the whole-cell entry but re-create the shard partials,
        # simulating a crash after two shards.
        cache = ResultCache(cache_dir)
        plan = CampaignRunner(
            max_shards_per_cell=8
        )._shard_plan(self.SPEC)
        from repro.campaigns import get_experiment

        kind = get_experiment("prime_probe")
        os.unlink(cache._path(self.SPEC))
        for shard in list(plan)[:2]:
            cache.put_shard(
                self.SPEC, shard, kind.run_shard(self.SPEC, shard)
            )
        resumed = CampaignRunner(
            cache_dir=cache_dir, max_shards_per_cell=8,
            early_stop=True, progress=events.append,
        ).run([self.SPEC]).cells[0]
        assert resumed.early_stopped
        assert resumed.payload == first.payload
        # Both shards were restores; nothing was computed fresh.
        assert all(
            e.from_cache for e in events if e.event == "shard"
        )


class TestMultiHostIdentity:
    """Regression: supervisor- and dispatcher-generated worker ids
    were minted from pids alone (``elastic-{pid}-{seq}``,
    ``spawned-{pid}-{index}``), so two hosts sharing one queue
    directory or coordinator collided the moment their pids matched —
    heartbeat, log and retirement-sentinel files clobbered each
    other.  Every generated id now carries the host label."""

    def _fake_spawn(self, spawned):
        def fake(worker_args, worker_id, poll_interval, log_dir):
            spawned.append(worker_id)
            return _FakeProc(), os.path.join(log_dir, worker_id + ".log")

        return fake

    def test_elastic_ids_do_not_collide_across_hosts(
        self, tmp_path, monkeypatch
    ):
        spawned = []
        monkeypatch.setattr(
            wq, "_spawn_worker_process", self._fake_spawn(spawned)
        )
        ids = {}
        for host in ("alpha", "beta"):
            monkeypatch.setattr(wq, "_host_label", lambda h=host: h)
            supervisor = ElasticSupervisor(
                str(tmp_path), min_workers=1, max_workers=1
            )
            supervisor.tick()
            ids[host] = spawned[-1]
            # The host label flows into the fleet view too.
            assert supervisor.workers_by_host() == {host: 1}
        # Same pid, same sequence number, different hosts: the ids
        # must still differ, and each must carry its host.
        assert ids["alpha"] != ids["beta"]
        assert ids["alpha"].startswith(f"elastic-alpha-{os.getpid()}-")
        assert ids["beta"].startswith(f"elastic-beta-{os.getpid()}-")

    def test_spawned_pool_ids_host_qualified(self, tmp_path, monkeypatch):
        spawned = []
        monkeypatch.setattr(
            wq, "_spawn_worker_process", self._fake_spawn(spawned)
        )
        monkeypatch.setattr(wq, "_host_label", lambda: "gamma")
        backend = WorkQueueBackend(str(tmp_path), spawn_workers=2)
        backend.close()
        assert len(spawned) == 2
        assert all(
            worker_id.startswith(f"spawned-gamma-{os.getpid()}-")
            for worker_id in spawned
        )


class TestReleaseLeaseRace:
    """Fault injection for the read-then-unlink race in lease release:
    between a slow predecessor reading the owner and removing the
    file, an expiry re-enqueue plus a successor claim (and ownership
    stamp) can land — the release must never destroy that successor's
    live lease."""

    def test_successor_stamp_during_release_survives(
        self, tmp_path, monkeypatch
    ):
        """The lease is re-written by its new owner *while* the
        predecessor's release is verifying its captured copy: the
        fresh lease wins, the stale capture is dropped."""
        lease = tmp_path / "u.json"
        lease.write_text(json.dumps({"worker": "w2"}))
        fresh_doc = {"worker": "w2", "attempt": 2, "stamped": "late"}
        real_load = json.load

        def load_and_interleave(handle):
            doc = real_load(handle)
            # The successor stamps its ownership right in the window
            # between capture and verification.
            lease.write_text(json.dumps(fresh_doc))
            return doc

        monkeypatch.setattr(wq.json, "load", load_and_interleave)
        wq._release_lease(str(lease), "w1")
        # The successor's freshly-stamped lease is intact — not
        # clobbered by the captured pre-stamp copy...
        assert json.loads(lease.read_text()) == fresh_doc
        # ...and the tombstone did not linger as litter.
        assert list(tmp_path.iterdir()) == [lease]

    def test_unstamped_successor_claim_restored(self, tmp_path):
        """A successor claim that has not stamped ownership yet (the
        doc carries no worker) is not provably the predecessor's —
        the release must restore it untouched."""
        lease = tmp_path / "u.json"
        lease.write_text(json.dumps({"attempt": 2}))
        wq._release_lease(str(lease), "w1")
        assert json.loads(lease.read_text()) == {"attempt": 2}
        assert list(tmp_path.iterdir()) == [lease]

    def test_torn_capture_restored_not_released(self, tmp_path):
        """A capture that cannot be parsed (torn write) is treated as
        not-provably-ours and restored."""
        lease = tmp_path / "u.json"
        lease.write_text("{not json")
        wq._release_lease(str(lease), "w1")
        assert lease.read_text() == "{not json"
        assert list(tmp_path.iterdir()) == [lease]


class TestCorruptResultQuarantine:
    """Regression: a truncated/corrupt result document was treated as
    silently absent — the dispatcher re-parsed and re-failed it on
    every poll forever.  It is now quarantined to ``corrupt/`` and the
    unit re-enqueued, counting against ``max_attempts``."""

    def _submit_and_corrupt(self, tmp_path, backend):
        unit = WorkUnit(
            unit_id="u1", spec=timing_spec(num_samples=64)
        )
        backend.submit(unit)
        # A worker claims the unit, then its result write tears.
        assert wq._claim_next(str(tmp_path)) == "u1"
        (tmp_path / RESULTS_DIR / "u1.pkl").write_bytes(
            b"\x80\x04 definitely not a pickle"
        )
        return unit

    def test_quarantined_and_retried(self, tmp_path):
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=60.0, idle_timeout=30.0,
            poll_interval=0.05,
        )
        self._submit_and_corrupt(tmp_path, backend)
        worker = threading.Thread(
            target=run_worker_once, args=(str(tmp_path),),
            kwargs={"max_idle": 10.0}, daemon=True,
        )
        worker.start()
        try:
            results = list(backend.completions())
        finally:
            backend.store.set_stop(True)
            backend.close()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert len(results) == 1
        assert results[0].attempts == 2
        quarantined = os.listdir(tmp_path / "corrupt")
        assert len(quarantined) == 1
        assert quarantined[0].startswith("u1.pkl")
        # The evidence is preserved verbatim.
        assert (tmp_path / "corrupt" / quarantined[0]).read_bytes() \
            == b"\x80\x04 definitely not a pickle"

    def test_attempt_budget_bounds_the_retries(self, tmp_path):
        backend = WorkQueueBackend(
            str(tmp_path), lease_timeout=60.0, idle_timeout=30.0,
            poll_interval=0.05, max_attempts=1,
        )
        self._submit_and_corrupt(tmp_path, backend)
        with pytest.raises(RuntimeError, match="budget is exhausted"):
            list(backend.completions())
        backend.close()
