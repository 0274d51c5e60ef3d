"""Tests for repro.backends.coordinator: the HTTP work-queue transport.

The invariants under test: (1) campaign payloads dispatched through a
coordinator are bit-identical to the serial path; (2) the fault model
holds over the network — a SIGKILLed-and-restarted coordinator resumes
mid-campaign, a worker dying mid-upload writes nothing, a duplicate
result post from a slow-but-alive predecessor is detected by attempt
id and dropped, and client backoff honors its cap and budget against a
refused port.
"""

import json
import os
import pickle
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error

import pytest

from repro.backends import (
    CoordinatorClient,
    CoordinatorServer,
    ElasticSupervisor,
    HttpQueueBackend,
    WorkUnit,
    worker_loop_http,
)
from repro.backends import coordinator as coord_mod
from repro.backends import workqueue as wq
from repro.backends.workqueue import (
    CORRUPT_DIR,
    LEASES_DIR,
    RESULTS_DIR,
    TASKS_DIR,
    _lease_path,
    _result_path,
    _task_path,
)
from repro.campaigns import CampaignRunner, ExperimentSpec
from repro.common.fsio import atomic_write_bytes

from conftest import sums_bytes


def bernstein_spec(num_samples=4096, setup="deterministic", seed=9):
    return ExperimentSpec(
        kind="bernstein", setup=setup,
        num_samples=num_samples, seed=seed,
    )


@pytest.fixture
def server(tmp_path):
    queue_dir = str(tmp_path / "queue")
    with CoordinatorServer(queue_dir) as srv:
        yield srv


def make_client(server, **kwargs):
    kwargs.setdefault("retry_timeout", 5.0)
    return CoordinatorClient(server.url, **kwargs)


def submit_unit(client, unit, attempt=1, heartbeat=5.0):
    doc = unit.to_doc()
    doc["attempt"] = attempt
    doc["heartbeat"] = heartbeat
    status, _ = client.request_json("POST", "/submit", json_body=doc)
    assert status == 200
    return doc


def claim(client, worker="w", host="testhost"):
    status, answer = client.request_json(
        "POST", "/claim", json_body={"worker": worker, "host": host}
    )
    assert status == 200
    return answer


def post_result(client, unit_id, worker, attempt, result_doc):
    status, answer = client.request_json(
        "POST", f"/result/{unit_id}",
        data=pickle.dumps(result_doc),
        headers={
            "X-Repro-Worker": worker,
            "X-Repro-Attempt": str(attempt),
        },
    )
    assert status == 200
    return answer


def http_worker_thread(url, **kwargs):
    """A real worker loop on a thread (cheap on one CPU, and its
    client rides through coordinator restarts like a remote host's)."""
    kwargs.setdefault("max_idle", 30.0)
    kwargs.setdefault("poll_interval", 0.05)
    kwargs.setdefault("echo", False)
    thread = threading.Thread(
        target=worker_loop_http, args=(url,), kwargs=kwargs, daemon=True
    )
    thread.start()
    return thread


class TestWireProtocol:
    """The raw endpoint lifecycle against an in-thread coordinator."""

    def test_retried_claim_gets_the_same_unit(self, server):
        """A ``POST /claim`` retried with the same claim id (its first
        answer was lost) gets the unit the first try stamped."""
        client = make_client(server)
        for unit_id in ("u1", "u2"):
            submit_unit(client, WorkUnit(
                unit_id=unit_id, spec=bernstein_spec(num_samples=64)
            ))
        body = {"worker": "w1", "host": "testhost", "claim": "c1"}
        first = client.request_json("POST", "/claim", json_body=body)[1]
        retry = client.request_json("POST", "/claim", json_body=body)[1]
        assert first["unit"]["unit_id"] == retry["unit"]["unit_id"]
        assert claim(client, worker="w1")["unit"]["unit_id"] != \
            first["unit"]["unit_id"]

    def test_submit_claim_result_roundtrip(self, server):
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        submit_unit(client, unit)

        answer = claim(client, worker="w1")
        doc = answer["unit"]
        assert not answer["stop"] and not answer["retire"]
        assert doc["unit_id"] == "u1"
        # Ownership is stamped before the doc leaves the coordinator.
        assert doc["worker"] == "w1"
        assert doc["host"] == "testhost"

        status, _ = client.request_json(
            "PUT", "/heartbeat/u1", json_body={"worker": "w1"}
        )
        assert status == 200

        answer = post_result(
            client, "u1", "w1", 1,
            {"ok": True, "payload": 42, "elapsed": 0.1,
             "worker": "w1", "attempt": 1},
        )
        assert answer["accepted"]
        # Publishing released the lease.
        assert not os.path.exists(
            _lease_path(server.state.queue_dir, "u1")
        )

        status, poll = client.request_json(
            "POST", "/poll",
            json_body={"unit_ids": ["u1"], "cancelled": []},
        )
        assert status == 200
        assert poll["ready"] == ["u1"]

        status, body = client.request("GET", "/result/u1")
        assert status == 200
        assert pickle.loads(body)["payload"] == 42
        status, answer = client.request_json("DELETE", "/result/u1")
        assert status == 200 and answer["removed"]
        status, _ = client.request("GET", "/result/u1")
        assert status == 404

    def test_stop_sentinel_round_trip(self, server):
        client = make_client(server)
        status, _ = client.request_json("POST", "/stop")
        assert status == 200
        assert claim(client, worker="w1")["stop"]
        status, _ = client.request_json("DELETE", "/stop")
        assert status == 200
        assert not claim(client, worker="w1")["stop"]

    def test_retire_sentinel_drains_one_worker(self, server):
        client = make_client(server)
        queue_dir = server.state.queue_dir
        from repro.backends.workqueue import _worker_stop_path

        atomic_write_bytes(_worker_stop_path(queue_dir, "w1"), b"")
        assert claim(client, worker="w1")["retire"]
        # The sentinel (and heartbeat litter) are consumed with the
        # retirement verdict.
        assert not os.path.exists(_worker_stop_path(queue_dir, "w1"))
        assert not claim(client, worker="w2")["retire"]

    def test_unknown_route_is_404(self, server):
        client = make_client(server)
        status, _ = client.request_json("GET", "/nonsense")
        assert status == 404

    def test_campaign_routes_are_gone(self, server):
        client = make_client(server)
        for method, path in (("POST", "/campaigns"),
                             ("GET", "/campaigns"),
                             ("GET", "/campaigns/x/result"),
                             ("DELETE", "/campaigns/x")):
            status, doc = client.request_json(method, path, json_body={})
            assert status == 404
            assert doc["error"] == f"no route {path}"

    def test_stats_reports_fleet_by_host(self, server):
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        submit_unit(client, unit)
        claim(client, worker="w1", host="alpha")
        claim(client, worker="w2", host="beta")  # idle: no unit left
        status, stats = client.request_json("GET", "/stats")
        assert status == 200
        assert len(stats["leases"]) == 1 and stats["tasks"] == 0
        # w1 shows through its stamped lease, w2 through its fresh
        # idle heartbeat.
        assert stats["workers_by_host"] == {"alpha": 1, "beta": 1}


class TestIdempotentResultPosts:
    """Duplicate/stale posts are detected by attempt id and dropped."""

    def _claimed_unit(self, server, client):
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        submit_unit(client, unit)
        doc = claim(client, worker="w1")["unit"]
        return unit, doc

    def test_duplicate_post_after_result_landed(self, server):
        client = make_client(server)
        self._claimed_unit(server, client)
        first = post_result(client, "u1", "w1", 1, {"ok": True})
        dup = post_result(client, "u1", "w1", 1, {"ok": True})
        assert first["accepted"] and not dup["accepted"]

    def test_stale_attempt_dropped_and_successor_lease_intact(
        self, server
    ):
        """The re-enqueued-but-alive predecessor: its late post must
        neither land nor disturb the successor's live lease."""
        client = make_client(server)
        unit, doc = self._claimed_unit(server, client)
        # Dispatcher expires the lease and re-enqueues attempt 2…
        requeue_doc = dict(doc, attempt=2)
        status, answer = client.request_json(
            "POST", "/requeue/u1", json_body=requeue_doc
        )
        assert status == 200 and answer["requeued"]
        # …and a successor claims it.
        doc2 = claim(client, worker="w2")["unit"]
        assert doc2["attempt"] == 2 and doc2["worker"] == "w2"
        # The slow predecessor now posts its attempt-1 result: dropped.
        late = post_result(client, "u1", "w1", 1, {"ok": True})
        assert not late["accepted"]
        queue_dir = server.state.queue_dir
        assert not os.path.exists(_result_path(queue_dir, "u1"))
        with open(_lease_path(queue_dir, "u1")) as handle:
            lease = json.load(handle)
        assert lease["worker"] == "w2"
        # The predecessor's heartbeat is refused too.
        status, _ = client.request_json(
            "PUT", "/heartbeat/u1", json_body={"worker": "w1"}
        )
        assert status == 410
        # The successor's own post is the one that lands.
        accepted = post_result(client, "u1", "w2", 2, {"ok": True})
        assert accepted["accepted"]

    def test_post_for_cancelled_unit_dropped(self, server):
        client = make_client(server)
        self._claimed_unit(server, client)
        status, _ = client.request_json(
            "POST", "/cancel", json_body={"unit_ids": ["u1"]}
        )
        assert status == 200
        answer = post_result(client, "u1", "w1", 1, {"ok": True})
        assert not answer["accepted"]
        assert not os.path.exists(
            _result_path(server.state.queue_dir, "u1")
        )

    def test_requeue_refused_when_result_landed(self, server):
        """Collect-before-requeue over the wire: the coordinator
        refuses to burn an attempt when the slow worker finished."""
        client = make_client(server)
        unit, doc = self._claimed_unit(server, client)
        post_result(client, "u1", "w1", 1, {"ok": True})
        status, answer = client.request_json(
            "POST", "/requeue/u1", json_body=dict(doc, attempt=2)
        )
        assert status == 200
        assert not answer["requeued"] and answer["has_result"]


class TestWorkerDeathMidUpload:
    def test_truncated_post_writes_nothing(self, server):
        """A result POST whose connection dies before Content-Length
        bytes arrived must leave no result file — the unit stays
        claimable through normal lease expiry."""
        client = make_client(server)
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        submit_unit(client, unit)
        claim(client, worker="w1")

        host, port = "127.0.0.1", server.port
        payload = pickle.dumps({"ok": True, "payload": 1})
        head = (
            "POST /result/u1 HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "X-Repro-Worker: w1\r\nX-Repro-Attempt: 1\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=5.0) as conn:
            # Send the head and only half the body, then die.
            conn.sendall(head + payload[: len(payload) // 2])
        deadline = time.monotonic() + 5.0
        queue_dir = server.state.queue_dir
        while time.monotonic() < deadline:
            # Wait until the handler has certainly seen the EOF.
            with server.state.lock:
                pass
            time.sleep(0.05)
            if not os.path.exists(_result_path(queue_dir, "u1")):
                break
        assert not os.path.exists(_result_path(queue_dir, "u1"))
        # The lease survives; a healthy retry of the post completes
        # the unit normally.
        assert os.path.exists(_lease_path(queue_dir, "u1"))
        answer = post_result(client, "u1", "w1", 1, {"ok": True})
        assert answer["accepted"]


class TestClientBackoff:
    def test_backoff_caps_and_budget_on_refused_port(self):
        # A port that is certainly closed right now.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        now = [0.0]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            now[0] += seconds

        client = CoordinatorClient(
            f"http://127.0.0.1:{port}",
            retry_timeout=30.0,
            backoff_base=0.1,
            backoff_cap=2.0,
            sleep=fake_sleep,
            clock=lambda: now[0],
            rng=random.Random(7),
        )
        with pytest.raises(urllib.error.URLError):
            client.request("GET", "/stats")
        assert sleeps, "refused port produced no retries"
        # Every delay honors the cap (jitter included).
        assert all(delay <= 2.0 for delay in sleeps)
        # Growth actually reaches cap territory before the budget ends.
        assert max(sleeps) > 1.0
        # The retry loop gave up once the budget elapsed, not later.
        assert sum(sleeps) <= 30.0 + 2.0
        assert sum(sleeps) >= 30.0 - 2.0

    def test_no_retry_mode_raises_immediately(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = CoordinatorClient(
            f"http://127.0.0.1:{port}", sleep=sleeps.append
        )
        with pytest.raises(urllib.error.URLError):
            client.request("GET", "/stats", retry=False)
        assert sleeps == []

    def test_http_status_is_an_answer_not_a_retry(self, server):
        sleeps = []
        client = CoordinatorClient(server.url, sleep=sleeps.append)
        status, _ = client.request("GET", "/nonsense")
        assert status == 404
        assert sleeps == []


class TestHttpBackendCampaign:
    """The dispatcher-side backend against a live coordinator."""

    @pytest.fixture(scope="class")
    def serial(self):
        return CampaignRunner(max_shards_per_cell=3).run(
            [bernstein_spec()]
        )

    def test_sharded_campaign_bit_identical_to_serial(
        self, server, serial
    ):
        worker = http_worker_thread(server.url)
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=3, backend=backend
            ).run([bernstein_spec()])
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert sums_bytes(result.cells[0].payload) == sums_bytes(
            serial.cells[0].payload
        )
        # Nothing left behind in any lifecycle directory.
        queue_dir = server.state.queue_dir
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(os.path.join(queue_dir, sub)) == []

    def test_early_stop_contention_same_verdict_as_serial(self, server):
        """An early-stop contention cell over HTTP: same verdict as
        serial, and cancelled units leave no litter."""
        spec = ExperimentSpec(
            kind="prime_probe", setup="deterministic",
            num_samples=64, seed=2018,
        )
        full = CampaignRunner().run([spec]).cells[0]
        worker = http_worker_thread(server.url)
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=8, early_stop=True, backend=backend,
            ).run([spec]).cells[0]
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert result.payload.trials <= 64
        assert result.payload.leaks == full.payload.leaks
        queue_dir = server.state.queue_dir
        for sub in (TASKS_DIR, LEASES_DIR, RESULTS_DIR):
            assert os.listdir(os.path.join(queue_dir, sub)) == []

    def test_expired_lease_requeues_and_counts_attempts(self, server):
        """A worker that claims and dies: the lease goes stale, the
        backend re-enqueues over HTTP, and a healthy worker's retry
        reports attempts=2."""
        client = make_client(server)
        backend = HttpQueueBackend(
            server.url, lease_timeout=0.5, idle_timeout=60.0,
            poll_interval=0.05,
        )
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        backend.submit(unit)
        # A claimant that never heartbeats again (died mid-unit).
        assert claim(client, worker="dead")["unit"] is not None
        time.sleep(0.8)
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            results = list(backend.completions())
        finally:
            backend.close()
            client.request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert len(results) == 1
        assert results[0].attempts == 2

    def test_attempt_budget_exhaustion_raises(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=0.3, idle_timeout=60.0,
            poll_interval=0.05, max_attempts=1,
        )
        client = make_client(server)
        backend.submit(
            WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        )
        assert claim(client, worker="dead")["unit"] is not None
        time.sleep(0.6)
        with pytest.raises(RuntimeError, match="attempt budget"):
            list(backend.completions())
        backend.close()

    def test_corrupt_result_quarantined_and_retried(self, server):
        """A torn result on the coordinator's queue disk: quarantined
        to corrupt/, the unit re-enqueued, the retry collected."""
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        queue_dir = server.state.queue_dir
        unit = WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        backend.submit(unit)
        # A corrupt result appears (torn write) with no live claim.
        atomic_write_bytes(
            _result_path(queue_dir, "u1"), b"\x80\x04 not a pickle"
        )
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            results = list(backend.completions())
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert len(results) == 1
        assert results[0].attempts == 2
        corrupt = os.listdir(os.path.join(queue_dir, CORRUPT_DIR))
        assert len(corrupt) == 1 and corrupt[0].startswith("u1.pkl")

    def test_worker_error_raises_with_traceback(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        client = make_client(server)
        backend.submit(
            WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        )
        claim(client, worker="w1")
        post_result(
            client, "u1", "w1", 1,
            {"ok": False, "error": "Traceback: boom", "worker": "w1",
             "attempt": 1},
        )
        with pytest.raises(RuntimeError, match="boom"):
            list(backend.completions())
        backend.close()

    def test_cancel_units_sweeps_straggler_results(self, server):
        backend = HttpQueueBackend(
            server.url, lease_timeout=60.0, idle_timeout=60.0,
            poll_interval=0.05,
        )
        client = make_client(server)
        queue_dir = server.state.queue_dir
        for unit_id in ("kept", "gone"):
            backend.submit(
                WorkUnit(unit_id=unit_id,
                         spec=bernstein_spec(num_samples=64,
                                             seed=hash(unit_id) % 97))
            )
        # "gone" is claimed, then cancelled mid-flight.
        claimed = claim(client, worker="w1")["unit"]
        backend.cancel_units([claimed["unit_id"]])
        # The straggler publishes anyway (the coordinator has no doc
        # for it any more, so the post is dropped)…
        late = post_result(
            client, claimed["unit_id"], "w1", 1, {"ok": True}
        )
        assert not late["accepted"]
        # …and the surviving unit completes normally.
        worker = http_worker_thread(server.url, max_idle=15.0)
        try:
            done = [r.unit.unit_id for r in backend.completions()]
        finally:
            backend.close()
            client.request_json("POST", "/stop")
            worker.join(timeout=30.0)
        assert done == [
            uid for uid in ("kept", "gone")
            if uid != claimed["unit_id"]
        ]
        assert os.listdir(os.path.join(queue_dir, RESULTS_DIR)) == []


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _start_coordinator_process(queue_dir, port, *extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "coordinator",
            "--queue-dir", queue_dir,
            "--port", str(port), "--host", "127.0.0.1", "--quiet",
            *extra_args,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        # Its own process group, so a test can kill the coordinator
        # together with any pool worker forked from it.
        start_new_session=True,
    )


def _wait_serving(url, timeout=30.0):
    client = CoordinatorClient(url, retry_timeout=timeout)
    status, _ = client.request_json("GET", "/stats")
    assert status == 200


class TestCoordinatorCrashRestart:
    def test_sigkill_and_restart_resumes_bit_identically(self, tmp_path):
        """The acceptance fault drill: SIGKILL the coordinator process
        mid-campaign, restart it on the same queue directory and port,
        and the campaign completes with payloads byte-identical to
        serial — clients and workers ride the outage on their retry
        budgets, and no unit is lost or duplicated."""
        spec = bernstein_spec()
        serial = CampaignRunner(max_shards_per_cell=4).run([spec])

        queue_dir = str(tmp_path / "queue")
        port = _free_port()
        url = f"http://127.0.0.1:{port}"
        coordinator = _start_coordinator_process(queue_dir, port)
        replacement = []
        try:
            _wait_serving(url)
            worker = http_worker_thread(
                url, max_idle=60.0, retry_timeout=120.0
            )
            backend = HttpQueueBackend(
                url, lease_timeout=120.0, idle_timeout=120.0,
                poll_interval=0.05, retry_timeout=120.0,
            )

            killed = []

            def progress(event):
                if killed or getattr(event, "event", "") != "shard":
                    return
                killed.append(True)
                # SIGKILL: no shutdown hooks, no flushes — the only
                # durable state is the queue directory.
                os.kill(coordinator.pid, signal.SIGKILL)
                coordinator.wait(timeout=10.0)
                replacement.append(
                    _start_coordinator_process(queue_dir, port)
                )

            try:
                result = CampaignRunner(
                    max_shards_per_cell=4, backend=backend,
                    progress=progress,
                ).run([spec])
            finally:
                backend.close()
                CoordinatorClient(url, retry_timeout=10.0).request_json(
                    "POST", "/stop"
                )
                worker.join(timeout=60.0)
            assert killed, "campaign finished before the kill fired"
            assert sums_bytes(result.cells[0].payload) == sums_bytes(
                serial.cells[0].payload
            )
        finally:
            for proc in [coordinator] + replacement:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)


class TestCoordinatorInterrupt:
    def test_sigint_drains_elastic_pool_promptly(self, tmp_path):
        """SIGINT stops ``repro coordinator --max-workers``: its forked
        workers see the stop sentinel over HTTP and exit cleanly, then
        the sentinel is cleared so a restart on the same queue dir
        still serves (no wait for the 10 s terminate deadline)."""
        queue_dir = str(tmp_path / "queue")
        port = _free_port()
        coordinator = _start_coordinator_process(
            queue_dir, port, "--max-workers", "1"
        )
        log_dir = os.path.join(queue_dir, "workers")

        def worker_logs():
            if not os.path.isdir(log_dir):
                return ""
            text = ""
            for name in sorted(os.listdir(log_dir)):
                if name.endswith(".log"):
                    with open(os.path.join(log_dir, name)) as handle:
                        text += handle.read()
            return text

        try:
            deadline = time.monotonic() + 30.0
            while "serving" not in worker_logs():
                assert time.monotonic() < deadline, "no worker started"
                assert coordinator.poll() is None
                time.sleep(0.02)
            start = time.monotonic()
            coordinator.send_signal(signal.SIGINT)
            assert coordinator.wait(timeout=3.0) == 0
            assert time.monotonic() - start < 3.0
            assert "exiting after 0 unit(s)" in worker_logs()
            assert not os.path.exists(wq._stop_path(queue_dir))
        finally:
            # Kill the whole group: a failed drain must not orphan the
            # pool worker forked from the coordinator.
            try:
                os.killpg(coordinator.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            coordinator.wait(timeout=10.0)


class TestClaimCutShortByRestart:
    """A coordinator killed between a claim's rename and its ownership
    stamp leaves a lease no worker knows about; its replacement must
    hand the unit out again instead of waiting out the lease timeout."""

    def test_restart_requeues_unstamped_lease(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        store = wq.DirectoryQueueStore(queue_dir)
        store.submit({"unit_id": "owned", "attempt": 1})
        assert store.claim("w1", "h")["unit"]["unit_id"] == "owned"
        store.submit({"unit_id": "cut", "attempt": 1})
        assert wq._claim_next(queue_dir) == "cut"  # killed: no stamp
        state = coord_mod.CoordinatorState(queue_dir)
        assert os.path.exists(_task_path(queue_dir, "cut"))
        assert not os.path.exists(_lease_path(queue_dir, "cut"))
        # A stamped lease belongs to a worker that got its answer.
        assert os.path.exists(_lease_path(queue_dir, "owned"))
        unit = state.claim("w2", "h")["unit"]
        assert (unit["unit_id"], unit["attempt"]) == ("cut", 1)


class _FakeProc:
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


class TestCoordinatorWorkerLauncher:
    """An ElasticSupervisor next to the coordinator, given
    ``worker_args=("--coordinator", url)``, spawns HTTP workers and
    aggregates fleet stats per host."""

    def test_supervisor_spawns_http_workers_with_host_ids(
        self, tmp_path, monkeypatch
    ):
        launched = []

        def fake_spawn(worker_args, worker_id, poll_interval, log_dir):
            launched.append((worker_args, worker_id))
            return _FakeProc(), os.path.join(log_dir, worker_id + ".log")

        monkeypatch.setattr(wq, "_spawn_worker_process", fake_spawn)
        supervisor = ElasticSupervisor(
            str(tmp_path / "queue"),
            min_workers=2, max_workers=2,
            worker_args=("--coordinator", "http://example:8642"),
        )
        supervisor.tick()
        assert len(launched) == 2
        assert all(
            args == ("--coordinator", "http://example:8642")
            for args, _ in launched
        )
        # Ids are host-qualified through the supervisor's host label.
        assert all(
            worker_id.startswith(f"elastic-{supervisor.host}-")
            for _, worker_id in launched
        )
        assert supervisor.workers_by_host() == {supervisor.host: 2}
        supervisor.shutdown(timeout=1.0)

    def test_real_elastic_pool_drains_http_campaign(self, server):
        """End to end on real subprocesses: a supervisor-launched
        ``repro worker --coordinator`` pool serves a sharded cell."""
        queue_dir = server.state.queue_dir
        supervisor = ElasticSupervisor(
            queue_dir,
            min_workers=1, max_workers=1, worker_poll=0.05,
            worker_args=("--coordinator", server.url),
        ).start()
        backend = HttpQueueBackend(
            server.url, lease_timeout=120.0, idle_timeout=120.0,
            poll_interval=0.05,
        )
        try:
            result = CampaignRunner(
                max_shards_per_cell=2, backend=backend
            ).run([bernstein_spec()])
        finally:
            backend.close()
            make_client(server).request_json("POST", "/stop")
            supervisor.shutdown()
        reference = CampaignRunner(max_shards_per_cell=2).run(
            [bernstein_spec()]
        )
        assert sums_bytes(result.cells[0].payload) == sums_bytes(
            reference.cells[0].payload
        )


class TestOneStateMachine:
    """The dispatcher's fault rules are written once, over either
    store, so both transports journal the same chains."""

    @pytest.fixture(params=["directory", "http"])
    def make_backend(self, request, tmp_path):
        from repro.backends import WorkQueueBackend

        if request.param == "directory":
            yield lambda **kw: WorkQueueBackend(
                str(tmp_path / "queue"), **kw
            )
            return
        with CoordinatorServer(str(tmp_path / "queue")) as srv:
            yield lambda **kw: HttpQueueBackend(srv.url, **kw)

    def test_expiry_chain_and_final_expiry_before_budget_error(
        self, make_backend
    ):
        """A worker that claims every attempt and dies: gap → expiry →
        requeue for attempt 1, then gap → expiry before the budget
        error — the final ``lease_expired`` used to be missing over
        HTTP, leaving ``repro trace`` nothing to narrate."""
        from repro.telemetry.sink import RecordingSink

        sink = RecordingSink()
        backend = make_backend(
            lease_timeout=0.6, poll_interval=0.02, max_attempts=2,
            idle_timeout=30.0, telemetry=sink,
        )
        backend.submit(
            WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
        )
        stop = threading.Event()

        def dying_worker():
            # Claims each attempt, then never heartbeats or posts.
            while not stop.is_set():
                backend.store.claim("dead", "testhost")
                time.sleep(0.01)

        thread = threading.Thread(target=dying_worker, daemon=True)
        thread.start()
        try:
            with pytest.raises(RuntimeError, match="budget is exhausted"):
                list(backend.completions())
        finally:
            stop.set()
            thread.join(timeout=10.0)
            backend.close()
        assert not thread.is_alive()
        chain = [
            (event["type"], event["attempt"]) for event in sink.events
            if event["type"] in ("heartbeat_gap", "lease_expired",
                                 "requeue")
        ]
        assert chain == [
            ("heartbeat_gap", 1), ("lease_expired", 1), ("requeue", 2),
            ("heartbeat_gap", 2), ("lease_expired", 2),
        ]


class TestPostResultReleaseRace:
    """Fault injection for the read-then-unlink release in
    ``CoordinatorState.post_result``: under ``repro serve`` the
    dispatcher and filesystem workers change the directory without the
    coordinator's lock, so an expiry requeue plus a successor claim can
    land between the post's attempt check and its lease release."""

    def test_successor_lease_survives_interleaved_requeue_and_claim(
        self, tmp_path, monkeypatch
    ):
        state = coord_mod.CoordinatorState(str(tmp_path / "queue"))
        doc = dict(
            WorkUnit(unit_id="u1", spec=bernstein_spec(num_samples=64))
            .to_doc(),
            attempt=1, heartbeat=5.0,
        )
        state.submit(doc)
        assert state.claim("w1", "testhost")["unit"]["worker"] == "w1"
        real_write = wq.atomic_write_bytes
        interleaved = []

        def write_and_interleave(path, data):
            if path.endswith(".pkl") and not interleaved:
                interleaved.append(path)
                # The dispatcher expires w1's lease and re-enqueues
                # attempt 2, and successor w2 claims it — all after
                # w1's post passed its attempt check.
                assert state.requeue(
                    "u1", dict(doc, attempt=2), quarantine=False
                )["requeued"]
                assert state.claim("w2", "testhost")["unit"]["attempt"] \
                    == 2
            real_write(path, data)

        monkeypatch.setattr(wq, "atomic_write_bytes", write_and_interleave)
        assert state.post_result("u1", "w1", 1, pickle.dumps({"ok": True}))
        assert interleaved
        # The successor's live lease is intact, not unlinked by w1's
        # release, and no tombstone lingers.
        with open(_lease_path(state.queue_dir, "u1")) as handle:
            assert json.load(handle)["worker"] == "w2"
        assert os.listdir(os.path.join(state.queue_dir, LEASES_DIR)) \
            == ["u1.json"]


class TestSpawnedWorkerLogDir:
    def test_log_dir_removed_at_close(self, server, monkeypatch):
        """Each HTTP backend with spawned workers made one
        ``repro-http-workers-*`` temp dir and nothing removed it."""
        launched = []

        def fake_spawn(worker_args, worker_id, poll_interval, log_dir):
            launched.append(worker_id)
            path = os.path.join(log_dir, worker_id + ".log")
            with open(path, "w") as handle:
                handle.write("log\n")
            return _FakeProc(), path

        monkeypatch.setattr(wq, "_spawn_worker_process", fake_spawn)
        backend = HttpQueueBackend(server.url, spawn_workers=2)
        log_dir = backend._log_dir
        assert len(launched) == 2
        assert os.path.isdir(log_dir)
        backend.close()
        assert not os.path.exists(log_dir)
