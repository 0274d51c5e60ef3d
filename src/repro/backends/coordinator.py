"""HTTP coordinator: the queue directory served over a network.

The directory store (:class:`~repro.backends.workqueue.DirectoryQueueStore`)
has the right crash semantics — atomic document writes, rename-based
claims, lease heartbeats, bounded re-enqueue — but it requires every
worker to *mount the directory*.  This module lifts exactly those
primitives onto HTTP so a fleet of hosts can drain one campaign with no
shared filesystem:

* :class:`CoordinatorServer` — a stdlib ``ThreadingHTTPServer`` whose
  handlers call the directory store's primitives (``POST /claim``,
  ``PUT /heartbeat/<unit>``, ``POST /result/<unit>``, ``GET /stats``,
  plus the dispatcher-side endpoints).  All state lives on disk in the
  same atomic queue layout, so a coordinator that is SIGKILLed and
  restarted on the same directory resumes the campaign mid-flight:
  leases keep aging, results stay collectable, nothing is re-run that
  already finished.
* :class:`HttpQueueStore` — the client side of those endpoints, one
  request per primitive.  The shared worker loop
  (:func:`worker_loop_http`) and dispatcher (:class:`HttpQueueBackend`)
  run over it with exactly the filesystem transport's fault rules.

Failure semantics
-----------------

* **Connection errors** (coordinator restarting, network blip): every
  client call retries with capped exponential backoff + jitter for up
  to ``retry_timeout`` seconds, so a coordinator bounce is invisible
  as long as it comes back within the budget.
* **Worker death mid-upload**: a result ``POST`` is accepted only
  when the request body arrives complete (exact ``Content-Length``
  bytes); a short read writes nothing, the lease goes stale, and the
  unit is re-enqueued like any other dead-worker case.
* **Duplicate result posts** are detected by the store's attempt
  check and dropped (see
  :meth:`~repro.backends.workqueue.DirectoryQueueStore.post_result`).

Everything here is standard library only.
"""

from __future__ import annotations

import http.client
import json
import os
import pickle
import random
import shutil
import socket
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.backends.workqueue import (
    LEASES_DIR,
    TASKS_DIR,
    DirectoryQueueStore,
    QueueBackend,
    _read_json,
    _serve_store,
)

DEFAULT_PORT = 8642


# -- coordinator (server) ----------------------------------------------------


class CoordinatorState(DirectoryQueueStore):
    """The handler-shared view of one queue directory: the directory
    store plus the lock and counters the HTTP surface needs.

    One global lock serializes every mutating operation.  The queue's
    file operations are individually atomic already; the lock buys the
    *compound* guarantees the HTTP surface promises — e.g. the
    result-post attempt check and the lease release happen as one
    step, and a ``/requeue`` cannot interleave with the result landing
    it is checking for.  (Filesystem workers and dispatchers sharing
    the directory under ``repro serve`` bypass the lock; the store's
    rename claims and tombstone releases keep them safe.)
    """

    def __init__(self, queue_dir: str, *, worker_fresh: float = 5.0) -> None:
        super().__init__(queue_dir)
        self.worker_fresh = worker_fresh
        self.lock = threading.Lock()
        #: Process-lifetime throughput counters behind ``GET
        #: /metrics``.  Deliberately *not* persisted: a restarted
        #: coordinator reports its own uptime and post count, so the
        #: throughput line always describes the serving process.
        self.started = time.time()
        self.results_posted = 0
        #: Optional :class:`~repro.service.scheduler.CampaignScheduler`
        #: behind the ``/campaigns`` routes (attached by ``repro
        #: serve``).  The scheduler has its own lock — campaign routes
        #: never take ``self.lock``, so a submission can never block a
        #: worker's claim/result round-trip.
        self.scheduler = None
        self._return_unstamped_leases()

    def _return_unstamped_leases(self) -> None:
        """Put leases that carry no owner back in ``tasks/``.

        A claim renames the task into ``leases/`` and then stamps its
        owner.  A coordinator killed in between leaves a lease that no
        worker was told about, which would sit until its lease timeout.
        The worker's retried claim cannot recognise it (its claim id
        is only in the stamp), so a starting coordinator re-enqueues
        it under the same attempt: the unit never ran.
        """
        leases_dir = os.path.join(self.queue_dir, LEASES_DIR)
        for name in sorted(os.listdir(leases_dir)):
            if not name.endswith(".json"):
                continue  # a release tombstone or a torn write's temp
            path = os.path.join(leases_dir, name)
            doc = _read_json(path)
            if doc is None or "worker" in doc:
                continue
            try:
                os.rename(
                    path, os.path.join(self.queue_dir, TASKS_DIR, name)
                )
            except OSError:
                pass  # stamped, released or re-enqueued meanwhile

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` fleet snapshot.

        The :meth:`stats` snapshot (per-lease ages, per-worker states,
        host counts) plus the serving process's uptime and result-post
        counter, so ``repro status --coordinator`` can print a
        throughput line without any filesystem access.
        """
        doc = {
            **self.stats(),
            "uptime": round(time.time() - self.started, 3),
            "results_posted": self.results_posted,
        }
        if self.scheduler is not None:
            # Per-tenant queue depth / in-flight / dedup hits — the
            # scheduler takes its own lock, never ``self.lock``.
            doc["service"] = self.scheduler.stats()
        return doc


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes the wire API onto :class:`CoordinatorState`."""

    # Keep-alive lets a worker reuse one connection across its whole
    # claim/heartbeat/post lifecycle.
    protocol_version = "HTTP/1.1"

    @property
    def state(self) -> CoordinatorState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the queue directory is the audit trail, not stderr

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, code: int, obj: Any) -> None:
        self._send(code, "application/json", json.dumps(obj).encode())

    def _send_bytes(self, code: int, body: bytes) -> None:
        self._send(code, "application/octet-stream", body)

    def _send(self, code: int, ctype: str, body: bytes) -> None:
        try:
            self.send_response(code)
            self.send_header("Content-Type", ctype)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            # The client died mid-response (worker crash, truncated
            # upload's broken socket): its retry will re-ask.
            self.close_connection = True

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None on a short read (client died
        mid-upload) or a missing Content-Length."""
        length = self.headers.get("Content-Length")
        if length is None:
            return None
        try:
            expected = int(length)
        except ValueError:
            return None
        body = b""
        try:
            while len(body) < expected:
                chunk = self.rfile.read(expected - len(body))
                if not chunk:
                    return None  # connection died before the end
                body += chunk
        except OSError:
            return None
        return body

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        body = self._read_body()
        if body is None:
            return None
        try:
            doc = json.loads(body)
        except ValueError:
            return None
        return doc if isinstance(doc, dict) else None

    def _route(self) -> Tuple[str, List[str]]:
        path = urllib.parse.urlsplit(self.path).path
        parts = [p for p in path.split("/") if p]
        return (parts[0] if parts else "", parts[1:])

    def _query(self) -> Dict[str, str]:
        raw = urllib.parse.urlsplit(self.path).query
        return {k: v[-1] for k, v in
                urllib.parse.parse_qs(raw).items()}

    # -- verbs ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        head, rest = self._route()
        state = self.state
        if head == "claim":
            doc = self._read_json_body()
            if doc is None or not doc.get("worker"):
                return self._send_json(400, {"error": "bad claim body"})
            with state.lock:
                out = state.claim(
                    str(doc["worker"]),
                    str(doc.get("host") or "external"),
                    str(doc["claim"]) if doc.get("claim") else None,
                )
            return self._send_json(200, out)
        if head == "result" and rest:
            worker = self.headers.get("X-Repro-Worker", "")
            body = self._read_body()
            try:
                attempt = int(self.headers.get("X-Repro-Attempt", ""))
            except ValueError:
                return self._send_json(
                    400, {"error": "missing/bad X-Repro-Attempt"}
                )
            if body is None:
                # Truncated upload: write nothing — the lease will go
                # stale and the unit re-enqueues.
                return self._send_json(400, {"error": "short body"})
            with state.lock:
                accepted = state.post_result(
                    rest[0], worker, attempt, body
                )
                if accepted:
                    state.results_posted += 1
            return self._send_json(200, {"accepted": accepted})
        if head == "submit":
            doc = self._read_json_body()
            if doc is None or "unit_id" not in doc:
                return self._send_json(400, {"error": "bad task doc"})
            with state.lock:
                state.submit(doc)
            return self._send_json(200, {"ok": True})
        if head == "poll":
            doc = self._read_json_body()
            if doc is None:
                return self._send_json(400, {"error": "bad poll body"})
            with state.lock:
                out = state.poll(
                    [str(u) for u in doc.get("unit_ids", [])],
                    [str(u) for u in doc.get("cancelled", [])],
                )
            return self._send_json(200, out)
        if head == "requeue" and rest:
            doc = self._read_json_body()
            if doc is None or "unit_id" not in doc:
                return self._send_json(400, {"error": "bad task doc"})
            quarantine = self._query().get("quarantine") == "1"
            with state.lock:
                out = state.requeue(rest[0], doc, quarantine)
            return self._send_json(200, out)
        if head == "cancel":
            doc = self._read_json_body()
            if doc is None:
                return self._send_json(400, {"error": "bad cancel body"})
            with state.lock:
                removed = state.cancel(
                    [str(u) for u in doc.get("unit_ids", [])]
                )
            return self._send_json(200, {"removed": removed})
        if head == "stop":
            with state.lock:
                state.set_stop(True)
            return self._send_json(200, {"ok": True})
        if head == "campaigns" and not rest:
            scheduler = state.scheduler
            if scheduler is None:
                return self._send_json(404, {
                    "error": "campaign scheduling is not enabled "
                             "(start the daemon with `repro serve`)"
                })
            doc = self._read_json_body()
            if doc is None:
                return self._send_json(400, {"error": "bad body"})
            try:
                campaign_id = scheduler.submit_doc(doc)
            except ValueError as exc:
                return self._send_json(400, {"error": str(exc)})
            except RuntimeError as exc:  # scheduler closed
                return self._send_json(503, {"error": str(exc)})
            return self._send_json(200, {"id": campaign_id})
        return self._send_json(404, {"error": f"no route {self.path}"})

    def do_PUT(self) -> None:  # noqa: N802
        head, rest = self._route()
        if head == "heartbeat" and rest:
            doc = self._read_json_body()
            if doc is None or not doc.get("worker"):
                return self._send_json(400, {"error": "bad body"})
            with self.state.lock:
                alive = self.state.heartbeat(
                    rest[0], str(doc["worker"])
                )
            if alive:
                return self._send_json(200, {"ok": True})
            # 410 Gone: the lease was re-enqueued/cancelled or belongs
            # to a successor — the worker must abort its publish.
            return self._send_json(410, {"ok": False})
        return self._send_json(404, {"error": f"no route {self.path}"})

    def do_GET(self) -> None:  # noqa: N802
        head, rest = self._route()
        if head == "result" and rest:
            with self.state.lock:
                body = self.state.read_result(rest[0])
            if body is None:
                return self._send_json(404, {"error": "no result"})
            return self._send_bytes(200, body)
        if head == "stats":
            with self.state.lock:
                return self._send_json(200, self.state.stats())
        if head == "metrics":
            with self.state.lock:
                return self._send_json(200, self.state.metrics())
        if head == "campaigns":
            scheduler = self.state.scheduler
            if scheduler is None:
                return self._send_json(
                    404, {"error": "campaign scheduling is not enabled"}
                )
            if not rest:
                return self._send_json(
                    200, {"campaigns": scheduler.list_campaigns()}
                )
            if len(rest) == 1:
                try:
                    after = int(self._query().get("after", "0"))
                except ValueError:
                    after = 0
                doc = scheduler.status_doc(rest[0], after=after)
                if doc is None:
                    return self._send_json(
                        404, {"error": f"no campaign {rest[0]!r}"}
                    )
                return self._send_json(200, doc)
            if len(rest) == 2 and rest[1] == "result":
                state_name, record = scheduler.result_record(rest[0])
                if state_name is None:
                    return self._send_json(
                        404, {"error": f"no campaign {rest[0]!r}"}
                    )
                if record is None:
                    # 409: the id exists but there is nothing to fetch
                    # (yet) — running, failed or cancelled.
                    return self._send_json(
                        409, {"error": f"campaign is {state_name}",
                              "state": state_name}
                    )
                return self._send_bytes(
                    200,
                    pickle.dumps(
                        record, protocol=pickle.HIGHEST_PROTOCOL
                    ),
                )
        return self._send_json(404, {"error": f"no route {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802
        head, rest = self._route()
        if head == "result" and rest:
            with self.state.lock:
                removed = self.state.delete_result(rest[0])
            return self._send_json(200, {"removed": removed})
        if head == "stop":
            with self.state.lock:
                self.state.set_stop(False)
            return self._send_json(200, {"ok": True})
        if head == "campaigns" and rest:
            scheduler = self.state.scheduler
            if scheduler is None:
                return self._send_json(
                    404, {"error": "campaign scheduling is not enabled"}
                )
            if scheduler.status_doc(rest[0]) is None:
                return self._send_json(
                    404, {"error": f"no campaign {rest[0]!r}"}
                )
            cancelled = scheduler.cancel(rest[0])
            return self._send_json(200, {"cancelled": cancelled})
        return self._send_json(404, {"error": f"no route {self.path}"})


class _CoordinatorHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # A restarted coordinator must rebind its old port immediately —
    # crash-restart mid-campaign is a supported path, not an edge.
    allow_reuse_address = True

    def handle_error(self, request, client_address) -> None:
        # A peer dying mid-request is an expected fault path (the
        # queue recovers via lease expiry); no stderr traceback.
        pass


#: Seconds between the serving loop's shutdown checks: how long
#: :meth:`CoordinatorServer.shutdown` can wait for the loop to notice.
SERVE_POLL_S = 0.05


class CoordinatorServer:
    """One queue directory served over HTTP.

    ``port=0`` binds an ephemeral port (see :attr:`url`); a fixed port
    lets a killed coordinator restart at the same address, which is
    what lets in-flight clients ride through on their retry budget.
    Use :meth:`start` for a background thread (tests, embedding) or
    :meth:`serve_forever` to donate the calling thread (the CLI).
    """

    def __init__(
        self,
        queue_dir: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_fresh: float = 5.0,
    ) -> None:
        self.state = CoordinatorState(
            queue_dir, worker_fresh=worker_fresh
        )
        self._httpd = _CoordinatorHTTPServer(
            (host, port), _CoordinatorHandler
        )
        self._httpd.state = self.state  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        if host in ("0.0.0.0", "::", ""):
            host = "127.0.0.1"
        return f"http://{host}:{self.port}"

    def start(self) -> "CoordinatorServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=SERVE_POLL_S)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "CoordinatorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- client plumbing ---------------------------------------------------------


#: Exception classes that mean "the coordinator is unreachable right
#: now" — retryable, unlike an HTTP status (which is an answer).
_RETRYABLE = (
    urllib.error.URLError,  # refused/reset/unreachable (incl. timeout)
    ConnectionError,
    TimeoutError,
    socket.timeout,
    http.client.HTTPException,  # IncompleteRead, RemoteDisconnected, …
)


class CoordinatorClient:
    """Thin HTTP client with capped-exponential-backoff retries.

    Connection-level failures (refused port while the coordinator
    restarts, a reset mid-request) are retried with
    ``min(backoff_cap, backoff_base * 2**n)`` seconds of delay,
    jittered to avoid a worker fleet stampeding a freshly restarted
    coordinator in lockstep, until ``retry_timeout`` seconds have
    elapsed — then the last error propagates.  An HTTP *status* is
    never retried here: it is an answer, and the caller decides what
    it means.  ``sleep``/``clock``/``rng`` are injectable so fault
    tests run on a virtual clock.
    """

    def __init__(
        self,
        base_url: str,
        *,
        retry_timeout: float = 60.0,
        backoff_base: float = 0.1,
        backoff_cap: float = 2.0,
        request_timeout: float = 30.0,
        sleep=time.sleep,
        clock=time.monotonic,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.retry_timeout = retry_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.request_timeout = request_timeout
        self._sleep = sleep
        self._clock = clock
        self._rng = rng if rng is not None else random.Random()

    def _backoff(self, failures: int) -> float:
        delay = min(
            self.backoff_cap,
            self.backoff_base * (2.0 ** failures),
        )
        # Full jitter in (delay/2, delay]: spread without ever
        # exceeding the cap.
        return delay * (0.5 + 0.5 * self._rng.random())

    def request(
        self,
        method: str,
        path: str,
        *,
        json_body: Optional[Dict[str, Any]] = None,
        data: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        retry: bool = True,
    ) -> Tuple[int, bytes]:
        """``(status, body)`` of one API call (retrying connections)."""
        send_headers = dict(headers or {})
        if json_body is not None:
            data = json.dumps(json_body).encode()
            send_headers["Content-Type"] = "application/json"
        started = self._clock()
        failures = 0
        while True:
            req = urllib.request.Request(
                self.base_url + path,
                data=data,
                headers=send_headers,
                method=method,
            )
            try:
                with urllib.request.urlopen(
                    req, timeout=self.request_timeout
                ) as resp:
                    return resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                # A status line made it back: that is the answer.
                with exc:
                    return exc.code, exc.read()
            except _RETRYABLE:
                if not retry:
                    raise
                if self._clock() - started >= self.retry_timeout:
                    raise
                self._sleep(self._backoff(failures))
                failures += 1

    def request_json(
        self, method: str, path: str, **kwargs: Any
    ) -> Tuple[int, Dict[str, Any]]:
        status, body = self.request(method, path, **kwargs)
        try:
            doc = json.loads(body)
        except ValueError:
            doc = {}
        return status, doc if isinstance(doc, dict) else {}


# -- the HTTP store ----------------------------------------------------------


class HttpQueueStore:
    """The queue primitives as calls against a coordinator.

    Each :class:`~repro.backends.workqueue.QueueStore` primitive is one
    request to the endpoint of the same name, so the coordinator's
    :class:`CoordinatorState` runs the directory store's code on the
    far side.  Connection failures retry inside ``client`` (its
    ``retry_timeout`` budget); error statuses raise.
    """

    def __init__(self, client: CoordinatorClient) -> None:
        self.client = client
        self.worker_args = ("--coordinator", client.base_url)

    def _call_json(
        self, method: str, path: str, **kwargs: Any
    ) -> Dict[str, Any]:
        status, doc = self.client.request_json(method, path, **kwargs)
        if status >= 400:
            raise RuntimeError(
                f"coordinator {method} {path} failed "
                f"({status}): {doc.get('error', doc)}"
            )
        return doc

    # -- worker side ---------------------------------------------------------

    def claim(self, worker_id: str, host: str) -> Dict[str, Any]:
        """One claim; its id rides every retry, so a claim whose answer
        was lost to a coordinator restart gets the same unit back."""
        return self._call_json(
            "POST", "/claim", json_body={
                "worker": worker_id, "host": host,
                "claim": uuid.uuid4().hex,
            },
        )

    def heartbeat(self, unit_id: str, worker_id: str) -> bool:
        """``410 Gone`` means the lease was lost; any other answer (or
        an unreachable coordinator, raised as ``OSError``) keeps the
        beat going — the on-disk lease keeps its last mtime while the
        coordinator restarts."""
        try:
            status, _ = self.client.request(
                "PUT", f"/heartbeat/{unit_id}",
                json_body={"worker": worker_id}, retry=False,
            )
        except http.client.HTTPException as exc:
            raise OSError(f"heartbeat connection dropped: {exc}") from exc
        return status != 410

    def mark_dead(self, unit_id: str) -> None:
        """No endpoint marks a lease dead: it ages out instead."""

    def post_result(
        self, unit_id: str, worker_id: str, attempt: int, body: bytes
    ) -> bool:
        status, answer = self.client.request_json(
            "POST", f"/result/{unit_id}",
            data=body,
            headers={
                "X-Repro-Worker": worker_id,
                "X-Repro-Attempt": str(attempt),
            },
        )
        return status == 200 and bool(answer.get("accepted"))

    # -- dispatcher side -----------------------------------------------------

    def submit(self, doc: Dict[str, Any]) -> None:
        self._call_json("POST", "/submit", json_body=doc)

    def poll(
        self, unit_ids: List[str], cancelled: List[str]
    ) -> Dict[str, Any]:
        return self._call_json(
            "POST", "/poll",
            json_body={"unit_ids": unit_ids, "cancelled": cancelled},
        )

    def read_result(self, unit_id: str) -> Optional[bytes]:
        status, body = self.client.request("GET", f"/result/{unit_id}")
        if status == 404:
            return None
        if status >= 400:
            raise RuntimeError(
                f"coordinator GET /result/{unit_id} failed ({status})"
            )
        return body

    def delete_result(self, unit_id: str) -> bool:
        return bool(
            self._call_json("DELETE", f"/result/{unit_id}").get("removed")
        )

    def requeue(
        self, unit_id: str, doc: Dict[str, Any], quarantine: bool
    ) -> Dict[str, Any]:
        query = "?quarantine=1" if quarantine else ""
        return self._call_json(
            "POST", f"/requeue/{unit_id}{query}", json_body=doc
        )

    def cancel(self, unit_ids: List[str]) -> Dict[str, Dict[str, bool]]:
        return self._call_json(
            "POST", "/cancel", json_body={"unit_ids": unit_ids}
        ).get("removed", {})

    def set_stop(self, stopped: bool) -> None:
        self._call_json("POST" if stopped else "DELETE", "/stop")

    def stats(self) -> Dict[str, Any]:
        return self._call_json("GET", "/stats")


# -- worker side -------------------------------------------------------------


def worker_loop_http(
    url: str,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    max_idle: Optional[float] = None,
    echo: bool = True,
    retry_timeout: float = 60.0,
) -> int:
    """The ``repro worker --coordinator URL`` main loop; units executed.

    The shared worker loop over an :class:`HttpQueueStore` — so the
    worker host needs network reach to the coordinator and nothing
    else.  Fleet drain (``stop``) and elastic retirement (``retire``)
    ride on the claim answers exactly as on the filesystem.
    """
    store = HttpQueueStore(CoordinatorClient(url, retry_timeout=retry_timeout))
    return _serve_store(
        store, worker_id,
        poll_interval=poll_interval, max_idle=max_idle, echo=echo,
    )


# -- dispatcher side ---------------------------------------------------------


class HttpQueueBackend(QueueBackend):
    """A :class:`~repro.backends.workqueue.QueueBackend` over an
    :class:`HttpQueueStore`: the dispatcher needs no filesystem access
    to the queue at all.

    Parameters mirror :class:`WorkQueueBackend` where they exist
    there; ``retry_timeout`` bounds how long any one API call keeps
    retrying an unreachable coordinator (the ride-through budget for
    a coordinator crash/restart), ``client`` replaces the default
    :class:`CoordinatorClient`, and ``spawn_workers`` forks local
    ``repro worker --coordinator`` workers as a convenience
    (their logs in a temporary directory removed by :meth:`close`).
    """

    def __init__(
        self,
        url: str,
        *,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        spawn_workers: int = 0,
        idle_timeout: Optional[float] = None,
        retry_timeout: float = 60.0,
        client: Optional[CoordinatorClient] = None,
        telemetry=None,
    ) -> None:
        self.url = url.rstrip("/")
        self.client = client if client is not None else CoordinatorClient(
            self.url, retry_timeout=retry_timeout
        )
        super().__init__(
            HttpQueueStore(self.client),
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            max_attempts=max_attempts,
            idle_timeout=idle_timeout,
            telemetry=telemetry,
        )
        self._log_dir: Optional[str] = None
        if spawn_workers:
            self._log_dir = tempfile.mkdtemp(prefix="repro-http-workers-")
            self._spawn_pool(spawn_workers, self._log_dir)

    def close(self) -> None:
        super().close()
        # The workers have stopped; their log tails already rode along
        # in any crash diagnosis.
        if self._log_dir is not None:
            shutil.rmtree(self._log_dir, ignore_errors=True)
            self._log_dir = None
