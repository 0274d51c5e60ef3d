"""The work queue: one state machine over a pluggable queue store.

A queue hands self-describing unit docs to independent workers and
collects their results.  Its primitives form the :class:`QueueStore`
protocol — dispatcher side ``submit``/``poll``/``read_result``/
``delete_result``/``requeue``/``cancel``/``set_stop``/``stats``,
worker side ``claim``/``heartbeat``/``post_result`` — with two
implementations: :class:`DirectoryQueueStore` here (every on-disk
operation) and ``HttpQueueStore`` in :mod:`repro.backends.coordinator`
(each primitive one call against a ``repro coordinator``).  On top of
either sits one dispatcher (:class:`QueueBackend`), one worker loop
(:func:`_serve_store`) and one lease heartbeat (:class:`_Heartbeat`),
so every fault-handling rule is written once.

The directory is local disk for multi-process runs, a shared
filesystem for multi-host ones, with one subdirectory per lifecycle
stage::

    queue/
      tasks/    <unit_id>.json   pending unit (self-describing wire doc)
      leases/   <unit_id>.json   claimed unit; file mtime = heartbeat
      results/  <unit_id>.pkl    completed unit (payload or error)
      workers/  <worker_id>.*    worker heartbeat/log files (diagnostics)
      stop                       sentinel: workers drain and exit

Every file appears atomically (write to a temp name + fsync +
``os.replace``), so readers never observe a torn document no matter
when a writer dies.

**Claiming** is a single ``os.rename`` from ``tasks/`` to ``leases/``
— exactly one worker wins, no locks — after which the claim stamps the
worker's id into the lease.  While executing, the worker heartbeats
its lease every ``heartbeat`` seconds (the interval rides in the task
doc, derived from the dispatcher's ``lease_timeout``).

**Dead workers**: the dispatcher re-enqueues any claimed unit whose
lease goes stale (no heartbeat for ``lease_timeout`` seconds) with an
incremented attempt count, up to ``max_attempts``.  A result post is
accepted only while the unit's current doc carries the posting
attempt, and a worker whose heartbeat reports the lease lost skips its
post; unit payloads are pure functions of the wire doc, so the retry
produces bit-identical bytes.

**Clean failures** (an execution raising) are *not* retried: the
worker writes an error result and the dispatcher raises it, because a
deterministic unit that failed once will fail again.

External workers, on this host or any host sharing the directory,
are started with ``repro worker --queue DIR`` (see
:func:`worker_loop`).  Local workers are spawned by the
dispatcher itself (``spawn_workers=N``) or scaled with queue pressure
by an :class:`ElasticSupervisor`; every local spawn goes through
:func:`_spawn_worker_process`, which forks the already-imported
dispatcher to run ``repro worker`` with the store's
:attr:`worker_args`.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.backends.base import (
    ExecutionBackend,
    WorkResult,
    WorkUnit,
    execute_unit,
    stamp_timings,
)
from repro.common.fsio import atomic_write_bytes
from repro.telemetry.events import make_event
from repro.telemetry.status import queue_dir_status

TASKS_DIR = "tasks"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
WORKERS_DIR = "workers"
#: Quarantine for truncated/corrupt task or result documents: the
#: evidence is preserved for diagnosis instead of being re-parsed (and
#: re-failed) on every dispatcher poll forever.
CORRUPT_DIR = "corrupt"
STOP_SENTINEL = "stop"

_SUBDIRS = (TASKS_DIR, LEASES_DIR, RESULTS_DIR, WORKERS_DIR, CORRUPT_DIR)


def _host_label() -> str:
    """This host's identity for worker ids and fleet stats.

    Worker ids generated from pids alone collide the moment two hosts
    share one queue directory (or coordinator): pid 4242's supervisor
    on host A and host B would both mint ``elastic-4242-0``, and their
    heartbeat/log/sentinel files would clobber each other.  Every
    generated id therefore carries the hostname, exactly as
    :func:`worker_loop`'s default worker id always has.
    """
    return socket.gethostname()


def ensure_queue_dirs(queue_dir: str) -> None:
    for name in _SUBDIRS:
        os.makedirs(os.path.join(queue_dir, name), exist_ok=True)


def _stop_path(queue_dir: str) -> str:
    return os.path.join(queue_dir, STOP_SENTINEL)


def _worker_info_path(queue_dir: str, worker_id: str) -> str:
    return os.path.join(queue_dir, WORKERS_DIR, worker_id + ".json")


def _worker_stop_path(queue_dir: str, worker_id: str) -> str:
    """Per-worker stop sentinel: retires *one* worker gracefully.

    Unlike the queue-wide ``stop`` sentinel, this drains a single
    worker — it finishes the unit it holds a lease on (the sentinel is
    only checked between claims) and exits, which is how the
    :class:`ElasticSupervisor` scales the pool down without ever
    abandoning a lease mid-unit.
    """
    return os.path.join(queue_dir, WORKERS_DIR, worker_id + ".stop")


def _task_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, TASKS_DIR, unit_id + ".json")


def _lease_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, LEASES_DIR, unit_id + ".json")


def _result_path(queue_dir: str, unit_id: str) -> str:
    return os.path.join(queue_dir, RESULTS_DIR, unit_id + ".pkl")


def quarantine_file(queue_dir: str, path: str) -> Optional[str]:
    """Move a corrupt queue document into ``corrupt/``; its new path.

    The move is an ``os.replace`` within the queue filesystem —
    atomic, so no reader ever sees the document half-moved — with a
    timestamp suffix so repeated corruption of the same unit never
    overwrites earlier evidence.  Returns None when the file vanished
    before it could be moved (e.g. swept by a concurrent cancel).
    """
    corrupt_dir = os.path.join(queue_dir, CORRUPT_DIR)
    os.makedirs(corrupt_dir, exist_ok=True)
    target = os.path.join(
        corrupt_dir,
        f"{os.path.basename(path)}.{time.time_ns():x}",
    )
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    return target


# -- the store protocol ------------------------------------------------------


class QueueStore(Protocol):
    """The queue's primitives; everything above them is shared.

    Each call is one step of the queue state machine.  The dispatcher
    and the worker loop never touch the transport directly, so a fault
    rule written against these primitives holds for both stores.
    """

    #: The ``repro worker`` arguments that serve this queue:
    #: ``("--queue", dir)`` or ``("--coordinator", url)``.
    worker_args: Tuple[str, str]

    # dispatcher side
    def submit(self, doc: Dict[str, Any]) -> None: ...
    def poll(
        self, unit_ids: List[str], cancelled: List[str]
    ) -> Dict[str, Any]: ...
    def read_result(self, unit_id: str) -> Optional[bytes]: ...
    def delete_result(self, unit_id: str) -> bool: ...
    def requeue(
        self, unit_id: str, doc: Dict[str, Any], quarantine: bool
    ) -> Dict[str, Any]: ...
    def cancel(self, unit_ids: List[str]) -> Dict[str, Dict[str, bool]]: ...
    def set_stop(self, stopped: bool) -> None: ...
    def stats(self) -> Dict[str, Any]: ...

    # worker side
    def claim(self, worker_id: str, host: str) -> Dict[str, Any]: ...
    def heartbeat(self, unit_id: str, worker_id: str) -> bool: ...
    def mark_dead(self, unit_id: str) -> None: ...
    def post_result(
        self, unit_id: str, worker_id: str, attempt: int, body: bytes
    ) -> bool: ...


# -- the directory store -----------------------------------------------------


def _touch(path: str) -> None:
    """Refresh a heartbeat file's mtime (separable for fault tests)."""
    os.utime(path)


def _read_json(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _claim_next(queue_dir: str) -> Optional[str]:
    """Claim one pending unit; its id, or None when the queue is idle.

    The claim is ``os.rename(tasks/X, leases/X)`` — atomic, exactly
    one winner per task file.  The fresh lease is touched immediately:
    the renamed file keeps the *task's* mtime, which may already be
    older than the lease timeout if the unit waited long for a free
    worker.
    """
    tasks_dir = os.path.join(queue_dir, TASKS_DIR)
    try:
        names = sorted(os.listdir(tasks_dir))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue
        unit_id = name[: -len(".json")]
        try:
            os.rename(
                os.path.join(tasks_dir, name),
                _lease_path(queue_dir, unit_id),
            )
        except FileNotFoundError:
            continue  # another worker won this one
        os.utime(_lease_path(queue_dir, unit_id))
        return unit_id
    return None


def _undelivered_lease(
    queue_dir: str, worker_id: str, claim_id: str
) -> Optional[Dict[str, Any]]:
    """The lease an earlier try of claim ``claim_id`` stamped, if any.

    A retried request carries the same claim id, so a match is a lease
    whose claim answer never reached the worker (the coordinator died
    after stamping, before replying).  Handing it out again beats
    orphaning the unit until its lease times out.  A later claim has a
    new id, so a unit the worker received and then dropped is never
    handed back to it.
    """
    leases_dir = os.path.join(queue_dir, LEASES_DIR)
    try:
        names = sorted(os.listdir(leases_dir))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(".json"):
            continue  # a release tombstone
        doc = _read_json(os.path.join(leases_dir, name))
        if (doc is not None and doc.get("worker") == worker_id
                and doc.get("claim") == claim_id):
            return doc
    return None


def _release_lease(lease_path: str, worker_id: str) -> None:
    """Remove the lease only if this worker still owns it.

    A unit re-enqueued while this worker was merely slow (not dead)
    may since have been claimed by another worker — that successor's
    fresh lease must survive the predecessor finishing late, or the
    successor would look dead while actively computing.

    The check-then-remove must not be a read followed by an unlink:
    between reading the owner and unlinking, an expiry re-enqueue plus
    a successor claim can land, and the unlink would then destroy the
    *successor's* live lease (it would sit leaseless while actively
    computing, look dead, and burn an attempt — or the budget).  So
    the release captures the file first with an atomic
    rename-to-tombstone, verifies ownership on the captured copy, and
    either completes the release (unlink the tombstone) or undoes the
    capture (rename it back) when the lease turned out to belong to
    someone else — including the not-yet-stamped window after a
    successor's claim, where the doc carries no owner at all.
    """
    tombstone = f"{lease_path}.releasing.{worker_id}"
    try:
        os.rename(lease_path, tombstone)
    except OSError:
        return  # already gone (expired/cancelled) — nothing to release
    try:
        with open(tombstone) as handle:
            owner = json.load(handle).get("worker")
    except (OSError, ValueError):
        owner = None  # torn/corrupt capture: treat as not provably ours
    if owner == worker_id:
        try:
            os.unlink(tombstone)
        except FileNotFoundError:
            pass
        return
    # Someone else's lease (or an unstamped claim): restore it.  The
    # capture window is a few syscalls wide; a successor heartbeat
    # landing in it reports the lease lost, which costs nothing: the
    # release follows an accepted post, whose result is collected.  If
    # the successor re-wrote the path meanwhile (its ownership stamp),
    # the newer doc wins and the stale capture is dropped instead of
    # renamed over it.
    try:
        if os.path.exists(lease_path):
            os.unlink(tombstone)
        else:
            os.rename(tombstone, lease_path)
    except OSError:
        pass


class DirectoryQueueStore:
    """The queue as one directory: every on-disk queue operation.

    Each primitive works purely against the directory, which is the
    whole crash-restart story: a restarted dispatcher or coordinator
    rebuilds its world from the files.  Cross-process safety comes
    from the file operations themselves — rename claims, atomic
    writes, tombstone lease releases — so dispatchers and workers in
    other processes may share the directory without a lock.
    """

    #: Seconds within which a ``workers/<id>.json`` mtime counts as a
    #: live idle worker for :meth:`stats` (busy workers advertise
    #: through their stamped lease instead).
    worker_fresh = 5.0

    def __init__(self, queue_dir: str) -> None:
        self.queue_dir = queue_dir
        self.worker_args = ("--queue", queue_dir)
        ensure_queue_dirs(queue_dir)

    # -- worker side ---------------------------------------------------------

    def claim(
        self, worker_id: str, host: str, claim_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Claim the next unit, stamped with its owner.

        ``claim_id`` names one claim request across its retries (the
        HTTP transport sends one; an in-process claim cannot lose its
        answer and needs none).  A lease already stamped by an earlier
        try of the same request is delivered again instead of a new
        unit (see :func:`_undelivered_lease`).

        The answer carries the queue-wide ``stop`` and this worker's
        ``retire`` verdicts (its ``workers/<id>.stop`` sentinel), both
        checked only between units so a draining worker always
        finishes the lease it holds.
        """
        info_path = _worker_info_path(self.queue_dir, worker_id)
        if os.path.exists(_stop_path(self.queue_dir)):
            _cleanup_worker_files(self.queue_dir, worker_id)
            return {"unit": None, "stop": True, "retire": False}
        if os.path.exists(_worker_stop_path(self.queue_dir, worker_id)):
            _cleanup_worker_files(self.queue_dir, worker_id)
            return {"unit": None, "stop": False, "retire": True}
        # The claim poll doubles as the worker's idle liveness beat.
        try:
            os.utime(info_path)
        except OSError:
            atomic_write_bytes(
                info_path,
                json.dumps({
                    "worker_id": worker_id,
                    "host": host,
                    "started": time.time(),
                }).encode(),
            )
        if claim_id is not None:
            doc = _undelivered_lease(self.queue_dir, worker_id, claim_id)
            if doc is not None:
                return {"unit": doc, "stop": False, "retire": False}
        unit_id = _claim_next(self.queue_dir)
        if unit_id is None:
            return {"unit": None, "stop": False, "retire": False}
        lease_path = _lease_path(self.queue_dir, unit_id)
        doc = _read_json(lease_path)
        if doc is None:
            # Claim raced a re-enqueue or cancel (or the doc is torn):
            # nothing to hand out this round.
            return {"unit": None, "stop": False, "retire": False}
        # Stamp ownership (refreshing the heartbeat) before the doc is
        # handed out, so a slow predecessor finishing late cannot tear
        # down this lease.
        doc["worker"] = worker_id
        doc["host"] = host
        if claim_id is not None:
            doc["claim"] = claim_id
        atomic_write_bytes(lease_path, json.dumps(doc).encode())
        return {"unit": doc, "stop": False, "retire": False}

    def heartbeat(self, unit_id: str, worker_id: str) -> bool:
        """Refresh the lease if ``worker_id`` still owns it.

        False once the lease is gone or belongs to someone else; other
        filesystem errors raise (transient — the caller keeps beating).
        """
        lease_path = _lease_path(self.queue_dir, unit_id)
        doc = _read_json(lease_path)
        if doc is None or doc.get("worker") != worker_id:
            return False
        try:
            _touch(lease_path)
        except FileNotFoundError:
            return False
        return True

    def mark_dead(self, unit_id: str) -> None:
        """Record a dead heartbeat thread in the lease doc and go stale."""
        lease_path = _lease_path(self.queue_dir, unit_id)
        try:
            with open(lease_path) as handle:
                doc = json.load(handle)
            doc["heartbeat_alive"] = False
            atomic_write_bytes(lease_path, json.dumps(doc).encode())
            # Force the mtime stale so the dispatcher's age check
            # expires the lease on its next poll (the doc rewrite
            # above would otherwise have *refreshed* it).
            os.utime(lease_path, (0.0, 0.0))
        except (OSError, ValueError):
            pass  # best effort — the stale mtime will expire eventually

    def post_result(
        self, unit_id: str, worker_id: str, attempt: int, body: bytes
    ) -> bool:
        """Publish a result; False when the post is stale/duplicate.

        Accepted only while (a) no result is already on disk and (b)
        the unit's current doc — its lease, or its task file if it was
        re-enqueued but not yet re-claimed — still carries the posting
        attempt.  A re-enqueue increments the attempt, so a slow
        predecessor's late post fails the check and is dropped without
        touching the successor's lease.  A unit with no doc at all was
        cancelled (or already finished and was collected): dropped
        too.  The lease is released through :func:`_release_lease`,
        never a read-then-unlink.
        """
        result_path = _result_path(self.queue_dir, unit_id)
        if os.path.exists(result_path):
            return False
        lease_path = _lease_path(self.queue_dir, unit_id)
        doc = _read_json(lease_path)
        leased = doc is not None
        if not leased:
            doc = _read_json(_task_path(self.queue_dir, unit_id))
        if doc is None or int(doc.get("attempt", 1)) != attempt:
            return False
        atomic_write_bytes(result_path, body)
        if leased:
            _release_lease(lease_path, worker_id)
        return True

    # -- dispatcher side -----------------------------------------------------

    def submit(self, doc: Dict[str, Any]) -> None:
        unit_id = str(doc["unit_id"])
        # Unit ids are deterministic, so a reused queue directory may
        # hold this id's leftovers from an earlier campaign (a
        # consumed-then-raised error result, an orphaned lease, a
        # cancelled task).  Sweep them, or the dispatcher would replay
        # the stale outcome instead of dispatching fresh work.
        for stale in (
            _result_path(self.queue_dir, unit_id),
            _lease_path(self.queue_dir, unit_id),
            _task_path(self.queue_dir, unit_id),
        ):
            try:
                os.unlink(stale)
            except FileNotFoundError:
                pass
        atomic_write_bytes(
            _task_path(self.queue_dir, unit_id),
            json.dumps(doc).encode(),
        )

    def poll(
        self, unit_ids: List[str], cancelled: List[str]
    ) -> Dict[str, Any]:
        """One dispatcher round trip: readiness + lease ages + sweep."""
        ready: List[str] = []
        lease_ages: Dict[str, Optional[float]] = {}
        now = time.time()
        for unit_id in unit_ids:
            if os.path.exists(_result_path(self.queue_dir, unit_id)):
                ready.append(unit_id)
            try:
                mtime = os.stat(
                    _lease_path(self.queue_dir, unit_id)
                ).st_mtime
                lease_ages[unit_id] = now - mtime
            except OSError:
                lease_ages[unit_id] = None
        swept: List[str] = []
        for unit_id in cancelled:
            try:
                os.unlink(_result_path(self.queue_dir, unit_id))
                swept.append(unit_id)
            except FileNotFoundError:
                pass
        return {"ready": ready, "lease_ages": lease_ages, "swept": swept}

    def read_result(self, unit_id: str) -> Optional[bytes]:
        try:
            with open(_result_path(self.queue_dir, unit_id), "rb") as f:
                return f.read()
        except OSError:
            return None

    def delete_result(self, unit_id: str) -> bool:
        """Consume a result (plus any task/lease litter for the id)."""
        removed = False
        try:
            os.unlink(_result_path(self.queue_dir, unit_id))
            removed = True
        except FileNotFoundError:
            pass
        for path in (
            _lease_path(self.queue_dir, unit_id),
            _task_path(self.queue_dir, unit_id),
        ):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        return removed

    def requeue(
        self, unit_id: str, doc: Dict[str, Any], quarantine: bool
    ) -> Dict[str, Any]:
        """Re-enqueue an expired/corrupt unit with a fresh attempt doc.

        Collect-before-requeue: if a result landed for the unit (the
        worker was slow, not dead), the requeue is refused and the
        dispatcher collects instead — unless ``quarantine`` is set,
        which means the dispatcher already read that result and found
        it corrupt; then the evidence moves to ``corrupt/`` first and
        the retry proceeds.
        """
        result_path = _result_path(self.queue_dir, unit_id)
        quarantined = None
        if os.path.exists(result_path):
            if not quarantine:
                return {"requeued": False, "has_result": True}
            quarantined = quarantine_file(self.queue_dir, result_path)
        try:
            os.unlink(_lease_path(self.queue_dir, unit_id))
        except FileNotFoundError:
            pass
        atomic_write_bytes(
            _task_path(self.queue_dir, unit_id),
            json.dumps(doc).encode(),
        )
        return {
            "requeued": True, "has_result": False,
            "quarantined": quarantined,
        }

    def cancel(self, unit_ids: List[str]) -> Dict[str, Dict[str, bool]]:
        removed: Dict[str, Dict[str, bool]] = {}
        for unit_id in unit_ids:
            stages = {}
            for stage, path in (
                ("task", _task_path(self.queue_dir, unit_id)),
                ("lease", _lease_path(self.queue_dir, unit_id)),
                ("result", _result_path(self.queue_dir, unit_id)),
            ):
                try:
                    os.unlink(path)
                    stages[stage] = True
                except FileNotFoundError:
                    stages[stage] = False
            removed[unit_id] = stages
        return removed

    def set_stop(self, stopped: bool) -> None:
        if stopped:
            atomic_write_bytes(_stop_path(self.queue_dir), b"")
        else:
            try:
                os.unlink(_stop_path(self.queue_dir))
            except FileNotFoundError:
                pass

    def stats(self) -> Dict[str, Any]:
        """The ``repro status`` fleet snapshot (``GET /stats``)."""
        return queue_dir_status(
            self.queue_dir, heartbeat_fresh=self.worker_fresh
        )


# -- the worker --------------------------------------------------------------


class _Heartbeat:
    """Keeps one claimed unit's lease fresh on a background thread, so
    the dispatcher can tell a slow worker from a dead one.

    Each beat is ``store.heartbeat(unit_id, worker_id)``.  A beat
    that reports the lease gone or owned by someone else (expired and
    re-claimed, or cancelled) sets :attr:`lost` and stops: the worker
    must skip its publish — a successor owns the unit now, and the stale
    attempt's post would be refused anyway.  Filesystem/connection
    errors (``OSError``) are ridden out: exiting there would make a
    healthy worker look dead and burn an attempt for nothing.

    Thread death is **not** silent: if the beat loop raises, the
    thread sets :attr:`failed` and marks the lease dead
    (``heartbeat_alive: false``, mtime forced stale), so the
    dispatcher re-enqueues promptly instead of waiting out the full
    lease timeout — and the worker aborts the unit instead of
    publishing a result for a lease it no longer keeps alive (the
    re-enqueued attempt recomputes the identical payload).
    """

    def __init__(
        self,
        unit_id: str,
        interval: float,
        store: QueueStore,
        worker_id: str,
    ) -> None:
        self._unit_id = unit_id
        self._store = store
        self._worker_id = worker_id
        self._interval = max(0.05, interval)
        self._stop = threading.Event()
        #: Set when a beat found the lease gone or re-owned.
        self.lost = threading.Event()
        #: Set when the beat thread died unexpectedly: the lease can
        #: no longer be trusted to stay fresh.
        self.failed = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            while not self._stop.wait(self._interval):
                try:
                    alive = self._store.heartbeat(
                        self._unit_id, self._worker_id
                    )
                except OSError:
                    continue  # transient hiccup (NFS, EIO, network)
                if not alive:
                    self.lost.set()
                    return
        except BaseException:
            self.failed.set()
            self._store.mark_dead(self._unit_id)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()


def _execute_claimed(
    store: QueueStore, doc: Dict[str, Any], worker_id: str
) -> Optional[bool]:
    """Run one claimed unit doc under its heartbeat and publish it.

    The kind-module side-effect import, payload computation and
    clean-failure capture all happen here, so a unit doc produces
    byte-identical result docs no matter which store delivered it.
    True/False for success/failure; None when nothing was published —
    the heartbeat reported the lease lost or died mid-unit, or the
    store refused the post (a stale attempt, a cancelled unit).
    """
    unit_id = str(doc["unit_id"])
    result: Dict[str, Any] = {
        "worker": worker_id,
        "attempt": int(doc.get("attempt", 1)),
    }
    heartbeat = _Heartbeat(
        unit_id, float(doc.get("heartbeat", 5.0)), store, worker_id
    )
    with heartbeat:
        started, cpu0 = time.time(), time.process_time()
        try:
            module = doc.get("kind_module")
            if module:
                # Registers kinds defined outside the built-ins (same
                # trick as pickling run-fn references to a process
                # pool: importing the module re-runs its
                # register_experiment side effects).
                importlib.import_module(module)
            payload, elapsed = execute_unit(WorkUnit.from_doc(doc))
            # Phase timings are execution-only metadata riding next to
            # the payload, outside spec identity: telemetry reads
            # them, payload bytes never depend on them.
            result.update(
                ok=True, payload=payload, elapsed=elapsed,
                timings=stamp_timings(started, cpu0),
            )
        except Exception:
            result.update(ok=False, error=traceback.format_exc())
    if heartbeat.lost.is_set() or heartbeat.failed.is_set():
        return None
    body = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    if not store.post_result(unit_id, worker_id, result["attempt"], body):
        return None
    return bool(result["ok"])


def _serve_store(
    store: QueueStore,
    worker_id: Optional[str],
    *,
    poll_interval: float,
    max_idle: Optional[float],
    echo: bool,
) -> int:
    """The worker loop over any store; returns units executed.

    Claims and executes units until the claim answers ``stop`` (the
    queue-wide sentinel) or ``retire`` (this worker's own sentinel)
    or — when ``max_idle`` is set — no work arrived for that many
    seconds.  Workers are stateless: everything a unit needs rides in
    its doc, so any number of workers on any hosts can serve one
    campaign.
    """
    worker_id = worker_id or f"{_host_label()}-{os.getpid()}"
    host = _host_label()
    if echo:
        print(f"[worker {worker_id}] serving "
              f"{' '.join(store.worker_args)}",
              file=sys.stderr, flush=True)
    executed = 0
    idle_since = time.monotonic()
    while True:
        answer = store.claim(worker_id, host)
        if answer.get("stop") or answer.get("retire"):
            if echo and answer.get("retire"):
                print(f"[worker {worker_id}] retiring on request",
                      file=sys.stderr, flush=True)
            break
        doc = answer.get("unit")
        if doc is None:
            if (max_idle is not None
                    and time.monotonic() - idle_since > max_idle):
                break
            time.sleep(poll_interval)
            continue
        ok = _execute_claimed(store, doc, worker_id)
        # Time spent on a unit is never idle time, published or not.
        idle_since = time.monotonic()
        if echo:
            status = ("dropped (lease lost or stale attempt)"
                      if ok is None else "done" if ok else "FAILED")
            print(f"[worker {worker_id}] {doc['unit_id']}: {status}",
                  file=sys.stderr, flush=True)
        if ok is not None:
            executed += 1
    if echo:
        print(f"[worker {worker_id}] exiting after {executed} unit(s)",
              file=sys.stderr, flush=True)
    return executed


def worker_loop(
    queue_dir: str,
    *,
    worker_id: Optional[str] = None,
    poll_interval: float = 0.2,
    max_idle: Optional[float] = None,
    echo: bool = True,
) -> int:
    """The ``repro worker --queue DIR`` main loop; returns units
    executed (see :func:`_serve_store`).  The worker's
    ``workers/<id>.json`` info file doubles as its idle liveness
    heartbeat; a busy worker's liveness shows in its lease instead."""
    return _serve_store(
        DirectoryQueueStore(queue_dir), worker_id,
        poll_interval=poll_interval, max_idle=max_idle, echo=echo,
    )


# -- elastic worker supervision ----------------------------------------------


def _stop_proc(proc: _ForkedWorker, deadline: float) -> None:
    """Wait for a worker process until ``deadline`` (monotonic), then
    escalate terminate → kill.  The one stop ladder every teardown
    path shares."""
    try:
        proc.wait(timeout=max(0.1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


#: Bytes of log tail read per file for crash diagnostics.  Worker logs
#: grow unbounded on long campaigns; a diagnostic must never slurp a
#: multi-gigabyte log into memory to show its last 20 lines.
_LOG_TAIL_BYTES = 4096


def _log_tails(paths: Iterable[str], lines: int = 20) -> str:
    """The last ``lines`` of each worker log, joined for diagnostics.

    Reads only the final :data:`_LOG_TAIL_BYTES` of each file — the
    first line of a mid-file seek may be torn, which is fine for a
    crash tail.
    """
    tails = []
    for path in paths:
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(max(0, size - _LOG_TAIL_BYTES))
                data = handle.read(_LOG_TAIL_BYTES)
        except OSError:
            continue
        text = data.decode("utf-8", errors="replace")
        tails.append(
            f"--- {path} ---\n"
            + "\n".join(text.splitlines()[-lines:])
        )
    return "\n".join(tails)


def _cleanup_worker_files(queue_dir: str, worker_id: str) -> None:
    """Remove a gone worker's sentinel + heartbeat litter."""
    for path in (
        _worker_stop_path(queue_dir, worker_id),
        _worker_info_path(queue_dir, worker_id),
    ):
        try:
            os.unlink(path)
        except OSError:
            pass


class _ForkedWorker:
    """Handle on one forked local worker, shaped like the slice of
    Popen the pools use: ``pid``, ``returncode`` (from
    ``os.waitpid``), :meth:`poll`, :meth:`wait`, :meth:`terminate`
    and :meth:`kill`."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        # The supervisor loop and the dispatcher thread both poll.
        self._lock = threading.Lock()

    def _try_wait(self, flags: int) -> Optional[int]:
        with self._lock:
            if self.returncode is None:
                try:
                    pid, status = os.waitpid(self.pid, flags)
                except ChildProcessError:
                    # Reaped elsewhere (SIGCHLD ignored): Popen's rule.
                    pid, status = self.pid, 0
                if pid == self.pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
            return self.returncode

    def poll(self) -> Optional[int]:
        return self._try_wait(os.WNOHANG)

    def wait(self, timeout: Optional[float] = None) -> int:
        """Block until exit; raise :class:`subprocess.TimeoutExpired`
        after ``timeout`` seconds, as Popen does."""
        if timeout is None:
            return self._try_wait(0)
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(
                    f"worker pid {self.pid}", timeout
                )
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 0.05)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


def _run_forked_worker(
    main: Callable[[List[str]], int], argv: List[str], log_fd: int
) -> None:
    """The whole life of a forked worker; it leaves only through
    ``os._exit``, so no atexit handler, journal buffer or stdout
    buffer of the parent runs twice."""
    # Referenced until exit and never flushed: their buffered text is
    # the parent's, and a parent thread may have held their locks at
    # the fork.
    inherited = (sys.stdout, sys.stderr)
    status = 1
    try:
        # Pre-fork objects are never collected here, so no inherited
        # file object's finaliser can close a descriptor number this
        # process has since reused.
        gc.freeze()
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        sys.stdout = open(1, "w", buffering=1, closefd=False)
        sys.stderr = open(
            2, "w", buffering=1, errors="backslashreplace", closefd=False
        )
        # Every other inherited descriptor goes (a coordinator's
        # listening socket included), as with Popen's close_fds.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        status = main(argv)
    except SystemExit as exc:
        status = (
            exc.code if isinstance(exc.code, int)
            else int(exc.code is not None)
        )
    except BaseException:
        if sys.stderr is not inherited[1]:
            traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            if stream not in inherited:
                try:
                    stream.flush()
                except Exception:
                    pass
        os._exit(status)


def _spawn_worker_process(
    worker_args: Tuple[str, ...],
    worker_id: str,
    poll_interval: float,
    log_dir: str,
) -> "tuple[_ForkedWorker, str]":
    """Start one local worker — the one spawn path of the fixed and
    the elastic pools alike.

    The worker is a fork of this already-imported process running
    ``repro worker <worker_args>`` through :func:`repro.cli.main`, so
    it skips the interpreter start and the imports a cold ``python -m
    repro worker`` pays before its first claim.  Returns ``(handle,
    log path)``; the worker's stdout/stderr land in
    ``<log_dir>/<id>.log`` for post-mortem diagnostics.
    """
    from repro.cli import main

    os.makedirs(log_dir, exist_ok=True)
    log_path = os.path.join(log_dir, worker_id + ".log")
    argv = [
        "worker", *worker_args,
        "--worker-id", worker_id,
        "--poll", str(poll_interval),
    ]
    log_fd = os.open(
        log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666
    )
    try:
        pid = os.fork()
        if pid == 0:
            _run_forked_worker(main, argv, log_fd)
    finally:
        os.close(log_fd)  # the child holds its own copy
    return _ForkedWorker(pid), log_path


@dataclass
class ElasticStats:
    """Lifetime counters of one :class:`ElasticSupervisor`."""

    spawned: int = 0
    retired: int = 0
    peak_workers: int = 0


class ElasticSupervisor:
    """Scales local forked worker processes with queue pressure.

    A fixed worker pool wastes one of two ways: too few workers leave
    pending units queueing behind a long tail, too many burn idle
    processes once an early-stopped campaign's cancels drain the
    queue.  The supervisor watches the queue directory and keeps the
    spawned pool between ``min_workers`` and ``max_workers``:

    * **demand** — pending task files plus leases not attributably
      held by someone else (a lease stamped with an external worker's
      id is already being served and needs no new worker);
    * **serving** — the supervisor's own live workers plus externally
      started workers with a fresh ``workers/<id>.json`` heartbeat
      (busy externals advertise liveness through their stamped lease
      instead);
    * **scale up** whenever units sit unclaimed and the pool is below
      ``min(demand, max_workers)`` — and always back up to
      ``min_workers``;
    * **scale down** — only after the queue has stayed drained for
      ``idle_grace`` seconds — by writing *per-worker* stop sentinels
      (``workers/<id>.stop``): a retiring worker finishes the unit it
      holds a lease on and exits, so retirement never abandons a
      lease mid-unit.
    * **stopped** — while the queue-wide stop sentinel is set, no
      scaling at all: every worker exits on it, so a spawn would only
      churn.

    Each observation is one :func:`queue_dir_status` snapshot.  The
    pool's workers are forks of this process (see
    :func:`_spawn_worker_process`) running ``repro worker
    <worker_args>`` — by default ``--queue <queue_dir>``; ``repro
    coordinator`` passes ``--coordinator URL`` so they join through
    the HTTP front door — with their logs in ``<queue_dir>/workers``.
    The supervisor forks from its own thread, which is why the
    children never touch the streams they inherit.

    Run it on a background thread (:meth:`start`/:meth:`shutdown`,
    what :class:`WorkQueueBackend` does) or drive :meth:`tick`
    directly for deterministic tests.  Scaling only changes *when*
    units execute, never what they compute — payloads stay
    bit-identical at any pool size.
    """

    def __init__(
        self,
        queue_dir: str,
        *,
        min_workers: int = 1,
        max_workers: int = 4,
        poll_interval: float = 0.2,
        idle_grace: float = 2.0,
        worker_poll: float = 0.2,
        heartbeat_fresh: float = 2.0,
        clock=time.monotonic,
        worker_args: Optional[Tuple[str, ...]] = None,
        telemetry=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not 0 <= min_workers <= max_workers:
            raise ValueError(
                "need 0 <= min_workers <= max_workers "
                f"(got {min_workers}..{max_workers})"
            )
        self.queue_dir = queue_dir
        self.worker_args = (
            worker_args if worker_args is not None
            else ("--queue", queue_dir)
        )
        #: Where this supervisor's workers run (fleet-stats key).
        self.host = _host_label()
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        self.idle_grace = idle_grace
        self.worker_poll = worker_poll
        self.heartbeat_fresh = heartbeat_fresh
        self.clock = clock
        #: Optional :class:`repro.telemetry.sink.TelemetrySink`:
        #: scaling decisions (with their queue-pressure inputs) and
        #: worker spawn/retire/crash events go here when set.
        self.telemetry = telemetry
        ensure_queue_dirs(queue_dir)
        self.stats = ElasticStats()
        #: Workers that exited without being asked to retire
        #: (lifetime count, for reporting).
        self.abnormal_exits = 0
        #: ``(monotonic time, worker id)`` of recent abnormal exits —
        #: the crash-*loop* signal (a crash an hour ago is not a
        #: loop), with the ids for the diagnosis message.
        self._abnormal_at: List[Tuple[float, str]] = []
        #: Seconds within which repeated crashes count as a loop.
        self.crash_window = 60.0
        #: When tick() started failing (None = healthy) + the last
        #: traceback, so persistent breakage has a diagnosis.  The
        #: judgment is time-based: a transient NFS/EIO blip spans a
        #: few 0.2s ticks and must not read as "cannot scale".
        self._tick_failing_since: Optional[float] = None
        self.tick_failure_grace = 30.0
        self.last_error: Optional[str] = None
        self._procs: Dict[str, _ForkedWorker] = {}
        self._retiring: Dict[str, _ForkedWorker] = {}
        self._log_paths: Dict[str, str] = {}
        self._seq = 0
        self._surplus_since: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Guards the pool dicts: the supervisor's own loop thread and
        #: the dispatcher thread (check_health, workers_by_host)
        #: both reap.
        self._lock = threading.RLock()

    # -- observation ---------------------------------------------------------

    def _observe(self) -> Tuple[int, int, Dict[str, str], bool]:
        """``(pending, busy, fresh externals, stopped)`` from one
        snapshot.

        ``busy`` counts leases not stamped by an external worker: a
        unit an external worker holds is already served by capacity we
        do not manage, while an unstamped lease (the claim-to-stamp
        window, or a torn read) stays conservative and counts as
        demand.  Fresh externals are ``{worker id: host}`` of workers
        we do not own whose info file is at most ``heartbeat_fresh``
        old — busy or idle (a busy external with a stale info file
        shows through its stamped lease instead).  ``stopped`` is the
        queue-wide stop sentinel.  Caller holds ``_lock``.
        """
        doc = queue_dir_status(
            self.queue_dir, heartbeat_fresh=self.heartbeat_fresh
        )
        own = set(self._procs) | set(self._retiring)
        busy = sum(
            1 for row in doc["leases"]
            if not row["worker"] or row["worker"] in own
        )
        externals = {
            row["worker"]: row["host"] for row in doc["workers"]
            if row["worker"] not in own
            and row["age"] <= self.heartbeat_fresh
        }
        return doc["tasks"], busy, externals, doc["stopped"]

    def workers_by_host(self) -> Dict[str, int]:
        """Live workers aggregated per host: the supervisor's own pool
        (every worker on :attr:`host`) plus heartbeat-fresh externals
        under the host their info doc advertises.  The fleet
        operator's gauge — on a shared queue it shows each joined
        machine's contribution, not one number."""
        with self._lock:
            self._reap()
            counts: Dict[str, int] = {}
            own = len(self._procs) + sum(
                1 for proc in self._retiring.values()
                if proc.poll() is None
            )
            if own:
                counts[self.host] = own
            _, _, externals, _ = self._observe()
            for host in externals.values():
                counts[host] = counts.get(host, 0) + 1
            return counts

    # -- pool mutation -------------------------------------------------------

    def _spawn_one(self) -> None:
        # Host-qualified: supervisors on two hosts sharing one queue
        # (same pid by coincidence) must never mint the same id.
        worker_id = f"elastic-{self.host}-{os.getpid()}-{self._seq}"
        self._seq += 1
        proc, log_path = _spawn_worker_process(
            self.worker_args, worker_id, self.worker_poll,
            os.path.join(self.queue_dir, WORKERS_DIR),
        )
        self._procs[worker_id] = proc
        self._log_paths[worker_id] = log_path
        self.stats.spawned += 1
        self.stats.peak_workers = max(
            self.stats.peak_workers, len(self._procs)
        )
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "worker_spawn",
                worker=worker_id, host=self.host,
            ))

    def _retire_one(self) -> None:
        """Drain the newest worker via its per-worker stop sentinel."""
        worker_id = next(reversed(self._procs))
        proc = self._procs.pop(worker_id)
        atomic_write_bytes(
            _worker_stop_path(self.queue_dir, worker_id), b""
        )
        self._retiring[worker_id] = proc
        self.stats.retired += 1
        if self.telemetry is not None:
            self.telemetry.emit(make_event(
                "worker_retire",
                worker=worker_id, host=self.host,
            ))

    def _reap(self) -> None:
        """Collect exited processes and their queue-side litter.

        Caller holds ``_lock`` (both the supervisor loop and the
        dispatcher thread reap; unsynchronised deletes would race).
        """
        for worker_id, proc in list(self._retiring.items()):
            if proc.poll() is None:
                continue
            del self._retiring[worker_id]
            _cleanup_worker_files(self.queue_dir, worker_id)
        for worker_id, proc in list(self._procs.items()):
            if proc.poll() is None:
                continue
            # Exited without being retired: idle-timeout or a crash.
            del self._procs[worker_id]
            if proc.returncode != 0:
                self.abnormal_exits += 1
                self._abnormal_at.append((self.clock(), worker_id))
                if self.telemetry is not None:
                    self.telemetry.emit(make_event(
                        "worker_crash",
                        worker=worker_id, host=self.host,
                        returncode=proc.returncode,
                    ))
            # A fresh leftover heartbeat must not read as an external
            # worker and suppress the replacement spawn.
            _cleanup_worker_files(self.queue_dir, worker_id)

    # -- the scaling decision ------------------------------------------------

    def tick(self) -> None:
        """One observe-and-scale step (idempotent, any call rate)."""
        with self._lock:
            self._reap()
            pending, busy, externals, stopped = self._observe()
            if stopped:
                # A new worker would exit at once: the queue-wide stop
                # sentinel retires the whole fleet, ours included.
                self._surplus_since = None
                return
            own = len(self._procs)
            target = min(
                self.max_workers,
                max(self.min_workers, pending + busy - len(externals)),
            )
            if own < target and (pending > 0 or own < self.min_workers):
                self._emit_scale("spawn", pending, busy, own, target)
                for _ in range(target - own):
                    self._spawn_one()
                self._surplus_since = None
            elif own > target and pending == 0:
                # Sustained surplus only: a gap between two cells of
                # one campaign must not trigger a spawn/retire thrash.
                now = self.clock()
                if self._surplus_since is None:
                    self._surplus_since = now
                elif now - self._surplus_since >= self.idle_grace:
                    self._emit_scale(
                        "retire", pending, busy, own, target
                    )
                    for _ in range(own - target):
                        self._retire_one()
                    self._surplus_since = None
            else:
                self._surplus_since = None

    def _emit_scale(
        self, action: str, pending: int, busy: int, own: int,
        target: int,
    ) -> None:
        """Journal one scaling decision with the queue-pressure
        inputs that drove it — the record feedback-controlled
        scheduling will learn from."""
        if self.telemetry is None:
            return
        self.telemetry.emit(make_event(
            "scale",
            action=action, pending=pending, busy=busy,
            own=own, target=target,
        ))

    def check_health(self) -> None:
        """Raise when the pool demonstrably cannot serve.

        The dispatcher calls this while units are outstanding.  As
        long as *anyone* is serving — an own worker, a draining
        retiree, a fresh external — nothing raises: in-flight work
        must never be failed over a scaling problem.  With nobody
        serving, two failure classes surface instead of letting the
        campaign sit until the idle watchdog fires with a misleading
        message:

        * a **crash loop** — ≥3 abnormal worker exits within
          ``crash_window`` seconds (isolated crashes hours apart
          recover via respawn and must *not* abort a healthy
          campaign);
        * **scaling itself broken** — tick() failing continuously for
          ``tick_failure_grace`` seconds (spawn raising: fork
          pressure, unwritable ``workers/``), which produces no
          processes and therefore no abnormal exits; the stored
          traceback is the diagnosis.  A
          transient filesystem blip spanning a few ticks stays below
          the grace and is tolerated, matching the heartbeat's
          own forgive-transients rule.
        """
        with self._lock:
            self._reap()
            now = self.clock()
            alive_retiring = any(
                proc.poll() is None for proc in self._retiring.values()
            )
            if self._procs or alive_retiring or self._observe()[2]:
                # Someone is still serving: neither a broken scale-up
                # nor past crashes justify failing in-flight work.
                return
            if (self._tick_failing_since is not None
                    and now - self._tick_failing_since
                    >= self.tick_failure_grace):
                raise RuntimeError(
                    "elastic supervisor cannot scale the pool "
                    f"(tick failing for "
                    f"{now - self._tick_failing_since:.0f}s); "
                    "last error:\n" + (self.last_error or "<unknown>")
                )
            self._abnormal_at = [
                entry for entry in self._abnormal_at
                if now - entry[0] <= self.crash_window
            ]
            if len(self._abnormal_at) < 3:
                return
            # Ids are host-qualified at mint time (elastic-<host>-…),
            # so on a shared multi-host queue the message names which
            # machine's workers are dying — and the tails shown are
            # the crashed workers' own logs, not just the newest.
            crashed = [worker for _, worker in self._abnormal_at]
            raise RuntimeError(
                f"elastic supervisor: {len(self._abnormal_at)} "
                f"worker(s) crashed within {self.crash_window:.0f}s "
                f"and none are running: {', '.join(crashed)}\n"
                + _log_tails([
                    self._log_paths[worker]
                    for worker in crashed[-3:]
                    if worker in self._log_paths
                ])
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ElasticSupervisor":
        """Run :meth:`tick` on a daemon thread until :meth:`shutdown`."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _guarded_tick(self) -> None:
        """One tick that records failures instead of raising.

        Transient filesystem trouble must not kill the scaling loop;
        *persistent* breakage (spawn raising every time) is counted
        and surfaced — with its traceback — by :meth:`check_health`,
        because a spawn that never produces a process also never
        produces the abnormal exits the crash-loop check looks for.
        """
        try:
            self.tick()
        except Exception:
            with self._lock:
                if self._tick_failing_since is None:
                    self._tick_failing_since = self.clock()
                self.last_error = traceback.format_exc()
        else:
            with self._lock:
                self._tick_failing_since = None

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self._guarded_tick()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop scaling and tear the pool down (idempotent).

        The caller is expected to have written the queue-wide stop
        sentinel first (``WorkQueueBackend.close`` does), so workers
        drain; stragglers are terminated, then killed.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        with self._lock:
            procs = {**self._procs, **self._retiring}
            self._procs = {}
            self._retiring = {}
        deadline = time.monotonic() + timeout
        for worker_id, proc in procs.items():
            _stop_proc(proc, deadline)
            _cleanup_worker_files(self.queue_dir, worker_id)


# -- dispatcher side ---------------------------------------------------------


class QueueBackend(ExecutionBackend):
    """Dispatches units through a :class:`QueueStore` to workers, with
    lease-based failure recovery — the one queue state machine.

    It owns the outstanding/attempts/cancelled-id bookkeeping and
    every failure rule: collect-before-requeue, lease-expiry
    re-enqueue bounded by ``max_attempts``, quarantine-and-requeue of
    corrupt results, the ``heartbeat_gap`` tripwire, the idle
    watchdog, the spawned-pool health check and the straggler sweep.
    :class:`WorkQueueBackend` and
    :class:`~repro.backends.coordinator.HttpQueueBackend` only bind it
    to a store.
    """

    def __init__(
        self,
        store: QueueStore,
        *,
        lease_timeout: float,
        poll_interval: float,
        max_attempts: int,
        idle_timeout: Optional[float],
        telemetry,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.store = store
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.idle_timeout = idle_timeout
        #: Optional :class:`repro.telemetry.sink.TelemetrySink` for
        #: the queue's fault-recovery events (heartbeat gaps, lease
        #: expiries, requeues, quarantines).
        self.telemetry = telemetry
        #: ``(unit, attempt)`` pairs already warned about via a
        #: heartbeat_gap event — one early warning per delivery.
        self._gap_warned: Set[Tuple[str, int]] = set()
        self._outstanding: Dict[str, WorkUnit] = {}
        self._attempts: Dict[str, int] = {}
        #: Cancelled unit ids whose straggler results must be swept.
        self._cancelled_ids: Set[str] = set()
        self._procs: List[_ForkedWorker] = []
        self._log_paths: List[str] = []
        #: Where the spawned pool runs (fleet-stats key).
        self._host = _host_label()
        self.supervisor: Optional[ElasticSupervisor] = None
        # A stale sentinel from a previous campaign would make fresh
        # workers exit immediately.
        store.set_stop(False)

    def _emit(self, type_: str, **fields: Any) -> None:
        if self.telemetry is not None:
            self.telemetry.emit(make_event(type_, **fields))

    # -- worker management ---------------------------------------------------

    def _spawn_pool(self, count: int, log_dir: str) -> None:
        """Start a fixed pool of ``count`` local workers serving
        :attr:`store`, logging into ``log_dir``."""
        for index in range(count):
            # Host-qualified for the same reason as the elastic ids:
            # two dispatch hosts sharing one queue must not collide on
            # a coincidental pid match.
            worker_id = f"spawned-{self._host}-{os.getpid()}-{index}"
            proc, log_path = _spawn_worker_process(
                self.store.worker_args, worker_id, self.poll_interval,
                log_dir,
            )
            self._procs.append(proc)
            self._log_paths.append(log_path)
            self._emit("worker_spawn", worker=worker_id, host=self._host)

    def live_worker_count(self) -> Optional[int]:
        """Workers serving the queue, or None when unknowable (see
        :meth:`workers_by_host`)."""
        by_host = self.workers_by_host()
        return None if by_host is None else sum(by_host.values())

    def workers_by_host(self) -> Optional[Dict[str, int]]:
        """Live workers per host: the elastic pool's view, else the
        spawned pool's, else the store's whole-fleet ``stats`` (None
        only when that call fails)."""
        if self.supervisor is not None:
            return self.supervisor.workers_by_host()
        if self._procs:
            alive = sum(
                1 for proc in self._procs if proc.poll() is None
            )
            return {self._host: alive} if alive else {}
        try:
            by_host = self.store.stats().get("workers_by_host")
        except Exception:
            return None  # a progress gauge must never fail a campaign
        return dict(by_host) if isinstance(by_host, dict) else None

    def _check_spawned(self) -> None:
        if not self._outstanding:
            return
        if self.supervisor is not None:
            # Elastic pools shrink to empty by design; what must not
            # pass silently is workers crashing as fast as they spawn.
            self.supervisor.check_health()
            return
        if not self._procs:
            return
        if any(proc.poll() is None for proc in self._procs):
            return
        raise RuntimeError(
            "all spawned workers exited with "
            f"{len(self._outstanding)} unit(s) outstanding\n"
            + _log_tails(self._log_paths)
        )

    # -- submission ----------------------------------------------------------

    def _task_doc(self, unit: WorkUnit, attempt: int) -> Dict[str, Any]:
        doc = unit.to_doc()
        doc["attempt"] = attempt
        # Workers heartbeat a few times per lease window so one missed
        # beat (scheduler hiccup, slow NFS) is not a death sentence.
        doc["heartbeat"] = max(0.05, self.lease_timeout / 4.0)
        return doc

    def submit(self, unit: WorkUnit) -> None:
        if unit.unit_id in self._outstanding:
            raise ValueError(f"unit {unit.unit_id!r} already submitted")
        self._cancelled_ids.discard(unit.unit_id)
        self._outstanding[unit.unit_id] = unit
        self._attempts[unit.unit_id] = 1
        # The store sweeps the id's stale leftovers (reused queue)
        # before writing the fresh task doc.
        self.store.submit(self._task_doc(unit, attempt=1))

    # -- completion ----------------------------------------------------------

    def completions(self) -> Iterator[WorkResult]:
        last_alive = time.monotonic()
        while self._outstanding:
            progressed = False
            poll = self.store.poll(
                list(self._outstanding), list(self._cancelled_ids)
            )
            self._cancelled_ids.difference_update(poll["swept"])
            for unit_id in poll["ready"]:
                result = self._collect(unit_id)
                if result is not None:
                    progressed = True
                    yield result
            # Expiry pass second: a result that landed while its lease
            # was going stale is *collected* there, never re-enqueued.
            lease_ages = poll["lease_ages"]
            for result in self._requeue_expired(lease_ages):
                progressed = True
                yield result
            if progressed or any(
                age is not None and age <= self.lease_timeout
                for unit_id, age in lease_ages.items()
                if unit_id in self._outstanding
            ):
                last_alive = time.monotonic()
            if not self._outstanding:
                break
            if not progressed:
                self._check_spawned()
                if (self.idle_timeout is not None
                        and time.monotonic() - last_alive
                        > self.idle_timeout):
                    raise RuntimeError(
                        f"queue idle for {self.idle_timeout:.0f}s "
                        f"with {len(self._outstanding)} unit(s) "
                        "outstanding — are any workers running? "
                        "(start one with: repro worker "
                        f"{' '.join(self.store.worker_args)})"
                    )
                time.sleep(self.poll_interval)

    def _collect(self, unit_id: str) -> Optional[WorkResult]:
        body = self.store.read_result(unit_id)
        if body is None:
            return None
        unit = self._outstanding.get(unit_id)
        if unit is None:
            # Cancelled mid-drain, but a straggler worker published its
            # result after the cancel swept the queue: consume the
            # orphan now so a reused queue never replays it.
            self.store.delete_result(unit_id)
            return None
        try:
            doc = pickle.loads(body)
        except Exception:
            # Truncated/corrupt result document (a torn write on a
            # non-atomic shared filesystem, disk trouble).  Treating
            # it as absent would re-parse and re-fail it on every poll
            # forever — the dispatcher would sit on a unit that can
            # never complete.  Quarantine the evidence and re-enqueue
            # the unit (counting against max_attempts, like any other
            # failed delivery).
            self._quarantine_and_requeue(unit_id, unit)
            return None
        # Consume the result (an error one too: leaving it would make
        # a reused queue replay this failure forever).
        self.store.delete_result(unit_id)
        if not doc.get("ok"):
            raise RuntimeError(
                f"unit {unit_id} ({unit.label}) failed on worker "
                f"{doc.get('worker')}:\n{doc.get('error')}"
            )
        attempts = self._attempts.pop(unit_id)
        del self._outstanding[unit_id]
        return WorkResult(
            unit=unit,
            payload=doc["payload"],
            elapsed=float(doc.get("elapsed", 0.0)),
            worker=doc.get("worker"),
            attempts=attempts,
            timings=doc.get("timings"),
        )

    def _quarantine_and_requeue(self, unit_id: str, unit: WorkUnit) -> None:
        """Handle a corrupt result: preserve it, retry the unit.

        The store moves the corrupt document to ``corrupt/`` (atomic
        rename, so no poll ever re-reads it) and puts the unit back
        with an incremented attempt — bounded by ``max_attempts``, so
        a filesystem that keeps tearing writes fails the campaign with
        a diagnosis instead of looping forever.
        """
        attempt = self._attempts[unit_id] + 1
        if attempt > self.max_attempts:
            raise RuntimeError(
                f"unit {unit_id} ({unit.label}): corrupt result "
                f"document and the {self.max_attempts}-attempt budget "
                "is exhausted — is the queue filesystem tearing writes?"
            )
        answer = self.store.requeue(
            unit_id, self._task_doc(unit, attempt), quarantine=True
        )
        self._attempts[unit_id] = attempt
        if answer.get("quarantined"):
            self._emit(
                "quarantine", unit=unit_id, path=answer["quarantined"]
            )
        self._emit("requeue", unit=unit_id, attempt=attempt)

    def _requeue_expired(
        self, lease_ages: Dict[str, Optional[float]]
    ) -> List[WorkResult]:
        """Re-enqueue outstanding units whose worker stopped
        heartbeating; the late results collected instead.

        **Collect-before-requeue**: a worker publishes its result
        *before* releasing its lease, so a result landing while the
        lease is being expired means the unit finished.  The store
        refuses the requeue (``has_result``) and the result is
        collected and returned (for :meth:`completions` to yield), so
        a slow-but-successful worker never burns an attempt from
        ``max_attempts`` — or, worse, exhausts the budget and fails a
        campaign whose result is sitting in the queue.  Every expiry
        journals ``lease_expired`` — the one that exhausts the budget
        too, so a campaign failing from dying workers leaves the whole
        chain to narrate.
        """
        collected: List[WorkResult] = []
        for unit_id, unit in list(self._outstanding.items()):
            age = lease_ages.get(unit_id)
            if age is None:
                continue
            attempt = self._attempts[unit_id]
            if age <= self.lease_timeout:
                # Early warning: the lease aged past half its window
                # without a heartbeat — the worker is struggling (or
                # its beat thread is), even if it recovers.  One
                # event per delivery attempt.
                if (age > self.lease_timeout / 2.0
                        and (unit_id, attempt) not in self._gap_warned):
                    self._gap_warned.add((unit_id, attempt))
                    self._emit(
                        "heartbeat_gap", unit=unit_id,
                        age=round(age, 3), attempt=attempt,
                    )
                continue
            if attempt < self.max_attempts:
                answer = self.store.requeue(
                    unit_id, self._task_doc(unit, attempt + 1),
                    quarantine=False,
                )
                if answer.get("has_result"):
                    result = self._collect(unit_id)
                    if result is not None:
                        collected.append(result)
                    continue
            else:
                # No retry left: only a result that landed meanwhile
                # can still complete the unit.
                result = self._collect(unit_id)
                if result is not None:
                    collected.append(result)
                    continue
            self._emit(
                "lease_expired", unit=unit_id,
                age=round(age, 3), attempt=attempt,
            )
            if attempt >= self.max_attempts:
                raise RuntimeError(
                    f"unit {unit_id} ({unit.label}): lease expired and "
                    f"the {self.max_attempts}-attempt budget is "
                    "exhausted (workers keep dying mid-unit?)"
                )
            self._attempts[unit_id] = attempt + 1
            self._emit("requeue", unit=unit_id, attempt=attempt + 1)
        return collected

    # -- teardown ------------------------------------------------------------

    def cancel(self) -> None:
        self.cancel_units(list(self._outstanding))

    def cancel_units(self, unit_ids: Iterable[str]) -> None:
        """Withdraw specific outstanding units from the queue.

        Unclaimed tasks are removed so no worker ever picks them up.
        A unit some worker already *claimed* is cancelled too: its
        lease is removed — the executing worker cannot be interrupted
        mid-unit, but its heartbeat finds the lease gone and it skips
        its publish; a straggler result that lands anyway is swept by
        the next :meth:`completions` poll or at :meth:`close`.  Any
        result that already landed is removed now — a reused queue
        must not replay a cancelled unit's outcome.
        """
        ids = [u for u in unit_ids if u in self._outstanding]
        if not ids:
            return
        removed = self.store.cancel(ids)
        for unit_id in ids:
            stages = removed.get(unit_id, {})
            # Track the id for the straggler sweep only when a worker
            # might still publish it — tracking ids that cannot
            # straggle would grow _cancelled_ids (and its per-poll
            # sweep) for the life of a long-lived backend.  The
            # dispatcher's own attempt count is authoritative:
            # attempts > 1 means a presumed-dead predecessor may yet
            # finish; otherwise only a current claimant (task already
            # gone) that has not yet published can.
            straggler_possible = (
                self._attempts[unit_id] > 1
                or (not stages.get("task") and not stages.get("result"))
            )
            if straggler_possible:
                self._cancelled_ids.add(unit_id)
            del self._outstanding[unit_id]
            del self._attempts[unit_id]

    def close(self) -> None:
        """Stop spawned/elastic workers (via the ``stop`` sentinel,
        then escalating) and sweep cancelled units' straggler results.
        External workers keep running — set/clear the sentinel
        yourself to manage them."""
        if self._procs or self.supervisor is not None:
            try:
                self.store.set_stop(True)
            except Exception:
                pass  # queue unreachable: stop the pool directly
        if self.supervisor is not None:
            self.supervisor.shutdown()
            self.supervisor = None
        if self._procs:
            deadline = time.monotonic() + 10.0
            for proc in self._procs:
                _stop_proc(proc, deadline)
            self._procs = []
        # The workers are gone (or were never ours): any straggler
        # result a cancelled unit left behind is final litter now.
        if self._cancelled_ids:
            try:
                self.store.poll([], list(self._cancelled_ids))
            except Exception:
                pass  # best effort: the next submit sweeps the id too
            self._cancelled_ids = set()


class WorkQueueBackend(QueueBackend):
    """A :class:`QueueBackend` over a queue directory, served by
    ``repro worker --queue DIR`` processes.

    Parameters
    ----------
    queue_dir:
        The queue directory (created if missing).  Share it between
        the dispatcher and every worker — local path for same-host
        workers, network filesystem for cross-host ones.
    lease_timeout:
        Seconds without a heartbeat after which a claimed unit's
        worker is presumed dead and the unit is re-enqueued.
    max_attempts:
        Total tries (1 + re-enqueues) a unit gets before the campaign
        fails; guards against a unit that keeps killing workers.
    spawn_workers:
        Convenience: start this many local ``repro worker`` processes
        alongside the dispatcher (their logs land in
        ``queue/workers/``); they are stopped again by :meth:`close`.
        A *fixed* pool — for one that scales with queue pressure use
        ``max_workers`` instead (the two are mutually exclusive).
    idle_timeout:
        Optional watchdog: raise if no completion arrived *and* no
        live lease was observed for this many seconds (e.g. nobody
        ever started a worker).  None waits forever.
    min_workers / max_workers:
        Elastic mode: attach an :class:`ElasticSupervisor` that keeps
        the spawned pool between the two bounds, growing it while
        units queue and draining surplus workers (via per-worker stop
        sentinels, so a retiring worker finishes its lease) once the
        queue empties.  ``max_workers`` enables the mode;
        ``min_workers`` defaults to 1.
    """

    def __init__(
        self,
        queue_dir: str,
        *,
        lease_timeout: float = 60.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        spawn_workers: int = 0,
        idle_timeout: Optional[float] = None,
        min_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        elastic_idle_grace: float = 2.0,
        telemetry=None,
    ) -> None:
        if min_workers is not None and max_workers is None:
            raise ValueError("min_workers needs max_workers (elastic mode)")
        if max_workers is not None and spawn_workers:
            raise ValueError(
                "spawn_workers (fixed pool) and max_workers (elastic "
                "pool) are mutually exclusive"
            )
        super().__init__(
            DirectoryQueueStore(queue_dir),
            lease_timeout=lease_timeout,
            poll_interval=poll_interval,
            max_attempts=max_attempts,
            idle_timeout=idle_timeout,
            telemetry=telemetry,
        )
        self.queue_dir = queue_dir
        if max_workers is not None:
            self.supervisor = ElasticSupervisor(
                queue_dir,
                min_workers=1 if min_workers is None else min_workers,
                max_workers=max_workers,
                poll_interval=poll_interval,
                idle_grace=elastic_idle_grace,
                worker_poll=poll_interval,
                telemetry=telemetry,
            ).start()
        self._spawn_pool(
            spawn_workers, os.path.join(queue_dir, WORKERS_DIR)
        )
