"""repro.backends — pluggable execution backends for campaigns.

The campaign engine (:mod:`repro.campaigns`) decides *what* to run —
cells, shard plans, merges, caching.  This package decides *where*:
every backend takes the same self-describing :class:`WorkUnit` s and
streams back :class:`WorkResult` s, and because unit payloads are pure
functions of their wire form, campaign results are bit-identical
across all of them.

* :class:`SerialBackend` — in-process, submission order (reference).
* :class:`ProcessPoolBackend` — a process pool on this host.
* :class:`QueueBackend` — a work queue served by independent
  ``repro worker`` processes, with lease-based dead-worker recovery.
  One state machine over a :class:`QueueStore`, bound to either
  transport:

  * :class:`WorkQueueBackend` — over a :class:`DirectoryQueueStore`
    (same host or any host sharing the directory);
  * :class:`HttpQueueBackend` — over an :class:`HttpQueueStore`
    talking to a ``repro coordinator`` (:class:`CoordinatorServer`),
    so worker hosts need network reach instead of a shared
    filesystem.

  Both transports follow one set of failure rules: the dispatcher,
  the worker loop and the lease heartbeat are written once.  Local
  workers — a fixed ``spawn_workers`` pool or an
  :class:`ElasticSupervisor` scaling with queue pressure — start
  through one spawn function with the store's ``repro worker``
  arguments.

Quickstart::

    from repro.backends import WorkQueueBackend
    from repro.campaigns import CampaignRunner, bernstein_grid

    backend = WorkQueueBackend("shared/queue", spawn_workers=2)
    try:
        runner = CampaignRunner(backend=backend, max_shards_per_cell=8)
        results = runner.run(bernstein_grid(num_samples=300_000))
    finally:
        backend.close()
"""

from repro.backends.base import (
    ExecutionBackend,
    WorkResult,
    WorkUnit,
    execute_unit,
)
from repro.backends.coordinator import (
    CoordinatorClient,
    CoordinatorServer,
    HttpQueueBackend,
    HttpQueueStore,
    worker_loop_http,
)
from repro.backends.local import ProcessPoolBackend, SerialBackend
from repro.backends.workqueue import (
    DirectoryQueueStore,
    ElasticStats,
    ElasticSupervisor,
    QueueBackend,
    QueueStore,
    WorkQueueBackend,
    worker_loop,
)

__all__ = [
    "CoordinatorClient",
    "CoordinatorServer",
    "DirectoryQueueStore",
    "ElasticStats",
    "ElasticSupervisor",
    "ExecutionBackend",
    "HttpQueueBackend",
    "HttpQueueStore",
    "ProcessPoolBackend",
    "QueueBackend",
    "QueueStore",
    "SerialBackend",
    "WorkQueueBackend",
    "WorkResult",
    "WorkUnit",
    "execute_unit",
    "worker_loop",
    "worker_loop_http",
]
