"""The durable, content-addressed result store.

:class:`ResultCache` is a pickle-per-cell on-disk cache keyed by the
stable :meth:`~repro.campaigns.spec.ExperimentSpec.spec_hash` — a pure
content address, so any runner that produces a cell's payload produces
it at the same key, and two campaigns sharing one ``--cache-dir``
reuse each other's cells by construction.

Besides whole-cell payloads it stores *per-shard partials*
(``<hash>.shard.<i>of<k>.<start>-<end>.pkl``) so an interrupted
sharded cell resumes from its completed shards, and *early-stop
markers* (``<hash>.early``) recording that an entry holds a truncated
decided-at payload.  Every write is atomic (temp file + fsync +
rename) — a crash at any instant can leave a stray temp file, never a
truncated entry, so later runs can never be poisoned by a half-written
cache hit; concurrent writers at the same key race benignly (one
intact rename wins).

**Liveness leases** (``<hash>.lease``): a campaign actively working a
cell touches a sidecar lease file (created at admission, refreshed as
shards land, released when the cell finishes).  :meth:`ResultCache.gc`
treats a fresh lease as "hands off": it will not sweep the partials or
early-stop marker of a cell that another campaign sharing the
``--cache-dir`` — on another host, say — is mid-flight on, no matter
how old those files' mtimes are.  Leases are best-effort liveness, not
locks: a stale lease merely delays a sweep by one grace window, and a
missing one merely costs a recompute.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.campaigns.spec import ExperimentSpec
from repro.common.fsio import atomic_write_bytes
from repro.core.batch import Shard, ShardPlan

#: Seconds a lease's mtime may age before gc stops honouring it.  Far
#: above the refresh cadence (every shard completion), so only a
#: genuinely dead campaign loses its protection.
LEASE_GRACE_SECONDS = 3600.0


class ResultCache:
    """Pickle-per-cell on-disk cache keyed by the stable spec hash.

    Besides whole-cell payloads it stores *per-shard partials*
    (``<hash>.shard.<i>of<k>.<start>-<end>.pkl``) so an interrupted
    sharded cell resumes from its completed shards; partials are
    swept once the full cell payload lands.  Every write is atomic
    (temp file + fsync + rename) — a crash at any instant can leave a
    stray temp file, never a truncated entry, so later runs can never
    be poisoned by a half-written cache hit.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    def _path(self, spec: ExperimentSpec) -> str:
        return os.path.join(self.cache_dir, spec.spec_hash() + ".pkl")

    def _shard_prefix(self, spec: ExperimentSpec) -> str:
        return spec.spec_hash() + ".shard."

    def _shard_path(self, spec: ExperimentSpec, shard: Shard) -> str:
        return os.path.join(
            self.cache_dir,
            f"{self._shard_prefix(spec)}"
            f"{shard.index}of{shard.num_shards}."
            f"{shard.start}-{shard.end}.pkl",
        )

    def _load(self, path: str) -> Optional[Any]:
        """Unpickle ``path``, or None on any failure.

        Load failures — stale entries referencing payload classes a
        newer version renamed or moved (AttributeError/ImportError),
        truncated documents from a torn write on a shared filesystem —
        degrade to a recompute rather than aborting the campaign.  A
        file that *exists but cannot load* is additionally moved to a
        ``corrupt/`` subdirectory: left in place it would make
        ``has()`` (and every ``--dry-run`` plan) keep advertising an
        entry that silently recomputes on each run, and the broken
        bytes would be re-parsed — and re-failed — forever instead of
        being preserved once for diagnosis.
        """
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine(path)
            return None

    def _quarantine(self, path: str) -> None:
        """Move an unloadable cache file into ``corrupt/`` (atomic,
        best effort — quarantine trouble must never fail a run)."""
        corrupt_dir = os.path.join(self.cache_dir, "corrupt")
        try:
            os.makedirs(corrupt_dir, exist_ok=True)
            os.replace(
                path,
                os.path.join(
                    corrupt_dir,
                    f"{os.path.basename(path)}.{time.time_ns():x}",
                ),
            )
        except OSError:
            pass

    def _early_marker_path(self, spec_hash: str) -> str:
        return os.path.join(self.cache_dir, spec_hash + ".early")

    def has(self, spec: ExperimentSpec) -> bool:
        """Whether a whole-cell entry exists (without loading it)."""
        return os.path.exists(self._path(spec))

    def is_early_stopped(self, spec: ExperimentSpec) -> bool:
        """Whether the cell's entry holds a truncated decided-at
        payload — a cheap sidecar-marker check, no payload load, so
        planning stays O(cells) rather than O(cached bytes)."""
        return os.path.exists(self._early_marker_path(spec.spec_hash()))

    def get_record(
        self, spec: ExperimentSpec
    ) -> Optional[Tuple[Any, bool]]:
        """(payload, early_stopped) or None on miss/corruption.

        The early-stop marker rides beside the entry so a warm-cache
        rerun reports the restored cell exactly like the run that
        computed it — a truncated decided-at payload must not
        masquerade as a full-budget result.
        """
        payload = self._load(self._path(spec))
        if payload is None:
            return None
        return payload, self.is_early_stopped(spec)

    def get(self, spec: ExperimentSpec) -> Optional[Any]:
        """The cached payload, or None on miss/corruption."""
        return self._load(self._path(spec))

    def put(
        self,
        spec: ExperimentSpec,
        payload: Any,
        *,
        early_stopped: bool = False,
    ) -> None:
        """Store atomically so readers never see a partial pickle.

        ``early_stopped`` is recorded as a sidecar marker file, not
        inside the pickle.  Write ordering makes a crash at any
        instant safe: the marker lands *before* an early-stopped
        entry (a stray marker without its entry is inert) and is
        removed *after* a full-budget entry lands (a stale marker
        merely costs one recompute, never a truncated result served
        as a full one).
        """
        marker = self._early_marker_path(spec.spec_hash())
        if early_stopped:
            atomic_write_bytes(marker, b"")
        atomic_write_bytes(
            self._path(spec),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        if not early_stopped:
            try:
                os.unlink(marker)
            except FileNotFoundError:
                pass

    # -- per-shard partials --------------------------------------------------

    def put_shard(
        self, spec: ExperimentSpec, shard: Shard, payload: Any
    ) -> None:
        """Persist one shard's partial payload (atomic, like put)."""
        atomic_write_bytes(
            self._shard_path(spec, shard),
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def get_shards(
        self, spec: ExperimentSpec, plan: ShardPlan
    ) -> Dict[int, Any]:
        """``{shard index: partial payload}`` for the plan's shards.

        Only exact matches count: a partial is keyed by its full
        identity (index, shard count, sample range), so partials from
        a run with a different ``max_shards_per_cell`` are ignored
        rather than mis-merged (they are swept when the cell
        finishes).  Unreadable partials degrade to recomputes.
        """
        restored: Dict[int, Any] = {}
        for shard in plan:
            payload = self._load(self._shard_path(spec, shard))
            if payload is not None:
                restored[shard.index] = payload
        return restored

    def count_shards(self, spec: ExperimentSpec, plan: ShardPlan) -> int:
        """How many of the plan's shards have persisted partials."""
        return sum(
            1 for shard in plan
            if os.path.exists(self._shard_path(spec, shard))
        )

    def clear_shards(self, spec: ExperimentSpec) -> None:
        """Sweep every persisted partial of the cell (any plan)."""
        prefix = self._shard_prefix(spec)
        for name in os.listdir(self.cache_dir):
            if name.startswith(prefix):
                try:
                    os.unlink(os.path.join(self.cache_dir, name))
                except FileNotFoundError:
                    pass

    # -- liveness leases -----------------------------------------------------

    def _lease_path(self, spec_hash: str) -> str:
        return os.path.join(self.cache_dir, spec_hash + ".lease")

    def touch_lease(self, spec: ExperimentSpec) -> None:
        """Mark the cell live: gc must not sweep its files.

        Called at cell admission and refreshed as shards land, so the
        lease mtime tracks actual campaign progress.  Best effort —
        lease trouble (read-only cache, races with a concurrent gc)
        must never fail a run.
        """
        path = self._lease_path(spec.spec_hash())
        try:
            os.utime(path, None)
        except FileNotFoundError:
            try:
                with open(path, "ab"):
                    pass
            except OSError:
                pass
        except OSError:
            pass

    def release_lease(self, spec: ExperimentSpec) -> None:
        """Drop the cell's liveness lease (the cell finished)."""
        try:
            os.unlink(self._lease_path(spec.spec_hash()))
        except FileNotFoundError:
            pass
        except OSError:
            pass

    def _live_hashes(self, lease_grace: float) -> Set[str]:
        """Spec hashes with a fresh lease (gc's hands-off set)."""
        live: Set[str] = set()
        cutoff = time.time() - lease_grace
        for name in os.listdir(self.cache_dir):
            if not name.endswith(".lease"):
                continue
            try:
                if os.stat(os.path.join(self.cache_dir, name)).st_mtime \
                        >= cutoff:
                    live.add(name[: -len(".lease")])
            except FileNotFoundError:
                pass
        return live

    # -- garbage collection --------------------------------------------------

    def gc(
        self,
        max_age_days: float,
        *,
        lease_grace: float = LEASE_GRACE_SECONDS,
    ) -> "CacheGCStats":
        """Sweep stale entries from a long-lived shared cache.

        Removes whole-cell entries and shard partials whose mtime is
        older than ``max_age_days`` days, plus *orphaned* partials —
        shards whose *full-budget* whole-cell entry already landed
        (normally swept at merge time, but a crash between ``put`` and
        ``clear_shards`` can leave them behind).  Partials living
        beside an early-stopped entry are **not** orphans: a
        full-budget run ignores that entry and may be mid-resume on
        exactly those partials.  Age-based only, by design: the cache
        is content-addressed, so there is no LRU bookkeeping to
        maintain, and deleting a live entry merely costs a recompute.

        Cells with a *fresh liveness lease* (touched within
        ``lease_grace`` seconds — see :meth:`touch_lease`) are skipped
        entirely: a campaign that another runner is actively working
        may be mid-resume on exactly the partials and markers an
        age-only sweep would take, and sweeping them would silently
        convert its resume into a recompute.  Stale lease
        files themselves are swept as litter.
        """
        if max_age_days < 0:
            raise ValueError("max_age_days must be non-negative")
        cutoff = time.time() - max_age_days * 86400.0
        removed_cells = removed_partials = freed = 0
        names = sorted(os.listdir(self.cache_dir))
        live = self._live_hashes(lease_grace)
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                stat = os.stat(path)
            except FileNotFoundError:
                continue
            is_partial = ".shard." in name
            if is_partial:
                spec_hash = name.split(".shard.", 1)[0]
            else:
                spec_hash = name[: -len(".pkl")]
            if spec_hash in live:
                continue
            orphaned = (
                is_partial
                and os.path.exists(
                    os.path.join(self.cache_dir, spec_hash + ".pkl")
                )
                and not os.path.exists(self._early_marker_path(spec_hash))
            )
            if stat.st_mtime >= cutoff and not orphaned:
                continue
            try:
                os.unlink(path)
            except FileNotFoundError:
                continue
            freed += stat.st_size
            if is_partial:
                removed_partials += 1
            else:
                removed_cells += 1
                # The marker follows its entry out.
                try:
                    os.unlink(self._early_marker_path(spec_hash))
                except FileNotFoundError:
                    pass
        # Sweep markers whose entry is gone.  A marker is removed with
        # its entry above (the two are GC'd as a unit); an *orphaned*
        # marker — entry unlinked by a crashed sweep, a manual delete,
        # or a put() that died between marker and entry — is not just
        # litter: while it lingers, is_early_stopped() keeps answering
        # True for a spec hash with nothing cached, forcing every
        # full-budget run at that hash into a spurious recompute.  So
        # orphans are swept as soon as they outlive the put() grace
        # window (marker lands moments before its entry; a concurrent
        # gc must not unlink it inside that window, or an entry landing
        # without its marker would serve a truncated payload as a full
        # result) — NOT kept for max_age_days like real entries.
        marker_cutoff = time.time() - 300.0
        for name in names:
            if not name.endswith(".early"):
                continue
            if name[: -len(".early")] in live:
                continue
            entry = name[: -len(".early")] + ".pkl"
            if os.path.exists(os.path.join(self.cache_dir, entry)):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                if os.stat(path).st_mtime < marker_cutoff:
                    os.unlink(path)
            except FileNotFoundError:
                pass
        # Stale leases are litter from crashed campaigns: once past
        # the grace window they protect nothing and are swept so the
        # live-set scan stays O(active cells).
        lease_cutoff = time.time() - lease_grace
        for name in names:
            if not name.endswith(".lease"):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                if os.stat(path).st_mtime < lease_cutoff:
                    os.unlink(path)
            except FileNotFoundError:
                pass
        return CacheGCStats(
            removed_cells=removed_cells,
            removed_partials=removed_partials,
            freed_bytes=freed,
        )


@dataclass(frozen=True)
class CacheGCStats:
    """What one :meth:`ResultCache.gc` sweep removed."""

    removed_cells: int
    removed_partials: int
    freed_bytes: int
