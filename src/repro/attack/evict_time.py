"""Evict+Time contention attack (paper §2.2, §6.2.1 generalization).

The attacker evicts the cache set it believes holds one victim table
entry, triggers a victim operation, and times it: the victim runs slow
exactly when it used the evicted entry.  Scanning the eviction target
over all entries reveals the secret index as the one with the highest
victim latency.

Like Prime+Probe, the attack presumes the attacker can create
conflicts for *specific* victim data — the capability that per-process
random placement removes (paper §5, §6.2.1).

Built on :class:`repro.attack.trials.TrialAttack`: every trial draws
from a position-keyed RNG stream, so the attack runs as a shardable
``evict_time`` campaign cell with results bit-identical to a serial
run (see :mod:`repro.campaigns.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.attack.trials import (
    ContentionResult,
    SeedLike,
    SeedVictimFn,
    TrialAttack,
)
from repro.common.trace import MemoryAccess
from repro.cache.core import SetAssociativeCache


@dataclass(frozen=True)
class EvictTimeResult(ContentionResult):
    """Guessing accuracy over many trials."""


class EvictTimeAttack(TrialAttack):
    """Evict+Time against a table-lookup victim on one cache level."""

    result_type = EvictTimeResult
    default_trials = 50
    default_seed = 0xE71C

    def __init__(
        self,
        cache_factory: Callable[[], SetAssociativeCache],
        table_base: int = 0x0010_0000,
        num_entries: int = 64,
        victim_pid: int = 1,
        attacker_pid: int = 2,
        attacker_base: int = 0x0A00_0000,
        miss_penalty: int = 10,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(num_entries=num_entries, seed=seed)
        self.cache_factory = cache_factory
        self.table_base = table_base
        self.victim_pid = victim_pid
        self.attacker_pid = attacker_pid
        self.attacker_base = attacker_base
        self.miss_penalty = miss_penalty

    def _run_block_vector(
        self,
        start: int,
        end: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> Optional[int]:
        from repro.kernels.trials import run_evict_time_block

        return run_evict_time_block(self, start, end, seed_victim)

    # -- building blocks ---------------------------------------------------

    def _entry_address(self, cache: SetAssociativeCache, entry: int) -> int:
        return self.table_base + entry * cache.geometry.line_size

    def _warm_table(self, cache: SetAssociativeCache) -> None:
        for entry in range(self.num_entries):
            cache.access(
                MemoryAccess(self._entry_address(cache, entry),
                             pid=self.victim_pid)
            )

    def _evict_attacker_view_of(self, cache: SetAssociativeCache,
                                entry: int) -> None:
        """Flood the set the attacker maps ``entry`` to, from its pid."""
        target_set = cache.lookup_set(
            MemoryAccess(self._entry_address(cache, entry),
                         pid=self.attacker_pid)
        )
        geometry = cache.geometry
        filled = 0
        line = 0
        # Touch attacker lines until `ways` of them landed in the set.
        while filled < geometry.num_ways and line < geometry.num_sets * 64:
            address = self.attacker_base + line * geometry.line_size
            access = MemoryAccess(address, pid=self.attacker_pid)
            if cache.lookup_set(access) == target_set:
                cache.access(access)
                filled += 1
            line += 1

    def _time_victim(self, cache: SetAssociativeCache, secret: int) -> int:
        address = self._entry_address(cache, secret)
        result = cache.access(MemoryAccess(address, pid=self.victim_pid))
        return 1 if result.hit else 1 + self.miss_penalty

    # -- one trial ---------------------------------------------------------

    def run_trial(
        self,
        rng: np.random.Generator,
        trial: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> bool:
        """Scan eviction targets over all entries; did the slowest
        victim run point at the true secret?"""
        secret = int(rng.integers(self.num_entries))
        best_entry = 0
        best_time = -1
        for entry in range(self.num_entries):
            cache = self.cache_factory()
            if seed_victim is not None:
                seed_victim(cache, trial)
            self._warm_table(cache)
            self._evict_attacker_view_of(cache, entry)
            victim_time = self._time_victim(cache, secret)
            if victim_time > best_time:
                best_time = victim_time
                best_entry = entry
        return best_entry == secret
