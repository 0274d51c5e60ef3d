"""Prime+Probe contention attack (paper §2.2, §6.2.1 generalization).

The attacker fills the cache with its own lines (*prime*), lets the
victim perform one secret-dependent table access, then re-touches its
lines (*probe*): a miss reveals the set the victim used, and — if the
attacker knows how victim addresses map to sets — the secret index.

The paper's generalization argument (§6.2.1) is that contention-based
attacks need the attacker to create conflicts *for specific victim
data*.  With per-process seeds (TSCache), the victim's mapping is
unknown and re-randomized, so the observed set carries no information;
with RPCache, cross-process contention is randomized away.  This class
makes that argument measurable as a guessing accuracy.

Built on :class:`repro.attack.trials.TrialAttack`: every trial draws
from a position-keyed RNG stream, so the attack runs as a shardable
``prime_probe`` campaign cell with results bit-identical to a serial
run (see :mod:`repro.campaigns.experiments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

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
class PrimeProbeResult(ContentionResult):
    """Guessing accuracy over many secret-dependent accesses."""


class PrimeProbeAttack(TrialAttack):
    """Prime+Probe against a table-lookup victim on one cache level."""

    result_type = PrimeProbeResult
    default_trials = 200
    default_seed = 0xACE

    def __init__(
        self,
        cache_factory: Callable[[], SetAssociativeCache],
        table_base: int = 0x0010_0000,
        num_entries: int = 64,
        victim_pid: int = 1,
        attacker_pid: int = 2,
        attacker_base: int = 0x0900_0000,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(num_entries=num_entries, seed=seed)
        self.cache_factory = cache_factory
        self.table_base = table_base
        self.victim_pid = victim_pid
        self.attacker_pid = attacker_pid
        self.attacker_base = attacker_base

    def _run_block_vector(
        self,
        start: int,
        end: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> Optional[int]:
        from repro.kernels.trials import run_prime_probe_block

        return run_prime_probe_block(self, start, end, seed_victim)

    # -- attack phases ---------------------------------------------------

    def _prime(self, cache: SetAssociativeCache) -> List[int]:
        """Fill every way of every set with attacker lines.

        Returns the attacker's prime addresses.
        """
        geometry = cache.geometry
        prime_addresses = [
            self.attacker_base + i * geometry.line_size
            for i in range(geometry.num_sets * geometry.num_ways)
        ]
        # Two passes so LRU state settles with attacker lines resident.
        for _ in range(2):
            for address in prime_addresses:
                cache.access(MemoryAccess(address, pid=self.attacker_pid))
        return prime_addresses

    def _victim_access(self, cache: SetAssociativeCache, secret: int) -> None:
        address = self.table_base + secret * cache.geometry.line_size
        cache.access(MemoryAccess(address, pid=self.victim_pid))

    def _probe(self, cache: SetAssociativeCache,
               prime_addresses: List[int]) -> List[int]:
        """Sets (attacker view) where a probe access missed."""
        missed_sets = []
        for address in prime_addresses:
            access = MemoryAccess(address, pid=self.attacker_pid)
            if not cache.probe(access):
                missed_sets.append(cache.lookup_set(access))
        return sorted(set(missed_sets))

    def _attacker_set_of_entry(self, cache: SetAssociativeCache,
                               entry: int) -> int:
        """Set the attacker *believes* table entry ``entry`` maps to.

        The attacker evaluates the victim's table addresses under its
        own mapping (its own pid/seed) — correct exactly when victim
        and attacker share the placement configuration, which is the
        distinction the paper draws between setups.
        """
        address = self.table_base + entry * cache.geometry.line_size
        return cache.lookup_set(MemoryAccess(address, pid=self.attacker_pid))

    # -- one trial -------------------------------------------------------

    def run_trial(
        self,
        rng: np.random.Generator,
        trial: int,
        seed_victim: Optional[SeedVictimFn] = None,
    ) -> bool:
        """One Prime+Probe round: did the attacker guess the secret?

        ``seed_victim(cache, trial)`` customises per-trial seed setup
        (e.g. give the victim a fresh random seed to model TSCache);
        by default the cache keeps its constructed seeds.
        """
        cache = self.cache_factory()
        if seed_victim is not None:
            seed_victim(cache, trial)
        secret = int(rng.integers(self.num_entries))
        prime_addresses = self._prime(cache)
        self._victim_access(cache, secret)
        missed_sets = self._probe(cache, prime_addresses)
        if not missed_sets:
            return False
        # Attacker guesses any entry mapping to an observed set.
        candidates = [
            entry
            for entry in range(self.num_entries)
            if self._attacker_set_of_entry(cache, entry) in missed_sets
        ]
        if not candidates:
            return False
        guess = candidates[int(rng.integers(len(candidates)))]
        return guess == secret
