"""The Bernstein case study end to end (paper §6.1-§6.2.1).

Emulates two independent machines running AES-128: the attacker (key
known, used for the study phase) and the victim (random secret key).
Both collect timing samples under the same processor setup; the
correlation attack then grades how much of the victim's key survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from repro.attack.bernstein import (
    BernsteinAttack,
    BernsteinResult,
    ProfileSums,
    TimingProfile,
)
from repro.attack.metrics import KeySpaceReport
from repro.core.batch import AESTimingEngine, EngineConfig
from repro.core.setups import SETUP_NAMES, SetupConfig, make_setup
from repro.crypto.aes import random_key
from repro.workloads.interference import BackgroundWorkload


@dataclass
class CaseStudyResult:
    """Everything one setup's attack run produces.

    The data are the two parties' profile sums: the attacker's indexed
    by ``plaintext ^ attacker key`` (the study phase), the victim's by
    plaintext.  They have a fixed size at any sample count.  The
    correlation attack is a pure function of them, so it is computed
    on first use and left out of the pickled state, which keeps a
    cached or transferred result at the size of the sums.
    """

    setup: SetupConfig
    victim_sums: ProfileSums
    attacker_sums: ProfileSums
    victim_key: bytes

    @cached_property
    def attack(self) -> BernsteinResult:
        study = TimingProfile.from_sums(self.attacker_sums)
        victim = TimingProfile.from_sums(self.victim_sums)
        return BernsteinAttack(study, victim).run(self.victim_key)

    @property
    def report(self) -> KeySpaceReport:
        return self.attack.report

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("attack", None)
        return state


class BernsteinCaseStudy:
    """Run the Bernstein attack against one of the four setups.

    Parameters
    ----------
    setup:
        Setup name (``deterministic``/``rpcache``/``mbpta``/``tscache``)
        or a :class:`SetupConfig`.
    num_samples:
        Encryptions collected per party.  The paper uses 10^7 on its
        native-code simulator; a few times 10^5 suffices here because
        the modelled timing is noise-free apart from the physical
        sources: background evictions and, for RPCache, random-set
        interference (see :mod:`repro.core.batch`).
    rng_seed:
        Anything :func:`numpy.random.default_rng` accepts — an int or
        a :class:`numpy.random.SeedSequence` (campaign cells pass
        their private sequence).
    """

    def __init__(
        self,
        setup,
        num_samples: int = 100_000,
        background: Optional[BackgroundWorkload] = None,
        engine_config: Optional[EngineConfig] = None,
        rng_seed=2018,
    ) -> None:
        if isinstance(setup, str):
            setup = make_setup(setup)
        self.setup = setup
        self.num_samples = num_samples
        self.rng = np.random.default_rng(rng_seed)
        self.engine = AESTimingEngine(
            setup,
            background=background,
            config=engine_config,
            rng=self.rng,
        )

    def resolve_keys(
        self,
        victim_key: Optional[bytes] = None,
        attacker_key: Optional[bytes] = None,
    ) -> Tuple[bytes, bytes]:
        """(victim, attacker) keys, drawing any missing one from the
        case study's stream (victim first — the :meth:`run` order).

        Reconstructing the case study from the same seed always
        resolves the same keys, which is what lets shard workers agree
        on them without coordination.
        """
        if victim_key is None:
            victim_key = random_key(self.rng)
        if attacker_key is None:
            attacker_key = random_key(self.rng)
        return victim_key, attacker_key

    def run(
        self,
        victim_key: Optional[bytes] = None,
        attacker_key: Optional[bytes] = None,
        campaign_seed: int = 0xC0DE,
    ) -> CaseStudyResult:
        """Collect both parties' profile sums for the correlation attack."""
        victim_key, attacker_key = self.resolve_keys(victim_key, attacker_key)
        attacker_sums = self.engine.collect_sums(
            attacker_key,
            self.num_samples,
            party="attacker",
            campaign_seed=campaign_seed,
            index_key=attacker_key,
        )
        victim_sums = self.engine.collect_sums(
            victim_key,
            self.num_samples,
            party="victim",
            campaign_seed=campaign_seed,
        )
        return CaseStudyResult(
            setup=self.setup,
            victim_sums=victim_sums,
            attacker_sums=attacker_sums,
            victim_key=victim_key,
        )


def run_all_setups(
    num_samples: int = 300_000,
    rng_seed: int = 2018,
    setups: Optional[Tuple[str, ...]] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, CaseStudyResult]:
    """Figure 5: the attack against every setup, same keys throughout.

    A thin declaration over :mod:`repro.campaigns`: one ``bernstein``
    cell per setup, each drawing from its own ``SeedSequence`` stream
    derived from ``rng_seed`` and the cell identity (the old
    ``sum(ord(c))``-style per-setup salt collided for anagram setup
    names).  ``workers > 1`` fans the setups across a process pool
    with bit-identical results; ``cache_dir`` enables the on-disk
    result cache.
    """
    from repro.campaigns import CampaignRunner, bernstein_grid

    specs = bernstein_grid(
        num_samples=num_samples,
        seed=rng_seed,
        setups=SETUP_NAMES if setups is None else setups,
    )
    campaign = CampaignRunner(workers=workers, cache_dir=cache_dir).run(specs)
    return {
        cell.spec.setup: cell.payload for cell in campaign
    }
