"""Cache timing side-channel attacks (paper §2.2, §6):
Bernstein's correlation attack on AES, Prime+Probe and Evict+Time,
plus the key-space metrics behind Figure 5 and the shared trial
engine that makes the contention attacks shardable campaign kinds."""

from repro.attack.bernstein import (
    BernsteinAttack,
    BernsteinResult,
    ProfileSums,
    TimingProfile,
    profile_from_samples,
)
from repro.attack.evict_time import EvictTimeAttack, EvictTimeResult
from repro.attack.metrics import (
    ByteAttackOutcome,
    KeySpaceReport,
    candidate_matrix,
)
from repro.attack.prime_probe import PrimeProbeAttack, PrimeProbeResult
from repro.attack.trials import (
    ContentionResult,
    TrialAttack,
    TrialBlock,
    merge_trial_blocks,
    sequential_leak_test,
)

__all__ = [
    "ProfileSums",
    "TimingProfile",
    "profile_from_samples",
    "BernsteinAttack",
    "BernsteinResult",
    "ByteAttackOutcome",
    "ContentionResult",
    "KeySpaceReport",
    "candidate_matrix",
    "PrimeProbeAttack",
    "PrimeProbeResult",
    "EvictTimeAttack",
    "EvictTimeResult",
    "TrialAttack",
    "TrialBlock",
    "merge_trial_blocks",
    "sequential_leak_test",
]
