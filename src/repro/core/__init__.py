"""The paper's contribution and evaluation core: the four experimental
setups of §6.1.2, the TSCache system glue, the vectorized AES timing
engine, and the victim/attacker Bernstein experiment."""

from repro.core.batch import (
    AESTimingEngine,
    ColdLineModel,
    Shard,
    ShardPlan,
    ShardSums,
    TimingSamples,
    lookup_line_ids,
    merge_shard_sums,
)
from repro.core.setups import (
    SETUP_NAMES,
    SetupConfig,
    make_setup,
    make_setup_hierarchy,
)
from repro.core.simulator import BernsteinCaseStudy, CaseStudyResult
from repro.core.tscache import TSCacheSystem

__all__ = [
    "SetupConfig",
    "SETUP_NAMES",
    "make_setup",
    "make_setup_hierarchy",
    "AESTimingEngine",
    "ColdLineModel",
    "Shard",
    "ShardPlan",
    "ShardSums",
    "TimingSamples",
    "lookup_line_ids",
    "merge_shard_sums",
    "BernsteinCaseStudy",
    "CaseStudyResult",
    "TSCacheSystem",
]
