"""repro.kernels — NumPy array-of-state batch kernels for the hot path.

The campaign engine's orchestration layer (backends, shards, streaming
merges) was already parallel; this package attacks the remaining
multiplier, the per-access Python inner loop, by simulating all trials
of a block as arrays of cache state:

* :mod:`repro.kernels.placement` — vectorized batch set-index
  computation for every scalar placement policy (modulo, xor_index,
  hashRP, Random Modulo including its Benes routing, RPCache's
  permutation tables), bit-identical to ``map_set``.
* :mod:`repro.kernels.replacement` — vectorized replacement engines
  (LRU, FIFO, NRU, tree-PLRU, random with draw-sequencing parity via a
  shared fixed-stream table or per-lane XorShift128 streams) over
  ``(elements, sets, ways)`` state.
* :mod:`repro.kernels.cache` — :class:`VectorCacheBatch`, ``T``
  independent set-associative caches as ``(T, sets, ways)`` matrices
  with batched probe and pluggable victim selection, plus
  :class:`VectorRPCacheBatch` with RPCache's permutation placement and
  interference redirection.
* :mod:`repro.kernels.trials` — whole Prime+Probe / Evict+Time trial
  blocks as a few dozen batched access steps, plus the capability
  probe that picks each cell's kernel.
* :mod:`repro.kernels.replay` — batched trace replay: ``(run, set)``
  rounds (lockstep under random replacement) through two-level
  hierarchies for pwcet cells, single-cache set rounds for missrate
  cells.

Everything a kernel cannot reproduce exactly — an externally-owned
replacement PRNG, protected ranges, globally-sequenced draws under
set rounds — falls back to the scalar path with a
machine-readable reason (``--dry-run`` column, ``kernel_fallback``
telemetry event); results are bit-identical either way, only
throughput differs.  The scalar paths stay callable as the reference
the kernels are tested against.
"""

from repro.kernels.cache import VectorCacheBatch, VectorRPCacheBatch
from repro.kernels.placement import (
    VectorPlacement,
    hash64_vec,
    splitmix64_step_vec,
    vector_placement,
)
from repro.kernels.replacement import (
    VectorReplacement,
    replacement_support,
    vector_replacement,
    vector_replacement_by_name,
)
from repro.kernels.replay import (
    VectorHierarchyBatch,
    hierarchy_support,
    missrate_support,
    replay_missrate,
)
from repro.kernels.trials import (
    make_vector_batch,
    run_evict_time_block,
    run_prime_probe_block,
    supports_vector_cache,
    vector_cache_support,
)

__all__ = [
    "VectorCacheBatch",
    "VectorHierarchyBatch",
    "VectorPlacement",
    "VectorReplacement",
    "VectorRPCacheBatch",
    "hash64_vec",
    "hierarchy_support",
    "make_vector_batch",
    "missrate_support",
    "replacement_support",
    "replay_missrate",
    "run_evict_time_block",
    "run_prime_probe_block",
    "splitmix64_step_vec",
    "supports_vector_cache",
    "vector_cache_support",
    "vector_placement",
    "vector_replacement",
    "vector_replacement_by_name",
]
