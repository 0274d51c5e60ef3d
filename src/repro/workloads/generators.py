"""Synthetic memory-trace generators.

Used by the miss-rate benchmarks (§6.2.3: RM within ~1% of modulo), the
pWCET task and tests.  All generators are deterministic given their
arguments; the randomized ones take an explicit PRNG seed.  Each
returns a :class:`~repro.common.trace.TraceArrays` built straight from
NumPy or a list of ints — what the replay kernels read — and iterating
it yields the :class:`~repro.common.trace.MemoryAccess` records a
scalar cache takes.
"""

from __future__ import annotations

import numpy as np

from repro.common.prng import XorShift128
from repro.common.trace import TraceArrays


def stride_trace(
    base: int = 0x4000_0000,
    stride: int = 32,
    count: int = 1024,
    repeats: int = 4,
    pid: int = 0,
) -> TraceArrays:
    """Sequential walk over ``count`` addresses, repeated ``repeats`` times.

    With stride == line size this is the classic streaming pattern;
    strides equal to the way size produce the pathological aligned
    conflicts that deterministic placement suffers from.
    """
    if stride <= 0 or count <= 0 or repeats <= 0:
        raise ValueError("stride, count and repeats must be positive")
    walk = base + np.arange(count, dtype=np.int64) * stride
    return TraceArrays.from_addresses(np.tile(walk, repeats), pid)


def reuse_trace(
    base: int = 0x4000_0000,
    working_set: int = 64,
    line_size: int = 32,
    accesses: int = 4096,
    reuse_fraction: float = 0.8,
    seed: int = 7,
    pid: int = 0,
) -> TraceArrays:
    """Mix of reuses within a hot working set and cold streaming accesses."""
    if not 0.0 <= reuse_fraction <= 1.0:
        raise ValueError("reuse_fraction must be within [0, 1]")
    below = XorShift128(seed).next_below
    threshold = int(reuse_fraction * 1000)
    # A hot line, or -1 for the next cold line.
    lines = np.array(
        [below(working_set) if below(1000) < threshold else -1
         for _ in range(accesses)],
        dtype=np.int64,
    )
    cold = lines < 0
    lines[cold] = working_set + np.arange(np.count_nonzero(cold))
    return TraceArrays.from_addresses(base + lines * line_size, pid)


def pointer_chase_trace(
    base: int = 0x5000_0000,
    num_nodes: int = 512,
    node_size: int = 64,
    hops: int = 4096,
    seed: int = 11,
    pid: int = 0,
) -> TraceArrays:
    """Random-permutation pointer chase: no spatial locality at all."""
    if num_nodes <= 1:
        raise ValueError("need at least two nodes")
    prng = XorShift128(seed)
    order = list(range(num_nodes))
    for i in range(num_nodes - 1, 0, -1):
        j = prng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    nodes = np.take(np.array(order, dtype=np.int64),
                    np.arange(hops) % num_nodes)
    return TraceArrays.from_addresses(base + nodes * node_size, pid)


def random_trace(
    base: int = 0x6000_0000,
    span: int = 1 << 20,
    accesses: int = 4096,
    seed: int = 13,
    pid: int = 0,
    store_fraction: float = 0.2,
) -> TraceArrays:
    """Uniformly random accesses over ``span`` bytes, mixed loads/stores."""
    if span <= 0:
        raise ValueError("span must be positive")
    below = XorShift128(seed).next_below
    # Per access: its address draw, then its load/store draw.
    draws = np.array(
        [(below(span), below(1000)) for _ in range(accesses)], dtype=np.int64
    ).reshape(accesses, 2)
    return TraceArrays.from_addresses(
        base + (draws[:, 0] & ~0x3), pid,
        stores=draws[:, 1] < int(store_fraction * 1000),
    )


def matrix_walk_trace(
    base: int = 0x7000_0000,
    rows: int = 64,
    cols: int = 64,
    element_size: int = 4,
    column_major: bool = False,
    pid: int = 0,
) -> TraceArrays:
    """Row- or column-major walk over a matrix (classic locality contrast)."""
    elements = np.arange(rows * cols, dtype=np.int64)
    if column_major:
        elements = elements.reshape(rows, cols).T.ravel()
    return TraceArrays.from_addresses(base + elements * element_size, pid)


def multi_page_task_trace(
    base: int = 0x0200_0000,
    pages: int = 5,
    lines_per_page: int = 128,
    line_size: int = 32,
    object_lines: int = 0,
    object_offset: int = 0,
    rewalk_lines: int = 256,
    pid: int = 0,
) -> TraceArrays:
    """The pWCET experiments' synthetic task: a multi-page working set,
    an optional relocatable object, and a re-walk of the first lines.

    Conflict counts — and therefore execution time — depend on the
    random cache layout, which is what makes the task a useful probe
    for MBPTA admission (Figure 1) and for the time-composability
    contrast (mbpta-p1): ``object_offset`` is the object's placement
    within its page, the degree of freedom a software integration
    changes.
    """
    if pages <= 0 or lines_per_page <= 0:
        raise ValueError("pages and lines_per_page must be positive")
    if object_lines < 0 or rewalk_lines < 0:
        raise ValueError("object_lines and rewalk_lines must be non-negative")
    working_set = (
        base
        + np.arange(pages, dtype=np.int64)[:, None] * 0x1000
        + np.arange(lines_per_page, dtype=np.int64)[None, :] * line_size
    ).ravel()
    obj = (base + pages * 0x1000 + object_offset
           + np.arange(object_lines, dtype=np.int64) * line_size)
    addresses = np.concatenate((working_set, obj))
    return TraceArrays.from_addresses(
        np.concatenate((addresses, addresses[:rewalk_lines])), pid
    )
