"""Shared fixtures: small cache geometries that keep scalar tests fast
while exercising the same code paths as the ARM920T configuration;
and the profile-sums byte helper the sharding and backend tests
compare payloads with."""

import numpy as np
import pytest

from repro.cache.core import CacheGeometry
from repro.common.address import AddressLayout


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A 2 KB, 16-set, 4-way cache with 32-byte lines."""
    return CacheGeometry(total_size=2048, num_ways=4, line_size=32)


@pytest.fixture
def small_layout(small_geometry) -> AddressLayout:
    return small_geometry.layout()


@pytest.fixture
def arm_l1_geometry() -> CacheGeometry:
    """The paper's L1 geometry (16 KB, 128 sets, 4 ways)."""
    return CacheGeometry(total_size=16 * 1024, num_ways=4, line_size=32)


def sums_bytes(sums) -> bytes:
    """Profile sums as bytes, for byte-for-byte comparison: Σt, Σt²,
    the counts and the total of one ``ProfileSums``, or of both
    parties' sums (victim, then attacker) of a ``bernstein`` payload."""
    if hasattr(sums, "victim_sums"):
        return sums_bytes(sums.victim_sums) + sums_bytes(sums.attacker_sums)
    return b"".join(
        np.asarray(getattr(sums, field)).tobytes()
        for field in ("sums", "sum_squares", "counts", "total")
    )
