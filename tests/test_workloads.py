"""Tests for the synthetic workload generators and the background
interference model."""

import hashlib

import numpy as np
import pytest

from repro.common.trace import AccessType, TraceArrays
from repro.workloads.generators import (
    matrix_walk_trace,
    multi_page_task_trace,
    pointer_chase_trace,
    random_trace,
    reuse_trace,
    stride_trace,
)
from repro.workloads.interference import (
    BackgroundWorkload,
    Region,
    bernstein_background,
)


#: SHA-256 of ``(addresses as <i8, kinds as i1)`` of every
#: ``WORKLOAD_BUILDERS`` trace and of two pWCET task traces, recorded
#: when the generators still built ``MemoryAccess`` lists: the array
#: generators must emit exactly those traces.
TRACE_DIGESTS = {
    "stride": (
        "bacae85d134a5b063b9151c48326adae3be724170ec1c831c4ae97629308ab10",
        "31f565e46a6af19a7975c203585f99a6b26e0ee5b97a4bb9c7b8909d1f714ccd",
    ),
    "reuse": (
        "ced794a25041b510e00fff8e1e30e4b516e91bb254ae36ee621c21a97a71c8dc",
        "32947decfa6712993bf87279722019a7b5a196bb62ddc12cc3b724f87424cd83",
    ),
    "chase": (
        "bface904f6aaffe3b6383d3ffabfa5b6e1b86552a332b652dea37aa8db746e1e",
        "32947decfa6712993bf87279722019a7b5a196bb62ddc12cc3b724f87424cd83",
    ),
    "random": (
        "f9f130d841dc1b95d5ff0d51a9ef8fdec530cd907aace874e4889032475c6a7a",
        "c5406e12ff7a8c506c8d0758e85019616b6072062bfb9e024e322c03afe4f4ab",
    ),
    "matrix": (
        "29acea29765b628341ae991122dabdca783bf28d57f45ac58b4fe660263eaea6",
        "f9de1ef79c9d385cf14b1a1b1fd761391f3e985ce004b1a5942cb94a9275ba17",
    ),
    "thrash": (
        "acf443272b0c3d53bbe2ab6e302c18fddc1d70c1b2ccbb2cef9ad1d4aa7ffbb5",
        "32947decfa6712993bf87279722019a7b5a196bb62ddc12cc3b724f87424cd83",
    ),
    "task": (
        "99cf4d3c5e0b7f04e22a5c9b47ae79ec0147621d6e678fb555bd2ce1770c7f02",
        "3cd0285c92983397ba84ad9d5eb1ffe3c87cafd6efa77a5a8a34c2779061b5cb",
    ),
    "task_object": (
        "c948fb809f218e5268f3957e5da9c721ccf634bf9b30adf4ee64a35c585ded61",
        "3a1148f6268fac1e627e090c7e6ea0e8c32d5f4d4f0d41c2163b803189276be6",
    ),
}


def _trace_builders():
    from repro.campaigns.experiments import WORKLOAD_BUILDERS

    builders = dict(WORKLOAD_BUILDERS)
    builders["task"] = multi_page_task_trace
    builders["task_object"] = lambda: multi_page_task_trace(
        object_lines=40, object_offset=0x200
    )
    return builders


class TestTraceDigests:
    @pytest.mark.parametrize("name", sorted(TRACE_DIGESTS))
    def test_trace_matches_recorded_digest(self, name):
        trace = _trace_builders()[name]()
        assert isinstance(trace, TraceArrays)
        assert trace.addresses.dtype == np.int64
        assert trace.kinds.dtype == np.int8
        assert not trace.pids.any()
        digests = tuple(
            hashlib.sha256(array.tobytes()).hexdigest()
            for array in (trace.addresses.astype("<i8"),
                          trace.kinds.astype("i1"))
        )
        assert digests == TRACE_DIGESTS[name]

    def test_every_builder_is_pinned(self):
        assert set(_trace_builders()) == set(TRACE_DIGESTS)


class TestStride:
    def test_length(self):
        trace = stride_trace(count=100, repeats=3)
        assert len(trace) == 300

    def test_addresses(self):
        trace = stride_trace(base=0, stride=64, count=4, repeats=1)
        assert trace.addresses.tolist() == [0, 64, 128, 192]

    def test_validation(self):
        with pytest.raises(ValueError):
            stride_trace(stride=0)


class TestReuse:
    def test_reuse_fraction_bounds(self):
        with pytest.raises(ValueError):
            reuse_trace(reuse_fraction=1.5)

    def test_hot_set_dominates(self):
        trace = reuse_trace(base=0, working_set=8, line_size=32,
                            accesses=2000, reuse_fraction=0.9)
        hot = np.count_nonzero(trace.addresses < 8 * 32)
        assert hot > 1600

    def test_deterministic(self):
        a = reuse_trace(seed=5).addresses
        b = reuse_trace(seed=5).addresses
        assert np.array_equal(a, b)


class TestPointerChase:
    def test_no_immediate_repeats(self):
        trace = pointer_chase_trace(num_nodes=64, hops=500)
        addresses = trace.addresses.tolist()
        assert all(a != b for a, b in zip(addresses, addresses[1:]))

    def test_visits_all_nodes(self):
        trace = pointer_chase_trace(num_nodes=32, hops=64)
        assert np.unique(trace.addresses).size == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            pointer_chase_trace(num_nodes=1)


class TestRandom:
    def test_span_respected(self):
        trace = random_trace(base=0x1000, span=4096, accesses=500)
        assert trace.addresses.min() >= 0x1000
        assert trace.addresses.max() < 0x1000 + 4096

    def test_mixes_stores(self):
        trace = random_trace(accesses=500, store_fraction=0.5)
        stores = sum(
            1 for a in trace if a.access_type is AccessType.STORE
        )
        assert 100 < stores < 400
        assert not trace.is_ifetch.any()


class TestMatrixWalk:
    def test_row_major_sequential(self):
        trace = matrix_walk_trace(base=0, rows=2, cols=4, element_size=4)
        assert trace.addresses.tolist() == [0, 4, 8, 12, 16, 20, 24, 28]

    def test_column_major_strided(self):
        trace = matrix_walk_trace(base=0, rows=2, cols=4, element_size=4,
                                  column_major=True)
        assert trace.addresses.tolist() == [0, 16, 4, 20, 8, 24, 12, 28]


class TestRegion:
    def test_validation(self):
        with pytest.raises(ValueError):
            Region(base=0, size=0)
        with pytest.raises(ValueError):
            Region(base=-1, size=32)
        with pytest.raises(ValueError):
            Region(base=0, size=32, role="kernel")

    def test_line_addresses(self):
        region = Region(base=0x100, size=96)
        assert region.line_addresses(32) == [0x100, 0x120, 0x140]


class TestBackgroundWorkload:
    def test_roles_split(self):
        bg = bernstein_background()
        same = bg.same_process_trace(pid=1)
        other = bg.other_process_trace(pid=7)
        assert all(a.pid == 1 for a in same)
        assert all(a.pid == 7 for a in other)
        assert len(same) > 0 and len(other) > 0

    def test_combined_order(self):
        bg = bernstein_background()
        combined = bg.trace(victim_pid=1, other_pid=7)
        pids = [a.pid for a in combined]
        # Application buffers first, then the OS.
        assert pids == sorted(pids, key=lambda p: p != 1)

    def test_total_lines(self):
        """Two full sweeps (256 lines) + eight 4-line windows."""
        bg = bernstein_background()
        assert bg.total_lines == 2 * 128 + 8 * 4

    def test_needs_regions(self):
        with pytest.raises(ValueError):
            BackgroundWorkload(regions=())

    def test_regions_page_contained(self):
        """Each window region stays inside one 4 KB page, so RM maps it
        through a single page permutation."""
        bg = bernstein_background()
        for region in bg.regions[1:]:
            first_page = region.base // 4096
            last_page = (region.base + region.size - 1) // 4096
            assert first_page == last_page
