"""Tests for memory-access traces."""

import pytest

from repro.common.trace import AccessType, MemoryAccess, Trace


class TestMemoryAccess:
    def test_defaults(self):
        access = MemoryAccess(0x1000)
        assert access.access_type is AccessType.LOAD
        assert access.size == 4
        assert access.pid == 0

    def test_rejects_negative_address(self):
        with pytest.raises(ValueError):
            MemoryAccess(-1)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            MemoryAccess(0, size=0)

    def test_is_data(self):
        assert MemoryAccess(0, AccessType.LOAD).access_type.is_data
        assert MemoryAccess(0, AccessType.STORE).access_type.is_data
        assert not MemoryAccess(0, AccessType.IFETCH).access_type.is_data

    def test_frozen(self):
        access = MemoryAccess(0x1000)
        with pytest.raises(Exception):
            access.address = 0x2000


class TestTrace:
    def test_builders(self):
        trace = Trace()
        trace.load(0x100)
        trace.store(0x200, pid=3)
        trace.fetch(0x300)
        assert len(trace) == 3
        assert trace[0].access_type is AccessType.LOAD
        assert trace[1].access_type is AccessType.STORE
        assert trace[1].pid == 3
        assert trace[2].access_type is AccessType.IFETCH

    def test_iteration_order(self):
        trace = Trace.from_addresses([1 * 64, 2 * 64, 3 * 64])
        assert trace.addresses() == [64, 128, 192]

    def test_extend(self):
        a = Trace.from_addresses([0, 64])
        b = Trace.from_addresses([128])
        a.extend(b)
        assert len(a) == 3

    def test_filtered_by_type(self):
        trace = Trace()
        trace.load(0x100)
        trace.store(0x200)
        loads = trace.filtered(access_type=AccessType.LOAD)
        assert len(loads) == 1
        assert loads[0].address == 0x100

    def test_filtered_by_pid(self):
        trace = Trace()
        trace.load(0x100, pid=1)
        trace.load(0x200, pid=2)
        assert len(trace.filtered(pid=2)) == 1

    def test_filtered_does_not_mutate(self):
        trace = Trace()
        trace.load(0x100, pid=1)
        trace.load(0x200, pid=2)
        trace.filtered(pid=1)
        assert len(trace) == 2

    def test_from_addresses_pid(self):
        trace = Trace.from_addresses([0x40], pid=9)
        assert trace[0].pid == 9


class TestTraceArrays:
    def test_round_trip(self):
        from repro.common.trace import trace_arrays

        trace = Trace()
        trace.load(0x100)
        trace.store(0x200, pid=3)
        trace.fetch(0x300, pid=1)
        arrays = trace_arrays(trace)
        assert arrays.addresses.tolist() == [0x100, 0x200, 0x300]
        assert arrays.pids.tolist() == [0, 3, 1]
        assert arrays.is_ifetch.tolist() == [False, False, True]
        assert len(arrays) == 3
        assert list(arrays) == list(trace)
        assert trace_arrays(arrays) is arrays

    def test_empty_trace(self):
        from repro.common.trace import trace_arrays

        arrays = trace_arrays(Trace())
        assert len(arrays) == 0
        assert list(arrays) == []

    def test_read_only(self):
        from repro.common.trace import trace_arrays

        trace = Trace()
        trace.load(0x100)
        arrays = trace_arrays(trace).read_only()
        with pytest.raises(ValueError):
            arrays.addresses[0] = 0
