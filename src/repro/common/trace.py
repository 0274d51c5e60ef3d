"""Memory-access traces.

The simulator is trace driven: programs are represented as sequences of
:class:`MemoryAccess` records (the paper's SoCLib simulator is cycle
accurate, but all timing variation studied by the paper originates in
the memory hierarchy, so a trace-driven model preserves the behaviour
of interest: the AES timing engine, :mod:`repro.core.batch`, charges
each encryption a fixed pipeline-and-hit cost plus one L2 penalty per
cold table line it touches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Union

import numpy as np


class AccessType(enum.Enum):
    """Kind of memory access issued by the processor."""

    IFETCH = "ifetch"
    LOAD = "load"
    STORE = "store"

    @property
    def is_data(self) -> bool:
        return self is not AccessType.IFETCH


@dataclass(frozen=True)
class MemoryAccess:
    """One memory reference.

    ``pid`` identifies the issuing process/software-component; the
    TSCache uses it to select the placement seed (paper §5).
    """

    address: int
    access_type: AccessType = AccessType.LOAD
    size: int = 4
    pid: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError(f"address must be non-negative, got {self.address}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")


@dataclass
class Trace:
    """An ordered sequence of memory accesses with convenience builders."""

    accesses: List[MemoryAccess] = field(default_factory=list)
    name: str = "trace"

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __getitem__(self, item):
        return self.accesses[item]

    def append(self, access: MemoryAccess) -> None:
        self.accesses.append(access)

    def extend(self, accesses: Iterable[MemoryAccess]) -> None:
        self.accesses.extend(accesses)

    def load(self, address: int, size: int = 4, pid: int = 0) -> None:
        """Append a data load."""
        self.append(MemoryAccess(address, AccessType.LOAD, size, pid))

    def store(self, address: int, size: int = 4, pid: int = 0) -> None:
        """Append a data store."""
        self.append(MemoryAccess(address, AccessType.STORE, size, pid))

    def fetch(self, address: int, pid: int = 0) -> None:
        """Append an instruction fetch."""
        self.append(MemoryAccess(address, AccessType.IFETCH, 4, pid))

    def addresses(self) -> List[int]:
        return [a.address for a in self.accesses]

    def filtered(self, access_type: Optional[AccessType] = None,
                 pid: Optional[int] = None) -> "Trace":
        """Return a new trace keeping only matching accesses."""
        kept = [
            a
            for a in self.accesses
            if (access_type is None or a.access_type is access_type)
            and (pid is None or a.pid == pid)
        ]
        return Trace(kept, name=f"{self.name}:filtered")

    @classmethod
    def from_addresses(cls, addresses: Iterable[int],
                       access_type: AccessType = AccessType.LOAD,
                       pid: int = 0, name: str = "trace") -> "Trace":
        """Build a trace of same-typed accesses from raw addresses."""
        return cls(
            [MemoryAccess(addr, access_type, 4, pid) for addr in addresses],
            name=name,
        )


#: ``kinds`` code -> access type in :class:`TraceArrays` (enum order).
_KIND_TYPES = tuple(AccessType)
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_TYPES)}


@dataclass(frozen=True)
class TraceArrays:
    """A trace as parallel arrays: what the batched replay kernels read.

    ``addresses`` and ``pids`` are int64, ``kinds`` int8 codes of the
    :class:`AccessType` members in enum order.  Iterating yields the
    :class:`MemoryAccess` records back (access size 4, which no cache
    model reads), so a scalar cache replays the arrays unchanged.
    """

    addresses: np.ndarray
    pids: np.ndarray
    kinds: np.ndarray

    def __len__(self) -> int:
        return int(self.addresses.size)

    def __iter__(self) -> Iterator[MemoryAccess]:
        for address, kind, pid in zip(
            self.addresses.tolist(), self.kinds.tolist(), self.pids.tolist()
        ):
            yield MemoryAccess(address, _KIND_TYPES[kind], 4, pid)

    @classmethod
    def from_addresses(cls, addresses, pid: int = 0,
                       stores: Optional[np.ndarray] = None) -> "TraceArrays":
        """Data accesses at ``addresses`` (ints or an int array), all
        under ``pid``: loads, except where the boolean ``stores`` mask
        is set."""
        addresses = np.asarray(addresses, dtype=np.int64)
        load = _KIND_CODES[AccessType.LOAD]
        if stores is None:
            kinds = np.full(addresses.size, load, dtype=np.int8)
        else:
            kinds = np.where(stores, _KIND_CODES[AccessType.STORE],
                             load).astype(np.int8)
        return cls(addresses, np.full(addresses.size, pid, dtype=np.int64),
                   kinds)

    @property
    def is_ifetch(self) -> np.ndarray:
        return self.kinds == _KIND_CODES[AccessType.IFETCH]

    def read_only(self) -> "TraceArrays":
        """Mark the arrays ``writeable=False`` and return ``self``."""
        for array in (self.addresses, self.pids, self.kinds):
            array.flags.writeable = False
        return self


def trace_arrays(trace: Union[Trace, TraceArrays]) -> TraceArrays:
    """The arrays of ``trace`` (a :class:`TraceArrays` passes through)."""
    if isinstance(trace, TraceArrays):
        return trace
    accesses = list(trace)
    return TraceArrays(
        addresses=np.array([a.address for a in accesses], dtype=np.int64),
        pids=np.array([a.pid for a in accesses], dtype=np.int64),
        kinds=np.array(
            [_KIND_CODES[a.access_type] for a in accesses], dtype=np.int8
        ),
    )
