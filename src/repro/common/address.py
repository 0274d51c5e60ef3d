"""Address decomposition for set-associative caches.

A physical address splits into ``| tag | index | offset |`` fields whose
widths follow from the cache geometry.  Placement policies consume the
tag and index fields; the offset only selects a word within the line
and never participates in placement (see paper §2.1, mbpta-p2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bitops import bit_length_for, is_power_of_two, mask


@dataclass(frozen=True)
class DecodedAddress:
    """An address decomposed against a concrete :class:`AddressLayout`."""

    address: int
    tag: int
    index: int
    offset: int

    @property
    def line_address(self) -> int:
        """The address with offset bits cleared (identifies the cache line)."""
        return self.address - self.offset


@dataclass(frozen=True)
class AddressLayout:
    """Field layout of addresses for a cache with a given geometry.

    Parameters
    ----------
    line_size:
        Bytes per cache line; must be a power of two.
    num_sets:
        Number of cache sets; must be a power of two.
    address_bits:
        Total physical address width (default 32, as in the ARM920T
        platform modelled by the paper).
    """

    line_size: int
    num_sets: int
    address_bits: int = 32
    # Field widths, derived once in __post_init__: decode runs on every
    # simulated access, so it must not re-derive them per call.
    offset_bits: int = field(init=False, repr=False, compare=False)
    index_bits: int = field(init=False, repr=False, compare=False)
    tag_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if not is_power_of_two(self.num_sets):
            raise ValueError(f"num_sets must be a power of two, got {self.num_sets}")
        offset_bits = bit_length_for(self.line_size)
        index_bits = bit_length_for(self.num_sets)
        needed = offset_bits + index_bits
        if self.address_bits <= needed:
            raise ValueError(
                f"address_bits={self.address_bits} too small for "
                f"offset({offset_bits}) + index({index_bits}) bits"
            )
        object.__setattr__(self, "offset_bits", offset_bits)
        object.__setattr__(self, "index_bits", index_bits)
        object.__setattr__(self, "tag_bits", self.address_bits - needed)

    def decode(self, address: int) -> DecodedAddress:
        """Split ``address`` into tag/index/offset fields."""
        if address < 0 or address > mask(self.address_bits):
            raise ValueError(
                f"address {address:#x} outside {self.address_bits}-bit space"
            )
        offset = address & mask(self.offset_bits)
        index = (address >> self.offset_bits) & mask(self.index_bits)
        # The range check above bounds the address, so the tag is
        # everything above the index field.
        tag = address >> (self.offset_bits + self.index_bits)
        return DecodedAddress(address=address, tag=tag, index=index, offset=offset)

    def encode(self, tag: int, index: int, offset: int = 0) -> int:
        """Rebuild an address from its fields (inverse of :meth:`decode`)."""
        if tag > mask(self.tag_bits):
            raise ValueError(f"tag {tag:#x} wider than {self.tag_bits} bits")
        if index > mask(self.index_bits):
            raise ValueError(f"index {index:#x} wider than {self.index_bits} bits")
        if offset > mask(self.offset_bits):
            raise ValueError(f"offset {offset:#x} wider than {self.offset_bits} bits")
        return (
            (tag << (self.index_bits + self.offset_bits))
            | (index << self.offset_bits)
            | offset
        )

    def line_number(self, address: int) -> int:
        """Global line number of ``address`` (tag and index concatenated)."""
        return address >> self.offset_bits
