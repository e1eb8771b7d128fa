"""Physical address mapping.

The memory controller of Table 2 uses the ``rw:rk:bk:ch:cl:offset`` order
(most-significant field first).  :class:`AddressMapper` turns a flat byte
address into a :class:`DecodedAddress` and back.  Figure 10's stride-mode
OS remapping is not modeled: the runs address physical memory, which
:mod:`repro.core.placements` lays out from Figure 11, so this module only
implements the controller-side interleaving.
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import Geometry


def _log2_exact(value: int, what: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ValueError(f"{what} must be a power of two, got {value}")
    return bits


class DecodedAddress(NamedTuple):
    """An address broken into its device coordinates.  Immutable, and
    equal and hashed by value (the hash of its field tuple)."""

    channel: int
    rank: int
    bank: int  # flat bank index within the rank (0..15)
    row: int
    column: int  # cacheline index within the row
    offset: int  # byte offset within the cacheline

    @property
    def bank_group(self) -> int:
        return self.bank >> 2

    def line_key(self) -> tuple:
        """Identity of the 64B line, ignoring the intra-line offset."""
        return (self.channel, self.rank, self.bank, self.row, self.column)


class AddressMapper:
    """Encode/decode flat physical addresses per the rw:rk:bk:ch:cl:offset map."""

    def __init__(self, geometry: Geometry | None = None) -> None:
        self.geometry = geometry or Geometry()
        g = self.geometry
        self.offset_bits = _log2_exact(g.cacheline_bytes, "cacheline size")
        self.column_bits = _log2_exact(g.lines_per_row, "lines per row")
        self.channel_bits = _log2_exact(g.channels, "channel count")
        self.bank_bits = _log2_exact(g.banks, "bank count")
        self.rank_bits = _log2_exact(g.ranks, "rank count")
        self.row_bits = _log2_exact(g.rows_per_bank, "rows per bank")
        self.total_bits = (
            self.offset_bits
            + self.column_bits
            + self.channel_bits
            + self.bank_bits
            + self.rank_bits
            + self.row_bits
        )
        # decode's field masks and shifts, lowest field first
        self._offset_mask = (1 << self.offset_bits) - 1
        self._column_mask = (1 << self.column_bits) - 1
        self._channel_shift = self.offset_bits + self.column_bits
        self._channel_mask = (1 << self.channel_bits) - 1
        self._bank_shift = self._channel_shift + self.channel_bits
        self._bank_mask = (1 << self.bank_bits) - 1
        self._rank_shift = self._bank_shift + self.bank_bits
        self._rank_mask = (1 << self.rank_bits) - 1
        self._row_shift = self._rank_shift + self.rank_bits
        self._rows_per_bank = g.rows_per_bank

    def decode(self, address: int) -> DecodedAddress:
        """Split a flat byte address into device coordinates."""
        if address < 0:
            raise ValueError(f"negative address {address}")
        row = address >> self._row_shift
        if row >= self._rows_per_bank:
            row %= self._rows_per_bank
        return DecodedAddress(
            (address >> self._channel_shift) & self._channel_mask,
            (address >> self._rank_shift) & self._rank_mask,
            (address >> self._bank_shift) & self._bank_mask,
            row,
            (address >> self.offset_bits) & self._column_mask,
            address & self._offset_mask,
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Rebuild the flat byte address from device coordinates."""
        a = decoded.row
        a = (a << self.rank_bits) | decoded.rank
        a = (a << self.bank_bits) | decoded.bank
        a = (a << self.channel_bits) | decoded.channel
        a = (a << self.column_bits) | decoded.column
        a = (a << self.offset_bits) | decoded.offset
        return a

    def line_address(self, address: int) -> int:
        """Round an address down to its cacheline base."""
        return address & ~(self.geometry.cacheline_bytes - 1)
