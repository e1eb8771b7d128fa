"""GS-DRAM (gather-scatter DRAM) and its embedded-ECC variant.

GS-DRAM drives different rows in different chips from one modified row
address, returning a cacheline's worth of strided fields per access
(Section 3.3.1).  It needs the segment alignment of Figure 11(b), modifies
the memory controller and command interface, and -- crucially -- cannot
keep chipkill (or SEC-DED) codewords intact on strided accesses:

* :class:`GSDRAMScheme` runs unprotected (fast but ``ecc_compatible``
  False -- the reliability comparisons key off this trait).
* :class:`GSDRAMEccScheme` adds embedded ECC (ECC bits stored in the data
  pages, per the paper's enhancement): every data gather needs an ECC
  gather, regular reads carry a 12.5% ECC-traffic tax, and one strided
  write updates multiple ECC codewords (the "five ECC updates" of Section
  3.3.1), modelled as read-modify-write traffic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..area.overhead import AreaReport, gs_dram_area, gs_dram_ecc_area
from ..dram.commands import READ, WRITE, Request, RequestType
from ..power.model import PowerConfig
from .placements import SegmentPlacement
from .scheme import (
    AccessScheme,
    GatherPlan,
    Placement,
    SchemeTraits,
    TablePlacement,
)


class GSDRAMScheme(AccessScheme):
    """GS-DRAM without ECC: the raw gather-scatter design."""

    name = "GS-DRAM"
    gather_within_row = True

    def __init__(self, geometry=None, gather_factor: int = 8) -> None:
        super().__init__(geometry, gather_factor)

    @property
    def traits(self) -> SchemeTraits:
        return SchemeTraits(
            modifies_memory_controller=True,
            modifies_command_interface=True,
            critical_word_first=False,  # words concentrated on few chips
            ecc_compatible=False,
        )

    @property
    def area(self) -> AreaReport:
        return gs_dram_area()

    @property
    def power_config(self) -> PowerConfig:
        return PowerConfig(name=self.name)

    def placement(self, table: TablePlacement) -> Placement:
        return SegmentPlacement(table, self)

    def _gather(self, element_addrs: Sequence[int],
                req_type: RequestType) -> GatherPlan:
        """Group elements by DRAM row; one access per row-resident group
        (the intra-row shift cannot cross a row)."""
        critical = req_type is READ
        requests = []
        fills = []
        for first, addrs in self._row_groups(element_addrs):
            requests.append(
                Request(
                    addr=first,
                    type=req_type,
                    gather=len(addrs),
                    critical=critical,
                )
            )
            requests.extend(self._ecc_requests(first, req_type))
            fills += self._sector_fills(addrs)
        return GatherPlan(requests, fills)

    def _ecc_requests(self, decoded, req_type) -> List[Request]:
        return []

    def lower_gather_read(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        return self._gather(element_addrs, READ)

    def lower_gather_write(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        return self._gather(element_addrs, WRITE)


class GSDRAMEccScheme(GSDRAMScheme):
    """GS-DRAM with embedded ECC (the fair-comparison variant).

    The embedded code restores protection but costs bandwidth:

    * every gather is followed by a same-shape ECC gather,
    * every 8th regular line read fetches the covering ECC line,
    * every write updates scattered ECC words: modelled as one extra read
      plus one extra write per strided write, and per 8th regular write.
    """

    name = "GS-DRAM-ecc"

    _ECC_LINES_PER_DATA_LINE = 8  # 8B of ECC per 64B line

    def __init__(self, geometry=None, gather_factor: int = 8) -> None:
        super().__init__(geometry, gather_factor)
        self._read_counter = 0
        self._write_counter = 0

    @property
    def traits(self) -> SchemeTraits:
        return SchemeTraits(
            modifies_memory_controller=True,
            modifies_command_interface=True,
            critical_word_first=False,
            ecc_compatible=True,  # restored via embedded ECC
        )

    @property
    def area(self) -> AreaReport:
        return gs_dram_ecc_area()

    def _ecc_line_for(self, decoded) -> "Request":
        """The ECC line covering a data line: same row, companion column
        (embedded in the same page, Section 6.2)."""
        companion = decoded.__class__(
            channel=decoded.channel,
            rank=decoded.rank,
            bank=decoded.bank,
            row=decoded.row,
            column=decoded.column ^ 1,
            offset=0,
        )
        return companion

    def _ecc_requests(self, decoded, req_type) -> List[Request]:
        ecc_addr = self._ecc_line_for(decoded)
        requests = [
            Request(addr=ecc_addr, type=READ, critical=True)
        ]
        if req_type is WRITE:
            # scattered ECC updates: read-modify-write of the ECC words
            requests.append(
                Request(addr=ecc_addr, type=WRITE, critical=False)
            )
        return requests

    def lower_read(self, line_addr: int) -> List[Request]:
        requests = super().lower_read(line_addr)
        self._read_counter += 1
        if self._read_counter % self._ECC_LINES_PER_DATA_LINE == 0:
            decoded = self.mapper.decode(line_addr)
            requests.append(
                Request(
                    addr=self._ecc_line_for(decoded),
                    type=READ,
                    critical=True,
                )
            )
        return requests

    def lower_write(self, line_addr: int) -> List[Request]:
        requests = super().lower_write(line_addr)
        self._write_counter += 1
        if self._write_counter % self._ECC_LINES_PER_DATA_LINE == 0:
            decoded = self.mapper.decode(line_addr)
            ecc_addr = self._ecc_line_for(decoded)
            requests.append(
                Request(addr=ecc_addr, type=READ, critical=False)
            )
            requests.append(
                Request(addr=ecc_addr, type=WRITE, critical=False)
            )
        return requests
