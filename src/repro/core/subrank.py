"""Sub-ranked fine-granularity memory (AGMS/DGMS class, Section 1).

The paper's introduction dismisses adaptive/dynamic-granularity memory
systems for strided workloads: they split a rank into sub-ranks so one
access fetches a *fraction* of a line from one sub-rank, letting several
accesses share the bus -- great for random fine-grained accesses, but
"ineffective for strided memory accesses whose data tend to reside in the
same sub-rank".

This scheme makes that argument quantitative.  The rank is split into
four sub-ranks of four data chips; a fine-grained access moves one 16B
sector over a quarter of the data pins in a full burst duration.  The
sub-rank serving address ``a`` is ``(a / 16) mod 4`` -- so a fixed-stride
field scan whose stride is a multiple of 64B (any power-of-two record
size) lands *every* element in the same sub-rank and serializes, while
random sub-line reads spread over all four and overlap.

Chipkill caveat: four chips cannot host an 18-symbol SSC codeword, so
fine-granularity accesses run with weaker protection -- another reason
the paper's design goals rule this class out (``ecc_compatible`` False).
"""

from __future__ import annotations

from typing import List

from ..area.overhead import AreaReport
from ..dram.commands import READ, WRITE, Request
from ..dram.geometry import DEFAULT_GEOMETRY
from .placements import RowMajorPlacement
from .scheme import (
    AccessScheme,
    GatherPlan,
    Placement,
    SchemeTraits,
    TablePlacement,
)

#: sub-ranks per rank (4 data chips each; the channel's bus-occupancy
#: accounting weighs sub-rank transfers by the same fraction)
SUBRANKS = DEFAULT_GEOMETRY.subranks
#: bytes one fine-grained access returns
SUBRANK_CHUNK = 16


class SubRankScheme(AccessScheme):
    """AGMS/DGMS-style sub-ranked memory with 16B access granularity."""

    name = "sub-rank"

    def __init__(self, geometry=None) -> None:
        # no gather hardware: gather_factor 1 (strided loads fall back)
        super().__init__(geometry, gather_factor=1)

    fetch_fills_whole_line = False  # fetches bring only requested sectors

    @property
    def traits(self) -> SchemeTraits:
        return SchemeTraits(
            needs_db_alignment=False,
            needs_isa_extension=False,
            modifies_memory_controller=True,
            critical_word_first=True,
            ecc_compatible=False,  # 4 chips cannot carry an SSC codeword
        )

    @property
    def area(self) -> AreaReport:
        # per-sub-rank control/registering, one-time
        return AreaReport("sub-rank", 0.0, 0.01, extra_metal_layers=0)

    def placement(self, table: TablePlacement) -> Placement:
        return RowMajorPlacement(table, self)

    @staticmethod
    def subrank_of(addr: int) -> int:
        """The sub-rank holding the 16B chunk at ``addr``."""
        return (addr // SUBRANK_CHUNK) % SUBRANKS

    def lower_read_sectors(self, line_addr: int,
                           sector_mask: int) -> List[Request]:
        """Fetch only the requested 16B sectors, one sub-rank access each."""
        requests = []
        for sector in range(4):
            if not (sector_mask >> sector) & 1:
                continue
            addr = line_addr + sector * SUBRANK_CHUNK
            requests.append(
                Request(
                    addr=self.mapper.decode(addr),
                    type=READ,
                    subrank=self.subrank_of(addr),
                )
            )
        return requests or self.lower_read(line_addr)

    def lower_read(self, line_addr: int) -> List[Request]:
        """A full-line read is four sub-rank accesses (they overlap on
        the bus when they come from different sub-ranks -- here they do,
        since a line spans all four)."""
        return [
            Request(
                addr=self.mapper.decode(line_addr + s * SUBRANK_CHUNK),
                type=READ,
                subrank=s,
            )
            for s in range(SUBRANKS)
        ]

    def lower_write(self, line_addr: int) -> List[Request]:
        return [
            Request(
                addr=self.mapper.decode(line_addr + s * SUBRANK_CHUNK),
                type=WRITE,
                subrank=s,
                critical=False,
            )
            for s in range(SUBRANKS)
        ]
