"""The SAM designs (Section 4).

All three designs gather ``gather_factor`` strided elements per burst
(4 at the 8-bit SSC granularity, 8 at the 4-bit SSC-DSD granularity,
2 at 16-bit -- Figure 14(b)), and all keep chipkill codewords intact.
They differ in *where* the gather happens:

* :class:`SAMSubScheme` gathers in the array via column-wise subarrays
  (ACT_COL).  Every gather opens a fresh column-wise subarray, and record
  groups are stacked vertically across rows of one bank, so row-friendly
  queries pay activation churn.
* :class:`SAMIOScheme` gathers in the I/O buffers of one open row (stride
  I/O modes, MRS-switched): near-zero area, but it internally moves four
  bursts per gather (power) and stores data transposed (no critical word
  first).
* :class:`SAMEnScheme` is SAM-IO plus fine-grained activation (power back
  to x4 class) and the 2-D I/O buffer (default layout restored).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..area.overhead import AreaReport, sam_en_area, sam_io_area, sam_sub_area
from ..dram.commands import COLUMN, READ, STRIDE, WRITE, Request, RequestType
from ..power.model import PowerConfig
from .placements import RowMajorPlacement, VerticalPlacement
from .scheme import (
    AccessScheme,
    GatherPlan,
    Placement,
    SchemeTraits,
    TablePlacement,
)


class _SAMRowGatherMixin:
    """Shared lowering for SAM-IO / SAM-en: gathers live inside one DRAM
    row (sub-row stride), grouped per row; leftovers fall back to regular
    reads."""

    gather_within_row = True

    def _gather(
        self,
        element_addrs: Sequence[int],
        req_type: RequestType,
    ) -> GatherPlan:
        critical = req_type is READ
        requests: List[Request] = []
        fills = []
        for first, addrs in self._row_groups(element_addrs):
            if len(addrs) >= 2:
                requests.append(
                    Request(
                        addr=first,
                        type=req_type,
                        io_mode=STRIDE,
                        gather=len(addrs),
                        critical=critical,
                    )
                )
            else:
                requests.append(
                    Request(addr=first, type=req_type, critical=critical)
                )
            fills += self._sector_fills(addrs)
        return GatherPlan(requests, fills)

    def lower_gather_read(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        return self._gather(element_addrs, READ)

    def lower_gather_write(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        # A strided element is a whole chipkill codeword, so a strided
        # store needs no read-modify-write (Section 4.1).
        return self._gather(element_addrs, WRITE)


class SAMIOScheme(_SAMRowGatherMixin, AccessScheme):
    """SAM-IO: stride I/O modes over the common-die buffers."""

    name = "SAM-IO"

    def __init__(self, geometry=None, gather_factor: int = 8) -> None:
        super().__init__(geometry, gather_factor)

    @property
    def traits(self) -> SchemeTraits:
        return SchemeTraits(
            critical_word_first=False,  # transposed layout (Figure 4(c))
            mode_switch_delay=True,
        )

    @property
    def area(self) -> AreaReport:
        return sam_io_area()

    @property
    def power_config(self) -> PowerConfig:
        # Internally fetches all four I/O buffers per gather.
        return PowerConfig(
            name=self.name,
            stride_internal_bursts=4,
            stride_act_fraction=1.0,
        )

    def placement(self, table: TablePlacement) -> Placement:
        return RowMajorPlacement(table, self)


class SAMEnScheme(_SAMRowGatherMixin, AccessScheme):
    """SAM-en: SAM-IO plus two *independent* enhancement options
    (Section 4.3); both are on by default, as in the paper:

    * ``fine_grained_activation`` (Option 1): activate only the mats that
      hold useful data -- restores x4-class energy.
    * ``two_d_buffer`` (Option 2): a second serializer set reads the I/O
      buffers column-wise -- keeps the default data layout and
      critical-word-first.
    """

    name = "SAM-en"

    def __init__(
        self,
        geometry=None,
        gather_factor: int = 8,
        fine_grained_activation: bool = True,
        two_d_buffer: bool = True,
    ) -> None:
        super().__init__(geometry, gather_factor)
        self.fine_grained_activation = fine_grained_activation
        self.two_d_buffer = two_d_buffer

    @property
    def traits(self) -> SchemeTraits:
        return SchemeTraits(
            # option 2 restores the default layout / critical-word-first;
            # without it SAM-en degenerates to SAM-IO's transposed layout
            critical_word_first=self.two_d_buffer,
            mode_switch_delay=True,
        )

    @property
    def area(self) -> AreaReport:
        return sam_en_area()

    @property
    def power_config(self) -> PowerConfig:
        if self.fine_grained_activation:
            # Option 1: only the useful mats are activated and only useful
            # data moves to the buffers.
            return PowerConfig(
                name=self.name,
                stride_internal_bursts=1,
                stride_act_fraction=0.25,
            )
        return PowerConfig(
            name=self.name,
            stride_internal_bursts=4,  # SAM-IO's internal movement
            stride_act_fraction=1.0,
        )

    def placement(self, table: TablePlacement) -> Placement:
        return RowMajorPlacement(table, self)


class SAMSubScheme(AccessScheme):
    """SAM-sub: column-wise subarrays built from helper flip-flops."""

    name = "SAM-sub"

    def __init__(self, geometry=None, gather_factor: int = 8) -> None:
        super().__init__(geometry, gather_factor)

    @property
    def traits(self) -> SchemeTraits:
        # SAM-sub extends the mode registers with one stride bit
        # (Section 5.3), so it shares the mode-switch-delay mark.
        return SchemeTraits(critical_word_first=True, mode_switch_delay=True)

    @property
    def area(self) -> AreaReport:
        return sam_sub_area()

    @property
    def power_config(self) -> PowerConfig:
        # +2% background from the extra decoding and sense-amp logic
        # (Section 6.1); gathers fetch only useful data.
        return PowerConfig(
            name=self.name,
            background_scale=1.02,
            stride_internal_bursts=1,
            stride_act_fraction=1.0,
        )

    def placement(self, table: TablePlacement) -> Placement:
        return VerticalPlacement(table, self, group=self.gather_factor)

    def _column_row_id(self, decoded) -> int:
        """Synthetic open-row identity for a column-wise subarray.

        The global column buffer holds a single gather's worth, so each
        (row band, intra-row position) pair is its own column-row: gathers
        do not hit in an open buffer, which is why SAM-sub trails SAM-IO /
        SAM-en (Section 6.2).
        """
        band = decoded.row - decoded.row % self.gather_factor
        return (band << self.mapper.column_bits) | decoded.column

    def _gather(self, element_addrs: Sequence[int],
                req_type: RequestType) -> GatherPlan:
        first = self.mapper.decode(element_addrs[0])
        synthetic = first.__class__(
            channel=first.channel,
            rank=first.rank,
            bank=first.bank,
            row=self._column_row_id(first),
            column=first.column,
            offset=first.offset,
        )
        request = Request(
            addr=synthetic,
            type=req_type,
            row_kind=COLUMN,
            gather=len(element_addrs),
            critical=req_type is READ,
        )
        return GatherPlan([request], self._sector_fills(element_addrs))

    def lower_gather_read(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        return self._gather(element_addrs, READ)

    def lower_gather_write(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        return self._gather(element_addrs, WRITE)
