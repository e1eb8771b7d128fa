"""RC-NVM: dual-addressing crossbar memory (Section 3.3.2).

RC-NVM exchanges wordlines and bitlines on demand, so one bank serves both
row-wise and column-wise accesses -- but the two directions share the
array, so switching between a row and a column (or between two different
columns, e.g. when a query moves to a new field) conflicts in the bank.
Records are aligned over a KB-magnitude vertical span (Section 5.4.1), so
row-friendly scans hop rows of one bank.

* :class:`RCNVMWordScheme` ("RC-NVM-wd"): the reshaped 2K x 2K square
  subarray with word-level symmetry -- ~33% area, one column-row per field
  that *stays open* across consecutive gathers of the same field.
* :class:`RCNVMBitScheme` ("RC-NVM-bit"): bit-level symmetry -- each field
  gather must collect sub-fields with extra internal column operations
  (``internal_bursts``), but only ~15% area.

Both run on the RRAM timing preset (slow activation, very slow writes).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..area.overhead import AreaReport, rc_nvm_bit_area, rc_nvm_wd_area
from ..dram.commands import COLUMN, READ, WRITE, Request, RequestType
from ..dram.timing import TimingParams, preset
from ..power.model import PowerConfig
from .placements import VerticalPlacement
from .scheme import (
    AccessScheme,
    GatherPlan,
    Placement,
    SchemeTraits,
    TablePlacement,
)

#: Records are aligned across this many rows of one bank ("a much larger
#: N, in the magnitude of KB" -- 64 rows of 1KB records span a 64KB
#: alignment unit).  Also the span over which an open column-row is
#: reused by consecutive gathers of the same field.
RC_NVM_GROUP_ROWS = 64


class _RCNVMBase(AccessScheme):
    """Shared RC-NVM behaviour; subclasses set symmetry granularity."""

    #: extra internal column operations per gather (bit-level collection)
    internal_per_gather = 0

    def __init__(self, geometry=None, gather_factor: int = 8) -> None:
        super().__init__(geometry, gather_factor)

    def base_timing(self) -> TimingParams:
        return preset("RRAM")

    @property
    def traits(self) -> SchemeTraits:
        # dual addressing is selected through a mode bit as well
        return SchemeTraits(substrate="NVM", mode_switch_delay=True)

    @property
    def power_config(self) -> PowerConfig:
        return PowerConfig(name=self.name, rram=True)

    def placement(self, table: TablePlacement) -> Placement:
        group = min(RC_NVM_GROUP_ROWS, max(self.gather_factor,
                                           table.n_records))
        return VerticalPlacement(table, self, group=group)

    def _column_row_id(self, decoded) -> int:
        """Column-rows are per (vertical region, field column) and remain
        open across consecutive gathers of the same field."""
        region = decoded.row - decoded.row % RC_NVM_GROUP_ROWS
        field_column = (decoded.column * self.sectors_per_line
                        + decoded.offset // self.sector_bytes)
        return (region << (self.mapper.column_bits + 4)) | field_column

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
            internal_bursts=self.internal_per_gather,
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


class RCNVMWordScheme(_RCNVMBase):
    """RC-NVM with the reshaped square subarray (word-level symmetry)."""

    name = "RC-NVM-wd"
    internal_per_gather = 0

    @property
    def area(self) -> AreaReport:
        return rc_nvm_wd_area()


class RCNVMBitScheme(_RCNVMBase):
    """RC-NVM with bit-level crossbar symmetry: every field is collected
    from multiple bit-columns (extra internal bursts per gather)."""

    name = "RC-NVM-bit"
    # Collecting one word from bit-level columns takes several internal
    # column operations; 4 per gather (3 extra) reproduces the paper's
    # ~25% gap between RC-NVM-bit and RC-NVM-wd on Q queries.
    internal_per_gather = 3

    @property
    def area(self) -> AreaReport:
        return rc_nvm_bit_area()
