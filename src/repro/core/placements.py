"""Concrete data placements (Figure 11, Section 5.4.1).

The placement decides which DRAM rows and banks a scan touches, which is
where the performance differences between the designs come from:

* :class:`RowMajorPlacement` -- records packed consecutively.  Whole-record
  scans stream within rows (row hits); field scans touch one line per
  record.  Used by the baseline, GS-DRAM and SAM-IO / SAM-en (whose stride
  groups are *sub-rows* of one DRAM row, so row-friendly queries are
  unaffected).
* :class:`ColumnMajorPlacement` -- one region per field.  The column-store
  half of the "ideal" design.
* :class:`VerticalPlacement` -- stride groups stacked across consecutive
  rows of the *same bank* (SAM-sub's column-wise subarrays; RC-NVM's
  row/column symmetry with a much larger group).  Field gathers activate a
  column-wise subarray; consecutive whole-record reads hop rows in one
  bank and pay activation churn -- the Qs-query degradation of Figure 12.
* :class:`SegmentPlacement` -- GS-DRAM's cacheline-sized segment alignment
  (Figure 11(b)): records are split into 64B segments, and segment *s* of
  every record lives in region *s*.
"""

from __future__ import annotations

from ..dram.address import DecodedAddress
from .scheme import AccessScheme, Placement, TablePlacement


class RowMajorPlacement(Placement):
    """Records stored back to back: ``base + record * record_bytes``."""

    def addr_of(self, record: int, offset: int) -> int:
        if not 0 <= record < self.table.n_records:
            raise IndexError(f"record {record} out of range")
        if not 0 <= offset < self.table.record_bytes:
            raise IndexError(f"offset {offset} out of range")
        return self.table.base + record * self.table.record_bytes + offset


class ColumnMajorPlacement(Placement):
    """One contiguous region per field (pure column store).

    ``field_bytes`` is the fixed field width (8B in the paper's tables);
    byte ``offset`` of a record belongs to field ``offset // field_bytes``.
    """

    contiguous_records = False
    #: a field's values for consecutive records are physically consecutive,
    #: so scans can use full-line vector loads
    field_runs_contiguous = True

    def __init__(self, table: TablePlacement, scheme: AccessScheme,
                 field_bytes: int = 8) -> None:
        super().__init__(table, scheme)
        if table.record_bytes % field_bytes:
            raise ValueError("record size must be a multiple of field size")
        self.field_bytes = field_bytes
        self.fields = table.record_bytes // field_bytes

    def addr_of(self, record: int, offset: int) -> int:
        if not 0 <= record < self.table.n_records:
            raise IndexError(f"record {record} out of range")
        field_index, within = divmod(offset, self.field_bytes)
        region = self.table.base + field_index * (
            self.table.n_records * self.field_bytes
        )
        return region + record * self.field_bytes + within


class VerticalPlacement(Placement):
    """Stride groups stacked across rows of one bank.

    Record ``r`` belongs to group ``r // group``; within the group, member
    ``m = r % group`` lives in the ``m``-th row of the group's row set, at
    the same intra-row offset.  A column-wise (ACT_COL) access then gathers
    one field from all members at once.  ``group`` is the scheme's gather
    factor for SAM-sub and a full subarray's worth of rows for RC-NVM
    (records aligned over a KB-magnitude space, Section 5.4.1).
    """

    def __init__(self, table: TablePlacement, scheme: AccessScheme,
                 group: int) -> None:
        super().__init__(table, scheme)
        if group < 2:
            raise ValueError("vertical placement needs a group of >= 2")
        self.group = group
        g = scheme.geometry
        self.row_bytes = g.row_bytes
        self.records_per_row = max(1, self.row_bytes // table.record_bytes)
        # rows per bank-sweep: addresses are encoded through the mapper so
        # that member m of a group lands in row (group_row_base + m) of the
        # same bank.
        self.mapper = scheme.mapper
        base_decoded = self.mapper.decode(table.base)
        self.base_row = base_decoded.row
        self.base_bank = base_decoded.bank
        self.base_rank = base_decoded.rank

    @property
    def partition_granularity(self) -> int:
        return self.group

    def addr_of(self, record: int, offset: int) -> int:
        if not 0 <= record < self.table.n_records:
            raise IndexError(f"record {record} out of range")
        if not 0 <= offset < self.table.record_bytes:
            raise IndexError(f"offset {offset} out of range")
        group_id, member = divmod(record, self.group)
        # Groups tile across banks first (bank-level parallelism for
        # streaming scans), then along the row, then into the next band of
        # `group` rows.
        slots_per_row = self.records_per_row
        g = self.scheme.geometry
        banks = g.banks
        ranks = g.ranks
        slot, within_band = divmod(group_id, banks * ranks)
        band, column_slot = divmod(slot, slots_per_row)
        bank = (self.base_bank + within_band) % banks
        rank = (self.base_rank + within_band // banks) % ranks
        row = self.base_row + band * self.group + member
        row %= g.rows_per_bank
        byte_in_row = column_slot * self.table.record_bytes + offset
        column, within_line = divmod(byte_in_row, g.cacheline_bytes)
        return self.mapper.encode(
            DecodedAddress(
                channel=0,
                rank=rank,
                bank=bank,
                row=row,
                column=column,
                offset=within_line,
            )
        )


class SegmentPlacement(Placement):
    """GS-DRAM's segment-major layout (Figure 11(b)).

    Records are cut into 64B segments; segment ``s`` of all records forms
    one contiguous region.  Field gathers stay within one region (and one
    DRAM row per group); whole-record reads fan out over
    ``record_bytes / 64`` regions.
    """

    def __init__(self, table: TablePlacement, scheme: AccessScheme) -> None:
        super().__init__(table, scheme)
        line = scheme.geometry.cacheline_bytes
        self.segment_bytes = line
        self.segments = max(1, table.record_bytes // line)
        # records smaller than a line stay row-major within their region
        self.small_record = table.record_bytes < line

    def addr_of(self, record: int, offset: int) -> int:
        if not 0 <= record < self.table.n_records:
            raise IndexError(f"record {record} out of range")
        if not 0 <= offset < self.table.record_bytes:
            raise IndexError(f"offset {offset} out of range")
        if self.small_record:
            return self.table.base + record * self.table.record_bytes + offset
        segment, within = divmod(offset, self.segment_bytes)
        region = self.table.base + segment * (
            self.table.n_records * self.segment_bytes
        )
        return region + record * self.segment_bytes + within
