"""Op lowering: :class:`PhysicalPlan` -> per-core memory-op streams.

The lowering layer is the software half of the paper's system support:
it knows the scheme's strided granularity, aligns work to the database
placement (Section 5.4.1) and emits ``sload``/``sstore`` groups for
stride-capable designs, or plain loads/stores otherwise.  It makes *no*
decisions: every access mode, footprint and batch size is read off the
physical plan the :class:`~repro.imdb.planner.Planner` chose, which is
what lets the :class:`repro.check.PlanValidator` diff the emitted
requests against the plan's declared footprints.  Its inputs are the
plan and the ground-truth selection mask alone: table names, field
counts and a ``SELECT *``'s whole-record reads come from the plan's
nodes, never from the query.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.scheme import AccessScheme, Placement
from ..cpu.ops import Compute, GatherLoad, GatherStore, Load, MemOp, Store
from ..sim.config import SystemConfig
from .plan import CostModel, PhysicalNode, PhysicalPlan
from .schema import Table


class Lowering:
    """Lowers physical plans for one scheme over one set of placements."""

    def __init__(
        self,
        scheme: AccessScheme,
        config: SystemConfig,
        tables: Dict[str, Table],
        placements: Dict[str, Placement],
        cost: Optional[CostModel] = None,
    ) -> None:
        self.scheme = scheme
        self.config = config
        self.tables = tables
        self.placements = placements
        self.cost = cost or CostModel()
        self.line_bytes = scheme.geometry.cacheline_bytes

    # ------------------------------------------------------------- helpers

    def _cycles(self, cpu_cycles: float) -> float:
        return self.config.compute_cycles(cpu_cycles)

    def partition(self, n: int, batch: int,
                  placement: Optional[Placement] = None
                  ) -> List[List[Tuple[int, int]]]:
        """Round-robin chunk assignment: core ``c`` processes chunks
        ``c, c + cores, c + 2*cores, ...`` (static interleaved scheduling,
        the usual parallel-scan decomposition; contiguous partitions would
        put every core on the same bank in lockstep whenever the partition
        size resonates with the bank interleave).  Chunks are split into
        operator batches; the chunk size honours the placement's
        partition granularity so vertical layouts keep workers on
        separate banks."""
        cores = self.config.cores
        chunk = batch
        if placement is not None:
            gran = placement.partition_granularity
            chunk = max(batch, (gran + batch - 1) // batch * batch)
        parts: List[List[Tuple[int, int]]] = [[] for _ in range(cores)]
        index = 0
        for cs in range(0, n, chunk):
            ce = min(n, cs + chunk)
            core = index % cores
            for bs in range(cs, ce, batch):
                parts[core].append((bs, min(ce, bs + batch)))
            index += 1
        return parts

    def _groups(self, start: int, end: int):
        g = self.scheme.gather_factor
        for gs in range(start, end, g):
            yield gs, min(end, gs + g)

    @staticmethod
    def coalesce(segments):
        """Merge adjacent (start, end) segments into maximal runs."""
        merged: List[Tuple[int, int]] = []
        for bs, be in segments:
            if merged and merged[-1][1] == bs:
                merged[-1] = (merged[-1][0], be)
            else:
                merged.append((bs, be))
        return merged

    # ----------------------------------------------------- field-wise scans

    def _field_access(
        self,
        ops: List[MemOp],
        placement: Placement,
        table: Table,
        bs: int,
        be: int,
        node: PhysicalNode,
        selected: Optional[np.ndarray],
    ) -> None:
        """Access ``node``'s fields for records [bs, be), column-at-a-time.

        Field-major order across the whole batch: every gather (or load)
        stream for one field finishes before the next field starts, the
        vectorized execution style that amortizes RC-NVM's column-to-column
        switches over a batch instead of paying one per record group.
        ``selected`` skips record groups with no selected member (the
        hardware still gathers whole groups).
        """
        if node.mode == "strided":
            for offset in node.sector_offsets:
                for gs, ge in self._groups(bs, be):
                    if selected is not None and not selected[gs:ge].any():
                        continue
                    ops.append(
                        GatherLoad(
                            [placement.addr_of(r, offset)
                             for r in range(gs, ge)]
                        )
                    )
            if node.writes:
                for offset in node.sector_offsets:
                    for gs, ge in self._groups(bs, be):
                        if (selected is not None
                                and not selected[gs:ge].any()):
                            continue
                        ops.append(
                            GatherStore(
                                [placement.addr_of(r, offset)
                                 for r in range(gs, ge)]
                            )
                        )
            return
        if node.mode == "vector":
            # Pure column store: a field's values are consecutive, so the
            # scan uses full-line vector loads (8 records per load).
            fb = table.schema.field_bytes
            per_line = self.line_bytes // fb
            for f in sorted(set(node.fields)):
                off = table.schema.field_offset(f)
                for cs in range(bs, be, per_line):
                    ce = min(be, cs + per_line)
                    if selected is not None and not selected[cs:ce].any():
                        continue
                    ops.append(
                        Load(placement.addr_of(cs, off), fb * (ce - cs))
                    )
            return
        if node.mode == "stores":
            for offset, size in node.line_spans:
                for r in range(bs, be):
                    if selected is not None and not selected[r]:
                        continue
                    ops.append(Store(placement.addr_of(r, offset), size))
            return
        # "spans" / "fields": per-record loads of the declared spans
        for offset, size in node.line_spans:
            for r in range(bs, be):
                if selected is not None and not selected[r]:
                    continue
                ops.append(Load(placement.addr_of(r, offset), size))

    def _record_access(
        self,
        ops: List[MemOp],
        placement: Placement,
        table: Table,
        record: int,
        access: type = Load,
        skip_line: Optional[int] = None,
    ) -> None:
        """Row-mode read (or, with ``access=Store``, write) of one whole
        record.

        Contiguous placements access it line by line; a column-major
        placement must touch every field region separately -- the reason
        the pure column store collapses on row-preferring queries.
        """
        rb = table.schema.record_bytes
        if placement.contiguous_records:
            for offset in range(0, rb, self.line_bytes):
                if (skip_line is not None
                        and offset // self.line_bytes == skip_line):
                    continue
                size = min(self.line_bytes, rb - offset)
                ops.append(access(placement.addr_of(record, offset), size))
            return
        fb = table.schema.field_bytes
        for f in range(table.schema.n_fields):
            off = table.schema.field_offset(f)
            if skip_line is not None and off // self.line_bytes == skip_line:
                continue
            ops.append(access(placement.addr_of(record, off), fb))

    # ------------------------------------------------------------ dispatch

    def lower(
        self,
        plan: PhysicalPlan,
        selected: Optional[np.ndarray] = None,
    ) -> List[List[MemOp]]:
        """Per-core op streams realizing ``plan``.

        ``selected`` is the ground-truth mask: the selected records of a
        scan, a join's probe-side matches, ``None`` for an insert.
        """
        if plan.root.op == "join":
            return self._lower_join(plan, selected)
        if plan.root.op == "insert":
            return self._lower_insert(plan)
        if plan.mode == "row":
            return self._lower_rows(plan, selected)
        return self._lower_scan(plan, selected)

    # -------------------------------------------------------- column scans

    def _lower_scan(self, plan: PhysicalPlan,
                    selected: np.ndarray) -> List[List[MemOp]]:
        """A column-mode SELECT, aggregate or UPDATE: per batch, the
        filter's access and predicate compute, then the root operator's
        access and compute over the selected records."""
        out = plan.root
        table = self.tables[out.table]
        placement = self.placements[out.table]
        filter_node = plan.node("filter")
        per_value = (self.cost.aggregate_value if out.op == "aggregate"
                     else self.cost.project_field)
        lines = max(1, table.schema.record_bytes // self.line_bytes)
        ops_per_core = []
        for segments in self.partition(out.records, plan.batch_records,
                                       placement):
            if out.op == "aggregate":
                # Aggregates process each field independently over the
                # whole chunk (field-at-a-time): this is what relieves
                # RC-NVM's column-to-column switching in Figure 15(g)/(h).
                segments = self.coalesce(segments)
            ops: List[MemOp] = []
            for bs, be in segments:
                if filter_node is not None:
                    self._field_access(
                        ops, placement, table, bs, be, filter_node, None
                    )
                    ops.append(Compute(
                        self._cycles(self.cost.predicate_eval * (be - bs))
                    ))
                nsel = int(selected[bs:be].sum())
                if nsel == 0:
                    continue
                if out.op == "materialize":
                    # SELECT *: row reads of the selected records
                    for r in range(bs, be):
                        if selected[r]:
                            self._record_access(ops, placement, table, r)
                    cycles = self.cost.materialize_line * lines * nsel
                else:
                    # strided updates sload the target sectors, patch and
                    # sstore them back; plain ones store selected fields
                    self._field_access(
                        ops, placement, table, bs, be, out, selected
                    )
                    cycles = per_value * nsel * len(out.fields)
                ops.append(Compute(self._cycles(cycles)))
            ops_per_core.append(ops)
        return ops_per_core

    # ------------------------------------------------------------ row mode

    def _lower_rows(self, plan: PhysicalPlan,
                    selected: np.ndarray) -> List[List[MemOp]]:
        out = plan.root
        table = self.tables[out.table]
        placement = self.placements[out.table]
        filter_node = plan.node("filter")
        lines = max(1, table.schema.record_bytes // self.line_bytes)
        ops_per_core = []
        for segments in self.partition(out.records, plan.batch_records,
                                       placement):
            ops: List[MemOp] = []
            for r in (r for bs, be in segments for r in range(bs, be)):
                if filter_node is not None:
                    for offset, size in filter_node.line_spans:
                        ops.append(Load(placement.addr_of(r, offset), size))
                    ops.append(
                        Compute(self._cycles(self.cost.predicate_eval))
                    )
                    if not selected[r]:
                        continue
                self._record_access(ops, placement, table, r,
                                    skip_line=out.skip_line)
                ops.append(
                    Compute(self._cycles(self.cost.materialize_line * lines))
                )
            ops_per_core.append(ops)
        return ops_per_core

    # --------------------------------------------------------------- INSERT

    def _lower_insert(self, plan: PhysicalPlan) -> List[List[MemOp]]:
        out = plan.root
        table = self.tables[dict(out.detail)["base_table"]]
        placement = self.placements[out.table]
        lines = max(1, table.schema.record_bytes // self.line_bytes)
        ops_per_core = []
        for segments in self.partition(out.records, plan.batch_records,
                                       placement):
            ops: List[MemOp] = []
            for r in (r for bs, be in segments for r in range(bs, be)):
                self._record_access(ops, placement, table, r, Store)
                ops.append(
                    Compute(self._cycles(self.cost.insert_line * lines))
                )
            ops_per_core.append(ops)
        return ops_per_core

    # ----------------------------------------------------------------- JOIN

    def _lower_join(self, plan: PhysicalPlan,
                    probe_match: np.ndarray) -> List[List[MemOp]]:
        build_node = plan.node("hash-build")
        probe_node = plan.node("hash-probe")
        project_node = plan.node("project")
        build = self.tables[build_node.table]
        probe = self.tables[probe_node.table]
        build_pl = self.placements[build_node.table]
        probe_pl = self.placements[probe_node.table]

        ops_per_core = []
        build_parts = self.partition(build.n_records, plan.batch_records, build_pl)
        probe_parts = self.partition(probe.n_records, plan.batch_records, probe_pl)
        for core in range(self.config.cores):
            ops: List[MemOp] = []
            # build phase (each core hashes its slice of the build table)
            for bs, be in build_parts[core]:
                self._field_access(
                    ops, build_pl, build, bs, be, build_node, None
                )
                ops.append(
                    Compute(self._cycles(self.cost.hash_build * (be - bs)))
                )
            # probe phase
            for bs, be in probe_parts[core]:
                self._field_access(
                    ops, probe_pl, probe, bs, be, probe_node, None
                )
                ops.append(
                    Compute(self._cycles(self.cost.hash_probe * (be - bs)))
                )
                nsel = int(probe_match[bs:be].sum())
                if nsel:
                    self._field_access(
                        ops, probe_pl, probe, bs, be, project_node,
                        probe_match,
                    )
                    ops.append(
                        Compute(self._cycles(self.cost.project_field * nsel))
                    )
            ops_per_core.append(ops)
        return ops_per_core
