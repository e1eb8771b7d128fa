"""Cost-based planner: query + scheme -> costed :class:`PhysicalPlan`.

This module owns every access-mode decision: the effective gather factor
under DRAM-row constraints, the sector/line footprint geometry, the batch
size, and the row-vs-strided cost comparison behind the paper's Figure 15
crossover.  The planner enumerates the candidate access modes per
operator, estimates burst costs, and emits a frozen :class:`PhysicalPlan`
that :mod:`repro.imdb.lowering` turns into memory ops without re-deriving
anything.

The stride decision (`stride_worthwhile`) compares the per-record costs
of `candidate_costs`; the decomposed per-operator estimates
(`est_bursts`) are for EXPLAIN output and run manifests, never for the
mode decision itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.scheme import AccessScheme, Placement
from .plan import CostModel, PhysicalNode, PhysicalPlan, selected_mask
from .query import (
    AggregateQuery,
    InsertQuery,
    JoinQuery,
    Query,
    SelectQuery,
    UpdateQuery,
)
from .schema import Table


def join_matches(build: Table, probe: Table, key: int,
                 extra: Optional[int]) -> Tuple[int, np.ndarray]:
    """Ground-truth hash join: (match count, probe-side match mask)."""
    build_keys: Dict[int, List[int]] = {}
    for i, value in enumerate(build.column(key)):
        build_keys.setdefault(int(value), []).append(i)
    matches = 0
    probe_match = np.zeros(probe.n_records, dtype=bool)
    for i, value in enumerate(probe.column(key)):
        for j in build_keys.get(int(value), ()):
            if extra is None or (
                probe.values[i, extra] > build.values[j, extra]
            ):
                matches += 1
                probe_match[i] = True
    return matches, probe_match


def limit_scan(selected: np.ndarray, limit: int) -> int:
    """Records a SELECT with a LIMIT scans: up to and including the one
    that holds its ``limit``-th selected row, or the whole table when
    fewer rows are selected.  ``selected`` may be cut after that row
    already (the ground truth's mask) or not (the EXPLAIN path's)."""
    if limit <= 0:
        return 0
    rows = np.flatnonzero(selected)
    if len(rows) < limit:
        return len(selected)
    return int(rows[limit - 1]) + 1


class Planner:
    """Chooses the physical plan for one scheme over placed tables."""

    def __init__(
        self,
        scheme: AccessScheme,
        tables: Dict[str, Table],
        placements: Dict[str, Placement],
        cost: Optional[CostModel] = None,
    ) -> None:
        self.scheme = scheme
        self.tables = tables
        self.placements = placements
        self.cost = cost or CostModel()
        self.line_bytes = scheme.geometry.cacheline_bytes

    # ------------------------------------------------------ cost primitives

    def batch_records(self) -> int:
        """Records per operator round, aligned down to the gather factor.

        The single source of truth for the batch size: the partitioner's
        chunking and the gather grouping both honour it."""
        g = self.scheme.gather_factor
        return max(g, self.cost.batch_records // g * g)

    def effective_gather(self, table: Table) -> int:
        """Elements one gather burst actually covers for field scans.

        Row-constrained gathers (SAM-IO/en sub-row stride, GS-DRAM
        intra-row shift) cannot cross a DRAM row: huge records leave
        fewer (eventually one) field elements per row."""
        g = self.scheme.gather_factor
        if not self.scheme.gather_within_row:
            return g
        row_bytes = self.scheme.geometry.row_bytes
        per_row = max(1, row_bytes // max(1, table.schema.record_bytes))
        return max(1, min(g, per_row))

    def sector_offsets(self, table: Table,
                       fields: Sequence[int]) -> List[int]:
        """Distinct sector-aligned record offsets covering ``fields``."""
        sb = self.scheme.sector_bytes
        offsets = sorted(
            {
                (table.schema.field_offset(f) // sb) * sb
                for f in fields
            }
        )
        return offsets

    def line_spans(self, table: Table,
                   fields: Sequence[int]) -> List[Tuple[int, int]]:
        """Per touched line: (first offset, read size) covering the fields
        that fall into that line of the record."""
        fb = table.schema.field_bytes
        by_line: Dict[int, List[int]] = {}
        for f in fields:
            off = table.schema.field_offset(f)
            by_line.setdefault(off // self.line_bytes, []).append(off)
        spans = []
        for line_index in sorted(by_line):
            offs = sorted(by_line[line_index])
            first = offs[0]
            last_end = offs[-1] + fb
            spans.append((first, last_end - first))
        return spans

    def candidate_costs(
        self,
        table: Table,
        pred_fields: Sequence[int],
        proj_fields: Optional[Sequence[int]],
        selectivity: float,
    ) -> Tuple[float, float]:
        """(column cost, row cost) in estimated bursts per record.

        The comparison is last-ulp sensitive, so these expressions are
        not rebuilt from the per-operator estimates.
        """
        g_eff = self.effective_gather(table)
        g = self.scheme.gather_factor
        pred_sectors = len(self.sector_offsets(table, pred_fields))
        lines = max(1, table.schema.record_bytes // self.line_bytes)
        # SALP overlaps precharge/activation across subarrays, so the
        # serialized row-conflict component of a row-wise plan shrinks.
        # Applied only when non-1.0: the guard keeps the last-ulp
        # sensitive arithmetic below bit-identical for existing schemes.
        derate = self.scheme.salp_row_derate
        if proj_fields is None:
            # SELECT *: projection is a row read either way; the choice
            # only covers the predicate scan
            col_cost = pred_sectors / g_eff
            row_cost = 1.0
            if derate != 1.0:
                row_cost *= derate
            return col_cost, row_cost
        proj_sectors = len(self.sector_offsets(table, proj_fields))
        p_any = min(1.0, selectivity * g)
        col_cost = (pred_sectors + proj_sectors * p_any) / g_eff
        pred_lines = len(self.line_spans(table, pred_fields)) if (
            pred_fields
        ) else 0
        proj_lines = len(self.line_spans(table, proj_fields))
        row_cost = max(1, pred_lines) + selectivity * min(
            lines, proj_lines
        )
        if derate != 1.0:
            row_cost *= derate
        return col_cost, row_cost

    def stride_worthwhile(
        self,
        table: Table,
        pred_fields: Sequence[int],
        proj_fields: Optional[Sequence[int]],
        selectivity: float,
    ) -> bool:
        """Mode choice: strided (column) access vs plain row-wise loads.

        A SAM-class system can serve a query either way, so the planner
        compares estimated bursts per record -- the paper's Figure 15
        shows exactly this behaviour: at full projectivity the designs
        converge to the row store.
        """
        if not self.scheme.supports_stride:
            return False
        col_cost, row_cost = self.candidate_costs(
            table, pred_fields, proj_fields, selectivity
        )
        return col_cost < row_cost

    # ------------------------------------------------------- node builders

    def _plain_mode(self, placement: Placement) -> str:
        if getattr(placement, "field_runs_contiguous", False):
            return "vector"
        if placement.contiguous_records:
            return "spans"
        return "fields"

    def _access_node(
        self,
        op: str,
        table_name: str,
        table: Table,
        fields: Sequence[int],
        records: int,
        selectivity: float = 1.0,
        force_plain: bool = False,
        writes: bool = False,
        children: Tuple[PhysicalNode, ...] = (),
        detail: Tuple[Tuple[str, object], ...] = (),
    ) -> PhysicalNode:
        """One field-access operator: strided gathers if the scheme can
        stride (and the cost gate didn't veto it), plain loads otherwise."""
        placement = self.placements[table_name]
        if self.scheme.supports_stride and not force_plain:
            offsets = tuple(self.sector_offsets(table, fields))
            g_eff = self.effective_gather(table)
            per_record = len(offsets) / g_eff
            return PhysicalNode(
                op, table_name, "strided", tuple(fields), records,
                gather=self.scheme.gather_factor,
                sector_offsets=offsets,
                est_bursts=per_record * records * selectivity
                * (2 if writes else 1),
                selectivity=selectivity, writes=writes,
                children=children, detail=detail,
            )
        mode = self._plain_mode(placement)
        if mode == "vector":
            fb = table.schema.field_bytes
            per_line = self.line_bytes // fb
            spans: Tuple[Tuple[int, int], ...] = ()
            per_record = len(set(fields)) / per_line
        elif mode == "spans":
            spans = tuple(self.line_spans(table, fields))
            per_record = float(len(spans))
        else:
            fb = table.schema.field_bytes
            spans = tuple(
                (table.schema.field_offset(f), fb) for f in sorted(fields)
            )
            per_record = float(len(spans))
        return PhysicalNode(
            op, table_name, mode, tuple(fields), records,
            line_spans=spans,
            est_bursts=per_record * records * selectivity
            * (2 if writes else 1),
            selectivity=selectivity, writes=writes,
            children=children, detail=detail,
        )

    def _record_node(
        self,
        op: str,
        table_name: str,
        table: Table,
        records: int,
        selectivity: float = 1.0,
        writes: bool = False,
        skip_line: Optional[int] = None,
        children: Tuple[PhysicalNode, ...] = (),
        detail: Tuple[Tuple[str, object], ...] = (),
    ) -> PhysicalNode:
        """Whole-record access: line-by-line on contiguous placements,
        field-by-field on scattered ones (why the pure column store
        collapses on row-preferring queries)."""
        placement = self.placements[table_name]
        rb = table.schema.record_bytes
        if placement.contiguous_records:
            per_record = float(max(1, (rb + self.line_bytes - 1)
                                   // self.line_bytes))
        else:
            per_record = float(table.schema.n_fields)
        return PhysicalNode(
            op, table_name, "rows", (), records,
            est_bursts=per_record * records * selectivity,
            selectivity=selectivity, writes=writes, skip_line=skip_line,
            children=children, detail=detail,
        )

    def _scan_node(self, table_name: str, records: int) -> PhysicalNode:
        return PhysicalNode("scan", table_name, "", (), records)

    # ------------------------------------------------------------ planning

    def plan(
        self,
        query: Query,
        selected: Optional[np.ndarray] = None,
    ) -> PhysicalPlan:
        """The chosen physical plan for ``query`` under this scheme.

        ``selected`` is the ground-truth mask (a join's probe-side
        matches) when the caller already computed it; left ``None``, the
        planner derives it itself (the EXPLAIN path).
        """
        if isinstance(query, SelectQuery):
            root, mode = self._plan_select(query, selected)
        elif isinstance(query, AggregateQuery):
            root, mode = self._plan_aggregate(query, selected)
        elif isinstance(query, UpdateQuery):
            root, mode = self._plan_update(query, selected)
        elif isinstance(query, InsertQuery):
            root, mode = self._plan_insert(query)
        elif isinstance(query, JoinQuery):
            root, mode = self._plan_join(query, selected)
        else:
            raise TypeError(f"unknown query {query!r}")
        return PhysicalPlan(
            scheme=self.scheme.name,
            query=query.name,
            mode=mode,
            root=root,
            batch_records=self.batch_records(),
        )

    # ------------------------------------------------------------- SELECT

    def _plan_select(self, query: SelectQuery,
                     selected: Optional[np.ndarray]):
        table = self.tables[query.table]
        if selected is None:
            selected = selected_mask(table, query.predicate)
        n = table.n_records
        if query.limit is not None:
            n = limit_scan(selected, query.limit)
        pred_fields = list(query.predicate.fields) if query.predicate else []
        detail = ((("limit", query.limit),) if query.limit is not None
                  else ())

        row_mode = query.prefers == "row" or (
            query.predicate is None and query.projected is None
        )
        node = self._scan_node(query.table, n)
        if row_mode:
            if pred_fields:
                node = self._row_filter_node(query.table, table,
                                             pred_fields, n, (node,))
                pred_line = (
                    table.schema.field_offset(pred_fields[0])
                    // self.line_bytes
                )
                sel_frac = float(selected[:n].mean()) if n else 0.0
                node = self._record_node(
                    "materialize", query.table, table, n,
                    selectivity=sel_frac, skip_line=pred_line,
                    children=(node,), detail=detail,
                )
            else:
                node = self._record_node(
                    "materialize", query.table, table, n,
                    children=(node,), detail=detail,
                )
            return node, "row"

        sel_frac = float(selected[:n].mean()) if n else 0.0
        plain = not self.stride_worthwhile(
            table, pred_fields, query.projected, sel_frac
        )
        if pred_fields:
            node = self._access_node(
                "filter", query.table, table, pred_fields, n,
                force_plain=plain, children=(node,),
            )
        if query.projected is None:
            # SELECT *: the projection is whole-record reads of the
            # selected records regardless of mode
            node = self._record_node(
                "materialize", query.table, table, n,
                selectivity=sel_frac, children=(node,), detail=detail,
            )
        else:
            node = self._access_node(
                "project", query.table, table, list(query.projected), n,
                selectivity=sel_frac, force_plain=plain,
                children=(node,), detail=detail,
            )
        return node, "column"

    def _row_filter_node(self, table_name: str, table: Table,
                         pred_fields: List[int], records: int,
                         children) -> PhysicalNode:
        """Row-mode predicate scan: the fields are read per record, in
        predicate order (scattered placements pay one load per field)."""
        placement = self.placements[table_name]
        if placement.contiguous_records:
            spans = tuple(self.line_spans(table, pred_fields))
            mode = "spans"
        else:
            fb = table.schema.field_bytes
            spans = tuple(
                (table.schema.field_offset(f), fb) for f in pred_fields
            )
            mode = "fields"
        return PhysicalNode(
            "filter", table_name, mode, tuple(pred_fields), records,
            line_spans=spans, est_bursts=float(len(spans)) * records,
            children=children,
        )

    # ---------------------------------------------------------- AGGREGATE

    def _plan_aggregate(self, query: AggregateQuery,
                        selected: Optional[np.ndarray]):
        table = self.tables[query.table]
        if selected is None:
            selected = selected_mask(table, query.predicate)
        n = table.n_records
        pred_fields = list(query.predicate.fields) if query.predicate else []
        sel_frac = float(selected.mean())
        plain = not self.stride_worthwhile(
            table, pred_fields, list(query.fields), sel_frac
        )
        node = self._scan_node(query.table, n)
        if pred_fields:
            node = self._access_node(
                "filter", query.table, table, pred_fields, n,
                force_plain=plain, children=(node,),
            )
        node = self._access_node(
            "aggregate", query.table, table, list(query.fields), n,
            selectivity=sel_frac, force_plain=plain, children=(node,),
            detail=(("func", query.func),),
        )
        return node, "column"

    # ------------------------------------------------------------- UPDATE

    def _plan_update(self, query: UpdateQuery,
                     selected: Optional[np.ndarray]):
        table = self.tables[query.table]
        if selected is None:
            selected = selected_mask(table, query.predicate)
        n = table.n_records
        pred_fields = list(query.predicate.fields)
        write_fields = [f for f, _v in query.assignments]
        sel_frac = float(selected.mean())
        node = self._scan_node(query.table, n)
        # the predicate scan is never cost-gated for updates: a
        # stride-capable scheme always gathers it
        node = self._access_node(
            "filter", query.table, table, pred_fields, n, children=(node,),
        )
        if self.scheme.supports_stride:
            # sload the target sectors, patch, sstore them back
            node = self._access_node(
                "update", query.table, table, write_fields, n,
                selectivity=sel_frac, writes=True, children=(node,),
            )
        else:
            fb = table.schema.field_bytes
            spans = tuple(
                (table.schema.field_offset(f), fb) for f in write_fields
            )
            node = PhysicalNode(
                "update", query.table, "stores", tuple(write_fields), n,
                line_spans=spans,
                est_bursts=float(len(spans)) * n * sel_frac,
                selectivity=sel_frac, writes=True, children=(node,),
            )
        return node, "column"

    # ------------------------------------------------------------- INSERT

    def _plan_insert(self, query: InsertQuery):
        table = self.tables[query.table]
        key = f"{query.table}+insert"
        placement = self.placements[key]
        n = query.n_records or table.n_records
        n = min(n, placement.table.n_records)
        node = self._record_node(
            "insert", key, table, n, writes=True,
            detail=(("base_table", query.table),),
        )
        return node, "row"

    # --------------------------------------------------------------- JOIN

    def _plan_join(self, query: JoinQuery,
                   probe_match: Optional[np.ndarray]):
        build = self.tables[query.build_table]
        probe = self.tables[query.probe_table]
        key = query.key_field
        extra = query.extra_compare_field
        if probe_match is None:
            _matches, probe_match = join_matches(build, probe, key, extra)
        match_frac = float(probe_match.mean()) if probe.n_records else 0.0

        build_fields = [key, query.project_build]
        if extra is not None:
            build_fields.append(extra)
        probe_fields = [key] + ([extra] if extra is not None else [])

        build_node = self._access_node(
            "hash-build", query.build_table, build, build_fields,
            build.n_records, children=(self._scan_node(
                query.build_table, build.n_records),),
        )
        probe_node = self._access_node(
            "hash-probe", query.probe_table, probe, probe_fields,
            probe.n_records, children=(self._scan_node(
                query.probe_table, probe.n_records),),
        )
        project = self._access_node(
            "project", query.probe_table, probe, [query.project_probe],
            probe.n_records, selectivity=match_frac,
            children=(probe_node,),
        )
        root = PhysicalNode(
            "join", query.probe_table, "", (), probe.n_records,
            detail=(("key_field", key),
                    ("extra_compare_field", extra)),
            children=(build_node, project),
        )
        return root, "column"


# --------------------------------------------------------------------------
# EXPLAIN entry point (CLI / tests)
# --------------------------------------------------------------------------

def plan_for(
    scheme,
    query: Query,
    tables: Dict[str, Table],
    cost: Optional[CostModel] = None,
    gather_factor: Optional[int] = None,
) -> PhysicalPlan:
    """Plan ``query`` for ``scheme`` (a name or an ``AccessScheme``)
    without running a simulation -- the EXPLAIN path."""
    from ..core.registry import make_scheme
    from ..sim.runner import allocate_placements

    if isinstance(scheme, str):
        scheme = make_scheme(scheme, gather_factor=gather_factor)
    placements = allocate_placements(scheme, tables)
    return Planner(scheme, tables, placements, cost).plan(query)
