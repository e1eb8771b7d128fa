"""Tests for the planner's access-mode choice and gather derating."""

import pytest

from repro.core import make_scheme
from repro.cpu.ops import GatherLoad, Load
from repro.imdb import Lowering, Planner, TA, TB, Table, TableSchema
from repro.imdb.query import Predicate, SelectQuery
from repro.imdb.queries import aggregate_query, arithmetic_query
from repro.sim.config import SystemConfig
from repro.sim.runner import allocate_placements
from repro.workloads import QueryWorkload


class Design:
    """One scheme over placed Ta/Tb tables: its planner, its lowering,
    and the query builds over them."""

    def __init__(self, scheme_name, ta=None):
        self.scheme = make_scheme(scheme_name)
        self.tables = {
            "Ta": ta or Table(TA, 64, seed=1),
            "Tb": Table(TB, 64, seed=2),
        }
        self.placements = allocate_placements(self.scheme, self.tables)
        self.planner = Planner(self.scheme, self.tables, self.placements)
        self.lowering = Lowering(self.scheme, SystemConfig(), self.tables,
                                 self.placements)

    def build(self, query):
        return QueryWorkload(query).build(
            self.scheme, SystemConfig(), self.tables, self.placements
        )


def make_design(scheme_name, ta=None):
    design = Design(scheme_name, ta)
    return design, design.tables


def op_kinds(output):
    return {type(op) for ops in output.ops_per_core for op in ops}


class TestEffectiveGather:
    def test_row_constrained_gather_derates_with_record_size(self):
        ex, _ = make_design("SAM-en")
        assert ex.planner.effective_gather(ex.tables["Ta"]) == 8  # 1KB records
        big = Table(TableSchema("Big", 1024), 16, seed=3)  # 8KB records
        ex2, _ = make_design(
            "SAM-en", ta=big
        )
        assert ex2.planner.effective_gather(big) == 1

    def test_vertical_gather_not_derated(self):
        big = Table(TableSchema("Big", 1024), 16, seed=3)
        ex, _ = make_design("SAM-sub", ta=big)
        assert ex.planner.effective_gather(big) == 8


class TestModeChoice:
    def test_low_projectivity_uses_stride(self):
        ex, tables = make_design("SAM-en")
        assert ex.planner.stride_worthwhile(tables["Ta"], [10], [3, 4], 0.25)

    def test_cost_model_prefers_sparse_projections(self):
        """The advantage shrinks as projectivity rises: at full
        projectivity on 1KB records the two modes cost about the same."""
        ex, tables = make_design("SAM-en")
        ta = tables["Ta"]
        assert ex.planner.stride_worthwhile(ta, [10], [3, 4], 0.25)
        # dense case: within 20% of the row cost (a wash, not a win)
        g = ex.planner.effective_gather(ta)
        col = (1 + 128) / g
        row = 1 + min(16, 16)
        assert col == pytest.approx(row, rel=0.2)

    def test_huge_records_fall_back_to_rows(self):
        big = Table(TableSchema("Big", 1024), 16, seed=3)
        ex, _ = make_design("SAM-en", ta=big)
        # with one element per gather, stride mode has no advantage even
        # at high projectivity
        assert not ex.planner.stride_worthwhile(
            big, [0], list(range(512)), 1.0
        )

    def test_baseline_never_strides(self):
        ex, tables = make_design("baseline")
        assert not ex.planner.stride_worthwhile(tables["Ta"], [10], [3], 0.25)

    def test_full_projection_on_huge_records_emits_plain_loads(self):
        big = Table(TableSchema("Big", 1024), 16, seed=3)
        ex, _ = make_design("SAM-en", ta=big)
        query = SelectQuery(
            "full", "Ta", tuple(range(1024)), Predicate.where(0, "<", 1.0)
        )
        out = ex.build(query)
        assert GatherLoad not in op_kinds(out)

    def test_sparse_projection_query_emits_gathers_on_sam(self):
        ex, tables = make_design("SAM-en")
        query = arithmetic_query(4, 0.25)
        out = ex.build(query)
        assert GatherLoad in op_kinds(out)


class TestAggregateExecution:
    def test_field_at_a_time_coalesces_segments(self):
        ex, _ = make_design("SAM-en")
        merged = ex.lowering.coalesce([(0, 8), (8, 16), (32, 40)])
        assert merged == [(0, 16), (32, 40)]

    def test_aggregate_emits_fewer_operator_rounds(self):
        """Field-at-a-time aggregates issue long per-field runs on
        vertical layouts (RC-NVM's 64-record chunks coalesce), which is
        what amortizes the column-to-column switches of Figure 15(g)."""
        ex, _ = make_design("RC-NVM-wd", ta=Table(TA, 512, seed=1))
        out = ex.build(aggregate_query(2, 1.0))
        found = False
        for ops in out.ops_per_core:
            gathers = [op for op in ops if isinstance(op, GatherLoad)]
            if len(gathers) < 12:
                continue
            found = True
            # consecutive gathers mostly share their field (sector offset)
            offsets = [g.element_addrs[0] % 1024 for g in gathers]
            changes = sum(
                1 for a, b in zip(offsets, offsets[1:]) if a != b
            )
            assert changes < len(offsets) / 2
        assert found
