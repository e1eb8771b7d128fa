"""Tests for the IMDB layer: schemas, queries, and query builds."""

import numpy as np
import pytest

from repro.core import make_scheme
from repro.cpu.ops import Compute, GatherLoad, GatherStore, Load, Store
from repro.imdb import (
    CostModel,
    Lowering,
    Planner,
    TA,
    TB,
    Table,
    TableSchema,
    aggregate_query,
    all_queries,
    arithmetic_query,
    by_name,
    q_queries,
    qs_queries,
    selected_mask,
)
from repro.imdb.query import Conjunct, Predicate, SelectQuery
from repro.sim.config import SystemConfig
from repro.sim.runner import allocate_placements
from repro.workloads import QueryWorkload


class TestSchema:
    def test_table3_shapes(self):
        assert TA.record_bytes == 1024 and TA.n_fields == 128
        assert TB.record_bytes == 128 and TB.n_fields == 16

    def test_field_offsets(self):
        assert TA.field_offset(10) == 80
        with pytest.raises(IndexError):
            TB.field_offset(16)

    def test_table_values_deterministic(self):
        a = Table(TB, 100, seed=3)
        b = Table(TB, 100, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            Table(TB, 0)


class TestQueries:
    def test_benchmark_complete(self):
        names = [q.name for q in all_queries()]
        assert names == [f"Q{i}" for i in range(1, 13)] + [
            f"Qs{i}" for i in range(1, 7)
        ]

    def test_q_queries_prefer_column(self):
        assert all(q.prefers == "column" for q in q_queries())

    def test_qs_queries_prefer_row(self):
        assert all(q.prefers == "row" for q in qs_queries())

    def test_q1_shape(self):
        q = by_name()["Q1"]
        assert q.table == "Ta" and q.projected == (3, 4)
        assert q.predicate.conjuncts[0].field == 10

    def test_q2_is_rare(self):
        q = by_name()["Q2"]
        assert q.projected is None
        assert q.predicate.conjuncts[0].selectivity <= 0.05

    def test_q9_two_conjuncts(self):
        q = by_name()["Q9"]
        assert len(q.predicate.conjuncts) == 2

    def test_update_assignments(self):
        q11 = by_name()["Q11"]
        assert dict(q11.assignments).keys() == {3, 4}

    def test_parametric_arithmetic(self):
        q = arithmetic_query(8, 0.5)
        assert len(q.projected) == 8
        assert q.predicate.conjuncts[0].selectivity == 0.5

    def test_parametric_deterministic(self):
        assert arithmetic_query(8, 0.5).projected == arithmetic_query(
            8, 0.5
        ).projected

    def test_aggregate_query(self):
        q = aggregate_query(4, 0.25)
        assert q.func == "AVG" and len(q.fields) == 4

    def test_bad_predicate(self):
        with pytest.raises(ValueError):
            Conjunct(0, ">=", 0.5)
        with pytest.raises(ValueError):
            Conjunct(0, ">", 1.5)


def build(scheme_name, query, n_ta=64, n_tb=64):
    scheme = make_scheme(scheme_name)
    config = SystemConfig()
    tables = {"Ta": Table(TA, n_ta, seed=1), "Tb": Table(TB, n_tb, seed=2)}
    placements = allocate_placements(scheme, tables)
    return QueryWorkload(query).build(scheme, config, tables,
                                      placements), tables


class TestExecutor:
    def test_baseline_q1_uses_loads_only(self):
        out, _ = build("baseline", by_name()["Q1"])
        kinds = {type(op) for ops in out.ops_per_core for op in ops}
        assert GatherLoad not in kinds
        assert Load in kinds and Compute in kinds

    def test_sam_q1_uses_gathers(self):
        out, _ = build("SAM-en", by_name()["Q1"])
        kinds = {type(op) for ops in out.ops_per_core for op in ops}
        assert GatherLoad in kinds

    def test_qs_queries_never_gather(self):
        """Row-preferring queries run in row mode on every design."""
        for qname in ("Qs1", "Qs3"):
            out, _ = build("SAM-en", by_name()[qname])
            kinds = {type(op) for ops in out.ops_per_core for op in ops}
            assert GatherLoad not in kinds

    def test_update_emits_gather_stores_on_sam(self):
        out, _ = build("SAM-en", by_name()["Q11"], n_tb=2048)
        assert out.selected_records > 0
        kinds = {type(op) for ops in out.ops_per_core for op in ops}
        assert GatherStore in kinds

    def test_update_emits_plain_stores_on_baseline(self):
        out, _ = build("baseline", by_name()["Q11"], n_tb=2048)
        assert out.selected_records > 0
        kinds = {type(op) for ops in out.ops_per_core for op in ops}
        assert Store in kinds and GatherStore not in kinds

    def test_update_mutates_table(self):
        out, tables = build("baseline", by_name()["Q12"], n_tb=2048)
        assert out.result > 0
        updated = (tables["Tb"].column(9) == 13).sum()
        assert updated == out.result

    def test_gather_group_size_respects_factor(self):
        out, _ = build("SAM-en", by_name()["Q3"])
        gathers = [
            op for ops in out.ops_per_core for op in ops
            if isinstance(op, GatherLoad)
        ]
        assert gathers
        assert all(len(g.element_addrs) == 8 for g in gathers)

    def test_selection_prunes_projection_gathers(self):
        """Q2's rare predicate: almost no projection work is emitted."""
        out, _ = build("SAM-en", by_name()["Q2"], n_tb=512)
        loads = sum(
            1 for ops in out.ops_per_core for op in ops
            if isinstance(op, Load)
        )
        gathers = sum(
            1 for ops in out.ops_per_core for op in ops
            if isinstance(op, GatherLoad)
        )
        # predicate gathers dominate; record reads only for the rare hits
        assert gathers >= 512 // 8
        assert loads <= out.selected_records * 2

    def test_insert_emits_full_line_stores(self):
        out, _ = build("baseline", by_name()["Qs5"])
        stores = [
            op for ops in out.ops_per_core for op in ops
            if isinstance(op, Store)
        ]
        assert stores and all(s.size == 64 for s in stores)

    def test_join_result_matches_numpy(self):
        out, tables = build("baseline", by_name()["Q8"], n_ta=64, n_tb=64)
        ta, tb = tables["Ta"], tables["Tb"]
        expected = 0
        tb_keys = {}
        for v in tb.column(9):
            tb_keys[int(v)] = tb_keys.get(int(v), 0) + 1
        for v in ta.column(9):
            expected += tb_keys.get(int(v), 0)
        assert out.result == expected

    def test_round_robin_partitions_cover_all_records(self):
        scheme = make_scheme("SAM-en")
        config = SystemConfig()
        tables = {"Ta": Table(TA, 100, seed=1), "Tb": Table(TB, 64, seed=2)}
        placements = allocate_placements(scheme, tables)
        lowering = Lowering(scheme, config, tables, placements)
        planner = Planner(scheme, tables, placements)
        parts = lowering.partition(
            100, planner.batch_records(), placements["Ta"]
        )
        covered = sorted(
            r for segs in parts for bs, be in segs for r in range(bs, be)
        )
        assert covered == list(range(100))

    def test_partition_respects_vertical_granularity(self):
        scheme = make_scheme("RC-NVM-wd")
        config = SystemConfig()
        tables = {"Ta": Table(TA, 1024, seed=1),
                  "Tb": Table(TB, 64, seed=2)}
        placements = allocate_placements(scheme, tables)
        lowering = Lowering(scheme, config, tables, placements)
        planner = Planner(scheme, tables, placements)
        parts = lowering.partition(
            1024, planner.batch_records(), placements["Ta"]
        )
        # chunk boundaries respect the vertical group (64 records)
        starts = [segs[0][0] for segs in parts if segs]
        assert all(s % 64 == 0 for s in starts)

    def test_selected_mask_matches_selectivity(self):
        tables = {"Ta": Table(TA, 4096, seed=1),
                  "Tb": Table(TB, 64, seed=2)}
        mask = selected_mask(tables["Ta"], Predicate.where(10, ">", 0.25))
        assert abs(mask.mean() - 0.25) < 0.03

    def test_compute_costs_scale_with_selectivity(self):
        q_all = SelectQuery("X", "Ta", (3,), Predicate.where(10, ">", 1.0))
        q_none = SelectQuery("Y", "Ta", (3,), Predicate.where(10, ">", 0.0))
        out_all, _ = build("baseline", q_all)
        out_none, _ = build("baseline", q_none)
        assert out_all.total_ops > out_none.total_ops
