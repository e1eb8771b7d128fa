"""Edge cases and stress configurations across the stack."""

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core import make_scheme
from repro.dram.controller import ControllerConfig
from repro.workloads import make_tables
from repro.imdb import TA, TB, Table, TableSchema, by_name
from repro.imdb.query import Predicate, SelectQuery
from repro.sim import SystemConfig, run_query


class TestDegenerateWorkloads:
    def test_zero_selectivity(self):
        query = SelectQuery(
            "none", "Ta", (3,), Predicate.where(10, ">", 0.0)
        )
        for scheme in ("baseline", "SAM-en", "RC-NVM-wd"):
            result = run_query(scheme, query, make_tables(64, 64))
            assert result.selected_records == 0
            assert result.cycles > 0

    def test_full_selectivity(self):
        query = SelectQuery(
            "all", "Ta", (3,), Predicate.where(10, ">", 1.0)
        )
        result = run_query("SAM-en", query, make_tables(64, 64))
        assert result.selected_records == 64

    def test_single_record_table(self):
        tables = {"Ta": Table(TA, 1, seed=1), "Tb": Table(TB, 1, seed=2)}
        result = run_query("SAM-en", by_name()["Q3"], tables)
        assert result.cycles > 0

    def test_partial_gather_group(self):
        """Record counts not divisible by the gather factor."""
        tables = {"Ta": Table(TA, 13, seed=1), "Tb": Table(TB, 13, seed=2)}
        base = run_query("baseline", by_name()["Q3"], tables)
        tables = {"Ta": Table(TA, 13, seed=1), "Tb": Table(TB, 13, seed=2)}
        sam = run_query("SAM-en", by_name()["Q3"], tables)
        assert sam.result == base.result

    def test_table_smaller_than_group(self):
        tables = {"Ta": Table(TA, 3, seed=1), "Tb": Table(TB, 3, seed=2)}
        result = run_query("SAM-sub", by_name()["Q1"], tables)
        assert result.cycles > 0

    def test_odd_field_count_table(self):
        schema = TableSchema("Odd", n_fields=24)  # 192B records
        tables = {
            "Ta": Table(schema, 64, seed=1),
            "Tb": Table(TB, 64, seed=2),
        }
        query = SelectQuery(
            "odd", "Ta", (5,), Predicate.where(10, ">", 0.5)
        )
        base = run_query("baseline", query, tables)
        tables = {
            "Ta": Table(schema, 64, seed=1),
            "Tb": Table(TB, 64, seed=2),
        }
        sam = run_query("SAM-en", query, tables)
        assert sam.result == base.result


class TestStressConfigurations:
    def test_two_core_system(self):
        config = SystemConfig(cores=2)
        result = run_query(
            "SAM-en", by_name()["Q3"], make_tables(64, 64), config=config
        )
        assert result.cycles > 0

    def test_single_core_system(self):
        config = SystemConfig(cores=1)
        result = run_query(
            "baseline", by_name()["Q4"], make_tables(64, 64), config=config
        )
        assert result.cycles > 0

    def test_tiny_caches(self):
        config = SystemConfig(
            hierarchy=HierarchyConfig(
                l1_bytes=512, l2_bytes=1024, llc_bytes=4096
            )
        )
        base_cfg = SystemConfig()
        small = run_query(
            "baseline", by_name()["Q1"], make_tables(64, 64), config=config
        )
        normal = run_query(
            "baseline", by_name()["Q1"], make_tables(64, 64),
            config=base_cfg,
        )
        assert small.result == normal.result
        assert small.cycles >= normal.cycles  # less cache can't be faster

    def test_shallow_write_queue(self):
        config = SystemConfig(
            controller=ControllerConfig(
                write_queue_capacity=4,
                write_high_watermark=3,
                write_low_watermark=1,
            )
        )
        result = run_query(
            "baseline", by_name()["Qs6"], make_tables(32, 64), config=config
        )
        assert result.memory_stats.writes > 0

    def test_misspelled_page_policy_rejected(self):
        with pytest.raises(ValueError, match="'open' or 'closed'"):
            ControllerConfig(page_policy="close")

    def test_refresh_disabled(self):
        config = SystemConfig(
            controller=ControllerConfig(refresh_enabled=False)
        )
        result = run_query(
            "baseline", by_name()["Q3"], make_tables(64, 64), config=config
        )
        assert result.memory_stats.refreshes == 0

    def test_low_mlp(self):
        from repro.cpu.core import CoreConfig

        slow = SystemConfig(core=CoreConfig(mlp=1))
        fast = SystemConfig(core=CoreConfig(mlp=16))
        a = run_query("baseline", by_name()["Q3"], make_tables(64, 64),
                      config=slow)
        b = run_query("baseline", by_name()["Q3"], make_tables(64, 64),
                      config=fast)
        assert a.cycles > b.cycles  # no overlap vs deep overlap


class TestSchemeEdges:
    def test_gather_factor_two(self):
        result = run_query(
            "SAM-IO", by_name()["Q3"], make_tables(64, 64), gather_factor=2
        )
        assert result.cycles > 0

    def test_all_schemes_handle_tb_only_query(self):
        for scheme in ("SAM-sub", "GS-DRAM-ecc", "RC-NVM-bit", "sub-rank"):
            result = run_query(
                scheme, by_name()["Q4"], make_tables(16, 128)
            )
            assert result.cycles > 0

    def test_update_with_no_matches(self):
        from repro.imdb.query import UpdateQuery

        query = UpdateQuery(
            "noop", "Tb", ((3, 5),), Predicate.where(10, ">", 0.0)
        )
        result = run_query("SAM-en", query, make_tables(32, 64))
        assert result.result == 0
        assert result.memory_stats.gather_writes == 0
