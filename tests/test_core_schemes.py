"""Tests for the access schemes: placements, lowering, traits, areas."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import (
    FIGURE12_DESIGNS,
    TablePlacement,
    available_schemes,
    make_scheme,
)
from repro.core.compare import COLUMNS, ROWS, comparison_matrix, render_table
from repro.core.sam import SAMEnScheme
from repro.dram.address import DecodedAddress
from repro.dram.commands import IOMode, RequestType, RowKind


def table(record_bytes=1024, n=64, base=0):
    return TablePlacement(base, record_bytes, n)


class TestRegistry:
    def test_all_designs_available(self):
        names = available_schemes()
        for d in FIGURE12_DESIGNS:
            assert d in names
        assert "baseline" in names and "column-store" in names

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            make_scheme("HBM-PIM")

    def test_gather_factor_configurable(self):
        s = make_scheme("SAM-en", gather_factor=4)
        assert s.gather_factor == 4
        assert s.sector_bytes == 16  # 8-bit granularity -> 16B sectors

    def test_default_gather_factor_is_ssc_dsd(self):
        s = make_scheme("SAM-en")
        assert s.gather_factor == 8
        assert s.sector_bytes == 8  # 4-bit granularity -> 8B sectors


class TestPlacements:
    def test_row_major_contiguous(self):
        s = make_scheme("baseline")
        p = s.placement(table())
        assert p.addr_of(0, 0) == 0
        assert p.addr_of(1, 0) == 1024
        assert p.addr_of(2, 100) == 2148

    def test_row_major_bounds(self):
        p = make_scheme("baseline").placement(table(n=4))
        with pytest.raises(IndexError):
            p.addr_of(4, 0)
        with pytest.raises(IndexError):
            p.addr_of(0, 1024)

    def test_column_major_groups_fields(self):
        s = make_scheme("column-store")
        p = s.placement(table(n=100))
        # field 0 of consecutive records is consecutive
        assert p.addr_of(1, 0) - p.addr_of(0, 0) == 8
        # field regions are table-sized apart
        assert p.addr_of(0, 8) - p.addr_of(0, 0) == 100 * 8

    def test_sam_io_placement_keeps_records_in_rows(self):
        """SAM-IO/en: a gather group of 8 x 1KB records fits one 8KB row."""
        s = make_scheme("SAM-IO")
        p = s.placement(table())
        first = s.mapper.decode(p.addr_of(0, 80))
        for r in range(1, 8):
            d = s.mapper.decode(p.addr_of(r, 80))
            assert (d.rank, d.bank, d.row) == (
                first.rank, first.bank, first.row
            )

    def test_sam_sub_placement_stacks_rows_same_bank(self):
        """SAM-sub: group members live in consecutive rows of one bank."""
        s = make_scheme("SAM-sub")
        p = s.placement(table())
        decoded = [s.mapper.decode(p.addr_of(r, 0)) for r in range(8)]
        assert len({(d.rank, d.bank) for d in decoded}) == 1
        assert [d.row for d in decoded] == list(
            range(decoded[0].row, decoded[0].row + 8)
        )

    def test_sam_sub_groups_spread_across_banks(self):
        s = make_scheme("SAM-sub")
        p = s.placement(table(n=256))
        banks = {
            s.mapper.decode(p.addr_of(g * 8, 0)).bank for g in range(16)
        }
        assert len(banks) > 8  # bank-level parallelism across groups

    def test_rc_nvm_vertical_span(self):
        """RC-NVM aligns records over a KB-magnitude vertical space."""
        s = make_scheme("RC-NVM-wd")
        p = s.placement(table(record_bytes=128, n=1024))
        d0 = s.mapper.decode(p.addr_of(0, 0))
        d1 = s.mapper.decode(p.addr_of(1, 0))
        assert d1.row == d0.row + 1
        assert d1.bank == d0.bank

    def test_gs_dram_segment_major(self):
        s = make_scheme("GS-DRAM")
        p = s.placement(table(record_bytes=128, n=100))
        # Figure 11(b): segment 1 of record 0 is a table-length away
        assert p.addr_of(0, 64) - p.addr_of(0, 0) == 100 * 64

    def test_gs_dram_small_records_stay_row_major(self):
        s = make_scheme("GS-DRAM")
        p = s.placement(table(record_bytes=32, n=10))
        assert p.addr_of(1, 0) - p.addr_of(0, 0) == 32

    def test_vertical_rejects_tiny_group(self):
        from repro.core.placements import VerticalPlacement

        s = make_scheme("baseline")
        with pytest.raises(ValueError):
            VerticalPlacement(table(), s, group=1)

    def test_partition_granularity(self):
        assert make_scheme("baseline").placement(
            table()
        ).partition_granularity == 1
        assert make_scheme("SAM-sub").placement(
            table()
        ).partition_granularity == 8
        assert make_scheme("RC-NVM-wd").placement(
            table(n=1024)
        ).partition_granularity == 64


class TestLowering:
    def test_baseline_has_no_gather(self):
        s = make_scheme("baseline")
        assert s.lower_gather_read([0, 1024]) is None

    def test_sam_io_gather_single_burst(self):
        s = make_scheme("SAM-IO")
        p = s.placement(table())
        addrs = [p.addr_of(r, 80) for r in range(8)]
        plan = s.lower_gather_read(addrs)
        assert len(plan.requests) == 1
        req = plan.requests[0]
        assert req.io_mode is IOMode.STRIDE
        assert req.gather == 8
        assert len(plan.fills) == 8

    def test_sam_io_gather_fills_are_sectors(self):
        s = make_scheme("SAM-IO")
        p = s.placement(table())
        addrs = [p.addr_of(r, 80) for r in range(8)]
        plan = s.lower_gather_read(addrs)
        for (line, mask), addr in zip(plan.fills, addrs):
            assert line == addr - addr % 64
            assert mask == 1 << ((addr % 64) // s.sector_bytes)

    def test_sam_io_gather_splits_across_rows(self):
        """Elements in different rows cannot share one stride burst."""
        s = make_scheme("SAM-IO")
        base_row_stride = 8192  # next row region is another bank; use
        addrs = [80, 80 + 32 * 8192 * 2]  # same bank, different row
        plan = s.lower_gather_read(addrs)
        assert len(plan.requests) == 2

    @pytest.mark.parametrize("name",
                             ["SAM-IO", "SAM-en", "GS-DRAM", "GS-DRAM-ecc"])
    def test_row_gather_groups_by_row_decoding_each_row_once(
            self, name, monkeypatch):
        """Row-resident gathers group their elements by DRAM row in order
        of each row's first element, decode only that first element, and
        address each group's burst with its decode; fills follow the
        groups."""
        s = make_scheme(name)
        row2 = 2 * 8192 * 16 * 2  # row 2 of the same bank
        addrs = [80, row2 + 80, 144, row2 + 144]
        decode = s.mapper.decode
        decoded = []
        monkeypatch.setattr(s.mapper, "decode",
                            lambda a: decoded.append(a) or decode(a))
        plan = s.lower_gather_read(addrs)
        assert decoded == [80, row2 + 80]
        bursts = [r for r in plan.requests if r.gather > 1]
        assert [r.addr for r in bursts] == [decode(80), decode(row2 + 80)]
        assert [r.gather for r in bursts] == [2, 2]
        grouped = [80, 144, row2 + 80, row2 + 144]
        assert plan.fills == [
            (a - a % 64, 1 << (a % 64 // s.sector_bytes)) for a in grouped
        ]

    @given(data=st.data(),
           name=st.sampled_from(("SAM-IO", "SAM-en", "GS-DRAM",
                                 "GS-DRAM-ecc")))
    @settings(max_examples=200, deadline=None)
    def test_row_groups_match_a_decode_keyed_reference(self, data, name):
        """The row groups come from address bits, not decodes: the same
        groups in the same order, with the same ``first`` decode, as
        grouping each element by its decode's (rank, bank, row).  The
        elements span ranks, banks and rows past ``rows_per_bank``, which
        the decode wraps; a negative element raises wherever it sits."""
        s = make_scheme(name)
        m, g = s.mapper, s.geometry
        rows = (0, 1, g.rows_per_bank - 1, g.rows_per_bank,
                2 * g.rows_per_bank + 1)
        element = st.builds(
            DecodedAddress,
            st.integers(0, g.channels - 1), st.integers(0, g.ranks - 1),
            st.sampled_from((0, 1, g.banks - 1)), st.sampled_from(rows),
            st.integers(0, g.lines_per_row - 1),
            st.integers(0, g.cacheline_bytes - 1),
        ).map(m.encode)
        addrs = data.draw(st.lists(element, min_size=1, max_size=16))
        expected = {}
        for addr in addrs:
            decoded = m.decode(addr)
            expected.setdefault(decoded[1:4], (decoded, []))[1].append(addr)
        assert list(s._row_groups(addrs)) == list(expected.values())
        at = data.draw(st.integers(0, len(addrs)))
        bad = addrs[:at] + [-data.draw(st.integers(1, 1 << 40))] + addrs[at:]
        with pytest.raises(ValueError, match="negative address"):
            s._row_groups(bad)

    def test_demand_read_early_restart_follows_critical_word_first(self):
        assert SAMEnScheme().lower_read(0)[0].early_restart
        assert not SAMEnScheme(two_d_buffer=False).lower_read(0)[0] \
            .early_restart
        for name in ("baseline", "SAM-IO", "SAM-sub", "GS-DRAM"):
            s = make_scheme(name)
            assert s.lower_read(0)[0].early_restart \
                is s.traits.critical_word_first

    def test_sam_io_single_element_falls_back_to_regular(self):
        s = make_scheme("SAM-IO")
        plan = s.lower_gather_read([80])
        assert plan.requests[0].io_mode is IOMode.X4

    def test_sam_sub_gather_uses_column_activation(self):
        s = make_scheme("SAM-sub")
        p = s.placement(table())
        addrs = [p.addr_of(r, 80) for r in range(8)]
        plan = s.lower_gather_read(addrs)
        assert len(plan.requests) == 1
        assert plan.requests[0].row_kind is RowKind.COLUMN
        assert plan.requests[0].io_mode is IOMode.X4  # no DQ change

    def test_sam_sub_distinct_gathers_get_distinct_column_rows(self):
        """The global column buffer holds one gather: two gathers that
        target the *same bank* must open different column-rows."""
        s = make_scheme("SAM-sub")
        p = s.placement(table(n=512))
        group_a, group_b = 0, 32  # 32 banks*ranks apart -> same bank
        plan_a = s.lower_gather_read(
            [p.addr_of(8 * group_a + r, 80) for r in range(8)]
        )
        plan_b = s.lower_gather_read(
            [p.addr_of(8 * group_b + r, 80) for r in range(8)]
        )
        assert (
            plan_a.requests[0].addr.bank == plan_b.requests[0].addr.bank
        )
        assert plan_a.requests[0].row_id() != plan_b.requests[0].row_id()

    def test_rc_nvm_column_row_reused_within_region(self):
        """RC-NVM-wd: consecutive gathers of one field share a column-row."""
        s = make_scheme("RC-NVM-wd")
        p = s.placement(table(record_bytes=128, n=1024))
        plan_a = s.lower_gather_read([p.addr_of(r, 80) for r in range(8)])
        plan_b = s.lower_gather_read(
            [p.addr_of(r, 80) for r in range(8, 16)]
        )
        assert plan_a.requests[0].row_id() == plan_b.requests[0].row_id()

    def test_rc_nvm_field_switch_changes_column_row(self):
        s = make_scheme("RC-NVM-wd")
        p = s.placement(table(record_bytes=128, n=1024))
        plan_a = s.lower_gather_read([p.addr_of(r, 80) for r in range(8)])
        plan_b = s.lower_gather_read([p.addr_of(r, 24) for r in range(8)])
        assert plan_a.requests[0].row_id() != plan_b.requests[0].row_id()

    def test_rc_nvm_bit_pays_internal_bursts(self):
        s = make_scheme("RC-NVM-bit")
        p = s.placement(table(record_bytes=128, n=64))
        plan = s.lower_gather_read([p.addr_of(r, 80) for r in range(8)])
        assert plan.requests[0].internal_bursts == 3

    def test_gs_dram_ecc_gather_adds_ecc_read(self):
        s = make_scheme("GS-DRAM-ecc")
        p = s.placement(table(record_bytes=128, n=64))
        plan = s.lower_gather_read([p.addr_of(r, 80) for r in range(8)])
        assert len(plan.requests) == 2  # data gather + ECC line

    def test_gs_dram_ecc_gather_write_rmw(self):
        s = make_scheme("GS-DRAM-ecc")
        p = s.placement(table(record_bytes=128, n=64))
        plan = s.lower_gather_write([p.addr_of(r, 80) for r in range(8)])
        kinds = [r.type for r in plan.requests]
        assert kinds.count(RequestType.READ) == 1
        assert kinds.count(RequestType.WRITE) == 2

    def test_gs_dram_plain_has_no_ecc_traffic(self):
        s = make_scheme("GS-DRAM")
        p = s.placement(table(record_bytes=128, n=64))
        plan = s.lower_gather_read([p.addr_of(r, 80) for r in range(8)])
        assert len(plan.requests) == 1

    def test_strided_store_no_rmw_for_sam(self):
        """A strided element is one codeword: sstore writes directly."""
        s = make_scheme("SAM-en")
        p = s.placement(table())
        plan = s.lower_gather_write([p.addr_of(r, 80) for r in range(8)])
        assert all(r.type is RequestType.WRITE for r in plan.requests)


class TestTraitsAndTiming:
    def test_table1_matrix_matches_paper(self):
        m = comparison_matrix()
        # spot-check the distinguishing cells of Table 1
        assert m["GS-DRAM"]["Reliability"] == "x"
        assert m["SAM-en"]["Reliability"] == "v"
        assert m["GS-DRAM"]["Memory Controller"] == "x"
        assert m["SAM-IO"]["Critical-Word-First"] == "x"
        assert m["SAM-en"]["Critical-Word-First"] == "v"
        assert m["RC-NVM-bit"]["Performance"] == "x"
        assert m["SAM-sub"]["Performance"] == "o"
        assert m["SAM-en"]["Area Overhead"] == "v"
        assert m["RC-NVM-wd"]["Area Overhead"] == "x"
        assert m["GS-DRAM"]["Mode Switch Delay"] == "v"
        assert m["SAM-en"]["Mode Switch Delay"] == "o"

    def test_render_table_includes_all_rows(self):
        text = render_table()
        for row in ROWS:
            assert row in text
        for col in COLUMNS:
            assert col in text

    def test_nvm_schemes_use_rram_timing(self):
        s = make_scheme("RC-NVM-wd")
        assert s.timing.tRCD > 40  # RRAM 35 scaled by ~33% area
        assert s.timing.tREFI == 0

    def test_area_scaling_applies_to_sam_sub(self):
        s = make_scheme("SAM-sub")
        assert s.timing.tRCD == 18  # 17 * 1.072 rounded

    def test_sam_io_timing_unchanged(self):
        s = make_scheme("SAM-IO")
        assert s.timing.tRCD == 17

    def test_area_reports(self):
        assert make_scheme("SAM-IO").area.silicon_fraction < 0.0001
        assert 0.005 < make_scheme("SAM-en").area.silicon_fraction < 0.01
        assert 0.07 < make_scheme("SAM-sub").area.silicon_fraction < 0.08
        assert make_scheme("RC-NVM-wd").area.extra_metal_layers == 2

    def test_power_configs(self):
        assert make_scheme("SAM-IO").power_config.stride_internal_bursts == 4
        assert make_scheme("SAM-en").power_config.stride_act_fraction == 0.25
        assert make_scheme("SAM-sub").power_config.background_scale == 1.02
        assert make_scheme("RC-NVM-wd").power_config.rram
