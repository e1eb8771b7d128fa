"""Tests for timing presets, geometry, and address mapping."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.commands import Request, RequestType
from repro.dram.geometry import DEFAULT_GEOMETRY, Geometry
from repro.dram.timing import DDR4_2400, RRAM, preset


class TestTiming:
    def test_table2_ddr4_values(self):
        t = DDR4_2400
        assert (t.CL, t.tRCD, t.tRP) == (17, 17, 17)
        assert (t.tRTR, t.tCCD_S, t.tCCD_L) == (2, 4, 6)
        assert t.tMOD_IO == t.tRTR  # Section 5.3

    def test_table2_rram_values(self):
        t = RRAM
        assert (t.CL, t.tRCD, t.tRP) == (17, 35, 1)
        assert t.tREFI == 0  # non-volatile

    def test_rram_write_recovery_much_longer(self):
        assert RRAM.tWR > 5 * DDR4_2400.tWR

    def test_preset_lookup(self):
        assert preset("DDR4-2400") is DDR4_2400
        assert preset("RRAM") is RRAM
        with pytest.raises(KeyError):
            preset("HBM3")

    def test_scaled_increases_array_latencies_only(self):
        t = DDR4_2400.scaled("x", 1.33)
        assert t.tRCD == round(17 * 1.33)
        assert t.tRP == round(17 * 1.33)
        assert t.tRAS == round(39 * 1.33)
        assert t.CL == DDR4_2400.CL  # interface unchanged
        assert t.tBL == DDR4_2400.tBL

    def test_ns_conversion(self):
        assert DDR4_2400.ns(1200) == pytest.approx(1000, rel=0.01)


class TestGeometry:
    def test_table2_organization(self):
        g = DEFAULT_GEOMETRY
        assert g.ranks == 2
        assert g.banks == 16
        assert g.data_chips == 16 and g.parity_chips == 2
        assert g.chip_io_bits == 4

    def test_row_is_8kb(self):
        assert DEFAULT_GEOMETRY.row_bytes == 8192
        assert DEFAULT_GEOMETRY.lines_per_row == 128

    def test_burst_moves_one_cacheline(self):
        assert DEFAULT_GEOMETRY.bytes_per_burst == 64

    def test_data_bus_width(self):
        assert DEFAULT_GEOMETRY.data_bus_bits == 64

    def test_capacity(self):
        g = DEFAULT_GEOMETRY
        # 2 ranks x 16 banks x 128K rows x 8KB = 32 GiB of data
        assert g.capacity_bytes == 2 * 16 * 131072 * 8192

    def test_rows_per_bank(self):
        g = DEFAULT_GEOMETRY
        assert g.rows_per_bank == g.subarrays_per_bank * g.rows_per_subarray


class TestAddressMapper:
    def setup_method(self):
        self.mapper = AddressMapper()

    def test_roundtrip(self):
        for addr in (0, 64, 8192, 123456 * 64, (1 << 30) + 4096):
            decoded = self.mapper.decode(addr)
            assert self.mapper.encode(decoded) == addr

    @pytest.mark.parametrize("geometry", [
        DEFAULT_GEOMETRY,
        Geometry(ranks=1, bank_groups=2, subarrays_per_bank=1,
                 rows_per_subarray=1024),
    ], ids=["default", "small"])
    @given(data=st.data())
    def test_roundtrip_over_capacity(self, geometry, data):
        mapper = AddressMapper(geometry)
        addr = data.draw(st.integers(0, geometry.capacity_bytes - 1))
        decoded = mapper.decode(addr)
        assert mapper.encode(decoded) == addr
        assert decoded.rank < geometry.ranks
        assert decoded.bank < geometry.banks
        assert decoded.row < geometry.rows_per_bank

    def test_field_order_offset_first(self):
        # consecutive lines share everything but the column
        a = self.mapper.decode(0)
        b = self.mapper.decode(64)
        assert a.column == 0 and b.column == 1
        assert a.bank == b.bank and a.row == b.row

    def test_row_crossing_changes_bank(self):
        # rw:rk:bk:ch:cl:offset -- the next 8KB region is the next bank
        a = self.mapper.decode(0)
        b = self.mapper.decode(8192)
        assert b.bank == a.bank + 1
        assert a.row == b.row

    def test_rank_bit_above_banks(self):
        a = self.mapper.decode(0)
        b = self.mapper.decode(8192 * 16)
        assert b.rank == 1 and a.rank == 0

    def test_row_above_rank(self):
        stride = 8192 * 16 * 2  # full bank/rank sweep
        b = self.mapper.decode(stride)
        assert b.row == 1 and b.bank == 0 and b.rank == 0

    def test_offset_within_line(self):
        d = self.mapper.decode(100)
        assert d.offset == 36 and d.column == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            self.mapper.decode(-1)

    def test_line_address(self):
        assert self.mapper.line_address(130) == 128

    def test_line_key_ignores_offset(self):
        a = self.mapper.decode(128)
        b = self.mapper.decode(130)
        assert a.line_key() == b.line_key()

    def test_bank_group(self):
        d = DecodedAddress(0, 0, 7, 0, 0, 0)
        assert d.bank_group == 1

    def test_decoded_address_is_an_immutable_value(self):
        a = self.mapper.decode(0x12345678)
        b = self.mapper.decode(0x12345678)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        # the hash of the field tuple, so dict and set orders keyed on
        # decoded addresses do not depend on the record's type
        assert hash(a) == hash((a.channel, a.rank, a.bank, a.row,
                                a.column, a.offset))
        assert a != self.mapper.decode(0x12345678 + 64)
        with pytest.raises(AttributeError):
            a.row = 0
        with pytest.raises(AttributeError):
            a.extra = 0

    def test_decoded_address_builds_positionally_and_by_keyword(self):
        d = self.mapper.decode(0x12345678)
        # as the placements build it, and as the schemes rebuild a
        # decoded element with a synthetic row (``first.__class__(...)``)
        positional = DecodedAddress(d.channel, d.rank, d.bank, d.row,
                                    d.column, d.offset)
        by_keyword = d.__class__(channel=d.channel, rank=d.rank,
                                 bank=d.bank, row=d.row, column=d.column,
                                 offset=d.offset)
        assert positional == by_keyword == d
        assert by_keyword.bank_group == d.bank >> 2
        assert by_keyword.line_key() == (d.channel, d.rank, d.bank, d.row,
                                         d.column)

    def test_non_power_of_two_geometry_rejected(self):
        with pytest.raises(ValueError):
            AddressMapper(Geometry(ranks=3))


class TestRequest:
    def test_is_read_follows_type(self):
        addr = DecodedAddress(0, 0, 0, 0, 0, 0)
        assert Request(addr=addr, type=RequestType.READ).is_read is True
        assert Request(addr=addr, type=RequestType.WRITE).is_read is False
