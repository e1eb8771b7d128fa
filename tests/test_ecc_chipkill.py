"""Tests for the chipkill codecs, layouts, and fault injection."""

import random

import pytest

from repro.ecc.chipkill import (
    SSCCodec,
    SSCDSDCodec,
    codeword_split,
    decode_line,
    encode_line,
)
from repro.ecc.injection import (
    FAULT_MODELS,
    run_campaign,
    unprotected_tally,
)
from repro.ecc.layout import (
    check_codewords,
    gs_dram_gather_check,
    regular_transfer_check,
    sam_gather_check,
)


@pytest.fixture
def rng():
    """A fresh seeded generator for each test, so a test's data does not
    depend on which tests ran before it."""
    return random.Random(5)


class TestChipkillCodecs:
    def test_ssc_shape(self):
        codec = SSCCodec()
        assert codec.n == 18
        assert codec.data_bytes == 16 and codec.parity_bytes == 2

    def test_ssc_dsd_shape(self):
        codec = SSCDSDCodec()
        assert codec.n == 36
        assert codec.data_bytes == 32 and codec.parity_bytes == 4

    def test_ssc_corrects_chip_failure(self, rng):
        codec = SSCCodec()
        data = bytes(rng.randrange(256) for _ in range(16))
        parity = codec.encode(data)
        for chip in range(16):
            bad = bytearray(data)
            bad[chip] ^= 0xFF
            report = codec.decode(bytes(bad), parity)
            assert report.data == data
            assert report.corrected_chips == (chip,)

    def test_ssc_corrects_parity_chip_failure(self, rng):
        codec = SSCCodec()
        data = bytes(rng.randrange(256) for _ in range(16))
        parity = bytearray(codec.encode(data))
        parity[0] ^= 0xA5
        report = codec.decode(data, bytes(parity))
        assert report.data == data

    def test_ssc_dsd_detects_double_chip(self, rng):
        codec = SSCDSDCodec()
        data = bytes(rng.randrange(256) for _ in range(32))
        parity = codec.encode(data)
        bad = bytearray(data)
        bad[3] ^= 0x0F
        bad[17] ^= 0xF0
        report = codec.decode(bytes(bad), parity)
        assert report.detected_uncorrectable
        assert report.corrected_chips == ()

    def test_check_accepts_valid_rejects_invalid(self):
        codec = SSCCodec()
        data = bytes(range(16))
        parity = codec.encode(data)
        assert codec.check(data, parity)
        assert not codec.check(bytes(16), parity)

    def test_line_encode_decode(self, rng):
        line = bytes(rng.randrange(256) for _ in range(64))
        parity = encode_line(line)
        assert len(parity) == 8
        decoded, reports = decode_line(line, parity)
        assert decoded == line
        assert len(reports) == 4

    def test_line_decode_fixes_chip_in_every_codeword(self, rng):
        line = bytes(rng.randrange(256) for _ in range(64))
        parity = encode_line(line)
        bad = bytearray(line)
        for cw in range(4):
            bad[cw * 16 + 7] ^= 0x3C
        decoded, reports = decode_line(bytes(bad), parity)
        assert decoded == line
        assert all(r.corrected_chips == (7,) for r in reports)

    def test_codeword_split(self):
        line = bytes(64)
        chunks = codeword_split(line, SSCCodec())
        assert len(chunks) == 4 and all(len(c) == 16 for c in chunks)


class TestLayoutChecks:
    def test_regular_transfer_complete(self):
        check = regular_transfer_check()
        assert check.complete and check.codewords == 4

    def test_sam_gather_complete(self):
        check = sam_gather_check()
        assert check.complete and check.codewords == 4

    def test_sam_gather_any_lines(self):
        assert sam_gather_check((10, 20, 30, 40)).complete

    def test_gs_dram_gather_incomplete(self):
        check = gs_dram_gather_check()
        assert not check.complete
        assert "parity" in check.reason

    def test_empty_transfer(self):
        assert not check_codewords([]).complete


class TestInjection:
    def test_ssc_survives_chip_faults(self):
        tally = run_campaign(SSCCodec(), FAULT_MODELS["chip"], trials=200)
        assert tally.silent == 0
        assert tally.corrected == 200

    def test_ssc_survives_single_bits(self):
        tally = run_campaign(
            SSCCodec(), FAULT_MODELS["single_bit"], trials=200
        )
        assert tally.protected_rate == 1.0

    def test_ssc_dsd_flags_double_chips(self):
        tally = run_campaign(
            SSCDSDCodec(), FAULT_MODELS["double_chip"], trials=200
        )
        assert tally.silent == 0
        assert tally.detected == 200

    def test_unprotected_faults_are_silent(self):
        tally = unprotected_tally(FAULT_MODELS["chip"], trials=100)
        assert tally.silent == 100
        assert tally.protected_rate == 0.0

    def test_dq_fault_equals_chip_fault_for_variant(self):
        tally = run_campaign(SSCCodec(), FAULT_MODELS["dq"], trials=100)
        assert tally.protected_rate == 1.0


class TestChipAlignedSSC:
    """The symbol-boundary subtlety: SSC symbols are the 8 bits a *chip*
    contributes, which the Figure 4 layouts interleave at nibble/bit
    granularity -- a chip failure is a single-symbol error only under the
    chip-aligned mapping."""

    def _roundtrip(self, layout, rng):
        from repro.ecc.chipkill import (
            ChipAlignedSSC,
            sector_chip_symbols,
            sector_from_chip_symbols,
        )

        codec = ChipAlignedSSC(layout)
        data = bytes(rng.randrange(256) for _ in range(16))
        parity = codec.encode_sector(data)
        symbols = sector_chip_symbols(data, parity, layout)
        assert sector_from_chip_symbols(symbols, layout) == (data, parity)
        return codec, data, parity, symbols

    def test_symbol_mapping_roundtrip_default(self, rng):
        self._roundtrip("default", rng)

    def test_symbol_mapping_roundtrip_transposed(self, rng):
        self._roundtrip("transposed", rng)

    def test_chip_failure_is_single_symbol(self, rng):
        from repro.ecc.chipkill import (
            ChipAlignedSSC,
            sector_from_chip_symbols,
        )

        for layout in ("default", "transposed"):
            codec, data, parity, symbols = self._roundtrip(layout, rng)
            for chip in range(18):
                bad = list(symbols)
                bad[chip] ^= 0xFF
                bd, bp = sector_from_chip_symbols(bad, layout)
                report = codec.decode_sector(bd, bp)
                assert report.data == data
                assert report.corrected_chips == (chip,)

    def test_byte_codec_cannot_fix_spread_chip_failure(self, rng):
        """Contrast: under the default layout a chip failure spans two
        byte-symbols, which the plain byte-wise SSC cannot correct."""
        from repro.ecc.chipkill import (
            ChipAlignedSSC,
            SSCCodec,
            sector_chip_symbols,
            sector_from_chip_symbols,
        )

        aligned = ChipAlignedSSC("default")
        data = bytes(rng.randrange(256) for _ in range(16))
        byte_codec = SSCCodec()
        byte_parity = byte_codec.encode(data)
        symbols = sector_chip_symbols(data, byte_parity, "default")
        symbols[5] ^= 0xFF  # one whole chip
        bd, bp = sector_from_chip_symbols(symbols, "default")
        report = byte_codec.decode(bd, bp)
        # either flagged uncorrectable or (rarely) miscorrected -- but it
        # cannot reliably restore the data
        assert report.detected_uncorrectable or report.data != data

    def test_double_chip_detected(self, rng):
        from repro.ecc.chipkill import (
            ChipAlignedSSC,
            sector_from_chip_symbols,
        )

        codec, data, parity, symbols = self._roundtrip("default", rng)
        bad = list(symbols)
        bad[2] ^= 0x11
        bad[9] ^= 0x22
        bd, bp = sector_from_chip_symbols(bad, "default")
        report = codec.decode_sector(bd, bp)
        assert report.detected_uncorrectable or report.data != data

    def test_unknown_layout(self):
        from repro.ecc.chipkill import ChipAlignedSSC

        with pytest.raises(ValueError):
            ChipAlignedSSC("diagonal")
