"""Property-based tests (hypothesis) on the core data structures."""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dram.address import AddressMapper
from repro.dram.datapath import RankDatapath
from repro.dram.iobuffer import (
    deserialize_x4,
    pack_line_default,
    pack_line_transposed,
    serialize_x4,
    unpack_line_default,
    unpack_line_transposed,
)
from repro.ecc.chipkill import SSCCodec
from repro.ecc.injection import FAULT_MODELS, run_campaign
from repro.ecc.rs import ReedSolomon
from repro.cache.sector import SectorCache, full_mask

lines = st.binary(min_size=64, max_size=64)
blocks = st.integers(min_value=0, max_value=(1 << 32) - 1)
# the module holds 2^35 bytes; addresses beyond that wrap at the row level
addresses = st.integers(min_value=0, max_value=(1 << 35) - 1)


@given(addresses)
def test_address_mapper_roundtrip(addr):
    mapper = AddressMapper()
    assert mapper.encode(mapper.decode(addr)) == addr


@given(blocks)
def test_x4_serialization_roundtrip(block):
    assert deserialize_x4(serialize_x4(block)) == block


@given(lines)
def test_default_packing_roundtrip(line):
    assert unpack_line_default(pack_line_default(line)) == line


@given(lines)
def test_transposed_packing_roundtrip(line):
    assert unpack_line_transposed(pack_line_transposed(line)) == line


@given(
    st.lists(lines, min_size=4, max_size=4),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["default", "transposed"]),
)
@settings(max_examples=25, deadline=None)
def test_gather_equals_strided_read(four_lines, sector, layout):
    """The headline functional property of SAM: one stride-mode burst
    returns exactly the bytes a software strided read would load."""
    dp = RankDatapath(layout=layout)
    for c, line in enumerate(four_lines):
        dp.write_line(0, 0, c, line)
    got = dp.gather_sectors(0, 0, [0, 1, 2, 3], sector)
    want = [line[16 * sector : 16 * sector + 16] for line in four_lines]
    assert got == want


@given(st.lists(st.integers(0, 255), min_size=16, max_size=16))
def test_ssc_parity_deterministic_and_valid(data):
    codec = SSCCodec()
    data = bytes(data)
    parity = codec.encode(data)
    assert codec.encode(data) == parity
    assert codec.check(data, parity)


@given(
    st.lists(st.integers(0, 255), min_size=16, max_size=16),
    st.integers(0, 17),
    st.integers(1, 255),
)
def test_ssc_corrects_any_symbol_error(data, position, mask):
    codec = SSCCodec()
    data = bytes(data)
    parity = codec.encode(data)
    word = bytearray(data + parity)
    word[position] ^= mask
    report = codec.decode(bytes(word[:16]), bytes(word[16:]))
    assert not report.detected_uncorrectable
    assert report.data == data


@given(
    st.lists(st.integers(0, 255), min_size=16, max_size=16),
)
def test_rs_systematic(data):
    rs = ReedSolomon(18, 16, 8)
    assert rs.encode(data)[:16] == data


@given(
    st.lists(
        st.tuples(
            st.integers(0, 31),  # line index
            st.integers(1, 15),  # sector mask
            st.booleans(),  # dirty
        ),
        min_size=1,
        max_size=100,
    )
)
@settings(max_examples=50, deadline=None)
def test_sector_cache_invariants(operations):
    """After any fill sequence: dirty implies valid, and a lookup hit
    implies all requested sectors were filled at some point.  A line's
    state is packed as ``valid | dirty << sectors``."""
    cache = SectorCache(size_bytes=8 * 64, ways=2, sectors=4)
    for line_idx, mask, dirty in operations:
        cache.fill_clean(line_idx * 64, mask)
        if dirty:
            assert cache.write_resident(line_idx * 64, mask)
        for cache_set in cache._sets.values():
            for state in cache_set.values():
                valid_mask = state & full_mask(cache.sectors)
                dirty_mask = state >> cache.sectors
                assert dirty_mask & ~valid_mask == 0
        assert cache.lookup(line_idx * 64, mask) == 0


# ---------------------------------------------------------------------------
# Fault-injection round trips: the Monte-Carlo campaign of ecc/injection.py
# must agree with an independent replay of each trial's rng stream and
# decode classification.
# ---------------------------------------------------------------------------

def _replay_trial(codec, fault, seed):
    """Reproduce one ``run_campaign(trials=1, seed)`` trial by hand."""
    rng = random.Random(seed)
    data = bytes(rng.randrange(256) for _ in range(codec.data_bytes))
    parity = codec.encode(data)
    masks = fault.generate(rng, codec.n)
    bad_data = bytes(b ^ masks[i] for i, b in enumerate(data))
    bad_parity = bytes(
        b ^ masks[codec.data_bytes + i] for i, b in enumerate(parity)
    )
    report = codec.decode(bad_data, bad_parity)
    if report.detected_uncorrectable:
        outcome = "detected"
    elif report.data == data:
        outcome = "corrected"
    else:
        outcome = "silent"
    return data, report, outcome


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(sorted(FAULT_MODELS)),
)
@settings(max_examples=80, deadline=None)
def test_campaign_tally_matches_replayed_classification(seed, model_name):
    """ReliabilityTally accounting == a per-trial replay of the decode."""
    fault = FAULT_MODELS[model_name]
    tally = run_campaign(SSCCodec(), fault, trials=1, seed=seed)
    _, _, outcome = _replay_trial(SSCCodec(), fault, seed)
    assert tally.trials == 1
    assert tally.corrected + tally.detected + tally.silent == 1
    assert (tally.corrected, tally.detected, tally.silent) == tuple(
        int(outcome == kind) for kind in ("corrected", "detected", "silent")
    )
    assert tally.protected_rate == float(outcome != "silent")
    assert tally.silent_rate == float(outcome == "silent")


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["single_bit", "chip", "dq"]),
)
@settings(max_examples=80, deadline=None)
def test_single_chip_faults_always_corrected_bit_exact(seed, model_name):
    """Any single-chip fault model is within SSC's guarantee: the decode
    must return the original bytes and touch at most one symbol."""
    codec = SSCCodec()
    data, report, outcome = _replay_trial(
        codec, FAULT_MODELS[model_name], seed
    )
    assert outcome == "corrected"
    assert report.data == data
    assert not report.detected_uncorrectable
    assert len(report.corrected_chips) <= 1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_double_chip_fault_never_reported_corrected(seed):
    """Two failed chips exceed SSC's distance-3 guarantee: the campaign
    may detect or silently miscorrect, but must never tally a trial as
    corrected (that would imply a weight-2 error was weight <= 1)."""
    tally = run_campaign(
        SSCCodec(), FAULT_MODELS["double_chip"], trials=1, seed=seed
    )
    assert tally.corrected == 0
    assert tally.detected + tally.silent == 1


# ---------------------------------------------------------------------------
# Wrong-shape inputs fail loudly with descriptive messages.
# ---------------------------------------------------------------------------

def test_rs_rejects_wrong_codeword_length():
    rs = ReedSolomon(18, 16, 8)
    with pytest.raises(ValueError, match="expected 18 codeword symbols, got 3"):
        rs.syndromes([1, 2, 3])
    with pytest.raises(ValueError, match="expected 18 symbols, got 4"):
        rs.decode([0] * 4)
    with pytest.raises(ValueError, match="expected 16 data symbols, got 17"):
        rs.encode([0] * 17)


def test_rs_rejects_out_of_field_symbols():
    rs = ReedSolomon(18, 16, 8)
    with pytest.raises(ValueError, match=r"symbol 256 out of range for GF\(2\^8\)"):
        rs.syndromes([0] * 17 + [256])
    with pytest.raises(ValueError, match=r"out of range for GF\(2\^8\)"):
        rs.decode([999] + [0] * 17)


def test_ssc_codec_rejects_wrong_shape():
    codec = SSCCodec()
    with pytest.raises(ValueError, match="16B data \\+ 2B parity, got 15B \\+ 2B"):
        codec.decode(bytes(15), bytes(2))
    with pytest.raises(ValueError, match="got 16B \\+ 3B"):
        codec.check(bytes(16), bytes(3))
    with pytest.raises(ValueError, match="codeword data is 16 bytes, got 12"):
        codec.encode(bytes(12))
