"""Scalar reference oracles for the table-driven datapath and I/O path.

Every per-bit / per-lane loop that :mod:`repro.dram.bitmatrix` and the
lookup-table serializers of :mod:`repro.dram.iobuffer` replaced, kept
verbatim so ``test_vectorized.py`` can assert the fast paths bit for bit
against them.  Nothing in the simulator calls these.
"""

from typing import List, Sequence

from repro.dram.iobuffer import (
    BEATS,
    DATA_CHIPS,
    LANE_BITS,
    LANES,
    LINE_BYTES,
    SECTORS_PER_LINE,
    block_column,
    lane,
    with_lane,
)


# ------------------------------- generic packers (repro.dram.datapath)

def pack_default_scalar(data: bytes, n_chips: int) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.datapath.pack_default`."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    bits = int.from_bytes(data, "little")
    per_beat = 4 * n_chips
    blocks = [0] * n_chips
    for k in range(BEATS):
        beat = (bits >> (per_beat * k)) & ((1 << per_beat) - 1)
        for i in range(n_chips):
            nibble = (beat >> (4 * i)) & 0xF
            for l in range(LANES):
                if (nibble >> l) & 1:
                    blocks[i] |= 1 << (8 * l + k)
    return blocks


def unpack_default_scalar(blocks: Sequence[int], n_chips: int) -> bytes:
    """Reference implementation of
    :func:`repro.dram.datapath.unpack_default`."""
    bits = 0
    per_beat = 4 * n_chips
    for i, block in enumerate(blocks):
        for l in range(LANES):
            lane_bits = lane(block, l)
            for k in range(BEATS):
                if (lane_bits >> k) & 1:
                    bits |= 1 << (per_beat * k + 4 * i + l)
    return bits.to_bytes(n_chips * 4, "little")


def pack_transposed_scalar(data: bytes, n_chips: int) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.datapath.pack_transposed`."""
    if len(data) * 8 != n_chips * 32:
        raise ValueError(
            f"{n_chips} chips hold {n_chips * 4} bytes, got {len(data)}"
        )
    bits = int.from_bytes(data, "little")
    sector_bits = n_chips * 8
    blocks = [0] * n_chips
    for n in range(LANES):
        sector = (bits >> (sector_bits * n)) & ((1 << sector_bits) - 1)
        for i in range(n_chips):
            symbol = 0
            for k in range(BEATS):
                if (sector >> (n_chips * k + i)) & 1:
                    symbol |= 1 << k
            blocks[i] = with_lane(blocks[i], n, symbol)
    return blocks


def unpack_transposed_scalar(blocks: Sequence[int], n_chips: int) -> bytes:
    """Reference implementation of
    :func:`repro.dram.datapath.unpack_transposed`."""
    bits = 0
    sector_bits = n_chips * 8
    for n in range(LANES):
        for i, block in enumerate(blocks):
            symbol = lane(block, n)
            for k in range(BEATS):
                if (symbol >> k) & 1:
                    bits |= 1 << (sector_bits * n + n_chips * k + i)
    return bits.to_bytes(n_chips * 4, "little")


# ---------------------------- cacheline packers (repro.dram.iobuffer)

def _line_bits(line: bytes) -> int:
    if len(line) != LINE_BYTES:
        raise ValueError(f"a cacheline is {LINE_BYTES} bytes, got {len(line)}")
    return int.from_bytes(line, "little")


def _bits_to_line(bits: int) -> bytes:
    return bits.to_bytes(LINE_BYTES, "little")


def pack_line_default_scalar(line: bytes) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.iobuffer.pack_line_default`."""
    bits = _line_bits(line)
    blocks = [0] * DATA_CHIPS
    for k in range(BEATS):
        beat = (bits >> (64 * k)) & ((1 << 64) - 1)
        for i in range(DATA_CHIPS):
            nibble = (beat >> (4 * i)) & 0xF
            for l in range(LANES):
                if (nibble >> l) & 1:
                    blocks[i] |= 1 << (LANE_BITS * l + k)
    return blocks


def unpack_line_default_scalar(blocks: Sequence[int]) -> bytes:
    """Reference implementation of
    :func:`repro.dram.iobuffer.unpack_line_default`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    bits = 0
    for i, block in enumerate(blocks):
        for l in range(LANES):
            lane_bits = lane(block, l)
            for k in range(BEATS):
                if (lane_bits >> k) & 1:
                    bits |= 1 << (64 * k + 4 * i + l)
    return _bits_to_line(bits)


def pack_line_transposed_scalar(line: bytes) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.iobuffer.pack_line_transposed`."""
    bits = _line_bits(line)
    blocks = [0] * DATA_CHIPS
    for n in range(SECTORS_PER_LINE):
        sector = (bits >> (128 * n)) & ((1 << 128) - 1)
        for i in range(DATA_CHIPS):
            symbol = 0
            for k in range(BEATS):
                if (sector >> (16 * k + i)) & 1:
                    symbol |= 1 << k
            blocks[i] = with_lane(blocks[i], n, symbol)
    return blocks


def unpack_line_transposed_scalar(blocks: Sequence[int]) -> bytes:
    """Reference implementation of
    :func:`repro.dram.iobuffer.unpack_line_transposed`."""
    if len(blocks) != DATA_CHIPS:
        raise ValueError(f"need {DATA_CHIPS} blocks, got {len(blocks)}")
    bits = 0
    for n in range(SECTORS_PER_LINE):
        for i, block in enumerate(blocks):
            symbol = lane(block, n)
            for k in range(BEATS):
                if (symbol >> k) & 1:
                    bits |= 1 << (128 * n + 16 * k + i)
    return _bits_to_line(bits)


# --------------------------------- serializers (repro.dram.iobuffer)

def serialize_x4_scalar(block: int) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.iobuffer.serialize_x4`."""
    beats = []
    for k in range(BEATS):
        nibble = 0
        for l in range(LANES):
            nibble |= ((lane(block, l) >> k) & 1) << l
        beats.append(nibble)
    return beats


def deserialize_x4_scalar(beats: Sequence[int]) -> int:
    """Reference implementation of
    :func:`repro.dram.iobuffer.deserialize_x4`."""
    if len(beats) != BEATS:
        raise ValueError(f"a burst is {BEATS} beats, got {len(beats)}")
    block = 0
    for k, nibble in enumerate(beats):
        for l in range(LANES):
            if (nibble >> l) & 1:
                block |= 1 << (LANE_BITS * l + k)
    return block


def serialize_stride_scalar(buffers: Sequence[int], n: int) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.iobuffer.serialize_stride`."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    beats = []
    lanes = [lane(buf, n) for buf in buffers]
    for k in range(BEATS):
        nibble = 0
        for j in range(4):
            nibble |= ((lanes[j] >> k) & 1) << j
        beats.append(nibble)
    return beats


def serialize_stride_2d_scalar(buffers: Sequence[int], n: int) -> List[int]:
    """Reference implementation of
    :func:`repro.dram.iobuffer.serialize_stride_2d`."""
    if len(buffers) != 4:
        raise ValueError("stride mode uses all four I/O buffers")
    beats = []
    columns = [block_column(buf, n) for buf in buffers]
    for k in range(BEATS):
        nibble = 0
        for j in range(4):
            nibble |= ((columns[j] >> k) & 1) << j
        beats.append(nibble)
    return beats
