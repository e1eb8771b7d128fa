"""Bit-exactness of the vectorized hot paths against their scalar oracles.

``scalar_oracles.py`` keeps every per-bit/per-lane loop that the datapath's
lookup tables replaced as a ``*_scalar`` reference implementation, and the
codecs keep their scalar paths.  These properties assert the
table-driven / numpy paths are indistinguishable from them across layouts,
chip counts and random payloads -- and that the fast FR-FCFS scheduler
(readiness index, shared-half memos, wait memo) behaves exactly like the
reference scheduler of ``scheduler_oracle.py`` on fuzzed traces.
"""

from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.check.fuzz import SALP_SCHEMES, generate_case, run_case
from repro.dram import datapath as dp
from repro.dram import iobuffer as io
from repro.dram.scheduler import Scheduler
from repro.ecc.chipkill import ChipAlignedSSC, SSCCodec, SSCDSDCodec
from repro.ecc.rs import ReedSolomon

from . import scalar_oracles as oracle
from .scheduler_oracle import reference_choice, reference_mode

CHIP_COUNTS = (1, 2, 4, 16, 18)
LAYOUTS = ("default", "transposed")

blocks = st.integers(min_value=0, max_value=(1 << 32) - 1)
lines = st.binary(min_size=64, max_size=64)


# ----------------------------------------------------------- pack / unpack

@pytest.mark.parametrize("n_chips", CHIP_COUNTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pack_default_matches_scalar(n_chips, data):
    payload = data.draw(
        st.binary(min_size=4 * n_chips, max_size=4 * n_chips)
    )
    got = dp.pack_default(payload, n_chips)
    assert got == oracle.pack_default_scalar(payload, n_chips)
    assert dp.unpack_default(got, n_chips) == payload
    assert oracle.unpack_default_scalar(got, n_chips) == payload


@pytest.mark.parametrize("n_chips", CHIP_COUNTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pack_transposed_matches_scalar(n_chips, data):
    payload = data.draw(
        st.binary(min_size=4 * n_chips, max_size=4 * n_chips)
    )
    got = dp.pack_transposed(payload, n_chips)
    assert got == oracle.pack_transposed_scalar(payload, n_chips)
    assert dp.unpack_transposed(got, n_chips) == payload
    assert oracle.unpack_transposed_scalar(got, n_chips) == payload


@given(lines)
@settings(max_examples=60, deadline=None)
def test_line_packers_match_scalar(line):
    bd = io.pack_line_default(line)
    assert bd == oracle.pack_line_default_scalar(line)
    assert io.unpack_line_default(bd) == line
    assert oracle.unpack_line_default_scalar(bd) == line
    bt = io.pack_line_transposed(line)
    assert bt == oracle.pack_line_transposed_scalar(line)
    assert io.unpack_line_transposed(bt) == line
    assert oracle.unpack_line_transposed_scalar(bt) == line


def test_pack_rejects_wrong_length():
    with pytest.raises(ValueError):
        dp.pack_default(b"\x00" * 63, 16)
    with pytest.raises(ValueError):
        dp.pack_transposed(b"\x00" * 65, 16)
    with pytest.raises(ValueError):
        io.pack_line_default(b"\x00" * 16)
    with pytest.raises(ValueError):
        io.pack_line_transposed(b"")


# -------------------------------------------------------------- serializers

@given(blocks)
@settings(max_examples=80, deadline=None)
def test_serialize_x4_matches_scalar(block):
    beats = io.serialize_x4(block)
    assert beats == oracle.serialize_x4_scalar(block)
    assert io.deserialize_x4(beats) == block
    assert oracle.deserialize_x4_scalar(beats) == block


@given(st.lists(blocks, min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_stride_serializers_match_scalar(buffers, n):
    assert io.serialize_stride(buffers, n) == \
        oracle.serialize_stride_scalar(buffers, n)
    assert io.serialize_stride_2d(buffers, n) == \
        oracle.serialize_stride_2d_scalar(buffers, n)


@given(blocks, st.integers(min_value=0, max_value=5))
@settings(max_examples=60, deadline=None)
def test_block_column_matches_lane_loop(block, n):
    expected = 0
    for l in range(io.LANES):
        expected |= ((io.lane(block, l) >> (2 * n)) & 0b11) << (2 * l)
    assert io.block_column(block, n) == expected


# ------------------------------------------------------------ ECC batches

RS_PARAMS = ((18, 16, 8), (36, 32, 8), (15, 11, 4))


@pytest.mark.parametrize("n,k,m", RS_PARAMS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_rs_encode_batch_matches_scalar(n, k, m, data):
    rs = ReedSolomon(n, k, m)
    batch = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                 min_size=k, max_size=k),
        min_size=1, max_size=6,
    ))
    encoded = rs.encode_batch(batch)
    for row, symbols in zip(encoded, batch):
        assert list(row) == rs.encode(symbols)


@pytest.mark.parametrize("n,k,m", RS_PARAMS)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_rs_syndromes_batch_matches_scalar(n, k, m, data):
    rs = ReedSolomon(n, k, m)
    batch = data.draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                 min_size=n, max_size=n),
        min_size=1, max_size=6,
    ))
    syndromes = rs.syndromes_batch(batch)
    for row, codeword in zip(syndromes, batch):
        assert list(row) == rs.syndromes(codeword)


def test_rs_batch_rejects_bad_shapes():
    rs = ReedSolomon(18, 16, 8)
    with pytest.raises(ValueError):
        rs.encode_batch([[0] * 17])
    with pytest.raises(ValueError):
        rs.encode_batch([[256] + [0] * 15])
    with pytest.raises(ValueError):
        rs.syndromes_batch([[0] * 17])


@pytest.mark.parametrize("codec_cls", (SSCCodec, SSCDSDCodec))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_codec_batches_match_scalar(codec_cls, data):
    codec = codec_cls()
    datas = data.draw(st.lists(
        st.binary(min_size=codec.data_bytes, max_size=codec.data_bytes),
        min_size=1, max_size=5,
    ))
    paritys = codec.encode_many(datas)
    assert paritys == [codec.encode(d) for d in datas]
    flips = data.draw(st.lists(
        st.integers(min_value=0, max_value=255),
        min_size=len(datas), max_size=len(datas),
    ))
    corrupted = [
        bytes([p[0] ^ flip]) + p[1:] for p, flip in zip(paritys, flips)
    ]
    assert codec.check_many(datas, corrupted) == [
        codec.check(d, p) for d, p in zip(datas, corrupted)
    ]


@pytest.mark.parametrize("layout", LAYOUTS)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_chip_aligned_batches_match_scalar(layout, data):
    codec = ChipAlignedSSC(layout)
    sectors = data.draw(st.lists(
        st.binary(min_size=16, max_size=16), min_size=1, max_size=6,
    ))
    paritys = codec.encode_sectors(sectors)
    assert paritys == [codec.encode_sector(s) for s in sectors]
    flips = data.draw(st.lists(
        st.integers(min_value=0, max_value=255),
        min_size=len(sectors), max_size=len(sectors),
    ))
    corrupted = [
        bytes([p[0] ^ flip, p[1]]) for p, flip in zip(paritys, flips)
    ]
    assert codec.check_sectors(sectors, corrupted) == [
        codec.check_sector(s, p) for s, p in zip(sectors, corrupted)
    ]
    for sector, parity in zip(sectors, paritys):
        report = codec.decode_sector(sector, parity)
        assert not report.detected_uncorrectable
        assert report.data == sector


# ------------------------------------------------- scheduler equivalence

def _failure(result):
    """What a failed fuzz case reports: its first failure's label and
    first violations and mismatches."""
    return result.signature(), result.violations[:3], result.mismatches[:3]


def _command_stream(case, reference=False):
    """One fuzz case replayed under the fast or the reference scheduler.

    Returns ``(command_log, final_cycle, ledger_entries)`` so the
    equivalence tests can diff the full observable behavior: every
    command with its operands, the cycle the trace drained at, and the
    controller's stall attribution."""
    from repro.obs.stalls import StallLedger

    # requests are labelled by their admission number, which both
    # replays assign alike: they admit the same requests in one order
    log = []

    def on_command(now, command, request, **operands):
        log.append((
            now, command.value,
            None if request is None else request._seq,
            tuple(sorted(operands.items())),
        ))

    ledger = StallLedger()
    probe = SimpleNamespace(on_command=on_command, on_wait=ledger.note)
    if reference:
        with reference_mode():
            result = run_case(case, oracle_data=False, probes=(probe,))
    else:
        result = run_case(case, oracle_data=False, probes=(probe,))
    assert not result.failed, _failure(result)
    return log, result.cycles, [tuple(e) for e in ledger.entries]


def _decision(choice, now):
    """What one FR-FCFS scan decides: the request and command, plus --
    when nothing can issue at ``now`` -- until when and why it waits (a
    ready candidate's own gate time and reason are never read)."""
    if choice is None:
        return None
    request, command, earliest, reason = choice
    if earliest <= now:
        return (request._seq, command)
    return (request._seq, command, earliest, reason)


def lockstep_scans(monkeypatch):
    """Make every fast-mode FR-FCFS scan re-run the full-recompute scan
    at the same instant and assert both decide alike.

    Returns the scan log, one ``(now, new_slots, won)`` per scan:
    ``new_slots`` is None for a walk of the whole slot order, else how
    many readiness slots created since the wait memo a resumed scan
    evaluated (0 when it only decided the tied candidates at the wait's
    end), and ``won`` says whether the choice heads one of them.  A
    resumed scan never picks a request that arrived since the memo
    unless it heads a new slot: an arrival that joins an existing slot
    loses every tie to that slot's head."""
    indexed = Scheduler.choose
    scans = []
    #: per scheduler, the wait memo last taken and the queue length then
    taken = {}

    def lockstep(self, now, queue):
        hits, memo = self.peek_hits, self._wait_memo
        choice = indexed(self, now, queue)
        recomputed = reference_choice(self, now, queue)
        assert _decision(choice, now) == _decision(recomputed, now), now
        new_slots, won = None, False
        if self.peek_hits > hits:  # resumed from the wait memo
            folded = memo[0][memo[2]:]
            new_slots = len(folded)
            won = any(choice[0] is slot.request for slot in folded)
            memo_taken, queued = taken[self]
            assert memo_taken is memo
            arrivals = queue[queued:]
            assert won or not any(choice[0] is r for r in arrivals), now
        if self._wait_memo is not memo:
            taken[self] = (self._wait_memo, len(queue))
        scans.append((now, new_slots, won))
        return choice

    monkeypatch.setattr(Scheduler, "choose", lockstep)
    return scans


def _scan_in_lockstep(case, monkeypatch):
    """Replay ``case`` in fast mode with every scan checked in lockstep
    against the full recompute."""
    scans = lockstep_scans(monkeypatch)
    result = run_case(case, oracle_data=False)
    assert not result.failed, _failure(result)
    return scans


@pytest.mark.parametrize("index", range(12))
def test_readiness_index_matches_full_recompute(index, monkeypatch):
    """Every scan of the incremental readiness index must make the
    decision the full recompute makes at the same instant."""
    case = generate_case(seed=20260808, index=index)
    assert _scan_in_lockstep(case, monkeypatch)


@pytest.mark.parametrize("index", range(12))
def test_readiness_index_matches_recompute_under_salp(index, monkeypatch):
    """Same lockstep check over the subarray-aware schemes: the
    per-subarray version keys and the SA_SEL path must invalidate exactly
    like the full recompute."""
    case = generate_case(seed=20260808, index=index, schemes=SALP_SCHEMES)
    assert _scan_in_lockstep(case, monkeypatch)


@pytest.mark.parametrize("index", range(12))
def test_event_wheel_matches_polling(index):
    """The fast scheduler (readiness index + wait memo) must be
    *exact*: identical command stream, final cycle count, and stall
    ledger as the reference scheduler (full recompute, plain polling),
    refresh-heavy cases included -- generate_case mixes them in."""
    case = generate_case(seed=20260808, index=index)
    fast = _command_stream(case)
    reference = _command_stream(case, reference=True)
    assert fast == reference
    assert fast[0]  # a silent empty stream would vacuously pass


@pytest.mark.parametrize("index", range(12))
def test_event_wheel_matches_polling_under_salp(index):
    """Same exactness over the subarray-aware schemes, where the wait
    memo must agree with SA_SEL designation and per-subarray readiness
    churn."""
    case = generate_case(seed=20260808, index=index, schemes=SALP_SCHEMES)
    fast = _command_stream(case)
    reference = _command_stream(case, reference=True)
    assert fast == reference
    assert fast[0]


@pytest.mark.parametrize("scheme", ("salp1", "masa"))
def test_salp_checked_fuzz_stays_clean(scheme):
    """Short per-scheme checked-fuzz runs (protocol checker + data
    oracles attached); the long stream lives in CI's fuzz job."""
    for index in range(6):
        case = generate_case(seed=1804, index=index, schemes=(scheme,))
        result = run_case(case)
        assert not result.failed, _failure(result)
