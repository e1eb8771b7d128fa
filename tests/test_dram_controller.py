"""Tests for the cycle-level memory controller."""

import pytest

from repro.dram import (
    AddressMapper,
    ControllerConfig,
    DDR4_2400,
    IOMode,
    MemoryController,
    Request,
    RequestType,
    RowKind,
)
from repro.kernel import Kernel


def make_controller(**cfg):
    kernel = Kernel()
    config = ControllerConfig(**cfg) if cfg else ControllerConfig(
        refresh_enabled=False
    )
    mc = MemoryController(kernel, DDR4_2400, config=config)
    return kernel, mc, AddressMapper(mc.geometry)


def read(mapper, addr, done, **kw):
    return Request(
        addr=mapper.decode(addr),
        type=RequestType.READ,
        on_complete=lambda r, t: done.append((r, t)),
        **kw,
    )


def write(mapper, addr, done, **kw):
    return Request(
        addr=mapper.decode(addr),
        type=RequestType.WRITE,
        on_complete=lambda r, t: done.append((r, t)),
        **kw,
    )


class TestBasicTiming:
    def test_single_read_latency(self):
        k, mc, am = make_controller()
        done = []
        mc.submit(read(am, 0, done))
        k.run()
        # ACT@0, RD@tRCD, data ends at tRCD + CL + tBL
        assert done[0][1] == 17 + 17 + 4

    def test_row_hit_read_pipelines(self):
        k, mc, am = make_controller()
        done = []
        for i in range(4):
            mc.submit(read(am, i * 64, done))
        k.run()
        times = sorted(t for _, t in done)
        # same bank: consecutive CAS at tCCD_L
        assert times[1] - times[0] == DDR4_2400.tCCD_L
        assert mc.stats.acts == 1
        assert mc.stats.row_hits == 4

    def test_different_banks_reach_bus_rate(self):
        k, mc, am = make_controller()
        done = []
        for b in range(8):
            mc.submit(read(am, b * 8192, done))
        k.run()
        times = sorted(t for _, t in done)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # bank-interleaved reads stream at the burst length
        assert min(gaps) == DDR4_2400.tBL
        assert mc.stats.acts == 8

    def test_row_conflict_requires_precharge(self):
        k, mc, am = make_controller()
        done = []
        row_stride = 8192 * 16 * 2  # same bank, next row
        mc.submit(read(am, 0, done))
        mc.submit(read(am, row_stride, done))
        k.run()
        assert mc.stats.row_conflicts == 1
        assert mc.stats.precharges >= 1
        assert mc.stats.acts == 2

    def test_frfcfs_reorders_row_hit_first(self):
        k, mc, am = make_controller()
        done = []
        row_stride = 8192 * 16 * 2
        r_conflict = read(am, row_stride, done)
        r_hit = read(am, 64, done)
        mc.submit(read(am, 0, done))  # opens the row
        mc.submit(r_conflict)  # older, needs PRE+ACT
        mc.submit(r_hit)  # younger, row hit
        k.run()
        finish = dict(done)
        assert finish[r_hit] < finish[r_conflict]


class TestWrites:
    def test_writes_complete(self):
        k, mc, am = make_controller()
        done = []
        for i in range(8):
            mc.submit(write(am, i * 64, done))
        k.run()
        assert len(done) == 8
        assert mc.stats.writes == 8

    def test_write_then_read_same_rank_pays_twtr(self):
        k, mc, am = make_controller()
        done = []
        mc.submit(write(am, 0, done))
        k.run()
        t_write_issue = mc.stats.writes
        mc.submit(read(am, 64, done))
        k.run()
        # the read's completion reflects the tWTR turnaround
        write_done = done[0][1]
        read_done = done[1][1]
        assert read_done > write_done

    def test_write_drain_watermarks(self):
        k, mc, am = make_controller(
            write_high_watermark=4, write_low_watermark=1,
            refresh_enabled=False,
        )
        done = []
        reads = []
        for i in range(6):
            mc.submit(write(am, i * 64, done))
        mc.submit(read(am, 1 << 20, reads and None or done))
        k.run()
        assert mc.stats.writes == 6

    def test_queue_capacity_enforced(self):
        k, mc, am = make_controller(
            write_queue_capacity=2, refresh_enabled=False
        )
        done = []
        mc.submit(write(am, 0, done))
        mc.submit(write(am, 64, done))
        bad = write(am, 128, done)
        assert not mc.can_accept(bad)
        with pytest.raises(RuntimeError):
            mc.submit(bad)


class TestStrideMode:
    def test_mode_switch_charged_once_per_batch(self):
        k, mc, am = make_controller()
        done = []
        for i in range(8):
            mc.submit(
                read(am, i * 256, done, io_mode=IOMode.STRIDE, gather=4)
            )
        k.run()
        assert mc.stats.mode_switches == 1
        assert mc.stats.gather_reads == 8
        assert mc.stats.stride_mode_reads == 8

    def test_mode_switch_back_and_forth(self):
        k, mc, am = make_controller()
        done = []
        mc.submit(read(am, 0, done))
        k.run()
        mc.submit(read(am, 64, done, io_mode=IOMode.STRIDE, gather=4))
        k.run()
        mc.submit(read(am, 128, done))
        k.run()
        assert mc.stats.mode_switches == 2

    def test_gather_read_single_burst_occupancy(self):
        """A gather returns G elements but occupies one burst slot."""
        k, mc, am = make_controller()
        done = []
        for i in range(4):
            mc.submit(
                read(am, i * 64, done, io_mode=IOMode.STRIDE, gather=8)
            )
        k.run()
        times = sorted(t for _, t in done)
        assert times[1] - times[0] == DDR4_2400.tCCD_L

    def test_column_activation_conflicts_with_row(self):
        """SAM-sub/RC-NVM: a column-wise open conflicts with row-wise."""
        k, mc, am = make_controller()
        done = []
        mc.submit(read(am, 0, done))
        col = read(am, 0, done, row_kind=RowKind.COLUMN)
        mc.submit(col)
        mc.submit(read(am, 64, done))
        k.run()
        # opening the column-subarray closes the row; the third read
        # must re-activate
        assert mc.stats.row_conflicts >= 1
        assert mc.stats.col_acts == 1

    def test_internal_bursts_extend_bank_occupancy(self):
        k, mc, am = make_controller()
        plain, heavy = [], []
        for i in range(4):
            mc.submit(read(am, i * 64, plain))
        k.run()
        t_plain = k.now
        k2, mc2, _ = make_controller()
        for i in range(4):
            mc2.submit(
                Request(
                    addr=am.decode(i * 64),
                    type=RequestType.READ,
                    internal_bursts=3,
                    on_complete=lambda r, t: heavy.append(t),
                )
            )
        k2.run()
        assert k2.now > t_plain


class TestRefresh:
    def test_refresh_issued_periodically(self):
        k, mc, am = make_controller(refresh_enabled=True)
        done = []
        # keep the controller busy past several tREFI
        def feed(i=[0]):
            if i[0] < 2000:
                req = read(am, (i[0] % 256) * 64, done)
                if mc.can_accept(req):
                    mc.submit(req)
                    i[0] += 1
                k.schedule(16, feed)
        k.schedule_at(0, feed)
        k.run(max_events=3_000_000)
        assert mc.stats.refreshes > 0

    def test_no_refresh_for_rram(self):
        from repro.dram.timing import RRAM

        kernel = Kernel()
        mc = MemoryController(kernel, RRAM)
        am = AddressMapper(mc.geometry)
        done = []
        for i in range(32):
            mc.submit(read(am, i * 64, done))
        kernel.run()
        assert mc.stats.refreshes == 0


class TestStats:
    def test_avg_read_latency(self):
        k, mc, am = make_controller()
        done = []
        mc.submit(read(am, 0, done))
        k.run()
        assert mc.stats.avg_read_latency == 38

    def test_idle(self):
        k, mc, am = make_controller()
        assert mc.idle()
        done = []
        mc.submit(read(am, 0, done))
        assert not mc.idle()
        k.run()
        assert mc.idle()


class TestPagePolicy:
    def test_closed_page_precharges_after_cas(self):
        k, mc, am = make_controller(
            page_policy="closed", refresh_enabled=False
        )
        done = []
        for i in range(4):
            mc.submit(read(am, i * 64, done))
        k.run()
        # every column command re-activates under closed page
        assert mc.stats.acts == 4
        assert mc.stats.row_hits == 4  # CAS counted as served

    def test_open_page_faster_for_streams(self):
        k1, mc1, am = make_controller(refresh_enabled=False)
        done = []
        for i in range(16):
            mc1.submit(read(am, i * 64, done))
        k1.run()
        k2, mc2, _ = make_controller(
            page_policy="closed", refresh_enabled=False
        )
        done2 = []
        for i in range(16):
            mc2.submit(read(am, i * 64, done2))
        k2.run()
        assert k1.now < k2.now


class TestCriticalWordFirst:
    def test_early_restart_shortens_completion(self):
        k, mc, am = make_controller(refresh_enabled=False)
        done = []
        req = read(am, 0, done)
        req.early_restart = True
        mc.submit(req)
        k.run()
        # completes tBL/2 before the end of the burst
        assert done[0][1] == 17 + 17 + 4 - DDR4_2400.tBL // 2

    def test_no_early_restart_for_writes(self):
        k, mc, am = make_controller(refresh_enabled=False)
        done = []
        req = write(am, 0, done)
        req.early_restart = True
        mc.submit(req)
        k.run()
        assert done[0][1] == mc.channel.data_free  # full transfer time

    def test_scheme_traits_drive_early_restart(self):
        from repro.core import make_scheme

        cwf = make_scheme("SAM-en").lower_read(0)[0]
        no_cwf = make_scheme("SAM-IO").lower_read(0)[0]
        assert cwf.early_restart and not no_cwf.early_restart
