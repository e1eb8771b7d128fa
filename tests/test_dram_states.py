"""Unit tests for the bank/rank/channel timing state machines."""

import pytest

from repro.dram.bank import FOREVER, BankState
from repro.dram.channel import ChannelState
from repro.dram.commands import Command, IOMode, RequestType, RowKind
from repro.dram.geometry import Geometry
from repro.dram.rank import RankState
from repro.dram.timing import DDR4_2400


ROW = (RowKind.ROW, 5)
COL = (RowKind.COLUMN, 5)


class TestBankState:
    """The default bank is one subarray on the subarray-aware path: the
    subarray carries the row gates (tRCD, tRAS, tRP, tRTP, tWR) and the
    bank the shared column path (tCCD and internal-burst tails)."""

    def make(self):
        return BankState(DDR4_2400)

    def test_initially_closed(self):
        bank = self.make()
        assert bank.open_row is None and bank.all_closed
        assert bank.subarrays[0].next_act == 0
        assert bank.next_any_act == 0

    def test_act_gates_column_commands(self):
        bank = self.make()
        bank.issue_act(100, ROW)
        sub = bank.subarrays[0]
        assert bank.open_row == ROW
        assert bank.snapshot()["next_cas"] == 100 + DDR4_2400.tRCD
        assert sub.next_pre == 100 + DDR4_2400.tRAS

    def test_no_second_act_without_precharge(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        sub = bank.subarrays[0]
        assert sub.next_act == FOREVER
        bank.issue_pre(100)
        assert sub.next_act == 100 + DDR4_2400.tRP

    def test_read_to_precharge_trtp(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        bank.issue_read(20)
        assert bank.subarrays[0].next_pre >= 20 + DDR4_2400.tRTP
        assert bank.col_next == 20 + DDR4_2400.tCCD_L

    def test_write_recovery(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        bank.issue_write(20)
        expected = 20 + DDR4_2400.CWL + DDR4_2400.tBL + DDR4_2400.tWR
        assert bank.subarrays[0].next_pre >= expected
        assert bank.col_next == 20 + DDR4_2400.tCCD_L

    def test_internal_bursts_extend_column_occupancy(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        bank.issue_read(20, extra_internal=3)
        tail = 3 * DDR4_2400.tCCD_L
        assert bank.col_next == 20 + 4 * DDR4_2400.tCCD_L
        assert bank.subarrays[0].next_pre == max(
            DDR4_2400.tRAS, 20 + DDR4_2400.tRTP + tail)

    def test_column_row_is_distinct_identity(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        assert bank.open_row == ROW and bank.open_row != COL
        assert bank.subarrays[0].open_row == ROW

    def test_force_close(self):
        bank = self.make()
        bank.issue_act(0, ROW)
        bank.force_close(50)
        assert bank.open_row is None and bank.all_closed
        assert bank.subarrays[0].next_act == 50 + DDR4_2400.tRP

    def test_default_bank_tracks_open_subarray_and_designation(self):
        bank = self.make()
        assert bank.open_subs == {} and bank.designated is None
        bank.issue_act(10, ROW)
        assert bank.open_subs == {0: 10} and bank.designated == 0
        bank.issue_pre(60)
        assert bank.open_subs == {} and bank.designated is None
        bank.issue_act(100, COL)
        assert bank.open_subs == {0: 100} and bank.designated == 0
        bank.refresh(200, DDR4_2400.tRFC)
        assert bank.open_subs == {} and bank.designated is None
        assert bank.subarrays[0].next_act == 200 + DDR4_2400.tRFC
        assert bank.next_any_act == 200 + DDR4_2400.tRFC


class TestRankState:
    def make(self):
        return RankState(DDR4_2400, Geometry())

    def test_trrd_spacing(self):
        rank = self.make()
        rank.issue_act(100, bank_group=0)
        same = rank.earliest_act(bank_group=0)
        diff = rank.earliest_act(bank_group=1)
        assert same == 100 + DDR4_2400.tRRD_L
        assert diff == 100 + DDR4_2400.tRRD_S

    def test_faw_limits_four_activates(self):
        rank = self.make()
        for i in range(4):
            rank.issue_act(i * 4, bank_group=i)
        earliest = rank.earliest_act(bank_group=0)
        assert earliest >= 0 + DDR4_2400.tFAW

    def test_write_to_read_turnaround(self):
        rank = self.make()
        rank.issue_write(50)
        expected = 50 + DDR4_2400.CWL + DDR4_2400.tBL + DDR4_2400.tWTR
        assert rank.next_read >= expected

    def test_mode_switch_stalls_rank(self):
        rank = self.make()
        assert rank.io_mode is not IOMode.STRIDE
        rank.issue_mode_switch(10, IOMode.STRIDE)
        assert rank.io_mode is IOMode.STRIDE
        assert rank.next_read >= 10 + DDR4_2400.tMOD_IO
        assert rank.mode_switches == 1

    def test_refresh_closes_banks_and_blacks_out(self):
        rank = self.make()
        rank.banks[3].issue_act(0, ROW)
        rank.issue_refresh(100)
        assert rank.all_banks_precharged()
        assert rank.busy_until == 100 + DDR4_2400.tRFC


class TestChannelState:
    def make(self):
        return ChannelState(DDR4_2400, Geometry())

    def test_data_bus_serializes_bursts(self):
        ch = self.make()
        end1 = ch.issue_cas(0, Command.RD, 0, RequestType.READ)
        assert end1 == DDR4_2400.CL + DDR4_2400.tBL
        # next read must not start its data before end1
        earliest = ch.earliest_cas_for_bus(Command.RD, 0, RequestType.READ)
        assert earliest + DDR4_2400.CL >= end1

    def test_rank_switch_bubble(self):
        ch = self.make()
        ch.issue_cas(0, Command.RD, 0, RequestType.READ)
        same = ch.earliest_cas_for_bus(Command.RD, 0, RequestType.READ)
        other = ch.earliest_cas_for_bus(Command.RD, 1, RequestType.READ)
        assert other == same + DDR4_2400.tRTR

    def test_read_write_turnaround(self):
        ch = self.make()
        ch.issue_cas(0, Command.RD, 0, RequestType.READ)
        wr = ch.earliest_cas_for_bus(Command.WR, 0, RequestType.WRITE)
        rd = ch.earliest_cas_for_bus(Command.RD, 0, RequestType.READ)
        assert wr > rd - (DDR4_2400.CL - DDR4_2400.CWL)

    def test_subbus_independent(self):
        ch = self.make()
        ch.issue_cas(0, Command.RD, 0, RequestType.READ, subrank=0)
        free = ch.earliest_cas_for_bus(
            Command.RD, 0, RequestType.READ, subrank=1
        )
        busy = ch.earliest_cas_for_bus(
            Command.RD, 0, RequestType.READ, subrank=0
        )
        assert free < busy

    def test_full_width_waits_for_subbuses(self):
        ch = self.make()
        ch.issue_cas(0, Command.RD, 0, RequestType.READ, subrank=2)
        full = ch.earliest_cas_for_bus(Command.RD, 0, RequestType.READ)
        assert full + DDR4_2400.CL >= DDR4_2400.CL + DDR4_2400.tBL

    def test_command_bus_one_per_cycle(self):
        ch = self.make()
        ch.occupy_command_bus(7)
        assert ch.next_command == 8
        assert ch.commands_issued == 1
