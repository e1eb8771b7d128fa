"""Per-rank timing state: ACT pacing (tRRD / tFAW), write-to-read
turnaround, the SAM I/O mode register, and refresh blackouts."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from .bank import BankState
from .commands import Command, IOMode
from .geometry import Geometry
from .timing import TimingParams


@dataclass
class RankState:
    """Timing state of one rank."""

    timing: TimingParams
    geometry: Geometry
    salp: str = "none"
    banks: List[BankState] = field(default_factory=list)
    io_mode: IOMode = IOMode.X4
    next_act_any: int = 0
    next_read: int = 0  # rank-level CAS gate (tWTR after writes, refresh)
    next_write: int = 0
    busy_until: int = 0  # refresh blackout
    act_window: Deque[int] = field(default_factory=deque)
    last_act_group: int = -1
    last_act_time: int = -(1 << 30)
    mode_switches: int = 0
    refreshes: int = 0
    #: invalidation epoch for the bank halves of the controller's
    #: readiness slots: bumped whenever ``io_mode`` or ``busy_until``
    #: changes (MRS and refresh), the only rank state a bank half reads.
    #: The rank gates and ACT pacing feed the shared half, which the
    #: controller recomputes after every issued command.  New timing
    #: rules that write ``io_mode`` or ``busy_until`` must bump this too.
    version: int = 0

    def __post_init__(self) -> None:
        if not self.banks:
            g = self.geometry
            self.banks = [
                BankState(
                    self.timing,
                    salp=self.salp,
                    subarrays_per_bank=g.subarrays_per_bank,
                    rows_per_subarray=g.rows_per_subarray,
                )
                for _ in range(g.banks)
            ]

    def earliest_act(self, bank_group: int) -> int:
        """Earliest ACT issue time given tRRD, tFAW and refresh."""
        t = self.timing
        earliest = max(self.next_act_any, self.busy_until)
        if self.last_act_time > -(1 << 30):
            spacing = t.tRRD_L if bank_group == self.last_act_group else t.tRRD_S
            earliest = max(earliest, self.last_act_time + spacing)
        if len(self.act_window) >= 4:
            earliest = max(earliest, self.act_window[0] + t.tFAW)
        return earliest

    def issue_act(self, now: int, bank_group: int) -> None:
        self.last_act_time = now
        self.last_act_group = bank_group
        self.act_window.append(now)
        while len(self.act_window) > 4:
            self.act_window.popleft()

    def earliest_cas(self, cmd: Command) -> int:
        base = self.busy_until
        if cmd is Command.RD:
            return max(base, self.next_read)
        return max(base, self.next_write)

    def issue_write(self, now: int) -> None:
        t = self.timing
        # write-to-read turnaround within this rank
        self.next_read = max(self.next_read, now + t.CWL + t.tBL + t.tWTR)

    def ensure_mode(self, mode: IOMode) -> bool:
        """True if an MRS (mode switch) is needed to serve ``mode``."""
        return self.io_mode is not mode

    def issue_mode_switch(self, now: int, mode: IOMode) -> None:
        t = self.timing
        self.version += 1
        self.io_mode = mode
        self.mode_switches += 1
        stall = now + t.tMOD_IO
        self.next_read = max(self.next_read, stall)
        self.next_write = max(self.next_write, stall)
        self.next_act_any = max(self.next_act_any, stall)

    def all_banks_precharged(self) -> bool:
        return all(b.all_closed for b in self.banks)

    def issue_refresh(self, now: int) -> None:
        """Refresh the rank: closes all banks and blacks out tRFC."""
        t = self.timing
        self.refreshes += 1
        self.version += 1
        for bank in self.banks:
            bank.refresh(now, t.tRFC)
        self.busy_until = max(self.busy_until, now + t.tRFC)
