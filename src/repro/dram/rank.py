"""Per-rank timing state: ACT pacing (tRRD / tFAW), write-to-read
turnaround, the SAM I/O mode register, and refresh blackouts."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List

from .bank import BankState
from .commands import IOMode
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
        earliest = self.next_act_any
        if self.busy_until > earliest:
            earliest = self.busy_until
        if self.last_act_time > -(1 << 30):
            spacing = t.tRRD_L if bank_group == self.last_act_group else t.tRRD_S
            paced = self.last_act_time + spacing
            if paced > earliest:
                earliest = paced
        if len(self.act_window) >= 4:
            window = self.act_window[0] + t.tFAW
            if window > earliest:
                earliest = window
        return earliest

    def issue_act(self, now: int, bank_group: int) -> None:
        self.last_act_time = now
        self.last_act_group = bank_group
        self.act_window.append(now)
        while len(self.act_window) > 4:
            self.act_window.popleft()

    def issue_write(self, now: int) -> None:
        t = self.timing
        # write-to-read turnaround within this rank
        ready = now + t.CWL + t.tBL + t.tWTR
        if ready > self.next_read:
            self.next_read = ready

    def issue_mode_switch(self, now: int, mode: IOMode) -> None:
        t = self.timing
        # the readiness slots of every bank read ``io_mode``
        for bank in self.banks:
            bank.version += 1
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
        for bank in self.banks:
            bank.refresh(now, t.tRFC)
        self.busy_until = max(self.busy_until, now + t.tRFC)
