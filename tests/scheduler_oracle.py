"""Reference FR-FCFS scheduler: the full-recompute scan and the bank and
shared halves of a readiness entry as they were before the scheduler
memoized the shared halves per command kind and inlined both
derivations.

:class:`ReferenceScan` keeps ``Scheduler.choose_reference``,
``_binding``, ``_entry_terms`` and ``_shared_terms`` verbatim.  Only
the two rank helpers they called, which left ``RankState``, are module
functions here (:func:`ensure_mode`, :func:`earliest_cas`, bodies
unchanged).  A scan reads a live :class:`~repro.dram.scheduler.Scheduler`'s
channel, timing, SALP mode and last CAS group, so a test can put it
beside the fast scan at the same instant (``test_vectorized.py``'s
lockstep batteries).  :class:`ReferenceScheduler` arbitrates with it on
every wake-up, and :func:`reference_mode` builds every controller with
it for the full-run comparisons.  Nothing in the simulator calls them.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

import repro.dram.controller as dram_controller
from repro.dram.commands import Command, IOMode, Request, RequestType, RowKind
from repro.dram.scheduler import Scheduler
from repro.obs.stalls import (
    CCD_BUS,
    MODE_SWITCH,
    REFRESH,
    SUBARRAY,
    TFAW,
    TRAS,
    TRCD,
    TRP,
    WRITE_DRAIN,
)


def ensure_mode(rank, mode: IOMode) -> bool:
    """True if an MRS (mode switch) is needed to serve ``mode``."""
    return rank.io_mode is not mode


def earliest_cas(rank, cmd: Command) -> int:
    base = rank.busy_until
    if cmd is Command.RD:
        return max(base, rank.next_read)
    return max(base, rank.next_write)


class ReferenceScan:
    """The full-recompute FR-FCFS scan over ``scheduler``'s state."""

    def __init__(self, scheduler: Scheduler) -> None:
        self.scheduler = scheduler
        self.channel = scheduler.channel
        self.timing = scheduler.timing
        self.salp = scheduler.salp

    @property
    def _last_cas_group(self) -> Optional[Tuple[int, int]]:
        return self.scheduler._last_cas_group

    def choose_reference(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """Old-style scan: re-derive every queued request's next command
        on every wakeup.  Kept as the behavioral reference the readiness
        index is tested against."""
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        future: Optional[Tuple[Request, Command, int, str]] = None
        channel = self.channel
        for index, request in enumerate(queue):
            rank = channel.ranks[request.addr.rank]
            command, earliest, reason = self._entry_terms(
                request, rank, rank.banks[request.addr.bank])
            earliest, reason = self._binding(
                (earliest, reason), self._shared_terms(command, request, rank))
            if (command is Command.MRS
                    or command is Command.SA_SEL) and index > 0:
                continue
            if earliest <= now:
                if command in (Command.RD, Command.WR):
                    group = (request.addr.rank, request.addr.bank_group)
                    if group != self._last_cas_group:
                        return (request, command, earliest, reason)
                    if ready_cas is None:
                        ready_cas = (request, command, earliest, reason)
                elif ready_other is None:
                    ready_other = (request, command, earliest, reason)
            elif future is None or earliest < future[2]:
                future = (request, command, earliest, reason)
        if ready_cas is not None:
            return ready_cas
        return ready_other if ready_other is not None else future

    @staticmethod
    def _binding(*terms: Tuple[int, str]) -> Tuple[int, str]:
        """Max over ``(time, reason)`` terms; ties keep the earlier term,
        so list the more specific timing reasons first."""
        best_time, best_reason = terms[0]
        for time, reason in terms[1:]:
            if time > best_time:
                best_time, best_reason = time, reason
        return best_time, best_reason

    def _entry_terms(
        self, request: Request, rank, bank
    ) -> Tuple[Command, int, str]:
        """The bank half of a readiness entry: the next command
        ``request`` needs, its earliest issue time over the subarray and
        bank gates, and the binding stall tag.  The subarray gates carry
        tRP/tRCD/tRAS recovery, the bank the shared row-logic (tRA) and
        column-path (tCCD) gates, and SALP-2/MASA additionally gate
        column commands on global sense-amp designation.

        It reads the request's subarray, row kind, row, direction and I/O
        mode -- its slot key -- and of the rank only ``io_mode`` and
        ``busy_until``, so it is the same for every request sharing a
        slot, and stays exact while ``bank.version`` stands: every write
        of bank or subarray state bumps it (the half also reads *other*
        subarrays -- precharge victims, designation), and MRS and refresh
        bump every bank of their rank.  The rank gates and the data-bus
        term are the shared half, `_shared_terms`.

        A one-subarray bank takes the same path exactly: its subarray is
        designated whenever it is open and never has a capacity victim,
        and tRA never binds it, since its next ACT already waits
        tRAS + tRP >= tRA after the last one."""
        if ensure_mode(rank, request.io_mode):
            # no bank gate: the rank gates and the bus drain bind an MRS
            return (Command.MRS, 0, MODE_SWITCH)
        t = self.timing
        sub = request._sub
        if sub.open_row == request.row_id():
            if bank.designated == sub.sub_id:
                # column command to the globally connected subarray
                cmd = Command.RD if request.is_read else Command.WR
                return (cmd, *self._binding(
                    (sub.last_act + t.tRCD, TRCD),
                    (bank.col_next, CCD_BUS),
                ))
            if self.salp == "masa":
                # right row open in an undesignated subarray: switch the
                # global sense-amp connection first
                return (Command.SA_SEL, bank.next_sa_sel, SUBARRAY)
            # SALP-2 cannot re-connect an undesignated subarray (only an
            # ACT designates): close it and re-activate
            return (Command.PRE, sub.next_pre, TRAS)
        if sub.open_row is None:
            victim = bank.pre_victim(sub.sub_id)
            if victim is not None:
                # the bank is at its open-subarray capacity: close the
                # oldest open subarray before activating this one
                return (Command.PRE, bank.subarrays[victim].next_pre, TRAS)
            cmd = (Command.ACT if request.row_kind is RowKind.ROW
                   else Command.ACT_COL)
            # post-refresh the subarray ACT gate is the tRFC blackout,
            # post-precharge it is tRP
            return (cmd, *self._binding(
                (sub.next_act,
                 REFRESH if rank.busy_until >= sub.next_act else TRP),
                (bank.next_any_act, SUBARRAY),  # shared row-logic re-arm
            ))
        # row conflict within this subarray: precharge it first
        return (Command.PRE, sub.next_pre, TRAS)

    def _shared_terms(
        self, command: Command, request: Request, rank
    ) -> Tuple[int, str]:
        """The shared half of a readiness entry: the rank gate for
        ``command`` with its stall tag, then the CAS data-bus fit -- or,
        for an MRS, the data-bus drain.  It reads rank and channel state
        that moves on every issue (ACT pacing, tWTR, bus occupancy) and
        depends on the request only through its rank and its bank group
        (ACT) or subrank (CAS)."""
        if command is Command.MRS:
            # An MRS can issue once the rank's in-flight CAS work is done
            # and the data bus has drained (the switch flips DQ drivers).
            return (max(rank.busy_until, rank.next_read, rank.next_write,
                        self.channel.data_free), MODE_SWITCH)
        cas = command is Command.RD or command is Command.WR
        if cas:
            gate = earliest_cas(rank, command)
        elif command is Command.ACT or command is Command.ACT_COL:
            gate = rank.earliest_act(request.addr.bank_group)
        else:
            gate = rank.busy_until  # PRE and SA_SEL wait out refresh only
        if gate == rank.busy_until:
            tag = REFRESH
        elif gate == rank.next_act_any:
            tag = MODE_SWITCH  # tMOD_IO stalls CAS and ACT alike
        elif cas:
            tag = WRITE_DRAIN  # tWTR write-to-read turnaround
        else:
            tag = TFAW  # tFAW window or tRRD spacing
        if cas:
            bus = self.channel.earliest_cas_for_bus(
                command, request.addr.rank,
                RequestType.READ if command is Command.RD
                else RequestType.WRITE,
                request.subrank,
            )
            if bus > gate:
                return (bus, CCD_BUS)
        return (gate, tag)


def reference_choice(scheduler: Scheduler, now: int, queue: List[Request]
                     ) -> Optional[Tuple[Request, Command, int, str]]:
    """What the full recompute decides over ``scheduler``'s state."""
    return ReferenceScan(scheduler).choose_reference(now, queue)


class ReferenceScheduler(Scheduler):
    """A scheduler that keeps the fast one's admission, retirement and
    PRE-target bookkeeping but decides every scan by the full recompute:
    it memoizes nothing, so ``peek_hits`` stays 0."""

    def __init__(self, channel) -> None:
        super().__init__(channel)
        self._scan = ReferenceScan(self)

    def choose(self, now: int, queue: List[Request]
               ) -> Optional[Tuple[Request, Command, int, str]]:
        return self._scan.choose_reference(now, queue)


@contextmanager
def reference_mode():
    """Inside the block every new `MemoryController` arbitrates with
    :class:`ReferenceScheduler`: the plain polling the wait memo and the
    shared-half memos must be indistinguishable from."""
    scheduler = dram_controller.Scheduler
    dram_controller.Scheduler = ReferenceScheduler
    try:
        yield
    finally:
        dram_controller.Scheduler = scheduler
