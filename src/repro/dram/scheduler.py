"""FR-FCFS arbitration for one channel.

:class:`Scheduler` picks each command a
:class:`~repro.dram.controller.MemoryController` issues: the first ready
row-hit column command, else the oldest ready command; if nothing is
ready, the soonest candidate.  The controller calls it at submit
(:meth:`~Scheduler.admit`), on every scan (:meth:`~Scheduler.choose`),
for a PRE (:meth:`~Scheduler.pre_target`), after every command it issues
(:meth:`~Scheduler.moved`) and at CAS (:meth:`~Scheduler.retire`).

It arbitrates over readiness slots, not requests: a slot holds the
queued requests with one row target (`_Slot`), and a scan walks each
queue's slots in order of their oldest requests.

The invalidation contract has two parts.  A slot's bank half
(`Scheduler._entry_terms`) is rebuilt only when its bank's
``BankState.version`` moves: every write of bank or subarray state bumps
it, and MRS and refresh bump every bank of their rank, since the bank
half also reads the rank's ``io_mode`` and ``busy_until``.  The shared
halves (`Scheduler._shared_terms`) are memoized in two dicts, and
:meth:`~Scheduler.moved` drops a dict only when the issued command moved
state its halves read:

* the CAS memo holds the RD, WR and MRS halves (rank CAS gates, data
  bus, bus drain), and RD and WR drop it: they occupy the data bus, and
  a WR moves its rank's ``next_read``;
* the row memo holds the ACT, ACT_COL, PRE and SA_SEL halves (ACT
  pacing, refresh), and ACT and ACT_COL drop it: they move their rank's
  ``last_act_*`` and ``act_window``;
* PRE and SA_SEL move only bank state and the command bus, which no
  shared half reads, and drop nothing;
* MRS and REF move ``next_act_any`` or ``busy_until``, which every
  shared half reads, and drop both.

The test-only reference scan (``tests/scheduler_oracle.py``) re-derives
every queued request's entry on every scan; the lockstep batteries hold
this scheduler's decisions, command streams, cycle counts and stall
ledgers to it exactly.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from operator import attrgetter
from typing import List, Optional, Tuple

from ..obs.stalls import (
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
from .bank import SubarrayState
from .channel import ChannelState
from .commands import (
    ACT,
    ACT_COL,
    MRS,
    PRE,
    RD,
    REF,
    ROW,
    SA_SEL,
    WR,
    Command,
    Request,
)


class _Slot:
    """A readiness slot: the queued requests with one row target -- the
    same (subarray, row kind, row, read/write, I/O mode, subrank) -- and
    the bank half of their readiness entry, which
    :meth:`Scheduler._entry_terms` derives from exactly those fields.

    ``users`` holds the slot's requests in admission order and
    ``request`` is its head, the oldest, admitted ``seq``-th.  Identical
    candidates tie, and the oldest wins every queue-order tie, so the
    head is the one a scan offers and the next to issue its CAS.  The
    scheduler drops the slot when its last request does.

    ``command``, ``bank_time`` and ``bank_reason`` (the bank half),
    ``memo`` and ``shared_key`` (where its shared half is memoized) and
    ``group`` are valid while ``version`` matches its bank's
    ``version``.  The key fixes the rest: the direction its CAS command
    (``cas``), the row kind its ACT command (``act``), and the address
    the rank, bank group and subrank of their shared keys and of the
    CAS group."""

    __slots__ = ("key", "users", "request", "seq", "bank", "version",
                 "command", "bank_time", "bank_reason", "memo",
                 "shared_key", "group", "cas", "cas_key", "cas_group",
                 "act", "act_key")

    def __init__(self, key: tuple, request: Request) -> None:
        self.key = key
        self.users = deque()
        self.request = request
        self.seq = request._seq
        self.bank = request._bank
        self.version = -1
        addr = request.addr
        self.cas = RD if request.is_read else WR
        self.act = ACT if request.row_kind is ROW else ACT_COL
        # the data-bus fit depends on the pins, ACT pacing on the bank
        # group; a key for one command never serves another.  Keys hold
        # the command's name, not the member: hashing a member runs
        # Enum's Python-level ``__hash__``.
        self.cas_key = (self.cas._value_, addr.rank, request.subrank)
        self.act_key = (self.act._value_, addr.rank, addr.bank_group)
        self.cas_group = (addr.rank, addr.bank_group)


#: a slot's place in its queue's order: its head's admission number
_head_seq = attrgetter("seq")


class Scheduler:
    """FR-FCFS arbiter over one channel's queued requests, scanning
    readiness slots in queue order."""

    def __init__(self, channel: ChannelState) -> None:
        self.channel = channel
        self.timing = channel.timing
        self.salp = channel.salp
        #: fold state of the last FR-FCFS scan that found nothing ready,
        #: resumed by later scans until the next command issues (see
        #: `choose`)
        self._wait_memo: Optional[tuple] = None
        #: FR-FCFS scans resumed from the wait memo instead of walking
        #: the whole queue
        self.peek_hits: int = 0
        self._last_cas_group: Optional[Tuple[int, int]] = None
        #: readiness slots by key, one per row target among the queued
        #: requests (see `_Slot`)
        self._slots: dict = {}
        #: the live slots of the write queue and of the read queue
        #: (indexed by ``is_read``), in order of their heads' admission
        self._orders: Tuple[List[_Slot], List[_Slot]] = ([], [])
        #: admissions so far: numbers requests in submit order (``arrival``
        #: ties within a cycle)
        self._admitted: int = 0
        #: shared halves of readiness entries by (command, rank, subrank
        #: or bank group): the CAS memo (RD, WR, MRS) and the row memo
        #: (ACT, ACT_COL, PRE, SA_SEL), each valid until `moved` drops it
        self._cas_memo: dict = {}
        self._row_memo: dict = {}

    def admit(self, request: Request) -> None:
        """Resolve a submitted request's rank, bank and subarray, number
        it, and join the readiness slot of its row target."""
        rank = self.channel.ranks[request.addr.rank]
        request._rank = rank
        bank = rank.banks[request.addr.bank]
        request._bank = bank
        sub = request._sub = bank.sub_for_row(request.addr.row)
        request._seq = self._admitted
        self._admitted += 1
        # `_entry_terms` reads exactly these request fields (the subarray
        # fixes rank, bank and bank group); the subrank picks the shared
        # half.  The subarray object outlives every slot naming it.  The
        # key names the row kind and I/O mode: hashing a member runs
        # Enum's Python-level ``__hash__``.
        key = (id(sub), request.row_kind._value_, request.addr.row,
               request.is_read, request.io_mode._value_, request.subrank)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(key, request)
            # its head is the newest request: the order's tail
            self._orders[request.is_read].append(slot)
        slot.users.append(request)
        request._slot = slot

    def retire(self, request: Request) -> None:
        """``request``'s CAS issued: record its bank group and pop it from
        the head of its slot, which leaves the order when empty and
        otherwise moves to its new head's place."""
        slot = request._slot
        self._last_cas_group = slot.cas_group
        users = slot.users
        head = users.popleft()
        assert head is request, "a slot's head wins every tie"
        order = self._orders[request.is_read]
        order.remove(slot)
        if users:
            slot.request = users[0]
            slot.seq = users[0]._seq
            insort(order, slot, key=_head_seq)
        else:
            del self._slots[slot.key]
        # a completed request that something still holds must not keep
        # its slot, and through it other requests, alive
        request._slot = None

    def choose(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """FR-FCFS: first ready row-hit column command, else oldest ready
        command; if nothing is ready now, the soonest candidate.

        The scan walks ``queue``'s readiness slots in order of their
        heads' admission and offers each head, which wins every tie
        against its siblings (see `_Slot`).  A slot's (command, earliest,
        reason) is computed in place: its bank half is rebuilt only when
        its bank's ``version`` moves, and the shared half -- rank gate
        and data-bus term -- comes from a memo shared by every slot and
        dropped only by the commands that move it (see the module
        docstring).  The shared half binds only when strictly later than
        the bank half: a tie keeps the earlier-listed term, and "first
        term at the maximum time" is associative, so folding the halves
        apart is exact.  The ``future`` minimum keeps wakeup scheduling
        exact: the controller still sleeps to the soonest candidate,
        never past it.

        A scan that finds nothing ready leaves its fold state in the wait
        memo: the slot count, the soonest candidate and, among the
        candidates tied at its time, the first CAS to another bank group,
        the first CAS and the first other command.  Until the next command
        issues no candidate can change -- every gate, bus term and the
        last CAS group move only on issue, and requests leave a queue only
        by issuing -- and slots join only at the order's tail, while an
        arrival that joins an existing slot can never win a tie.  So a
        later scan of the same queue resumes from the memo: before the
        soonest time nothing folded is ready and only the slots created
        since are evaluated; at that time exactly the tied candidates are
        ready, in queue order.
        """
        if not queue:
            return None
        order = self._orders[queue[0].is_read]
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        issued = self.channel.commands_issued
        wait = self._wait_memo
        if (wait is not None and wait[0] is order and wait[1] == issued
                and now <= wait[3]):
            self.peek_hits += 1
            (_order, _issued, start, soonest, future, tie_switch, tie_cas,
             tie_other) = wait
            if now == soonest:
                if tie_switch is not None:
                    return tie_switch
                ready_cas, ready_other = tie_cas, tie_other
        else:
            start = soonest = 0
            future = tie_switch = tie_cas = tie_other = None
        last_group = self._last_cas_group
        mrs = MRS
        sa_sel = SA_SEL
        for index in range(start, len(order)):
            slot = order[index]
            if slot.version != slot.bank.version:
                self._rebuild(slot)
            command = slot.command
            if (command is mrs or command is sa_sel) and index:
                # Only the oldest request (the first slot's head) may flip
                # the rank's I/O mode or the bank's subarray designation;
                # otherwise requests needing different modes (or
                # different subarrays, under MASA) thrash MRS / SA_SEL
                # while waiting out tRCD, each flip pushing the column
                # gates further out.  Skipped candidates are retried
                # whenever the oldest request makes progress.
                continue
            request = slot.request
            term = slot.memo.get(slot.shared_key)
            if term is None:
                term = slot.memo[slot.shared_key] = self._shared_terms(
                    command, request, request._rank)
            earliest = slot.bank_time
            if term[0] > earliest:
                earliest, reason = term
            else:
                reason = slot.bank_reason
            group = slot.group  # (rank, bank group) of a CAS, else None
            if earliest <= now:
                if group is not None:
                    # Bank-group rotation: a CAS to a different bank group
                    # than the previous one runs at tCCD_S instead of
                    # tCCD_L, so prefer it over the oldest ready CAS.
                    if group != last_group:
                        return (request, command, earliest, reason)
                    if ready_cas is None:
                        ready_cas = (request, command, earliest, reason)
                elif ready_other is None:
                    ready_other = (request, command, earliest, reason)
            elif future is None or earliest <= soonest:
                candidate = (request, command, earliest, reason)
                if future is None or earliest < soonest:
                    soonest = earliest
                    future = candidate
                    tie_switch = tie_cas = tie_other = None
                if group is not None:
                    if tie_cas is None:
                        tie_cas = candidate
                    if tie_switch is None and group != last_group:
                        tie_switch = candidate
                elif tie_other is None:
                    tie_other = candidate
        if ready_cas is not None:
            return ready_cas
        if ready_other is not None:
            return ready_other
        if future is not None:
            self._wait_memo = (order, issued, len(order), soonest, future,
                               tie_switch, tie_cas, tie_other)
        return future

    def moved(self, command: Command) -> None:
        """``command`` issued: drop the shared halves it can have moved
        (see the module docstring)."""
        if command is RD or command is WR:
            self._cas_memo.clear()
        elif command is ACT or command is ACT_COL:
            self._row_memo.clear()
        elif command is MRS or command is REF:
            self._cas_memo.clear()
            self._row_memo.clear()

    def _rebuild(self, slot: _Slot) -> None:
        """Rebuild ``slot``'s bank half after its bank's ``version``
        moved, with the memo, shared key and CAS group it implies."""
        request = slot.request
        bank = slot.bank
        command, slot.bank_time, slot.bank_reason = self._entry_terms(
            request, request._rank, bank
        )
        slot.version = bank.version
        slot.command = command
        if command is slot.cas:
            slot.memo = self._cas_memo
            slot.shared_key = slot.cas_key
            slot.group = slot.cas_group
            return
        slot.group = None
        if command is slot.act:
            slot.memo = self._row_memo
            slot.shared_key = slot.act_key
            return
        # an MRS waits on the bus drain, a PRE or SA_SEL on refresh only
        slot.memo = self._cas_memo if command is MRS else self._row_memo
        slot.shared_key = (command._value_, request.addr.rank,
                           request.addr.bank_group)

    def _entry_terms(
        self, request: Request, rank, bank
    ) -> Tuple[Command, int, str]:
        """The bank half of a readiness entry: the next command
        ``request`` needs, its earliest issue time over the subarray and
        bank gates, and the binding stall tag.  The subarray gates carry
        tRP/tRCD/tRAS recovery, the bank the shared row-logic (tRA) and
        column-path (tCCD) gates, and SALP-2/MASA additionally gate
        column commands on global sense-amp designation.  Where two
        gates tie, the one listed first -- the subarray's -- is the
        binding tag.

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
        if rank.io_mode is not request.io_mode:
            # no bank gate: the rank gates and the bus drain bind an MRS
            return (MRS, 0, MODE_SWITCH)
        sub = request._sub
        open_row = sub.open_row
        if open_row is None:
            victim = bank.pre_victim(sub.sub_id)
            if victim is not None:
                # the bank is at its open-subarray capacity: close the
                # oldest open subarray before activating this one
                return (PRE, bank.subarrays[victim].next_pre, TRAS)
            cmd = ACT if request.row_kind is ROW else ACT_COL
            ready = sub.next_act
            shared = bank.next_any_act  # shared row-logic re-arm
            if shared > ready:
                return (cmd, shared, SUBARRAY)
            # post-refresh the subarray ACT gate is the tRFC blackout,
            # post-precharge it is tRP
            return (cmd, ready,
                    REFRESH if rank.busy_until >= ready else TRP)
        if (open_row[1] != request.addr.row
                or open_row[0] is not request.row_kind):
            # row conflict within this subarray: precharge it first
            return (PRE, sub.next_pre, TRAS)
        if bank.designated == sub.sub_id:
            # column command to the globally connected subarray
            cmd = RD if request.is_read else WR
            ready = sub.last_act + self.timing.tRCD
            column = bank.col_next
            if column > ready:
                return (cmd, column, CCD_BUS)
            return (cmd, ready, TRCD)
        if self.salp == "masa":
            # right row open in an undesignated subarray: switch the
            # global sense-amp connection first
            return (SA_SEL, bank.next_sa_sel, SUBARRAY)
        # SALP-2 cannot re-connect an undesignated subarray (only an ACT
        # designates): close it and re-activate
        return (PRE, sub.next_pre, TRAS)

    def _shared_terms(
        self, command: Command, request: Request, rank
    ) -> Tuple[int, str]:
        """The shared half of a readiness entry: the rank gate for
        ``command`` with its stall tag, then the CAS data-bus fit -- or,
        for an MRS, the data-bus drain.  A bus fit binds only when
        strictly later than the rank gate.  It reads rank and channel
        state that the commands `moved` names move (ACT pacing, tWTR,
        bus occupancy) and depends on the request only through its rank
        and its bank group (ACT) or subrank and direction (CAS)."""
        busy = rank.busy_until
        if command is RD or command is WR:
            gate = rank.next_read if command is RD else rank.next_write
            if gate <= busy:
                gate, tag = busy, REFRESH
            elif gate == rank.next_act_any:
                tag = MODE_SWITCH  # tMOD_IO stalls CAS and ACT alike
            else:
                tag = WRITE_DRAIN  # tWTR write-to-read turnaround
            bus = self.channel.earliest_cas_for_bus(
                command, request.addr.rank, request.type, request.subrank)
            if bus > gate:
                return (bus, CCD_BUS)
            return (gate, tag)
        if command is ACT or command is ACT_COL:
            gate = rank.earliest_act(request.addr.bank_group)
            if gate == busy:
                return (gate, REFRESH)
            if gate == rank.next_act_any:
                return (gate, MODE_SWITCH)
            return (gate, TFAW)  # tFAW window or tRRD spacing
        if command is MRS:
            # An MRS can issue once the rank's in-flight CAS work is done
            # and the data bus has drained (the switch flips DQ drivers).
            return (max(busy, rank.next_read, rank.next_write,
                        self.channel.data_free), MODE_SWITCH)
        return (busy, REFRESH)  # PRE and SA_SEL wait out refresh only

    def pre_target(self, request: Request) -> SubarrayState:
        """The subarray a PRE chosen for ``request`` closes: the
        request's own subarray when it holds an open row (wrong row, or
        right row but undesignated under SALP-2), else the bank's
        capacity victim (`_entry_terms` picks a PRE for no other
        reason).  Deterministic re-derivation at issue time is safe: any
        intervening state change bumps ``bank.version`` and forces the
        slot's bank half to be rebuilt."""
        sub = request._sub
        if sub.open_row is not None:
            return sub
        bank = request._bank
        return bank.subarrays[bank.pre_victim(sub.sub_id)]
