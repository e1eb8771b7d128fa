"""Cycle-level memory controller.

One :class:`MemoryController` owns one channel and schedules commands with
the FR-FCFS policy under an open-page row-buffer policy (Table 2).  Writes
are buffered in a write queue (capacity 32) and drained when the queue
crosses a high watermark or when no reads are pending.

SAM support: every request carries the I/O mode it needs (regular ``x4`` or
stride ``Sx4``).  When the targeted rank is in the wrong mode the controller
issues an MRS command first, which stalls the rank for tMOD_IO (= tRTR,
Section 5.3).  Column-wise activations (SAM-sub / RC-NVM) are ACT_COL
commands: they occupy the bank exactly like a row activation but open a
"column row", so row-wise and column-wise accesses to the same bank conflict
in the row buffer -- the effect that degrades SAM-sub and RC-NVM on
row-friendly (Qs) queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..kernel import Kernel
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
from .bank import FOREVER
from .channel import ChannelState
from .commands import Command, IOMode, Request, RequestType, RowKind
from .geometry import Geometry
from .timing import TimingParams


class QueueFullError(RuntimeError):
    """A request was submitted to a full controller queue.

    Callers are expected to consult :meth:`MemoryController.can_accept`
    first, so reaching this is a flow-control bug; the structured fields
    (and the ``controller.queue_full_rejects`` metric) exist so that bug
    is diagnosable instead of a bare string.
    """

    def __init__(self, kind: str, capacity: int, core: Optional[int],
                 cycle: int) -> None:
        who = f"core {core}" if core is not None else "an uncored requester"
        super().__init__(
            f"memory controller {kind} queue full "
            f"(capacity {capacity}) rejecting a request from {who} "
            f"at cycle {cycle}"
        )
        self.kind = kind
        self.capacity = capacity
        self.core = core
        self.cycle = cycle


@dataclass
class ControllerConfig:
    """Scheduling knobs (defaults per Table 2)."""

    write_queue_capacity: int = 32
    write_high_watermark: int = 24
    write_low_watermark: int = 8
    read_queue_capacity: int = 64
    refresh_enabled: bool = True
    #: "open" (Table 2 default) keeps rows open for FR-FCFS row hits;
    #: "closed" auto-precharges after every column command (RDA/WRA).
    page_policy: str = "open"
    #: select the behavioral reference scheduler.  The default (fast)
    #: mode splits each queued request's readiness entry in two.  The
    #: bank half (next command, subarray/bank gate and stall tag) lives
    #: in one slot shared by every queued request with the same row
    #: target and is rebuilt only when a bank/subarray/rank version
    #: counter it is keyed on moves; the shared half (rank gate, then
    #: the data-bus term) is computed once per command kind, rank and
    #: bank group or subrank per issued command.  The fast mode also
    #: keeps the fold state of the last scan that found nothing ready
    #: (the wait memo), so until the next command issues a wake-up
    #: evaluates only the requests that arrived since that scan.
    #: ``reference=True`` rebuilds both halves of every request's entry
    #: on every wake-up and memoizes nothing.  The wake-up *event
    #: stream* is identical in both modes by construction -- every
    #: scheduling decision happens at the same kernel instant -- so
    #: command streams, cycle counts and stall ledgers match exactly
    #: (enforced by the fast-vs-reference batteries).
    reference: bool = False


class _Slot:
    """The bank half of a readiness entry, shared by every queued request
    with the same (subarray, row kind, row, read/write, I/O mode,
    subrank): the fields :meth:`MemoryController._entry_terms` reads,
    plus the subrank that picks the shared half.  ``users`` counts the
    queued requests holding the slot; the controller drops it when the
    last of them issues its CAS.

    ``command``, ``bank_time`` and ``bank_reason`` (the bank half) are
    valid while ``versions`` matches the (bank, subarray, rank) version
    counters.  ``earliest`` and ``reason`` fold the shared half onto
    them and are valid for the ``epoch`` (``channel.commands_issued``)
    they were folded in."""

    __slots__ = ("key", "request", "users", "versions", "command",
                 "bank_time", "bank_reason", "shared_key", "group",
                 "epoch", "earliest", "reason")

    def __init__(self, key: tuple, request: Request) -> None:
        self.key = key
        #: any one of the slot's requests: they all price alike
        self.request = request
        self.users = 0
        self.versions: Optional[tuple] = None
        self.epoch = -1


@dataclass
class CommandStats:
    """Counts consumed by the power model and the experiment reports."""

    acts: int = 0
    col_acts: int = 0
    reads: int = 0
    writes: int = 0
    gather_reads: int = 0
    gather_writes: int = 0
    stride_mode_reads: int = 0  # reads served in an Sx4 mode (SAM-IO power)
    internal_bursts: int = 0
    precharges: int = 0
    refreshes: int = 0
    mode_switches: int = 0
    sa_sels: int = 0  # MASA subarray re-designations
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    read_latency_total: int = 0
    read_count_for_latency: int = 0

    @property
    def avg_read_latency(self) -> float:
        if not self.read_count_for_latency:
            return 0.0
        return self.read_latency_total / self.read_count_for_latency


class MemoryController:
    """FR-FCFS, open-page controller for a single channel."""

    def __init__(
        self,
        kernel: Kernel,
        timing: TimingParams,
        geometry: Geometry | None = None,
        config: ControllerConfig | None = None,
        channel_id: int = 0,
        salp: str = "none",
    ) -> None:
        self.kernel = kernel
        self.timing = timing
        self.geometry = geometry or Geometry()
        self.config = config or ControllerConfig()
        self.channel_id = channel_id
        #: subarray-level-parallelism mode: "none" (legacy one-open-row
        #: banks), "salp1", "salp2" or "masa"
        self.salp = salp
        self.channel = ChannelState(timing, self.geometry, salp=salp)
        #: probes subscribed via :meth:`attach`, and per probe method the
        #: tuple of bound methods its event sites loop over (empty when
        #: nobody listens, so unobserved runs pay one empty loop per site)
        self._probes: List[object] = []
        self._on_command: Tuple[Callable, ...] = ()
        self._on_wait: Tuple[Callable, ...] = ()
        self._on_read_latency: Tuple[Callable, ...] = ()
        #: optional obs.metrics.MetricsRegistry for controller-side
        #: counters (queue_full_rejects)
        self.metrics = None
        #: optional callback fired as ``(request,)`` whenever a request
        #: leaves a queue (a RD/WR issued), i.e. whenever a queue slot
        #: frees.  The memory system uses it to retry blocked writebacks
        #: the moment a slot opens instead of polling on a fixed
        #: interval.
        self.slot_listener = None
        self.read_queue: List[Request] = []
        self.write_queue: List[Request] = []
        self.stats = CommandStats()
        self._draining_writes = False
        self._wakeup_at: Optional[int] = None
        self._wakeup_token = None
        #: fold state of the last FR-FCFS scan that found nothing ready,
        #: resumed by later scans until the next command issues (see
        #: `_frfcfs_choose`)
        self._wait_memo: Optional[tuple] = None
        #: FR-FCFS scans resumed from the wait memo instead of walking
        #: the whole queue (never in reference mode)
        self.peek_hits: int = 0
        self._last_cas_group: Optional[Tuple[int, int]] = None
        #: readiness slots by key, one per row target among the queued
        #: requests (see `_Slot`)
        self._slots: dict = {}
        #: shared halves of readiness entries by (command, rank, bank
        #: group or subrank), valid for one `channel.commands_issued`
        #: epoch (rank and bus state move on every issue)
        self._shared: dict = {}
        self._shared_epoch: int = -1
        self._next_refresh = [
            timing.tREFI * (i + 1) // max(1, self.geometry.ranks)
            for i in range(self.geometry.ranks)
        ]

    # ------------------------------------------------------------------ API

    def submit(self, request: Request) -> None:
        """Accept a request.  Raises :class:`QueueFullError` if the relevant
        queue is full; callers should consult :meth:`can_accept` first."""
        if not self.can_accept(request):
            kind = "read" if request.is_read else "write"
            capacity = (
                self.config.read_queue_capacity
                if request.is_read
                else self.config.write_queue_capacity
            )
            if self.metrics is not None:
                self.metrics.counter("controller.queue_full_rejects").inc()
            raise QueueFullError(
                kind, capacity, request.source_core, self.kernel.now
            )
        request.arrival = self.kernel.now
        rank = self.channel.ranks[request.addr.rank]
        request._rank = rank
        bank = rank.banks[request.addr.bank]
        request._bank = bank
        sub = request._sub = bank.sub_for_row(request.addr.row)
        # `_entry_terms` reads exactly these request fields (the subarray
        # fixes rank, bank and bank group); the subrank picks the shared
        # half.  The subarray object outlives every slot naming it.
        key = (id(sub), request.row_kind, request.addr.row, request.is_read,
               request.io_mode, request.subrank)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(key, request)
        slot.users += 1
        request._slot = slot
        if request.is_read:
            self.read_queue.append(request)
        else:
            self.write_queue.append(request)
        self._schedule_wakeup(self.kernel.now)

    def can_accept(self, request: Request) -> bool:
        if request.is_read:
            return len(self.read_queue) < self.config.read_queue_capacity
        return len(self.write_queue) < self.config.write_queue_capacity

    def idle(self) -> bool:
        return not self.read_queue and not self.write_queue

    # --------------------------------------------------------------- probes

    def attach(self, probe):
        """Subscribe ``probe`` to this controller's event stream; returns
        it.  A probe defines any subset of:

        * ``on_command(cycle, command, request, *, rank=None, bank=None,
          subarray=None, implicit=False)`` -- every command: REF and the
          refresh-path PREs arrive with ``request`` None and their
          rank/bank spelled out, a SALP PRE names its ``subarray``, and
          the closed-page auto-precharge is flagged ``implicit`` (it rides
          on its CAS, stamped with the cycle the row closes);
        * ``on_data_burst(now, cmd, rank, subrank, data_start, data_end)``
          -- every CAS data burst (delivered by the channel);
        * ``on_wait(start, end, reason)`` -- every scheduling wait, tagged
          with the stall-taxonomy reason that bound it;
        * ``on_read_latency(cycles)`` -- every completed read.

        Probes observe; they must not mutate simulation state.  Each
        event reaches the probes in attach order.
        """
        self._probes.append(probe)
        self._bind_probes()
        return probe

    def detach(self, probe) -> None:
        """Unsubscribe ``probe`` (a no-op if it is not attached)."""
        self._probes = [p for p in self._probes if p is not probe]
        self._bind_probes()

    def _bind_probes(self) -> None:
        def methods(name: str) -> Tuple[Callable, ...]:
            found = (getattr(probe, name, None) for probe in self._probes)
            return tuple(method for method in found if method is not None)

        self._on_command = methods("on_command")
        self._on_wait = methods("on_wait")
        self._on_read_latency = methods("on_read_latency")
        self.channel.burst_probes = methods("on_data_burst")

    # ------------------------------------------------------ scheduling core

    def _schedule_wakeup(self, when: int) -> None:
        when = max(when, self.kernel.now)
        if self._wakeup_at is not None and self._wakeup_at <= when:
            # the pending earlier wake-up stands
            return
        # Supersede by scheduling a fresh, earlier event; the later one
        # stays in the heap and fires stale (the `_wakeup` guard drops
        # it).  Cancelling it would be cheaper but changes behavior: if
        # the controller later re-arms that same time, the lingering
        # event -- the oldest one scheduled for it -- is the one that
        # acts, at its *original* sequence position within the cycle
        # (before any same-cycle events scheduled later).  The stall
        # ledger depends on that ordering, and keeping it identical in
        # both scheduling modes is what makes the event wheel exact.
        self._wakeup_at = when
        self._wakeup_token = self.kernel.schedule_at(when, self._wakeup)

    def _wakeup(self) -> None:
        # Drop stale events: only the event matching the armed time acts.
        # (When an earlier wake-up is scheduled over a pending later one,
        # the later event still fires; acting on it would fork a second
        # self-perpetuating wake-up chain.)  Both scheduling modes rely
        # on this guard -- superseded events are never cancelled.
        if self._wakeup_at != self.kernel.now:
            return
        self._wakeup_at = None
        self._wakeup_token = None
        next_time = self._try_issue(self.kernel.now)
        if next_time is not None:
            self._schedule_wakeup(next_time)

    def _refresh_due(self, now: int) -> Optional[int]:
        """Rank index whose refresh deadline has passed, if any."""
        if not self.config.refresh_enabled or self.timing.tREFI <= 0:
            return None
        for rank_id, deadline in enumerate(self._next_refresh):
            if now >= deadline:
                return rank_id
        return None

    def _try_issue(self, now: int) -> Optional[int]:
        """Issue at most one command; return the next wake-up time."""
        if self.channel.next_command > now:
            self._note_wait(now, self.channel.next_command, CCD_BUS)
            return self.channel.next_command

        rank_id = self._refresh_due(now)
        if rank_id is not None:
            wake = self._issue_refresh_step(now, rank_id)
            if wake is not None:
                self._note_wait(now, wake, REFRESH)
            return wake

        queue = self._active_queue()
        if queue is None:
            return self._next_refresh_deadline()

        choice = self._frfcfs_choose(now, queue)
        if choice is None:
            return self._next_refresh_deadline()
        request, command, earliest, reason = choice
        if queue is self.write_queue and self.read_queue:
            # reads are parked behind the drain, whatever the write's own
            # binding constraint is
            reason = WRITE_DRAIN
        if earliest > now:
            wake = min(earliest, self._next_refresh_deadline() or FOREVER)
            self._note_wait(now, wake, reason)
            return wake
        if queue is self.write_queue and self.read_queue:
            self._note_wait(now, now + 1, WRITE_DRAIN)
        self._issue(now, request, command, queue)
        return now + 1 if (self.read_queue or self.write_queue) else None

    def _note_wait(self, start: int, end: int, reason: str) -> None:
        for probe in self._on_wait:
            probe(start, end, reason)

    def _next_refresh_deadline(self) -> Optional[int]:
        if not self.config.refresh_enabled or self.timing.tREFI <= 0:
            return None
        if self.idle():
            return None  # nothing to do; refresh bookkeeping resumes on submit
        return min(self._next_refresh)

    def _active_queue(self) -> Optional[List[Request]]:
        """Pick the queue to serve, honouring write-drain watermarks."""
        cfg = self.config
        if self._draining_writes:
            if len(self.write_queue) > cfg.write_low_watermark:
                return self.write_queue
            self._draining_writes = False
        if len(self.write_queue) >= cfg.write_high_watermark:
            self._draining_writes = True
            return self.write_queue
        return self.read_queue or self.write_queue or None

    def _frfcfs_choose(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """FR-FCFS: first ready row-hit column command, else oldest ready
        command; if nothing is ready now, the soonest candidate.

        Outside reference mode each queued request reads its (command,
        earliest, reason) triple from its readiness slot (the readiness
        index), which every queued request with the same row target
        shares: the slot's bank half is rebuilt only when a version
        counter it is keyed on moves, and once per issued command the
        slot folds on the shared half -- rank gate and data-bus term --
        from a memo shared by every slot (see `_fold_slot`).  The
        ``future`` minimum keeps wakeup scheduling exact: the controller
        still sleeps to the soonest candidate, never past it.

        A scan that finds nothing ready leaves its fold state in the wait
        memo: the soonest candidate and, among the candidates tied at its
        time, the first CAS to another bank group, the first CAS and the
        first other command.  Until the next command issues no candidate
        can change -- every gate, bus term and the last CAS group move
        only on issue, and requests leave a queue only by issuing -- and
        requests join only at the queue tail.  So a later scan of the
        same queue resumes from the memo: before the soonest time nothing
        folded is ready and only the arrivals are evaluated; at that time
        exactly the tied candidates are ready, in queue order.
        """
        if self.config.reference:
            return self._frfcfs_choose_recompute(now, queue)
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        chan = self.channel
        wait = self._wait_memo
        if (wait is not None and wait[0] is queue
                and wait[1] == chan.commands_issued and now <= wait[3]):
            self.peek_hits += 1
            (_queue, _issued, start, soonest, future, tie_switch, tie_cas,
             tie_other) = wait
            if now == soonest:
                if tie_switch is not None:
                    return tie_switch
                ready_cas, ready_other = tie_cas, tie_other
        else:
            start = soonest = 0
            future = tie_switch = tie_cas = tie_other = None
        last_group = self._last_cas_group
        issued = chan.commands_issued
        if self._shared_epoch != issued:
            self._shared.clear()
            self._shared_epoch = issued
        mrs = Command.MRS
        sa_sel = Command.SA_SEL
        for index, request in enumerate(queue[start:] if start else queue,
                                        start):
            slot = request._slot
            if slot.epoch != issued:
                self._fold_slot(slot, issued)
            command = slot.command
            if (command is mrs or command is sa_sel) and index > 0:
                # Only the oldest request may flip the rank's I/O mode or
                # the bank's subarray designation; otherwise requests
                # needing different modes (or different subarrays, under
                # MASA) thrash MRS / SA_SEL while waiting out tRCD, each
                # flip pushing the column gates further out.  Skipped
                # candidates are retried whenever the oldest request
                # makes progress.
                continue
            earliest = slot.earliest
            group = slot.group  # (rank, bank group) of a CAS, else None
            if earliest <= now:
                if group is not None:
                    # Bank-group rotation: a CAS to a different bank group
                    # than the previous one runs at tCCD_S instead of
                    # tCCD_L, so prefer it over the oldest ready CAS.
                    if group != last_group:
                        return (request, command, earliest, slot.reason)
                    if ready_cas is None:
                        ready_cas = (request, command, earliest, slot.reason)
                elif ready_other is None:
                    ready_other = (request, command, earliest, slot.reason)
            elif future is None or earliest <= soonest:
                candidate = (request, command, earliest, slot.reason)
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
            self._wait_memo = (queue, chan.commands_issued, len(queue),
                               soonest, future, tie_switch, tie_cas,
                               tie_other)
        return future

    def _frfcfs_choose_recompute(
        self, now: int, queue: List[Request]
    ) -> Optional[Tuple[Request, Command, int, str]]:
        """Old-style scan: re-derive every queued request's next command
        on every wakeup.  Kept as the behavioral reference the readiness
        index is tested against."""
        ready_cas: Optional[Tuple[Request, Command, int, str]] = None
        ready_other: Optional[Tuple[Request, Command, int, str]] = None
        future: Optional[Tuple[Request, Command, int, str]] = None
        for index, request in enumerate(queue):
            command, earliest, reason = self._next_command(now, request)
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

    def _fold_slot(self, slot: _Slot, issued: int) -> None:
        """Bring ``slot`` to the ``issued`` epoch: rebuild its bank half
        if a version counter it is keyed on has moved, take the shared
        half from the per-epoch memo (computing it on a miss) and fold it
        on with `_binding`'s rule -- the shared term binds only when
        strictly later.  That is exact because "first term at the
        maximum time" is associative: the bank terms come first in every
        entry."""
        request = slot.request
        rank, bank = request._rank, request._bank
        versions = (bank.version, request._sub.version, rank.version)
        if slot.versions != versions:
            command, slot.bank_time, slot.bank_reason = self._entry_terms(
                request, rank, bank
            )
            slot.versions = versions
            slot.command = command
            addr = request.addr
            cas = command is Command.RD or command is Command.WR
            # the data-bus fit depends on the pins, ACT pacing on the bank
            # group; a key for one command never serves another
            slot.shared_key = (command.value, addr.rank,
                               request.subrank if cas else addr.bank_group)
            slot.group = (addr.rank, addr.bank_group) if cas else None
        shared = self._shared.get(slot.shared_key)
        if shared is None:
            shared = self._shared_terms(slot.command, request, rank)
            self._shared[slot.shared_key] = shared
        slot.earliest, slot.reason = (
            shared if shared[0] > slot.bank_time
            else (slot.bank_time, slot.bank_reason))
        slot.epoch = issued

    def _next_command(
        self, now: int, request: Request
    ) -> Tuple[Command, int, str]:
        """The next command ``request`` needs, its earliest issue time, and
        the stall-taxonomy tag of the binding timing constraint (full
        recompute: both halves of the entry, then the command-bus
        floor)."""
        rank = self.channel.ranks[request.addr.rank]
        bank = rank.banks[request.addr.bank]
        command, earliest, reason = self._entry_terms(request, rank, bank)
        earliest, reason = self._binding(
            (earliest, reason), self._shared_terms(command, request, rank)
        )
        bus_floor = max(now, self.channel.next_command)
        if command is Command.MRS:
            return (command, max(earliest, bus_floor), reason)
        if bus_floor > earliest:
            earliest, reason = bus_floor, CCD_BUS
        return (command, earliest, reason)

    def _entry_terms(
        self, request: Request, rank, bank
    ) -> Tuple[Command, int, str]:
        """The bank half of a readiness entry: the next command
        ``request`` needs, its earliest issue time over the subarray and
        bank gates, and the binding stall tag.  It reads the request's
        subarray, row kind, row, direction and I/O mode -- its slot key
        -- and of the rank only ``io_mode`` and ``busy_until``, so it is
        the same for every request sharing a slot, and stays exact while
        ``bank.version``, the subarray's ``version`` and ``rank.version``
        stand (under SALP it also reads *other* subarrays -- precharge
        victims, designation -- which is why every bank mutation bumps
        ``bank.version``).  The rank gates and the data-bus term are the
        shared half, `_shared_terms`."""
        if rank.ensure_mode(request.io_mode):
            # no bank gate: the rank gates and the bus drain bind an MRS
            return (Command.MRS, 0, MODE_SWITCH)
        if self.salp != "none":
            return self._entry_terms_salp(request, rank, bank)

        sub = request._sub  # the whole bank in the degenerate configuration
        if sub.open_row == request.row_id():
            cmd = Command.RD if request.is_read else Command.WR
            bank_gate = sub.earliest(cmd)
            # the bank CAS gate is tRCD right after an ACT, tCCD
            # column-path spacing otherwise
            return (cmd, bank_gate,
                    TRCD if bank_gate <= sub.last_act + self.timing.tRCD
                    else CCD_BUS)
        if sub.open_row is None:
            cmd = (Command.ACT if request.row_kind is RowKind.ROW
                   else Command.ACT_COL)
            bank_gate = sub.earliest(Command.ACT)
            # post-refresh the bank ACT gate is the tRFC blackout,
            # post-precharge it is tRP
            return (cmd, bank_gate,
                    REFRESH if rank.busy_until >= bank_gate else TRP)
        # row conflict: precharge first
        return (Command.PRE, sub.earliest(Command.PRE), TRAS)

    def _entry_terms_salp(
        self, request: Request, rank, bank
    ) -> Tuple[Command, int, str]:
        """SALP bank half: the per-subarray gates carry tRP/tRCD/tRAS
        recovery, the bank carries the shared row-logic (tRA) and
        column-path gates, and SALP-2/MASA additionally gate column
        commands on global sense-amp designation."""
        t = self.timing
        sub = request._sub
        if sub.open_row == request.row_id():
            if bank.designated == sub.sub_id:
                # column command to the globally connected subarray
                cmd = Command.RD if request.is_read else Command.WR
                if request.is_read:
                    local, shared = sub.next_read, bank.col_next_read
                else:
                    local, shared = sub.next_write, bank.col_next_write
                return (cmd, *self._binding(
                    (local, TRCD if local <= sub.last_act + t.tRCD
                     else CCD_BUS),
                    (shared, CCD_BUS),
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
            gate = rank.earliest_cas(command)
        elif command is Command.ACT or command is Command.ACT_COL:
            gate = rank.earliest_act(0, request.addr.bank_group)
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

    def _pre_target(self, request: Request, bank):
        """The subarray a PRE chosen for ``request`` closes: the
        request's own subarray when it holds an open row (wrong row, or
        right row but undesignated under SALP-2), else the bank's
        capacity victim.  Deterministic re-derivation at issue time is
        safe: any intervening state change bumps ``bank.version`` and
        forces the slot's bank half to be rebuilt."""
        sub = request._sub
        if sub.open_row is not None:
            return sub
        victim = bank.pre_victim(sub.sub_id)
        if victim is not None:
            return bank.subarrays[victim]
        return bank.pre_candidate(self.kernel.now)

    # ------------------------------------------------------------- issuing

    def _issue(
        self, now: int, request: Request, command: Command, queue: List[Request]
    ) -> None:
        rank = request._rank
        bank = request._bank
        pre_sub = None
        if command is Command.PRE and self.salp != "none":
            # resolved before the probes: the checker needs the PRE's
            # subarray operand (a real SALP PRE names its subarray)
            pre_sub = self._pre_target(request, bank)
        self.channel.occupy_command_bus(now)
        subarray = None if pre_sub is None else pre_sub.sub_id
        for probe in self._on_command:
            probe(now, command, request, subarray=subarray)

        if command is Command.MRS:
            rank.issue_mode_switch(now, request.io_mode)
            self.stats.mode_switches += 1
            return
        if command is Command.SA_SEL:
            bank.issue_sa_sel(now, request._sub)
            self.stats.sa_sels += 1
            return
        if command is Command.PRE:
            bank.issue_pre(now, pre_sub)
            self.stats.precharges += 1
            self.stats.row_conflicts += 1
            bank.row_conflicts += 1
            return
        if command in (Command.ACT, Command.ACT_COL):
            bank.issue_act(now, request.row_id(), request._sub)
            rank.issue_act(now, request.addr.bank_group)
            if command is Command.ACT_COL:
                self.stats.col_acts += 1
            else:
                self.stats.acts += 1
            self.stats.row_misses += 1
            bank.row_misses += 1
            return

        # Column command: the request completes.
        req_type = RequestType.READ if request.is_read else RequestType.WRITE
        if command is Command.RD:
            bank.issue_read(now, request.internal_bursts, request._sub)
            rank.issue_read(now)
        else:
            bank.issue_write(now, request.internal_bursts, request._sub)
            rank.issue_write(now)
        data_end = self.channel.issue_cas(
            now, command, request.addr.rank, req_type, request.subrank
        )
        self._last_cas_group = (request.addr.rank, request.addr.bank_group)
        if self.config.page_policy == "closed":
            # auto-precharge (RDA/WRA): the row closes once tRTP/tWR allow
            salp = self.salp != "none"
            pre_at = request._sub.next_pre if salp \
                else bank.earliest(Command.PRE)
            for probe in self._on_command:
                probe(pre_at, Command.PRE, request, implicit=True,
                      subarray=request._sub.sub_id if salp else None)
            bank.issue_pre(pre_at, request._sub if salp else None)
            self.stats.precharges += 1
        self._account_cas(request, command)
        self.stats.row_hits += 1
        bank.row_hits += 1
        queue.remove(request)
        slot = request._slot
        slot.users -= 1
        if not slot.users:
            del self._slots[slot.key]
        # a completed request that something still holds must not keep
        # its slot, and through it another request, alive
        request._slot = None
        request.issue_time = now
        # critical-word-first: the demanded word lands mid-burst, so the
        # waiting load restarts before the burst completes
        complete_at = data_end
        if request.early_restart and request.is_read and request.critical:
            complete_at = data_end - self.timing.tBL // 2
        request.finish_time = complete_at
        if request.is_read:
            self.stats.read_latency_total += complete_at - request.arrival
            self.stats.read_count_for_latency += 1
            for probe in self._on_read_latency:
                probe(complete_at - request.arrival)
        if request.on_complete is not None:
            callback = request.on_complete
            self.kernel.schedule_at(
                complete_at, lambda r=request, t=complete_at: callback(r, t)
            )
        if self.slot_listener is not None:
            # a queue slot just freed: let the system wake whoever is
            # backpressured on it (event-wheel replacement for retry polls)
            self.slot_listener(request)

    def _account_cas(self, request: Request, command: Command) -> None:
        s = self.stats
        s.internal_bursts += request.internal_bursts
        if command is Command.RD:
            s.reads += 1
            if request.is_gather:
                s.gather_reads += 1
            if request.io_mode is IOMode.STRIDE:
                s.stride_mode_reads += 1
        else:
            s.writes += 1
            if request.is_gather:
                s.gather_writes += 1

    def _issue_refresh_step(self, now: int, rank_id: int) -> Optional[int]:
        """Progress the pending refresh of ``rank_id`` by one command."""
        rank = self.channel.ranks[rank_id]
        if rank.busy_until > now:
            return rank.busy_until
        if not rank.all_banks_precharged():
            # precharge the first open subarray that is allowed to close
            # (one command per cycle; a SALP bank may take several PREs)
            soonest = FOREVER
            for bank_id, bank in enumerate(rank.banks):
                sub = bank.pre_candidate(now)
                if sub is None:
                    continue
                ready = sub.next_pre
                if ready <= now:
                    self.channel.occupy_command_bus(now)
                    subarray = sub.sub_id if self.salp != "none" else None
                    for probe in self._on_command:
                        probe(now, Command.PRE, None, rank=rank_id,
                              bank=bank_id, subarray=subarray)
                    bank.issue_pre(now, sub)
                    self.stats.precharges += 1
                    return now + 1
                soonest = min(soonest, ready)
            return soonest
        self.channel.occupy_command_bus(now)
        for probe in self._on_command:
            probe(now, Command.REF, None, rank=rank_id)
        rank.issue_refresh(now)
        self.stats.refreshes += 1
        self._next_refresh[rank_id] += self.timing.tREFI
        return now + 1
