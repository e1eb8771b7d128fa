"""Cycle-level memory controller.

One :class:`MemoryController` owns one channel and schedules commands with
the FR-FCFS policy under an open-page row-buffer policy (Table 2).  Writes
are buffered in a write queue (capacity 32) and drained when the queue
crosses a high watermark or when no reads are pending.  The controller
keeps the queues, command issue, refresh and probes; the FR-FCFS arbiter
that picks each command is :class:`~repro.dram.scheduler.Scheduler`.

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
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..kernel import Kernel
from ..obs.stalls import CCD_BUS, REFRESH, WRITE_DRAIN
from .bank import FOREVER
from .channel import ChannelState
from .commands import (
    ACT,
    ACT_COL,
    MRS,
    PRE,
    RD,
    REF,
    SA_SEL,
    STRIDE,
    WR,
    Command,
    Request,
)
from .geometry import Geometry
from .scheduler import Scheduler
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

    def __post_init__(self) -> None:
        if self.page_policy not in ("open", "closed"):
            raise ValueError(f"page_policy must be 'open' or 'closed', "
                             f"got {self.page_policy!r}")


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
        salp: str = "none",
    ) -> None:
        self.kernel = kernel
        self.timing = timing
        self.geometry = geometry or Geometry()
        self.config = config or ControllerConfig()
        #: the closed-page policy's auto-precharge rides on every CAS
        self._closed_page = self.config.page_policy == "closed"
        #: a critical-word-first read completes this much before its
        #: burst ends
        self._half_burst = timing.tBL // 2
        # subarray-level-parallelism mode: "none" (one-subarray,
        # one-open-row banks), "salp1", "salp2" or "masa"
        self.channel = ChannelState(timing, self.geometry, salp=salp)
        #: probes subscribed via :meth:`attach`, and per probe method the
        #: tuple of bound methods its event sites loop over (empty when
        #: nobody listens, so unobserved runs pay one empty loop per site)
        self._probes: List[object] = []
        self._on_command: Tuple[Callable, ...] = ()
        self._on_wait: Tuple[Callable, ...] = ()
        self._on_read_latency: Tuple[Callable, ...] = ()
        self.read_queue: List[Request] = []
        self.write_queue: List[Request] = []
        self.stats = CommandStats()
        self._draining_writes = False
        self._wakeup_at: Optional[int] = None
        #: the wake-up event's callback, bound once
        self._wake = self._wakeup
        self.scheduler = Scheduler(self.channel)
        self._next_refresh = [
            timing.tREFI * (i + 1) // max(1, self.geometry.ranks)
            for i in range(self.geometry.ranks)
        ]
        #: the soonest refresh deadline, FOREVER with refresh off
        self._refresh_at = (
            min(self._next_refresh)
            if self.config.refresh_enabled and timing.tREFI > 0
            else FOREVER
        )

    # ------------------------------------------------------------------ API

    def submit(self, request: Request) -> None:
        """Accept a request.  Raises :class:`QueueFullError` if the relevant
        queue is full; callers should consult :meth:`can_accept` first."""
        if request.is_read:
            queue = self.read_queue
            capacity = self.config.read_queue_capacity
        else:
            queue = self.write_queue
            capacity = self.config.write_queue_capacity
        now = self.kernel.now
        if len(queue) >= capacity:
            raise QueueFullError("read" if request.is_read else "write",
                                 capacity, request.source_core, now)
        request.arrival = now
        self.scheduler.admit(request)
        queue.append(request)
        self._schedule_wakeup(now)

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
          rank/bank spelled out, every PRE names the ``subarray`` it
          closes and every ACT/ACT_COL the one it opens (0 in a
          one-subarray bank), and the closed-page auto-precharge is
          flagged ``implicit`` (it rides on its CAS, stamped with the
          cycle the row closes);
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
        now = self.kernel.now
        if now > when:
            when = now
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
        # ledger depends on that ordering, and it is the ordering plain
        # polling gives, which is what makes the event wheel exact.
        self._wakeup_at = when
        self.kernel.schedule_at(when, self._wake)

    def _wakeup(self) -> None:
        # Drop stale events: only the event matching the armed time acts.
        # (When an earlier wake-up is scheduled over a pending later one,
        # the later event still fires; acting on it would fork a second
        # self-perpetuating wake-up chain.)  Superseded events are never
        # cancelled.
        now = self.kernel.now
        if self._wakeup_at != now:
            return
        self._wakeup_at = None
        next_time = self._try_issue(now)
        if next_time is not None:
            # `_schedule_wakeup` inline: `_try_issue` submits nothing and
            # probes may not, so no wake-up is armed to supersede
            if now > next_time:
                next_time = now
            self._wakeup_at = next_time
            self.kernel.schedule_at(next_time, self._wake)

    def _try_issue(self, now: int) -> Optional[int]:
        """Issue at most one command; return the next wake-up time."""
        next_command = self.channel.next_command
        if next_command > now:
            for probe in self._on_wait:
                probe(now, next_command, CCD_BUS)
            return next_command

        if now >= self._refresh_at:
            # the first rank whose deadline has passed (the soonest has)
            rank_id = next(rank_id for rank_id, deadline
                           in enumerate(self._next_refresh)
                           if now >= deadline)
            wake = self._issue_refresh_step(now, rank_id)
            if wake is not None:
                for probe in self._on_wait:
                    probe(now, wake, REFRESH)
            return wake

        queue = self._active_queue()
        if queue is None:
            return self._next_refresh_deadline()

        choice = self.scheduler.choose(now, queue)
        if choice is None:
            return self._next_refresh_deadline()
        request, command, earliest, reason = choice
        if queue is self.write_queue and self.read_queue:
            # reads are parked behind the drain, whatever the write's own
            # binding constraint is
            reason = WRITE_DRAIN
        if earliest > now:
            wake = self._refresh_at
            if earliest < wake:
                wake = earliest
            for probe in self._on_wait:
                probe(now, wake, reason)
            return wake
        if queue is self.write_queue and self.read_queue:
            for probe in self._on_wait:
                probe(now, now + 1, WRITE_DRAIN)
        self._issue(now, request, command, queue)
        return now + 1 if (self.read_queue or self.write_queue) else None

    def _next_refresh_deadline(self) -> Optional[int]:
        if self._refresh_at == FOREVER or self.idle():
            return None  # nothing to do; refresh bookkeeping resumes on submit
        return self._refresh_at

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

    # ------------------------------------------------------------- issuing

    def _issue(
        self, now: int, request: Request, command: Command, queue: List[Request]
    ) -> None:
        if command is RD or command is WR:
            self._issue_cas(now, request, command, queue)
            return
        rank = request._rank
        bank = request._bank
        pre_sub = subarray = None
        if command is PRE:
            # resolved before the probes: the checker needs the PRE's
            # subarray operand (a PRE names the subarray it closes)
            pre_sub = self.scheduler.pre_target(request)
            subarray = pre_sub.sub_id
        elif command is ACT or command is ACT_COL:
            subarray = request._sub.sub_id  # the subarray it opens
        self.channel.occupy_command_bus(now)
        self.scheduler.moved(command)
        for probe in self._on_command:
            probe(now, command, request, subarray=subarray)

        if command is MRS:
            rank.issue_mode_switch(now, request.io_mode)
            self.stats.mode_switches += 1
            return
        if command is SA_SEL:
            bank.issue_sa_sel(now, request._sub)
            self.stats.sa_sels += 1
            return
        if command is PRE:
            bank.issue_pre(now, pre_sub)
            self.stats.precharges += 1
            self.stats.row_conflicts += 1
            bank.row_conflicts += 1
            return
        # ACT or ACT_COL
        bank.issue_act(now, request.row_id(), request._sub)
        rank.issue_act(now, request.addr.bank_group)
        if command is ACT_COL:
            self.stats.col_acts += 1
        else:
            self.stats.acts += 1
        self.stats.row_misses += 1
        bank.row_misses += 1

    def _issue_cas(
        self, now: int, request: Request, command: Command, queue: List[Request]
    ) -> None:
        """Issue ``request``'s column command (RD or WR): its data burst,
        the closed-page auto-precharge, and its completion."""
        self.channel.occupy_command_bus(now)
        self.scheduler.moved(command)
        for probe in self._on_command:
            probe(now, command, request, subarray=None)
        bank = request._bank
        sub = request._sub
        bursts = request.internal_bursts
        if command is RD:
            bank.issue_read(now, bursts, sub)
        else:
            bank.issue_write(now, bursts, sub)
            request._rank.issue_write(now)
        data_end = self.channel.issue_cas(
            now, command, request.addr.rank, request.type, request.subrank
        )
        stats = self.stats
        if self._closed_page:
            # auto-precharge (RDA/WRA): the row closes once tRTP/tWR allow
            pre_at = sub.next_pre
            for probe in self._on_command:
                probe(pre_at, PRE, request, implicit=True,
                      subarray=sub.sub_id)
            bank.issue_pre(pre_at, sub)
            stats.precharges += 1
        stats.internal_bursts += bursts
        if command is RD:
            stats.reads += 1
            if request.gather > 1:
                stats.gather_reads += 1
            if request.io_mode is STRIDE:
                stats.stride_mode_reads += 1
        else:
            stats.writes += 1
            if request.gather > 1:
                stats.gather_writes += 1
        stats.row_hits += 1
        bank.row_hits += 1
        queue.remove(request)
        self.scheduler.retire(request)
        complete_at = data_end
        if request.is_read:
            # critical-word-first: the demanded word lands mid-burst, so
            # the waiting load restarts before the burst completes
            if request.early_restart and request.critical:
                complete_at -= self._half_burst
            latency = complete_at - request.arrival
            stats.read_latency_total += latency
            stats.read_count_for_latency += 1
            for probe in self._on_read_latency:
                probe(latency)
        if request.on_complete is not None:
            self.kernel.schedule_at(
                complete_at, partial(request.on_complete, request, complete_at)
            )

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
                sub = bank.pre_candidate()
                if sub is None:
                    continue
                ready = sub.next_pre
                if ready <= now:
                    self.channel.occupy_command_bus(now)
                    for probe in self._on_command:
                        probe(now, PRE, None, rank=rank_id,
                              bank=bank_id, subarray=sub.sub_id)
                    bank.issue_pre(now, sub)
                    self.stats.precharges += 1
                    return now + 1
                soonest = min(soonest, ready)
            return soonest
        self.channel.occupy_command_bus(now)
        for probe in self._on_command:
            probe(now, REF, None, rank=rank_id)
        rank.issue_refresh(now)
        self.scheduler.moved(REF)
        self.stats.refreshes += 1
        self._next_refresh[rank_id] += self.timing.tREFI
        self._refresh_at = min(self._next_refresh)
        return now + 1
