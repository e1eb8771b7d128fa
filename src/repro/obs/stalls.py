"""Cycle-accounting stall attribution.

Every simulated core cycle between ``run()`` and the core's last
completion is classified into exactly one bucket, so that per-core

    busy + attributed stalls == finish_cycle - start_cycle

holds *by construction* (the conservation is enforced by a tier-1 test,
not merely reported).  Three cooperating pieces feed the accounting:

* :class:`CoreStallLog` -- each core owns one and records its busy
  intervals (issue bandwidth + compute) and blocked intervals (MLP slots
  exhausted, controller queue backpressure) as it executes.  Intervals
  are coalesced on append, so a million-op stream costs a handful of
  tuples, not a tuple per op.
* :class:`StallLedger` -- the memory controller annotates every
  scheduling *wait* (it woke up, could not issue, and went back to
  sleep until cycle T) with the timing constraint that blocked it:
  tRCD / tRP / tRAS waits, tFAW-or-tRRD activation throttling, CCD or
  data/command-bus conflicts, write-queue drains, refresh blackouts and
  SAM's tMOD_IO mode switches.  Cycles where the controller *issued* a
  command leave no ledger entry and therefore classify as
  ``dram_service`` (the memory system was making progress).
* :class:`StallAttributor` -- owns the ledger and overlays it onto each
  core's memory-blocked windows (read from the core's own log) to
  produce the per-core reason breakdown.

The reason names are plain strings; :mod:`repro.dram.controller` imports
only these constants (this module imports nothing from the rest of the
package, so no cycle forms).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Reason taxonomy
# ---------------------------------------------------------------------------

#: core was issuing ops or executing compute (not a stall)
BUSY = "busy"
#: controller queue rejected the core's request (backpressure retry)
QUEUE_FULL = "queue_full"
#: ACT issued, waiting out tRCD before the column command
TRCD = "trcd"
#: bank precharging, waiting out tRP before the next ACT
TRP = "trp"
#: row must stay open (tRAS) / column path recovery (tRTP, tWR) before PRE
TRAS = "tras"
#: activation pacing: tFAW window or tRRD spacing
TFAW = "tfaw"
#: CAS-to-CAS (tCCD) or command/data-bus occupancy conflict
CCD_BUS = "ccd_bus"
#: reads held back while the write queue drains (incl. tWTR turnaround)
WRITE_DRAIN = "write_drain"
#: refresh blackout (tRFC) or refresh-driven precharging
REFRESH = "refresh"
#: SAM I/O mode switch: MRS issue plus the tMOD_IO stall
MODE_SWITCH = "mode_switch"
#: the controller was actively issuing / data was in flight on the bus
DRAM_SERVICE = "dram_service"
#: subarray-level conflict under SALP: shared row-logic tRA pacing,
#: SA_SEL designation switch, or waiting on another subarray's state
SUBARRAY = "subarray"

#: every bucket a breakdown may contain, in report order
STALL_REASONS = (
    BUSY, DRAM_SERVICE, TRCD, TRP, TRAS, TFAW, CCD_BUS, WRITE_DRAIN,
    REFRESH, MODE_SWITCH, SUBARRAY, QUEUE_FULL,
)

#: block kinds a core records (QUEUE_FULL passes through; MEM_WAIT is
#: sub-attributed against the controller ledger)
MEM_WAIT = "mem"


class CoreStallLog:
    """Busy / blocked interval recorder for one core.

    The core calls :meth:`note_busy` when it schedules a catch-up to its
    local issue clock, :meth:`open_block` when an op handler could not
    make progress, and :meth:`close_block` on re-entry while a block is
    open.  Appends coalesce
    with the previous interval when contiguous.
    """

    __slots__ = ("core_id", "busy", "blocks", "open_start", "_open_reason")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.busy: List[List[int]] = []  # [start, end]
        self.blocks: List[List[object]] = []  # [start, end, reason]
        #: cycle the open block began, None while no block is open
        self.open_start: Optional[int] = None
        self._open_reason: str = MEM_WAIT

    def note_busy(self, start: int, end: int) -> None:
        if end <= start:
            return
        if self.busy and self.busy[-1][1] >= start:
            if end > self.busy[-1][1]:
                self.busy[-1][1] = end
            return
        self.busy.append([start, end])

    def open_block(self, now: int, reason: str) -> None:
        if self.open_start is None:
            self.open_start = now
            self._open_reason = reason

    def close_block(self, now: int) -> None:
        start = self.open_start
        if start is None:
            return
        self.open_start = None
        if now <= start:
            return
        blocks = self.blocks
        if (blocks and blocks[-1][1] == start
                and blocks[-1][2] == self._open_reason):
            blocks[-1][1] = now
        else:
            blocks.append([start, now, self._open_reason])

    @property
    def busy_cycles(self) -> int:
        return sum(end - start for start, end in self.busy)


class StallLedger:
    """Time-ordered, non-overlapping controller wait intervals.

    The controller appends in simulation-time order; a newly submitted
    request can wake the controller *inside* a previously recorded wait,
    in which case the stale tail is truncated (the earlier wait ended the
    moment the controller re-evaluated).
    """

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: List[List[object]] = []  # [start, end, reason]

    def note(self, start: int, end: int, reason: str) -> None:
        if end <= start:
            return
        entries = self.entries
        while entries and entries[-1][0] >= start:
            entries.pop()
        if entries and entries[-1][1] > start:
            entries[-1][1] = start
        if entries and entries[-1][1] == start and entries[-1][2] == reason:
            entries[-1][1] = end
            return
        entries.append([start, end, reason])

    def overlay_windows(
        self, windows: List[Tuple[int, int]], out: Dict[str, int]
    ) -> None:
        """Partition each of ``windows`` into reason -> cycles and add
        the counts into ``out``.  Gaps (the controller was issuing, idle,
        or data was in flight) count as ``dram_service``.

        ``windows`` must be disjoint and time-ordered (a core's blocked
        intervals are, by construction), which lets one monotone walk of
        the ledger serve every window: O(entries + windows) per core.
        """
        entries = self.entries
        n = len(entries)
        i = 0
        total_gap = 0
        for start, end in windows:
            if end <= start:
                continue
            while i < n and entries[i][1] <= start:
                i += 1
            covered = 0
            j = i
            while j < n:
                e_start, e_end, reason = entries[j]
                if e_start >= end:
                    break
                lo = start if e_start < start else e_start
                hi = end if e_end > end else e_end
                if hi > lo:
                    out[reason] = out.get(reason, 0) + (hi - lo)
                    covered += hi - lo
                if e_end > end:
                    # entry straddles this window's end; it may also
                    # overlap the next window, so leave the cursor on it
                    break
                j += 1
            i = j
            total_gap += (end - start) - covered
        if total_gap:
            out[DRAM_SERVICE] = out.get(DRAM_SERVICE, 0) + total_gap


class StallAttributor:
    """The controller's wait ledger; overlays it on each core's own
    :class:`CoreStallLog` (``core.stall_log``) to produce the per-core
    breakdown."""

    def __init__(self) -> None:
        self.ledger = StallLedger()

    def attribute(self, cores) -> Dict[int, Dict[str, int]]:
        """Per-core ``{reason: cycles}``; includes ``total`` (the core's
        start->finish window) so conservation is checkable downstream."""
        out: Dict[int, Dict[str, int]] = {}
        for core in cores:
            log = core.stall_log
            finish = (core.finish_cycle if core.finish_cycle is not None
                      else core.start_cycle)
            total = max(0, finish - core.start_cycle)
            log.close_block(finish)  # a core may end mid-block
            breakdown: Dict[str, int] = {BUSY: log.busy_cycles}
            mem_windows: List[Tuple[int, int]] = []
            for start, end, reason in log.blocks:
                if reason == MEM_WAIT:
                    mem_windows.append((start, end))
                else:
                    breakdown[reason] = (
                        breakdown.get(reason, 0) + (end - start)
                    )
            if mem_windows:
                # one monotone sweep of the ledger per core instead of a
                # bisect + rescan per blocked interval
                self.ledger.overlay_windows(mem_windows, breakdown)
            accounted = sum(breakdown.values())
            if accounted != total:
                # by-construction this should be zero; surfaced (never
                # silently absorbed) so the conservation test can bite
                breakdown["unaccounted"] = total - accounted
            breakdown["total"] = total
            out[core.core_id] = breakdown
        return out


def merge_breakdown(
    per_core: Dict[int, Dict[str, int]]
) -> Dict[str, int]:
    """Sum the per-core breakdowns into one machine-wide dict."""
    merged: Dict[str, int] = {}
    for breakdown in per_core.values():
        for reason, cycles in breakdown.items():
            merged[reason] = merged.get(reason, 0) + cycles
    return merged


def render_stall_report(per_core: Dict[int, Dict[str, int]]) -> str:
    """Top-down text table: one row per reason, one column per core."""
    if not per_core:
        return "(no cores)"
    cores = sorted(per_core)
    reasons = [r for r in STALL_REASONS
               if any(per_core[c].get(r) for c in cores)]
    extra = sorted(
        {r for c in cores for r in per_core[c]}
        - set(reasons) - {"total"}
    )
    reasons += extra
    merged = merge_breakdown(per_core)
    grand_total = sum(per_core[c].get("total", 0) for c in cores) or 1
    header = "reason".ljust(14) + "".join(
        f"core{c}".rjust(12) for c in cores
    ) + "total".rjust(12) + "share".rjust(8)
    lines = [header]
    for reason in reasons:
        row = reason.ljust(14)
        for c in cores:
            row += f"{per_core[c].get(reason, 0):12d}"
        total = merged.get(reason, 0)
        row += f"{total:12d}{total / grand_total:8.1%}"
        lines.append(row)
    row = "total".ljust(14)
    for c in cores:
        row += f"{per_core[c].get('total', 0):12d}"
    row += f"{grand_total:12d}{'':8}"
    lines.append(row)
    return "\n".join(lines)
