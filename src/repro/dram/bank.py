"""Per-bank timing state machine, generic over subarrays.

A bank is N subarrays sharing global structures: the row-address logic
(one ACT at a time, paced by ``tRA``), the global bitlines / column path
(CAS spacing), and the notion of a *designated* subarray whose local row
buffer currently drives the shared global sense amplifiers.
:class:`SubarrayState` tracks one subarray's open row and local gates;
:class:`BankState` owns the subarrays plus the shared gates and exposes
the scheduling API the controller uses.  Every mode runs this one path;
the mode (``salp``) sets how many subarrays a bank has, how many may be
open at once and how one gets designated:

* ``"none"`` -- the commodity one-open-row bank, modelled as SALP models
  it: one subarray, so every ACT designates it and every PRE closes it.
* ``"salp1"`` -- SALP-1 (Kim et al., ISCA'12): at most one subarray open,
  but a precharge only pays its ``tRP`` *locally*; an ACT to a different
  subarray of the same bank waits only the short shared-logic re-arm
  delay ``tRA``, overlapping the precharge with the next activation.
* ``"salp2"`` -- SALP-2: up to two subarrays activated concurrently; the
  most recently activated one is *designated* (owns the global sense
  amps) and is the only one column commands may target.
* ``"masa"`` -- MASA: any number of subarrays activated; an ``SA_SEL``
  command re-designates which one drives the global bitlines before a
  column command to a non-designated subarray.

The gates are updated as commands issue; the controller combines the
subarray's local gates with the bank's shared ones before issuing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .commands import RowKind
from .timing import TimingParams

FOREVER = 1 << 60

#: valid ``salp`` operating modes, in increasing capability order
SALP_MODES = ("none", "salp1", "salp2", "masa")


@dataclass
class SubarrayState:
    """Timing state of one subarray: its own open row and local gates.

    The local gates carry what binds this subarray alone: tRCD after its
    ACT (``next_read``/``next_write``), tRAS/tRTP/tWR recovery before its
    PRE (``next_pre``) and tRP or a refresh blackout before its next ACT
    (``next_act``).  CAS spacing binds the column path every subarray of
    the bank shares, so it lives on the :class:`BankState`; a one-subarray
    bank's column gate is the larger of the two.
    """

    timing: TimingParams
    sub_id: int = 0
    open_row: Optional[Tuple[RowKind, int]] = None
    next_act: int = 0
    next_read: int = 0
    next_write: int = 0
    next_pre: int = 0
    last_act: int = -FOREVER
    #: invalidation epoch for the controller's readiness index: bumped on
    #: every mutation of the scheduling-visible state above.  Any new
    #: timing rule that writes those fields outside the issue_* methods
    #: must bump this too, or cached readiness entries go stale (the
    #: scheduler-equivalence test bites).
    version: int = 0

    def issue_act(self, now: int, row: Tuple[RowKind, int]) -> None:
        t = self.timing
        self.version += 1
        self.open_row = row
        self.last_act = now
        self.next_read = max(self.next_read, now + t.tRCD)
        self.next_write = max(self.next_write, now + t.tRCD)
        self.next_pre = max(self.next_pre, now + t.tRAS)
        self.next_act = FOREVER  # must precharge before the next ACT

    def issue_pre(self, now: int) -> None:
        t = self.timing
        self.version += 1
        self.open_row = None
        self.next_act = max(0, now + t.tRP)


class BankState:
    """Timing state of one bank: N subarrays plus shared-structure gates.

    Subarray states are created lazily (a bank has 256 of them; a run
    touches a handful).

    Invalidation contract: *every* mutation of scheduling-visible state
    -- local subarray gates, the shared act/column gates, designation,
    the open-subarray set -- bumps :attr:`version` (and the affected
    subarray's own ``version``).  One request's readiness depends on
    *other* subarrays' state (precharge victims, designation), so the
    bank epoch is the conservative invalidator; the per-subarray epoch
    additionally keys the cache entry so a stale subarray ref can never
    alias a fresh bank epoch.
    """

    __slots__ = (
        "timing", "salp", "n_subarrays", "rows_per_subarray",
        "subarrays", "open_subs", "designated",
        "next_any_act", "next_sa_sel", "col_next_read", "col_next_write",
        "act_floor", "version",
        "activations", "row_hits", "row_misses", "row_conflicts",
        "sa_sels", "first_act_cycle", "last_act_cycle",
    )

    def __init__(
        self,
        timing: TimingParams,
        salp: str = "none",
        subarrays_per_bank: int = 1,
        rows_per_subarray: int = 0,
    ) -> None:
        if salp not in SALP_MODES:
            raise ValueError(
                f"unknown salp mode {salp!r}; expected one of {SALP_MODES}"
            )
        self.timing = timing
        self.salp = salp
        self.n_subarrays = 1 if salp == "none" else max(1, subarrays_per_bank)
        self.rows_per_subarray = rows_per_subarray
        #: sub_id -> SubarrayState, created on first touch
        self.subarrays: Dict[int, SubarrayState] = {
            0: SubarrayState(timing)
        }
        #: sub_id -> ACT cycle of the currently open subarrays, in
        #: activation order (dict preserves insertion order -> the first
        #: key is the oldest open subarray, the precharge victim)
        self.open_subs: Dict[int, int] = {}
        #: subarray owning the global sense amps: the newest ACT's, or
        #: MASA's last SA_SEL target; None once it is precharged
        self.designated: Optional[int] = None
        #: shared row-logic gate: earliest next ACT to *any* subarray
        #: (tRA pacing, refresh blackout)
        self.next_any_act = 0
        #: MASA designation-switch pacing
        self.next_sa_sel = 0
        #: shared column-path (global bitline / IO) CAS-spacing gates
        self.col_next_read = 0
        self.col_next_write = 0
        #: refresh-blackout floor applied to lazily-created subarrays
        self.act_floor = 0
        self.version = 0
        # Statistics (bank-level, mode-independent)
        self.activations = 0
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.sa_sels = 0
        # Activity window (first/last activate cycle) for span profiling;
        # -1 means the bank was never used.
        self.first_act_cycle = -1
        self.last_act_cycle = -1

    # ------------------------------------------------------- subarray access

    def sub_id_for(self, row_index: int) -> int:
        """Subarray holding ``row_index`` (0 in a one-subarray bank).

        Synthetic column-row identities (SAM-sub) exceed the physical row
        range, so the index is folded modulo the subarray count -- the
        same deterministic mapping the protocol checker applies.
        """
        if self.n_subarrays == 1:
            return 0
        return (row_index // self.rows_per_subarray) % self.n_subarrays

    def sub(self, sub_id: int) -> SubarrayState:
        """The subarray state for ``sub_id``, created on first touch."""
        state = self.subarrays.get(sub_id)
        if state is None:
            state = SubarrayState(self.timing, sub_id=sub_id,
                                  next_act=self.act_floor)
            self.subarrays[sub_id] = state
        return state

    def sub_for_row(self, row_index: int) -> SubarrayState:
        return self.sub(self.sub_id_for(row_index))

    @property
    def open_capacity(self) -> int:
        """How many subarrays may be activated concurrently."""
        if self.salp == "salp2":
            return 2
        if self.salp == "masa":
            return self.n_subarrays
        return 1  # the commodity bank and SALP-1

    @property
    def all_closed(self) -> bool:
        return not self.open_subs

    def pre_victim(self, sub_id: int) -> Optional[int]:
        """The open subarray an ACT for (closed) ``sub_id`` must close
        first, or None when the ACT may go ahead.  The victim is the
        oldest-activated open subarray (FIFO)."""
        if len(self.open_subs) < self.open_capacity:
            return None
        return next(iter(self.open_subs))

    def pre_candidate(self) -> Optional[SubarrayState]:
        """The open subarray closest to being precharge-ready (refresh
        path); None when the bank is fully precharged."""
        best: Optional[SubarrayState] = None
        for sub_id in self.open_subs:
            sub = self.subarrays[sub_id]
            if best is None or sub.next_pre < best.next_pre:
                best = sub
        return best

    @property
    def open_row(self) -> Optional[Tuple[RowKind, int]]:
        """The designated subarray's open row (a one-subarray bank's open
        row).  Diagnostics / shadow-sync accessor; the scheduler reads
        per-subarray state directly."""
        if self.designated is None:
            return None
        return self.subarrays[self.designated].open_row

    # -------------------------------------------------------------- issuing

    def issue_act(self, now: int, row: Tuple[RowKind, int],
                  sub: Optional[SubarrayState] = None) -> None:
        if sub is None:
            sub = self.sub_for_row(row[1])
        self.version += 1
        sub.issue_act(now, row)
        self.activations += 1
        if self.first_act_cycle < 0:
            self.first_act_cycle = now
        self.last_act_cycle = now
        self.open_subs[sub.sub_id] = now
        self.designated = sub.sub_id  # newest ACT owns the global SAs
        self.next_any_act = max(self.next_any_act, now + self.timing.tRA)

    def issue_read(self, now: int, extra_internal: int = 0,
                   sub: Optional[SubarrayState] = None) -> None:
        """Account a column read; ``extra_internal`` extends the column
        path occupancy for multi-internal-burst gathers (RC-NVM-bit
        etc.)."""
        self.version += 1
        t = self.timing
        tail = extra_internal * t.tCCD_L
        if sub is None:
            sub = self.subarrays[self.designated]
        sub.version += 1
        # CAS spacing binds the shared column path; read-to-precharge
        # recovery binds only the accessed subarray
        self.col_next_read = max(self.col_next_read, now + t.tCCD_L + tail)
        self.col_next_write = max(self.col_next_write, now + t.tCCD_L + tail)
        sub.next_pre = max(sub.next_pre, now + t.tRTP + tail)

    def issue_write(self, now: int, extra_internal: int = 0,
                    sub: Optional[SubarrayState] = None) -> None:
        self.version += 1
        t = self.timing
        tail = extra_internal * t.tCCD_L
        if sub is None:
            sub = self.subarrays[self.designated]
        sub.version += 1
        self.col_next_read = max(self.col_next_read, now + t.tCCD_L + tail)
        self.col_next_write = max(self.col_next_write, now + t.tCCD_L + tail)
        # write recovery: data lands at now+CWL..now+CWL+tBL, then tWR
        sub.next_pre = max(sub.next_pre,
                           now + t.CWL + t.tBL + t.tWR + tail)

    def issue_pre(self, now: int,
                  sub: Optional[SubarrayState] = None) -> None:
        self.version += 1
        if sub is None:
            sub = self.pre_candidate()
            if sub is None:
                return
        sub.issue_pre(now)
        self.open_subs.pop(sub.sub_id, None)
        if self.designated == sub.sub_id:
            self.designated = None

    def issue_sa_sel(self, now: int, sub: SubarrayState) -> None:
        """MASA: re-designate ``sub`` as the globally connected subarray.
        The column path pays ``tSA_SEL`` before the next CAS."""
        t = self.timing
        self.version += 1
        sub.version += 1
        self.sa_sels += 1
        self.designated = sub.sub_id
        self.next_sa_sel = max(self.next_sa_sel, now + t.tSA_SEL)
        self.col_next_read = max(self.col_next_read, now + t.tSA_SEL)
        self.col_next_write = max(self.col_next_write, now + t.tSA_SEL)

    def force_close(self, now: int) -> None:
        """Close every open subarray as part of a refresh."""
        for sub_id in list(self.open_subs):
            self.issue_pre(now, self.subarrays[sub_id])

    def refresh(self, now: int, t_rfc: int) -> None:
        """Refresh blackout: close all subarrays, block ACTs for tRFC,
        and bump every readiness epoch involved."""
        self.force_close(now)
        self.version += 1
        until = now + t_rfc
        self.act_floor = max(self.act_floor, until)
        for sub in self.subarrays.values():
            sub.version += 1
            sub.next_act = max(sub.next_act, until)
        self.next_any_act = max(self.next_any_act, until)

    def snapshot(self) -> dict:
        """Timing-state snapshot for stall diagnostics and protocol-checker
        messages.  The ``next_*`` gates are the ones a command to the
        designated subarray waits for: its local gates folded with the
        shared row-logic and column-path gates (with nothing designated,
        the shared gates alone)."""
        state = {
            "salp": self.salp,
            "open_row": self.open_row,
            "designated": self.designated,
            "open_subarrays": {
                sub_id: self.subarrays[sub_id].open_row
                for sub_id in self.open_subs
            },
            "next_act": self.next_any_act,
            "next_read": self.col_next_read,
            "next_write": self.col_next_write,
            "next_pre": 0,
        }
        if self.designated is not None:
            sub = self.subarrays[self.designated]
            state["next_act"] = max(state["next_act"], sub.next_act)
            state["next_read"] = max(state["next_read"], sub.next_read)
            state["next_write"] = max(state["next_write"], sub.next_write)
            state["next_pre"] = sub.next_pre
        return state
