"""JEDEC-style timing-protocol checker.

A :class:`TimingProtocolChecker` is a controller probe (see
:meth:`~repro.dram.controller.MemoryController.attach`): it observes every
command the controller issues and every data burst, and replays them
against an independent shadow state machine built from nothing but
:class:`~repro.dram.timing.TimingParams` and
:class:`~repro.dram.geometry.Geometry`.  Any command that arrives
earlier than the timing rules allow raises (or records) a structured
:class:`ProtocolViolation` carrying the offending rule and a window of
the most recent commands.

The rulebook is deliberately the *model's* contract, which relaxes JEDEC
in two documented places:

* tCCD applies per chip set: same-bank CAS->CAS must respect tCCD_L (plus
  any internal-burst tail), CAS->CAS on the same rank's same chips (full
  width vs. anything, or the same sub-rank) must respect tCCD_S, but
  cross-rank and cross-sub-rank CAS are different physical chips and are
  constrained only by the shared data pins.
* REF may follow the last precharge immediately (the model folds tRP into
  the post-refresh tRFC blackout).

Everything else is checked strictly: tRCD, tRP, tRAS, tRRD_S/L, tFAW,
tRFC blackouts, tRTP, tWR, tWTR, tMOD_IO stalls, I/O-mode agreement,
row-buffer discipline (no ACT on an open bank, no CAS to a closed or
wrong row, no PRE on a closed bank), one command per command-bus cycle,
and data-bus/sub-bus (pin-group) occupancy: bursts on the same pin group
must never overlap and must respect the tRTR / tRTW bubbles, which also
caps concurrent sub-rank transfers at the physical pin count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..dram.commands import (
    ACT,
    ACT_COL,
    MRS,
    PRE,
    RD,
    READ,
    REF,
    ROW,
    SA_SEL,
    WR,
    WRITE,
    X4,
    Command,
    IOMode,
    Request,
    RequestType,
    RowKind,
)
from ..dram.geometry import Geometry
from ..dram.timing import TimingParams

#: "never happened" sentinel for shadow timestamps
_NEVER = -(1 << 40)

#: commands kept in the violation window
_WINDOW = 32


@dataclass(frozen=True)
class CommandRecord:
    """One observed command, as kept in the violation window."""

    cycle: int
    command: str
    rank: int
    bank: int
    row: Optional[Tuple[str, int]] = None
    subrank: Optional[int] = None
    implicit: bool = False

    def as_tuple(self) -> tuple:
        return (self.cycle, self.command, self.rank, self.bank,
                self.row, self.subrank, self.implicit)


@dataclass(frozen=True)
class ProtocolViolation:
    """A timing-rule violation with the offending command window."""

    rule: str
    cycle: int
    command: str
    rank: int
    bank: int
    message: str
    window: Tuple[tuple, ...] = ()

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "cycle": self.cycle,
            "command": self.command,
            "rank": self.rank,
            "bank": self.bank,
            "message": self.message,
            "window": [list(r) for r in self.window],
        }

    def __str__(self) -> str:  # pragma: no cover - display helper
        return (f"[{self.rule}] cycle {self.cycle}: {self.command} "
                f"rank{self.rank}/bank{self.bank}: {self.message}")


class ProtocolError(Exception):
    """Raised in strict mode when a timing rule is violated."""

    def __init__(self, violation: ProtocolViolation) -> None:
        super().__init__(str(violation))
        self.violation = violation


@dataclass
class _BankShadow:
    open_row: Optional[Tuple[RowKind, int]] = None
    act_at: int = _NEVER
    pre_at: int = _NEVER
    cas_at: int = _NEVER  # last RD or WR
    cas_tail: int = 0  # internal-burst tail of the last CAS
    rd_at: int = _NEVER
    rd_tail: int = 0
    wr_at: int = _NEVER
    wr_tail: int = 0
    # --- SALP (subarray) extension; unused when salp == "none" ---
    #: per-subarray shadows (an instance per touched subarray; the
    #: per-row rules -- tRP/tRCD/tRAS/tRTP/tWR, row-buffer discipline --
    #: then apply to the subarray and the fields above carry only the
    #: shared column-path state)
    subs: Dict[int, "_BankShadow"] = field(default_factory=dict)
    #: last ACT to *any* subarray of this bank (tRA pacing)
    bank_act_at: int = _NEVER
    #: subarray currently driving the global sense amps
    designated: Optional[int] = None
    #: last SA_SEL (designation-switch pacing and CAS gating)
    sa_sel_at: int = _NEVER


@dataclass
class _RankShadow:
    io_mode: IOMode = IOMode.X4
    acts: Deque[int] = field(default_factory=lambda: deque(maxlen=4))
    last_act_at: int = _NEVER
    last_act_group: int = -1
    wtr_until: int = _NEVER  # write-to-read turnaround
    blackout_until: int = _NEVER  # refresh tRFC window
    mrs_until: int = _NEVER  # tMOD_IO stall
    #: last CAS per chip set: None = full width, int = that sub-rank
    cas_by_chipset: Dict[Optional[int], int] = field(default_factory=dict)


#: last data burst on a pin group: (start, end, rank, req_type)
_Burst = Tuple[int, int, int, RequestType]


class TimingProtocolChecker:
    """Replays issued commands against an independent shadow state.

    ``strict=True`` raises :class:`ProtocolError` on the first violation
    (the mode ``--check`` runs use); ``strict=False`` collects violations
    in :attr:`violations` (the fuzzer's mode).  :attr:`commands_seen`
    counts every command checked (a checked run's ``check.commands``).
    """

    def __init__(
        self,
        timing: TimingParams,
        geometry: Optional[Geometry] = None,
        strict: bool = True,
        max_violations: int = 256,
        salp: str = "none",
    ) -> None:
        self.timing = timing
        self.geometry = geometry or Geometry()
        self.strict = strict
        #: subarray-level-parallelism mode; must match the checked
        #: controller's.  Under SALP the row rules apply per subarray and
        #: the tRA / tSA_SEL / capacity / designation rules activate.
        self.salp = salp
        #: in collect mode, abort anyway once this many violations piled
        #: up -- a corrupted timing table can livelock the controller into
        #: producing violations forever (ACT/PRE thrash when tRAS < tRCD)
        self.max_violations = max_violations
        self.violations: List[ProtocolViolation] = []
        self.commands_seen = 0
        self.window: Deque[CommandRecord] = deque(maxlen=_WINDOW)
        self._banks = [
            [_BankShadow() for _ in range(self.geometry.banks)]
            for _ in range(self.geometry.ranks)
        ]
        self._ranks = [_RankShadow() for _ in range(self.geometry.ranks)]
        self._last_command_at = _NEVER  # command bus (explicit commands)
        self._bus_full: Optional[_Burst] = None
        self._bus_group: Dict[int, _Burst] = {}
        #: window computed for the CAS just seen, consumed by on_data_burst
        self._pending_burst: Optional[Tuple[int, int, int, Optional[int]]] \
            = None
        self._controller = None

    # ------------------------------------------------------------ attaching

    def attach(self, controller) -> "TimingProtocolChecker":
        """Attach this checker as a probe on a live controller (which also
        lets it cross-check its shadow state against the real banks)."""
        self._controller = controller
        return controller.attach(self)

    # ------------------------------------------------------------ reporting

    def _violate(self, rule: str, cycle: int, command: Command, rank: int,
                 bank: int, message: str) -> None:
        violation = ProtocolViolation(
            rule=rule,
            cycle=cycle,
            command=command.value,
            rank=rank,
            bank=bank,
            message=message,
            window=tuple(r.as_tuple() for r in self.window),
        )
        self.violations.append(violation)
        if self.strict or len(self.violations) >= self.max_violations:
            raise ProtocolError(violation)

    # ----------------------------------------------------------- subarrays

    @property
    def _capacity(self) -> int:
        """Concurrently-activated-subarray limit of the SALP mode."""
        if self.salp == "salp2":
            return 2
        if self.salp == "masa":
            return self.geometry.subarrays_per_bank
        return 1

    def _sub_id_of(self, row) -> Optional[int]:
        """Subarray a row-carrying command targets (None outside SALP).
        Mirrors the controller's deterministic row->subarray fold, so the
        two derive the same operand independently."""
        if self.salp == "none" or row is None:
            return None
        g = self.geometry
        return (row[1] // g.rows_per_subarray) % g.subarrays_per_bank

    def _sub_shadow(self, bk: _BankShadow, sub_id: int) -> _BankShadow:
        sub = bk.subs.get(sub_id)
        if sub is None:
            sub = _BankShadow()
            bk.subs[sub_id] = sub
        return sub

    # ----------------------------------------------------------- observing

    def on_command(
        self,
        cycle: int,
        command: Command,
        request: Optional[Request] = None,
        *,
        rank: Optional[int] = None,
        bank: Optional[int] = None,
        row=None,
        subrank: Optional[int] = None,
        io_mode: Optional[IOMode] = None,
        internal_bursts: int = 0,
        implicit: bool = False,
        subarray: Optional[int] = None,
    ) -> None:
        """Check one issued command.

        The controller passes the ``request`` being served; hand-built
        test streams pass ``rank`` / ``bank`` / ``row`` / ... directly.
        ``implicit`` marks the closed-page auto-precharge, which rides on
        its CAS instead of occupying the command bus (and may carry a
        future timestamp).  ``subarray`` is the PRE operand under SALP
        (a precharge names the subarray it closes; row-carrying commands
        imply theirs through the row index).
        """
        if request is not None:
            rank = request.addr.rank
            bank = request.addr.bank
            subrank = request.subrank
            io_mode = request.io_mode
            internal_bursts = request.internal_bursts
            if row is None and command is not MRS:
                row = request.row_id()
        if rank is None:
            raise TypeError("on_command needs a request or an explicit rank")
        if bank is None:
            bank = -1
        if isinstance(row, int):
            row = (ROW, row)
        if io_mode is None:
            io_mode = X4

        self.commands_seen += 1
        self.window.append(CommandRecord(
            cycle=cycle,
            command=command._value_,
            rank=rank,
            bank=bank,
            row=(row[0]._value_, row[1]) if row is not None else None,
            subrank=subrank,
            implicit=implicit,
        ))

        if not 0 <= rank < self.geometry.ranks:
            self._violate("rank-range", cycle, command, rank, bank,
                          f"rank {rank} outside 0..{self.geometry.ranks - 1}")
            return
        rk = self._ranks[rank]
        bk = self._banks[rank][bank] if 0 <= bank < self.geometry.banks \
            else None
        if command is not REF and bk is None:
            self._violate("bank-range", cycle, command, rank, bank,
                          f"bank {bank} outside 0..{self.geometry.banks - 1}")
            return

        if not implicit:
            if cycle > self._last_command_at:
                self._last_command_at = cycle
            else:
                self._violate(
                    "command-bus", cycle, command, rank, bank,
                    f"command bus carries one command per cycle; previous "
                    f"command at {self._last_command_at}",
                )
            self._check_shadow_sync(cycle, command, rank, bank, bk)

        if command is RD or command is WR:
            self._on_cas(cycle, command, rank, bank, rk, bk, row,
                         subrank, io_mode, internal_bursts)
        elif command is ACT or command is ACT_COL:
            self._on_act(cycle, command, rank, bank, rk, bk, row)
        elif command is PRE:
            self._on_pre(cycle, rank, bank, rk, bk, implicit, subarray)
        elif command is REF:
            self._on_ref(cycle, rank, rk)
        elif command is MRS:
            self._on_mrs(cycle, rank, bank, rk, io_mode)
        elif command is SA_SEL:
            self._on_sa_sel(cycle, rank, bank, rk, bk, row)
        else:  # pragma: no cover - future command kinds
            self._violate("unknown-command", cycle, command, rank, bank,
                          f"checker does not model {command}")

    def _check_shadow_sync(self, cycle, command, rank, bank, bk) -> None:
        """Cross-validate the shadow row state against the live bank."""
        if self._controller is None or bk is None:
            return
        actual = self._controller.channel.ranks[rank].banks[bank]
        if self.salp != "none":
            shadow_open = {
                sub_id: sub.open_row
                for sub_id, sub in bk.subs.items()
                if sub.open_row is not None
            }
            actual_open = {
                sub_id: actual.subarrays[sub_id].open_row
                for sub_id in actual.open_subs
            }
            if shadow_open != actual_open \
                    or bk.designated != actual.designated:
                self._violate(
                    "shadow-divergence", cycle, command, rank, bank,
                    f"checker believes open={shadow_open} "
                    f"designated={bk.designated}, controller bank state "
                    f"is {actual.snapshot()}",
                )
                # resync to avoid cascades
                for sub_id, sub in bk.subs.items():
                    sub.open_row = actual_open.get(sub_id)
                for sub_id, open_row in actual_open.items():
                    self._sub_shadow(bk, sub_id).open_row = open_row
                bk.designated = actual.designated
            return
        if actual.open_row != bk.open_row:
            self._violate(
                "shadow-divergence", cycle, command, rank, bank,
                f"checker believes open_row={bk.open_row}, controller bank "
                f"state is {actual.snapshot()}",
            )
            bk.open_row = actual.open_row  # resync to avoid cascades

    # ------------------------------------------------------------ row rules

    def _on_act(self, cycle, command, rank, bank, rk, bk, row) -> None:
        t = self.timing
        if row is None:
            self._violate("act-without-row", cycle, command, rank, bank,
                          "ACT carries no row")
            return
        sub_id = self._sub_id_of(row)
        if sub_id is None:
            target = bk
        else:
            # SALP: the row-buffer rules apply to the target subarray;
            # the bank adds the shared row-logic (tRA) and capacity rules
            target = self._sub_shadow(bk, sub_id)
            open_subs = [i for i, s in bk.subs.items()
                         if s.open_row is not None]
            if len(open_subs) >= self._capacity and sub_id not in open_subs:
                self._violate(
                    "salp-capacity", cycle, command, rank, bank,
                    f"ACT on subarray {sub_id} with {open_subs} already open "
                    f"({self.salp} allows {self._capacity})",
                )
            if cycle < bk.bank_act_at + t.tRA:
                self._violate("tRA", cycle, command, rank, bank,
                              f"ACT at {cycle} < bank ACT@{bk.bank_act_at} + "
                              f"tRA({t.tRA})")
        if target.open_row is not None:
            self._violate(
                "act-on-open", cycle, command, rank, bank,
                f"{'subarray ' + str(sub_id) if sub_id is not None else 'bank'} "
                f"already has {target.open_row} open",
            )
        if cycle < target.pre_at + t.tRP:
            self._violate(
                "tRP", cycle, command, rank, bank,
                f"ACT at {cycle} < PRE@{target.pre_at} + tRP({t.tRP})",
            )
        if cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, bank,
                          f"ACT at {cycle} inside refresh blackout "
                          f"(until {rk.blackout_until})")
        if cycle < rk.mrs_until:
            self._violate("tMOD_IO", cycle, command, rank, bank,
                          f"ACT at {cycle} inside MRS stall "
                          f"(until {rk.mrs_until})")
        group = bank // self.geometry.banks_per_group
        if rk.last_act_at > _NEVER:
            spacing = (t.tRRD_L if group == rk.last_act_group
                       else t.tRRD_S)
            if cycle < rk.last_act_at + spacing:
                self._violate("tRRD", cycle, command, rank, bank,
                              f"ACT at {cycle} < ACT@{rk.last_act_at} + "
                              f"tRRD({spacing})")
        if len(rk.acts) == 4 and cycle < rk.acts[0] + t.tFAW:
            self._violate(
                "tFAW", cycle, command, rank, bank,
                f"fifth ACT at {cycle} inside the four-activate window "
                f"opened at {rk.acts[0]} (tFAW={t.tFAW})",
            )
        target.open_row = row
        target.act_at = cycle
        if sub_id is not None:
            bk.bank_act_at = cycle
            bk.designated = sub_id  # the newest ACT owns the global SAs
        rk.last_act_at = cycle
        rk.last_act_group = group
        rk.acts.append(cycle)

    def _on_pre(self, cycle, rank, bank, rk, bk, implicit,
                sub_id=None) -> None:
        t = self.timing
        command = PRE
        if self.salp != "none":
            if sub_id is None:
                # hand-built streams may omit the operand; a PRE with
                # exactly one open subarray is still unambiguous
                open_subs = [i for i, s in bk.subs.items()
                             if s.open_row is not None]
                sub_id = open_subs[0] if len(open_subs) == 1 else \
                    (bk.designated if bk.designated is not None else 0)
            target = self._sub_shadow(bk, sub_id)
        else:
            target = bk
        if target.open_row is None:
            self._violate("pre-on-closed", cycle, command, rank, bank,
                          "PRE on an already-closed "
                          + ("subarray " + str(sub_id) if sub_id is not None
                             else "bank"))
        if cycle < target.act_at + t.tRAS:
            self._violate("tRAS", cycle, command, rank, bank,
                          f"PRE at {cycle} < ACT@{target.act_at} "
                          f"+ tRAS({t.tRAS})")
        if cycle < target.rd_at + t.tRTP + target.rd_tail:
            self._violate(
                "tRTP", cycle, command, rank, bank,
                f"PRE at {cycle} < RD@{target.rd_at} + tRTP({t.tRTP}) "
                f"+ tail({target.rd_tail})",
            )
        wr_ready = target.wr_at + t.CWL + t.tBL + t.tWR + target.wr_tail
        if cycle < wr_ready:
            self._violate(
                "tWR", cycle, command, rank, bank,
                f"PRE at {cycle} < WR@{target.wr_at} + CWL + tBL + tWR "
                f"(ready {wr_ready})",
            )
        if not implicit and cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, bank,
                          f"PRE at {cycle} inside refresh blackout "
                          f"(until {rk.blackout_until})")
        target.open_row = None
        if cycle > target.pre_at:
            target.pre_at = cycle
        if sub_id is not None and bk.designated == sub_id:
            bk.designated = None

    def _on_ref(self, cycle, rank, rk) -> None:
        t = self.timing
        command = REF
        open_banks = [
            i for i, bk in enumerate(self._banks[rank])
            if bk.open_row is not None
            or any(s.open_row is not None for s in bk.subs.values())
        ]
        if open_banks:
            self._violate("ref-open-bank", cycle, command, rank, -1,
                          f"REF with banks {open_banks} still open")
        if cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, -1,
                          f"REF at {cycle} inside previous refresh blackout "
                          f"(until {rk.blackout_until})")
        for bk in self._banks[rank]:
            bk.open_row = None
            bk.designated = None
            for sub in bk.subs.values():
                sub.open_row = None
        if cycle + t.tRFC > rk.blackout_until:
            rk.blackout_until = cycle + t.tRFC

    # --------------------------------------------------------- column rules

    def _on_cas(self, cycle, command, rank, bank, rk, bk, row, subrank,
                io_mode, internal_bursts) -> None:
        t = self.timing
        req_type = READ if command is RD else WRITE
        sub_id = self._sub_id_of(row)
        if sub_id is None:
            target = bk
        else:
            # SALP: the open-row and tRCD rules bind the target subarray;
            # tCCD spacing binds the bank's shared column path, and the
            # target must own the global sense amps
            target = self._sub_shadow(bk, sub_id)
            if bk.designated != sub_id:
                self._violate(
                    "cas-undesignated", cycle, command, rank, bank,
                    f"column command to subarray {sub_id} but subarray "
                    f"{bk.designated} drives the global sense amps",
                )
            if cycle < bk.sa_sel_at + t.tSA_SEL:
                self._violate("tSA_SEL", cycle, command, rank, bank,
                              f"CAS at {cycle} < SA_SEL@{bk.sa_sel_at} + "
                              f"tSA_SEL({t.tSA_SEL})")
        if target.open_row is None:
            self._violate("cas-on-closed", cycle, command, rank, bank,
                          "column command with no open row")
        elif row is not None and target.open_row != row:
            self._violate(
                "cas-row-mismatch", cycle, command, rank, bank,
                f"column command needs {row} but {target.open_row} is open",
            )
        if cycle < target.act_at + t.tRCD:
            self._violate("tRCD", cycle, command, rank, bank,
                          f"CAS at {cycle} < ACT@{target.act_at} "
                          f"+ tRCD({t.tRCD})")
        if cycle < bk.cas_at + t.tCCD_L + bk.cas_tail:
            self._violate(
                "tCCD_L", cycle, command, rank, bank,
                f"CAS at {cycle} < CAS@{bk.cas_at} + tCCD_L({t.tCCD_L}) "
                f"+ tail({bk.cas_tail})",
            )
        # tCCD_S on shared chips: a full-width CAS uses every chip of the
        # rank, a sub-rank CAS only its own chip set.
        if subrank is None:
            chipsets = list(rk.cas_by_chipset)
        else:
            chipsets = [cs for cs in rk.cas_by_chipset
                        if cs is None or cs == subrank]
        for chipset in chipsets:
            if cycle < rk.cas_by_chipset[chipset] + t.tCCD_S:
                self._violate(
                    "tCCD_S", cycle, command, rank, bank,
                    f"CAS at {cycle} < same-chip CAS@"
                    f"{rk.cas_by_chipset[chipset]} + tCCD_S({t.tCCD_S})",
                )
        if command is RD and cycle < rk.wtr_until:
            self._violate("tWTR", cycle, command, rank, bank,
                          f"RD at {cycle} inside write-to-read turnaround "
                          f"(until {rk.wtr_until})")
        if cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, bank,
                          f"CAS at {cycle} inside refresh blackout "
                          f"(until {rk.blackout_until})")
        if cycle < rk.mrs_until:
            self._violate("tMOD_IO", cycle, command, rank, bank,
                          f"CAS at {cycle} inside MRS stall "
                          f"(until {rk.mrs_until})")
        if io_mode is not rk.io_mode:
            self._violate(
                "io-mode", cycle, command, rank, bank,
                f"request needs {io_mode._value_} but the rank is in "
                f"{rk.io_mode._value_}",
            )
        self._check_data_bus(cycle, command, rank, bank, req_type, subrank)

        tail = internal_bursts * t.tCCD_L
        bk.cas_at = cycle  # shared column path, whatever the subarray
        bk.cas_tail = tail
        if command is RD:
            target.rd_at = cycle
            target.rd_tail = tail
        else:
            target.wr_at = cycle
            target.wr_tail = tail
            wtr_until = cycle + t.CWL + t.tBL + t.tWTR
            if wtr_until > rk.wtr_until:
                rk.wtr_until = wtr_until
        rk.cas_by_chipset[subrank] = cycle

    # --------------------------------------------------------- subarray rules

    def _on_sa_sel(self, cycle, rank, bank, rk, bk, row) -> None:
        t = self.timing
        command = SA_SEL
        if self.salp != "masa":
            self._violate("sa-sel-mode", cycle, command, rank, bank,
                          f"SA_SEL only exists under MASA (mode is "
                          f"{self.salp!r})")
        if self.salp == "none":
            return  # no subarray state to update
        sub_id = self._sub_id_of(row)
        if sub_id is None:
            self._violate("sa-sel-without-row", cycle, command, rank, bank,
                          "SA_SEL carries no row to derive its subarray")
            return
        sub = self._sub_shadow(bk, sub_id)
        if sub.open_row is None:
            self._violate("sa-sel-on-closed", cycle, command, rank, bank,
                          f"SA_SEL designating closed subarray {sub_id}")
        if cycle < bk.sa_sel_at + t.tSA_SEL:
            self._violate("tSA_SEL", cycle, command, rank, bank,
                          f"SA_SEL at {cycle} < SA_SEL@{bk.sa_sel_at} + "
                          f"tSA_SEL({t.tSA_SEL})")
        if cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, bank,
                          f"SA_SEL at {cycle} inside refresh blackout "
                          f"(until {rk.blackout_until})")
        bk.designated = sub_id
        bk.sa_sel_at = cycle

    def _check_data_bus(self, cycle, command, rank, bank, req_type,
                        subrank) -> None:
        """Per-pin-group burst windows: no overlap, tRTR/tRTW bubbles.
        Because each pin group is checked separately, this also proves
        sub-bus occupancy never exceeds the physical pin count."""
        t = self.timing
        latency = t.CL if command is RD else t.CWL
        start = cycle + latency
        end = start + t.tBL
        if subrank is not None and not (
            0 <= subrank < self.geometry.subranks
        ):
            self._violate(
                "subrank-range", cycle, command, rank, bank,
                f"sub-rank {subrank} outside "
                f"0..{self.geometry.subranks - 1}",
            )
            return
        if subrank is None:
            previous = [self._bus_full] + list(self._bus_group.values())
        else:
            previous = [self._bus_full, self._bus_group.get(subrank)]
        for prev in previous:
            if prev is None:
                continue
            p_start, p_end, p_rank, p_type = prev
            gap = 0
            gap_rule = None
            if p_rank != rank and t.tRTR > gap:
                gap, gap_rule = t.tRTR, "tRTR"
            if p_type != req_type and t.tRTW > gap:
                gap, gap_rule = t.tRTW, "tRTW"
            if start < p_end:
                self._violate(
                    "data-bus-overlap", cycle, command, rank, bank,
                    f"burst [{start}, {end}) overlaps burst "
                    f"[{p_start}, {p_end}) on the same pins",
                )
            elif start < p_end + gap:
                self._violate(
                    gap_rule, cycle, command, rank, bank,
                    f"burst at {start} follows a "
                    f"{'different-rank' if gap_rule == 'tRTR' else 'turnaround'} "
                    f"burst ending {p_end} without the {gap}-cycle bubble",
                )
        burst: _Burst = (start, end, rank, req_type)
        if subrank is None:
            self._bus_full = burst
        else:
            self._bus_group[subrank] = burst
        self._pending_burst = (start, end, rank, subrank)

    def on_data_burst(self, now: int, cmd: Command, rank: int,
                      subrank: Optional[int], data_start: int,
                      data_end: int) -> None:
        """Data-burst probe: cross-validate the data window the channel
        actually booked against the one the checker computed from its own
        (trusted) timing table."""
        expected = self._pending_burst
        self._pending_burst = None
        if expected is None:
            self._violate("data-window-mismatch", now, cmd, rank, -1,
                          "data burst without a matching column command")
            return
        e_start, e_end, e_rank, e_subrank = expected
        if (data_start, data_end, rank, subrank) != \
                (e_start, e_end, e_rank, e_subrank):
            self._violate(
                "data-window-mismatch", now, cmd, rank, -1,
                f"channel booked [{data_start}, {data_end}) on "
                f"rank{rank}/sub{subrank}, checker expected "
                f"[{e_start}, {e_end}) on rank{e_rank}/sub{e_subrank}",
            )

    # ------------------------------------------------------------ mode rules

    def _on_mrs(self, cycle, rank, bank, rk, io_mode) -> None:
        t = self.timing
        command = MRS
        if cycle < rk.blackout_until:
            self._violate("tRFC", cycle, command, rank, bank,
                          f"MRS at {cycle} inside refresh blackout "
                          f"(until {rk.blackout_until})")
        if cycle < rk.mrs_until:
            self._violate("tMOD_IO", cycle, command, rank, bank,
                          f"MRS at {cycle} inside previous MRS stall "
                          f"(until {rk.mrs_until})")
        if cycle < rk.wtr_until:
            self._violate("mrs-busy", cycle, command, rank, bank,
                          f"MRS at {cycle} before in-flight writes complete "
                          f"(until {rk.wtr_until})")
        if self._bus_full is not None and cycle < self._bus_full[1]:
            self._violate(
                "mrs-during-burst", cycle, command, rank, bank,
                f"MRS at {cycle} while the full-width bus is busy until "
                f"{self._bus_full[1]}",
            )
        rk.io_mode = io_mode
        if cycle + t.tMOD_IO > rk.mrs_until:
            rk.mrs_until = cycle + t.tMOD_IO

    # -------------------------------------------------------------- summary

    def summary(self) -> dict:
        """Machine-readable result of the checking session."""
        by_rule: Dict[str, int] = {}
        for v in self.violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "commands": self.commands_seen,
            "violations": len(self.violations),
            "by_rule": by_rule,
        }
