"""Stall diagnostics: evidence-carrying failures for wedged simulations.

When a run dies -- cores never finish, the memory system fails to drain,
or the event safety valve trips -- a bare one-line error discards all the
state that explains *why*.  :func:`build_stall_report` snapshots the
machine at the moment of death (per-bank open-row and timing state,
controller queue occupancies, MSHR and writeback backlogs, per-core
progress, the last-N issued commands) and :class:`SimulationStallError`
carries that report to the caller, rendered into the exception message
and available structurally as ``exc.report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..kernel import SimulationError

#: how many trailing trace events a report keeps
RECENT_EVENTS = 64


@dataclass
class StallReport:
    """Snapshot of a simulation at the moment it was declared stuck."""

    reason: str
    cycle: int
    scheme: str = ""
    query: str = ""
    pending_kernel_events: int = 0
    cores: List[Dict[str, object]] = field(default_factory=list)
    read_queue: int = 0
    read_queue_capacity: int = 0
    write_queue: int = 0
    write_queue_capacity: int = 0
    oldest_requests: List[Dict[str, object]] = field(default_factory=list)
    mshr_lines: int = 0
    pending_writebacks: int = 0
    outstanding_writes: int = 0
    banks: List[Dict[str, object]] = field(default_factory=list)
    recent_events: List[Tuple] = field(default_factory=list)

    @property
    def unfinished_cores(self) -> List[int]:
        return [c["core_id"] for c in self.cores if not c.get("finished")]

    def render(self) -> str:
        lines = [
            f"stall at cycle {self.cycle}"
            + (f" ({self.scheme}/{self.query})" if self.scheme else ""),
            f"reason: {self.reason}",
            f"kernel: {self.pending_kernel_events} events still queued",
            f"queues: read {self.read_queue}/{self.read_queue_capacity}, "
            f"write {self.write_queue}/{self.write_queue_capacity}, "
            f"MSHR {self.mshr_lines} lines, "
            f"{self.pending_writebacks} pending writebacks, "
            f"{self.outstanding_writes} outstanding writes",
        ]
        for core in self.cores:
            lines.append(
                "core {core_id}: pc {pc}/{ops}, {inflight} in flight, "
                "{state}".format(
                    state="finished" if core.get("finished") else "STALLED",
                    **{k: core[k]
                       for k in ("core_id", "pc", "ops", "inflight")},
                )
            )
        if self.oldest_requests:
            lines.append("oldest queued requests:")
            for req in self.oldest_requests:
                lines.append(
                    "  {type} rank{rank}/bank{bank} row {row} "
                    "(queued at {arrival})".format(**req)
                )
        open_banks = [b for b in self.banks if b["open_row"] is not None]
        if open_banks:
            lines.append("open banks:")
            for b in open_banks:
                lines.append(
                    "  rank{rank}/bank{bank}: row {open_row} "
                    "(next act/cas/pre = {next_act}/{next_cas}/"
                    "{next_pre})".format(**b)
                )
        else:
            lines.append("open banks: none (all precharged)")
        if self.recent_events:
            lines.append(f"last {len(self.recent_events)} commands:")
            for cycle, cmd, rank, bank, row in self.recent_events:
                lines.append(
                    f"  t={cycle} {cmd} rank{rank}/bank{bank} row {row}"
                )
        else:
            lines.append("no command trace captured")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        from .artifacts import to_jsonable

        return to_jsonable(
            {f: getattr(self, f) for f in (
                "reason", "cycle", "scheme", "query",
                "pending_kernel_events", "cores", "read_queue",
                "read_queue_capacity", "write_queue",
                "write_queue_capacity", "oldest_requests", "mshr_lines",
                "pending_writebacks", "outstanding_writes", "banks",
                "recent_events",
            )}
        )


class SimulationStallError(SimulationError):
    """A simulation stalled; ``report`` holds the full diagnostics."""

    def __init__(self, report: StallReport) -> None:
        super().__init__(report.render())
        self.report = report


def _bank_snapshot(rank_id: int, bank_id: int, bank) -> Dict[str, object]:
    state = bank.snapshot()
    open_row = state["open_row"]
    return {
        "rank": rank_id,
        "bank": bank_id,
        "open_row": (
            None if open_row is None
            else f"{open_row[0].value}:{open_row[1]}"
        ),
        "next_act": state["next_act"],
        "next_cas": state["next_cas"],
        "next_pre": state["next_pre"],
        "activations": bank.activations,
        "row_hits": bank.row_hits,
        "row_conflicts": bank.row_conflicts,
    }


def build_stall_report(
    reason: str,
    kernel,
    system,
    cores: Sequence = (),
    scheme: str = "",
    query: str = "",
    recent_events: Optional[Sequence[Tuple]] = None,
) -> StallReport:
    """Snapshot kernel/system/core state into a :class:`StallReport`.

    Works on the live objects of :mod:`repro.sim`; all access is
    duck-typed so this module stays import-cycle-free.
    """
    controller = system.controller
    cfg = controller.config
    oldest = []
    # the 8 oldest across both queues (a stable sort: reads first on a
    # tie), so queued writes show even behind a full read queue
    queued = sorted(controller.read_queue + controller.write_queue,
                    key=lambda request: request.arrival)
    for request in queued[:8]:
        oldest.append({
            "type": request.type.value,
            "rank": request.addr.rank,
            "bank": request.addr.bank,
            "row": request.addr.row,
            "arrival": request.arrival,
        })
    banks = [
        _bank_snapshot(rank_id, bank_id, bank)
        for rank_id, rank in enumerate(controller.channel.ranks)
        for bank_id, bank in enumerate(rank.banks)
    ]
    events = list(recent_events or [])[-RECENT_EVENTS:]
    state = system.debug_state()
    return StallReport(
        reason=reason,
        cycle=kernel.now,
        scheme=scheme,
        query=query,
        pending_kernel_events=kernel.pending(),
        cores=[core.debug_state() for core in cores],
        read_queue=state["read_queue"],
        read_queue_capacity=cfg.read_queue_capacity,
        write_queue=state["write_queue"],
        write_queue_capacity=cfg.write_queue_capacity,
        oldest_requests=oldest,
        mshr_lines=state["mshr_lines"],
        pending_writebacks=state["pending_writebacks"],
        outstanding_writes=state["outstanding_writes"],
        banks=banks,
        recent_events=events,
    )
