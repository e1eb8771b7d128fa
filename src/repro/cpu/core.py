"""Bounded-MLP scan core.

The paper's workloads are memory-bound table scans; the cores' job in the
simulation is to (a) issue memory operations at a realistic rate, (b)
overlap a bounded number of outstanding misses (memory-level parallelism),
and (c) charge the CPU work between memory operations.  This matches how
memory-system papers drive their evaluations: the interesting contention
is in the memory system, not the pipeline.

A core walks its operation stream in order.  Cache hits cost only issue
bandwidth; misses occupy one of ``mlp`` slots until the fill returns.
Stores go through the write path of the memory system (write-allocate for
partial lines, streaming for full lines) and do not occupy miss slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..kernel import Kernel
from ..obs.stalls import MEM_WAIT, QUEUE_FULL, CoreStallLog
from .ops import Compute, GatherLoad, GatherStore, Load, MemOp, Store


@dataclass(frozen=True)
class CoreConfig:
    """Per-core knobs (Table 2: 4 cores, 4 GHz on a 1.2 GHz memory clock)."""

    mlp: int = 8  # outstanding demand misses
    issue_cycles: float = 0.3  # memory cycles of issue bandwidth per op
    retry_interval: int = 8  # cycles between retries when backpressured


class Core:
    """One core executing a memory-operation stream."""

    def __init__(
        self,
        kernel: Kernel,
        core_id: int,
        system: "MemorySystem",
        config: CoreConfig | None = None,
    ) -> None:
        self.kernel = kernel
        self.core_id = core_id
        self.system = system
        self.config = config or CoreConfig()
        self._ops: List[MemOp] = []
        self._pc = 0
        self._inflight = 0
        self._ready_time = 0.0  # local issue clock, in memory cycles
        self._done = False
        self._advance_scheduled = False
        #: every cycle between run() and the last completion lands in
        #: exactly one busy/blocked interval (the stall attributor relies
        #: on that)
        self.stall_log = CoreStallLog(core_id)
        # Statistics
        self.loads = 0
        self.stores = 0
        self.gathers = 0
        self.hits = 0
        self.misses = 0
        #: backpressure retries scheduled (queue-full re-attempts on the
        #: ``retry_interval`` grid; MLP-exhausted waits are event-driven
        #: -- a completion reschedules the core -- and never count here)
        self.retries = 0
        # Activity window in memory cycles (span profiling)
        self.start_cycle = 0
        self.finish_cycle: int | None = None

    # ------------------------------------------------------------------ API

    def run(self, ops: Sequence[MemOp]) -> None:
        """Load an operation stream and start executing."""
        self._ops = list(ops)
        self._pc = 0
        self._done = not self._ops
        self._ready_time = float(self.kernel.now)
        self.start_cycle = self.kernel.now
        self._schedule_advance(self.kernel.now)

    @property
    def finished(self) -> bool:
        return self._done and self._inflight == 0

    def debug_state(self) -> dict:
        """Progress snapshot for stall diagnostics."""
        return {
            "core_id": self.core_id,
            "pc": self._pc,
            "ops": len(self._ops),
            "inflight": self._inflight,
            "retries": self.retries,
            "ready_time": self._ready_time,
            "finished": self.finished,
        }

    # ------------------------------------------------------------ execution

    def _schedule_advance(self, when: int) -> None:
        if self._advance_scheduled:
            return
        self._advance_scheduled = True
        self.kernel.schedule_at(max(when, self.kernel.now), self._advance)

    def _advance(self) -> None:
        self._advance_scheduled = False
        now = self.kernel.now
        self._ready_time = max(self._ready_time, float(now))
        self.stall_log.close_block(now)
        while self._pc < len(self._ops):
            if self._ready_time > now:
                self._catch_up(now)
                return
            op = self._ops[self._pc]
            if isinstance(op, Compute):
                self._ready_time += op.cycles
                self._pc += 1
                continue
            if isinstance(op, Load):
                if not self._do_load(op):
                    self._note_blocked(now)
                    return
                continue
            if isinstance(op, GatherLoad):
                if not self._do_gather_load(op):
                    self._note_blocked(now)
                    return
                continue
            if isinstance(op, Store):
                if not self._do_store(op):
                    self._note_blocked(now)
                    return
                continue
            if isinstance(op, GatherStore):
                if not self._do_gather_store(op):
                    self._note_blocked(now)
                    return
                continue
            raise TypeError(f"unknown op {op!r}")
        if self._ready_time > now:
            # trailing compute: the core is busy until its local clock
            # catches up, so the run must not end before then
            self._catch_up(now)
            return
        self._done = True
        if self._inflight == 0:
            self.finish_cycle = now
        else:
            # op stream exhausted, misses still draining
            self.stall_log.open_block(now, MEM_WAIT)

    def _catch_up(self, now: int) -> None:
        """Sleep until the fractional issue clock catches up; that whole
        window is busy time (issue bandwidth / compute)."""
        wake = math.ceil(self._ready_time)
        self.stall_log.note_busy(now, wake)
        self._schedule_advance(wake)

    def _note_blocked(self, now: int) -> None:
        """A handler made no progress.  Only ``_retry_later`` schedules an
        advance from inside a handler, so a pending schedule distinguishes
        queue backpressure from an exhausted-MLP wait."""
        reason = QUEUE_FULL if self._advance_scheduled else MEM_WAIT
        self.stall_log.open_block(now, reason)

    # --------------------------------------------------------- op handlers

    def _retry_later(self) -> bool:
        # Queue-full backpressure keeps the fixed retry grid in both
        # scheduling modes.  An event-driven wake at the exact cycle a
        # slot frees would submit at a *different* kernel instant than
        # the polling grid does, changing same-cycle submit order, queue
        # append order, and therefore FR-FCFS FCFS tie-breaks -- the
        # cycle-exactness the event-wheel equivalence suite locks down
        # forbids it.  A failed attempt is also not skippable: its cache
        # lookups touch shared LRU state other cores interleave with.
        self.retries += 1
        self._schedule_advance(self.kernel.now + self.config.retry_interval)
        return False

    def _do_load(self, op: Load) -> bool:
        self.loads += 1
        line, mask = self.system.sectorize(op.addr, op.size)
        missing = self.system.hierarchy.lookup(self.core_id, line, mask)
        if not missing:
            self.hits += 1
            self._ready_time += self.config.issue_cycles
            self._pc += 1
            return True
        self.misses += 1
        if self._inflight >= self.config.mlp:
            return False  # a completion will reschedule us
        if not self.system.issue_fetch(
            self.core_id, line, missing, self._on_fill
        ):
            self.loads -= 1
            self.misses -= 1
            return self._retry_later()
        self._inflight += 1
        self._ready_time += self.config.issue_cycles
        self._pc += 1
        return True

    def _do_gather_load(self, op: GatherLoad) -> bool:
        self.gathers += 1
        if self.system.gather_cached(self.core_id, op.element_addrs):
            self.hits += 1
            self._ready_time += self.config.issue_cycles
            self._pc += 1
            return True
        self.misses += 1
        if self._inflight >= self.config.mlp:
            return False
        if not self.system.issue_gather(
            self.core_id, op.element_addrs, self._on_fill
        ):
            self.gathers -= 1
            self.misses -= 1
            return self._retry_later()
        self._inflight += 1
        self._ready_time += self.config.issue_cycles
        self._pc += 1
        return True

    def _do_store(self, op: Store) -> bool:
        self.stores += 1
        line, mask = self.system.sectorize(op.addr, op.size)
        full_line = op.size >= self.system.line_bytes
        if full_line:
            if not self.system.issue_store_line(self.core_id, line):
                self.stores -= 1
                return self._retry_later()
            self._ready_time += self.config.issue_cycles
            self._pc += 1
            return True
        if self.system.write_hit(self.core_id, line, mask):
            self._ready_time += self.config.issue_cycles
            self._pc += 1
            return True
        # write-allocate: fetch for ownership, then mark dirty
        if self._inflight >= self.config.mlp:
            self.stores -= 1
            return False
        if not self.system.issue_fetch(
            self.core_id, line, mask, self._make_rfo_callback(line, mask)
        ):
            self.stores -= 1
            return self._retry_later()
        self._inflight += 1
        self._ready_time += self.config.issue_cycles
        self._pc += 1
        return True

    def _do_gather_store(self, op: GatherStore) -> bool:
        self.stores += 1
        if not self.system.issue_gather_store(self.core_id, op.element_addrs):
            self.stores -= 1
            return self._retry_later()
        self._ready_time += self.config.issue_cycles
        self._pc += 1
        return True

    # ---------------------------------------------------------- completions

    def _on_fill(self) -> None:
        self._inflight -= 1
        self._schedule_advance(self.kernel.now)
        if self.finished:
            self.finish_cycle = self.kernel.now

    def _make_rfo_callback(self, line: int, mask: int):
        def _done() -> None:
            self.system.write_hit(self.core_id, line, mask)
            self._on_fill()

        return _done
