"""The simulated machine: cores + sector caches + memory controller.

:class:`MemorySystem` wires one access scheme into the full system and
provides the services the cores use:

* sector-granular cache lookups (hierarchy of :mod:`repro.cache`),
* an MSHR that merges demand misses to in-flight lines,
* request lowering through the scheme (regular reads/writes, gathers),
* writeback handling with write-queue backpressure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..core.scheme import AccessScheme
from ..dram.controller import MemoryController
from ..kernel import Kernel
from .config import SystemConfig


class _MSHREntry:
    """A line in flight: the sectors its fetches will fill and the
    completions waiting on them."""

    __slots__ = ("pending_mask", "waiters")

    def __init__(self, pending_mask: int,
                 waiters: List[Callable[[], None]]) -> None:
        self.pending_mask = pending_mask
        self.waiters = waiters


@dataclass
class SystemStats:
    demand_fetches: int = 0
    merged_fetches: int = 0
    gathers: int = 0
    writebacks: int = 0
    streaming_stores: int = 0
    gather_stores: int = 0


class MemorySystem:
    """One scheme instantiated into a runnable system."""

    def __init__(
        self,
        kernel: Kernel,
        scheme: AccessScheme,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.kernel = kernel
        self.scheme = scheme
        self.config = config or SystemConfig()
        # the caches hold the design's line in codeword-sized sectors,
        # the units its schemes, planner and DRAM bursts move
        self.line_bytes = scheme.geometry.cacheline_bytes
        self.hierarchy = CacheHierarchy(
            self.config.hierarchy, per_core_l1=self.config.cores,
            line_bytes=self.line_bytes, sectors=scheme.sectors_per_line,
        )
        self.controller = MemoryController(
            kernel,
            scheme.timing,
            scheme.geometry,
            self.config.controller,
            salp=scheme.salp_mode,
        )
        self.stats = SystemStats()
        self._mshr: Dict[int, _MSHREntry] = {}
        #: a whole-line fetch's fill: every sector of the line
        self._line_mask = (1 << scheme.sectors_per_line) - 1
        self._pending_writebacks: Deque[int] = deque()
        self._writeback_poll_scheduled = False
        #: writeback poll events fired
        self.wb_polls = 0
        self.outstanding_writes = 0
        #: optional gather-plan observer, called as
        #: ``(kind, element_addrs, plan)`` with ``kind`` in {"read",
        #: "write"} once per *admitted* plan (the runner sets it to a
        #: :class:`repro.check.PlanValidator`'s ``on_plan`` on checked runs)
        self.plan_observer: Optional[Callable[..., None]] = None

    # ------------------------------------------------------------ utilities

    def gather_cached(self, core: int, element_addrs: Sequence[int]) -> bool:
        """True when every element of a gather group is already cached.

        Each element probes its own sector, the one a gather's fill
        installs (:meth:`AccessScheme._sector_fills`), in element order:
        a probe moves LRU state that other cores share, so the first miss
        ends the walk."""
        low = self.line_bytes - 1
        sector_bytes = self.scheme.sector_bytes
        lookup = self.hierarchy.lookup
        for addr in element_addrs:
            if lookup(core, addr & ~low, 1 << ((addr & low) // sector_bytes)):
                return False
        return True

    # -------------------------------------------------------------- fetches

    def issue_fetch(
        self, core: int, line: int, mask: int,
        callback: Callable[[], None],
    ) -> bool:
        """A demand fetch (MSHR-merged).

        A regular read moves the whole 64B line, so the fill validates
        every sector regardless of the sectors the requester asked for;
        ``mask`` only matters for the requester's own wake-up.
        """
        scheme = self.scheme
        whole = scheme.fetch_fills_whole_line
        entry = self._mshr.get(line)
        if entry is not None and (whole or not mask & ~entry.pending_mask):
            entry.waiters.append(callback)
            self.stats.merged_fetches += 1
            return True
        if whole:
            requests = scheme.lower_read(line)
            fill_mask = self._line_mask
        else:
            # fine-granularity designs fetch only the requested sectors
            requests = scheme.lower_read_sectors(line, mask)
            fill_mask = mask
        if not self._can_accept_all(requests):
            return False
        if entry is None:
            self._mshr[line] = _MSHREntry(fill_mask, [callback])
        else:
            entry.pending_mask |= fill_mask
            entry.waiters.append(callback)
        self.stats.demand_fetches += 1
        self._submit_plan(
            requests, partial(self._finish_fetch, core, line, fill_mask),
            core=core,
        )
        return True

    def _finish_fetch(self, core: int, line: int, fill_mask: int) -> None:
        entry = self._mshr.get(line)
        if entry is None:
            waiters = ()
        else:
            waiters = entry.waiters
            entry.pending_mask &= ~fill_mask
            if entry.pending_mask:
                entry.waiters = []
            else:
                del self._mshr[line]
        evictions = self.hierarchy.fill_from_memory(core, line, fill_mask)
        if evictions or self._pending_writebacks:
            self._push_writebacks(evictions)
        for waiter in waiters:
            waiter()

    # -------------------------------------------------------------- gathers

    def issue_gather(
        self, core: int, element_addrs: Sequence[int],
        callback: Callable[[], None],
    ) -> bool:
        """A strided load: one gather fills a sector of each element's
        line.  Designs without stride hardware have none to issue."""
        plan = self.scheme.lower_gather_read(element_addrs)
        if plan is None:
            raise RuntimeError(
                f"scheme {self.scheme.name} cannot lower strided loads; "
                "the lowering should emit Load ops instead"
            )
        if not self._can_accept_all(plan.requests):
            return False
        self.stats.gathers += 1
        if self.plan_observer is not None:
            # after admission: a rejected plan is re-lowered on retry and
            # would otherwise be observed (and validated) twice
            self.plan_observer("read", element_addrs, plan)
        self._submit_plan(
            plan.requests,
            partial(self._finish_gather, core, plan.fills, callback),
            core=core,
        )
        return True

    def _finish_gather(self, core: int, fills: Sequence[Tuple[int, int]],
                       callback: Callable[[], None]) -> None:
        evictions = self.hierarchy.fill_lines_from_memory(core, fills)
        if evictions or self._pending_writebacks:
            self._push_writebacks(evictions)
        callback()

    # --------------------------------------------------------------- stores

    def issue_store_line(self, core: int, line: int) -> bool:
        """A full-line streaming store (INSERT traffic): write directly."""
        requests = self.scheme.lower_write(line)
        if not self._can_accept_all(requests):
            return False
        self.stats.streaming_stores += 1
        self._submit_plan(requests, None, core=core)
        return True

    def issue_gather_store(self, core: int,
                           element_addrs: Sequence[int]) -> bool:
        """A strided store: each element is a whole codeword, written
        without read-modify-write.  Updates any cached copies in place."""
        plan = self.scheme.lower_gather_write(element_addrs)
        if plan is None:
            raise RuntimeError(
                f"scheme {self.scheme.name} cannot lower strided stores; "
                "the lowering should emit Store ops instead"
            )
        if not self._can_accept_all(plan.requests):
            return False
        self.stats.gather_stores += 1
        if self.plan_observer is not None:
            self.plan_observer("write", element_addrs, plan)
        for line, mask in plan.fills:
            # keep caches coherent: update sectors that are resident
            self.hierarchy.write(core, line, mask)
        self._submit_plan(plan.requests, None, core=core)
        return True

    # ----------------------------------------------------------- writebacks

    def _push_writebacks(self, evictions) -> None:
        """Queue the hierarchy's dirty victims and drain what fits."""
        for ev in evictions:
            self._pending_writebacks.append(ev.line_addr)
        self._drain_writebacks()

    def _drain_writebacks(self) -> None:
        while self._pending_writebacks:
            line = self._pending_writebacks[0]
            requests = self.scheme.lower_write(line)
            if not self._can_accept_all(requests):
                self._schedule_writeback_poll()
                return
            self._pending_writebacks.popleft()
            self.stats.writebacks += 1
            self._submit_plan(requests, None)

    def _schedule_writeback_poll(self) -> None:
        if self._writeback_poll_scheduled:
            return
        self._writeback_poll_scheduled = True
        self.kernel.schedule(16, self._writeback_poll)

    def _writeback_poll(self) -> None:
        self.wb_polls += 1
        self._writeback_poll_scheduled = False
        self._drain_writebacks()

    def flush_caches(self) -> None:
        """End-of-run: push every dirty line toward memory."""
        for ev in self.hierarchy.flush_dirty():
            self._pending_writebacks.append(ev.line_addr)
        self._drain_writebacks()

    @property
    def fully_drained(self) -> bool:
        return (
            not self._pending_writebacks
            and self.outstanding_writes == 0
            and self.controller.idle()
        )

    def debug_state(self) -> dict:
        """Occupancy snapshot for stall diagnostics and metrics."""
        return {
            "mshr_lines": len(self._mshr),
            "pending_writebacks": len(self._pending_writebacks),
            "writeback_polls": self.wb_polls,
            "outstanding_writes": self.outstanding_writes,
            "read_queue": len(self.controller.read_queue),
            "write_queue": len(self.controller.write_queue),
            "fully_drained": self.fully_drained,
        }

    # ------------------------------------------------------------ plumbing

    def _can_accept_all(self, requests) -> bool:
        controller = self.controller
        cfg = controller.config
        if len(requests) == 1:
            if requests[0].is_read:
                return len(controller.read_queue) < cfg.read_queue_capacity
            return len(controller.write_queue) < cfg.write_queue_capacity
        reads = 0
        for request in requests:
            if request.is_read:
                reads += 1
        return (
            len(controller.read_queue) + reads <= cfg.read_queue_capacity
            and len(controller.write_queue) + len(requests) - reads
            <= cfg.write_queue_capacity
        )

    def _submit_plan(self, requests,
                     callback: Optional[Callable[[], None]],
                     core: Optional[int] = None) -> None:
        if len(requests) == 1:
            # the common plan: its one completion is the plan's, so it
            # needs no counter
            on_complete = partial(self._request_done, callback)
        else:
            remaining = len(requests)

            def on_complete(request, time) -> None:
                nonlocal remaining
                remaining -= 1
                self._request_done(callback if remaining == 0 else None,
                                   request, time)

        for request in requests:
            request.on_complete = on_complete
            request.source_core = core
            if not request.is_read:
                self.outstanding_writes += 1
            self.controller.submit(request)

    def _request_done(self, callback: Optional[Callable[[], None]],
                      request, _time) -> None:
        """One request of a plan completed; ``callback`` is the plan's
        when this was its last request."""
        if not request.is_read:
            self.outstanding_writes -= 1
        if callback is not None:
            callback()
        if self._pending_writebacks:
            self._drain_writebacks()
