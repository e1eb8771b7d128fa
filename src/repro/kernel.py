"""Discrete-event simulation kernel.

Everything in the reproduction that models time (memory controller, CPU
cores, refresh engine) is driven by one :class:`Kernel`: a priority queue of
``(time, sequence, callback)`` events.  Time is measured in integer memory
controller clock cycles (tCK of the configured device).

The kernel is deliberately minimal -- no processes, coroutines or
cancellation -- because the component state machines schedule their own
wake-ups (a controller supersedes a pending wake-up by scheduling an
earlier one and dropping the stale event when it fires).  This keeps the
hot loop cheap, which matters for a pure-Python cycle-level simulator.

Same-timestamp events run in scheduling order (FIFO by sequence number);
the memory controller's event-wheel equivalence guarantee leans on that
ordering being stable, so it is part of the kernel's contract, not an
implementation detail.  :meth:`Kernel.peek` reports the next deadline.

:attr:`Kernel.events` counts executed callbacks; together with the final
``now`` it yields the run's ``sim.events_per_cycle`` metric.
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Callable, List, Optional, Tuple

#: A queued event: ``(when, seq, callback)``.  ``seq`` is unique, so heap
#: comparisons resolve on the two ints and never reach the callback, and
#: same-timestamp events pop in scheduling order.
Event = Tuple[int, int, Callable[[], None]]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Kernel:
    """A discrete-event scheduler with integer timestamps."""

    def __init__(self) -> None:
        self.now: int = 0
        self._queue: List[Event] = []
        self._seq: int = 0
        #: callbacks executed so far
        self.events: int = 0

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when}, current time is {self.now}"
            )
        heappush(self._queue, (when, self._seq, callback))
        self._seq += 1

    def peek(self) -> Optional[int]:
        """Timestamp of the next event, or None when none is queued."""
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def step(self) -> bool:
        """Run the next event.  Returns False when none is queued."""
        if not self._queue:
            return False
        when, _seq, callback = heapq.heappop(self._queue)
        self.now = when
        self.events += 1
        callback()
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or limits hit).

        Returns the number of events executed.  ``until`` stops the run once
        the next event lies beyond that time (the event is left queued);
        ``max_events`` guards against runaway simulations.
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        while queue:
            if until is not None and queue[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(
                    f"exceeded {max_events} events at t={self.now}"
                )
            # :meth:`step`, inline
            when, _seq, callback = pop(queue)
            self.now = when
            self.events += 1
            callback()
            executed += 1
        return executed
