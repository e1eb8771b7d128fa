"""Host-speed probe: a fixed pure-Python loop timed next to every
simulation.

The benchmark's hosts are shared.  When the machine under it gets busy,
every interpreter on it runs up to ~45% slower, in phases that last from
a second to minutes, so a simulation's CPU time alone cannot tell a
slower simulator from a slower host.  :func:`probe` times a loop that
belongs to the benchmark, not to the simulator, so no change to the
simulator moves it; a simulation's CPU time multiplied by
``REFERENCE_S / probe()`` is its CPU time at the speed of the reference
host.
"""

from __future__ import annotations

import heapq
import time

#: CPU seconds :func:`probe` takes on the reference host, a 2-vCPU Intel
#: Xeon VM in a quiet phase
REFERENCE_S = 0.00285
#: requests the toy scheduler serves per probe
STEPS = 3000
BANKS = 64
ROWS = 97


class _Bank:
    __slots__ = ("row", "ready", "hits")

    def __init__(self) -> None:
        self.row = -1
        self.ready = 0
        self.hits = 0


def _schedule(steps: int) -> int:
    """A toy open-row scheduler: heap-ordered requests to banks and a dict
    of per-(bank, row) counts -- the interpreter work (attribute access,
    heap and dict operations, small-integer arithmetic) the simulator is
    made of."""
    banks = [_Bank() for _ in range(BANKS)]
    queue = [(i, i, (i * 7919) % BANKS, (i * 104729) % ROWS)
             for i in range(BANKS)]
    heapq.heapify(queue)
    opened = {}
    seq = BANKS
    for _ in range(steps):
        when, _, b, row = heapq.heappop(queue)
        bank = banks[b]
        if bank.row == row:
            bank.hits += 1
            delay = 4
        else:
            bank.row = row
            delay = 22
        bank.ready = max(bank.ready, when) + delay
        opened[b, row] = opened.get((b, row), 0) + 1
        seq += 1
        heapq.heappush(queue, (bank.ready, seq, (b * 31 + row) % BANKS,
                               (row * 13 + seq) % ROWS))
    return sum(bank.hits for bank in banks) + len(opened)


def probe() -> float:
    """CPU seconds of one pass of the toy scheduler."""
    start = time.process_time()
    _schedule(STEPS)
    return time.process_time() - start


def speed(samples: int = 1) -> float:
    """The host's speed relative to the reference host: the median of
    ``samples`` probes, as a factor (below 1 on a slower host)."""
    times = sorted(probe() for _ in range(samples))
    return REFERENCE_S / times[len(times) // 2]
