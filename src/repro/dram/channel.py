"""Per-channel shared-resource state: the command bus (one command per
cycle) and the data bus (one burst at a time, with rank-switch and
read/write-turnaround bubbles)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .commands import RD, Command, RequestType
from .geometry import Geometry
from .rank import RankState
from .timing import TimingParams

#: (rank, req_type) of the last burst on a pin group, for bubble insertion
_LastBurst = Optional[Tuple[int, RequestType]]


@dataclass
class ChannelState:
    """Timing state of one channel."""

    timing: TimingParams
    geometry: Geometry
    salp: str = "none"
    ranks: List[RankState] = field(default_factory=list)
    next_command: int = 0  # command bus: one command per cycle
    data_free: int = 0  # first cycle the full-width data bus is free
    last_full: _LastBurst = None
    #: sub-bus (pin-group) occupancy for fine-granularity (AGMS/DGMS)
    #: transfers: subrank -> first free cycle.  The key is the *physical*
    #: pin group, not (rank, subrank): both ranks drive the same quarter
    #: of the channel pins for a given sub-rank index, so sub-rank
    #: transfers from different ranks but the same sub-rank serialize,
    #: while transfers on different pin groups overlap; a full-width
    #: transfer must wait for every sub-bus and vice versa.
    subbus_free: Dict[int, int] = field(default_factory=dict)
    #: last burst per pin group, for per-group tRTR/tRTW bubbles
    subbus_last: Dict[int, _LastBurst] = field(default_factory=dict)
    #: the ``on_data_burst`` methods of the controller's attached probes,
    #: each called as ``(now, cmd, rank, subrank, data_start, data_end)``
    #: on every CAS (set by :meth:`MemoryController.attach`)
    burst_probes: Tuple[Callable, ...] = ()
    # Statistics.  Bus occupancy is integrated in *sub-bus* units so that
    # concurrent sub-rank transfers cannot sum past the physical pin
    # count: a full-width burst books ``subranks * tBL`` units, a
    # sub-rank burst ``tBL`` (its pin fraction times the full duration).
    data_busy_subbus_cycles: int = 0
    commands_issued: int = 0

    def __post_init__(self) -> None:
        #: sub-bus units a full-width burst books
        self._full_burst_units = self.timing.tBL * self.geometry.subranks
        if not self.ranks:
            self.ranks = [
                RankState(self.timing, self.geometry, salp=self.salp)
                for _ in range(self.geometry.ranks)
            ]

    @property
    def data_busy_cycles(self) -> float:
        """Full-bus-equivalent busy cycles.  A sub-rank transfer counts at
        its pin fraction, so the total never exceeds elapsed cycles."""
        return self.data_busy_subbus_cycles / self.geometry.subranks

    def _gap_after(self, last: _LastBurst, rank: int,
                   req_type: RequestType) -> int:
        """Bubble between a previous burst and one from (rank, req_type)."""
        if last is None:
            return 0
        t = self.timing
        gap = 0
        if last[0] != rank and t.tRTR > gap:
            gap = t.tRTR
        if last[1] is not req_type and t.tRTW > gap:
            gap = t.tRTW
        return gap

    def earliest_cas_for_bus(
        self, cmd: Command, rank: int, req_type: RequestType,
        subrank: Optional[int] = None,
    ) -> int:
        """Earliest CAS issue time such that its data burst fits the bus.

        A read's data occupies ``[t+CL, t+CL+tBL)``; a write's
        ``[t+CWL, t+CWL+tBL)``.  Bubbles: tRTR when the burst comes from a
        different rank than the previous one *on the same pins*, tRTW when
        those pins turn from reads to writes or back.  Sub-rank transfers
        only conflict with their own pin group (and any full-width
        transfer in flight).
        """
        t = self.timing
        latency = t.CL if cmd is RD else t.CWL
        gap_after = self._gap_after
        last = self.subbus_last
        earliest_data = self.data_free + gap_after(self.last_full, rank,
                                                   req_type)
        if subrank is None:
            for group, end in self.subbus_free.items():
                data = end + gap_after(last.get(group), rank, req_type)
                if data > earliest_data:
                    earliest_data = data
        else:
            data = (self.subbus_free.get(subrank, 0)
                    + gap_after(last.get(subrank), rank, req_type))
            if data > earliest_data:
                earliest_data = data
        earliest = earliest_data - latency
        return earliest if earliest > 0 else 0

    def issue_cas(self, now: int, cmd: Command, rank: int,
                  req_type: RequestType,
                  subrank: Optional[int] = None) -> int:
        """Record a CAS issue; returns the cycle its data transfer ends."""
        t = self.timing
        latency = t.CL if cmd is RD else t.CWL
        data_start = now + latency
        data_end = data_start + t.tBL
        if subrank is None:
            self.data_free = data_end
            self.last_full = (rank, req_type)
            self.data_busy_subbus_cycles += self._full_burst_units
        else:
            self.subbus_free[subrank] = data_end
            self.subbus_last[subrank] = (rank, req_type)
            # fractional width, full duration: one sub-bus worth of pins
            self.data_busy_subbus_cycles += t.tBL
        for probe in self.burst_probes:
            probe(now, cmd, rank, subrank, data_start, data_end)
        return data_end

    def occupy_command_bus(self, now: int) -> None:
        self.next_command = now + 1
        self.commands_issued += 1
