"""Run-result containers shared by the runner and the harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from ..dram.controller import CommandStats
from ..power.model import PowerBreakdown

if TYPE_CHECKING:  # pragma: no cover
    from ..imdb.plan import PhysicalPlan
    from ..obs.spans import Span
    from .config import SystemConfig


@dataclass
class RunResult:
    """Outcome of one (scheme, query) simulation."""

    scheme: str
    query: str
    cycles: int
    ns: float
    memory_stats: CommandStats
    power: PowerBreakdown
    result: object
    selected_records: int = 0
    core_stats: Dict[str, int] = field(default_factory=dict)
    bus_utilization: float = 0.0
    #: every number of the run, name-sorted (flat name -> value or
    #: histogram dict); the machine-readable face of the fields above
    metrics: Dict[str, object] = field(default_factory=dict)
    #: root of the phase-span tree recorded during the run
    spans: "Optional[Span]" = None
    #: stall attribution: {"per_core": {id: {reason: cycles}},
    #: "merged": {reason: cycles}} (see repro.obs.stalls)
    stalls: Optional[Dict] = None
    #: the SystemConfig the run used (for the run manifest)
    config: "Optional[SystemConfig]" = None
    #: the physical plan the planner chose for this run
    plan: "Optional[PhysicalPlan]" = None

    def manifest(self, extra: Optional[Dict] = None) -> Dict[str, object]:
        """The JSON run-manifest payload for this result."""
        from ..obs.artifacts import build_run_manifest

        return build_run_manifest(self, extra=extra)

    @property
    def seconds(self) -> float:
        return self.ns * 1e-9

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (same query)."""
        if self.cycles <= 0:
            raise ValueError("run did not execute")
        return baseline.cycles / self.cycles

    def energy_efficiency_over(self, baseline: "RunResult") -> float:
        """Relative energy efficiency: baseline energy / this energy."""
        mine = self.power.total_nj
        theirs = baseline.power.total_nj
        if mine <= 0:
            raise ValueError("no energy recorded")
        return theirs / mine
