"""Unified observability layer.

One :class:`Observation` bundles everything a run can record:

* an always-on :class:`~repro.obs.metrics.Histogram` of DRAM read
  latencies, which lands in the run's metrics dict beside the counts the
  runner gathers where the run ends,
* an always-on ring buffer of the last issued DRAM commands (stall
  forensics),
* an always-on :class:`~repro.obs.stalls.StallAttributor` that overlays
  the controller's wait ledger on each core's own stall log, accounting
  every core cycle to busy / a stall-taxonomy reason,
* an optional :class:`~repro.obs.timeline.TimelineRecorder` capturing
  the full command/row/bus/refresh timeline for Perfetto export and
  command-level analysis,
* an optional artifacts directory where the run manifest (and timeline
  exports) are written as JSON / JSONL.

The observation is itself a memory-controller probe (see
:meth:`~repro.dram.controller.MemoryController.attach`): its probe
methods *are* the ring append, the stall ledger's ``note`` and the
read-latency histogram's ``observe``, so the default run adds no
wrapper call per event.  ``run_query(..., observe=Observation(...))``
threads the bundle through the stack; calling ``run_query`` with no
observation still gets the full metrics dict and the stall ring.  The runner
wires every recorder onto the run it builds and returns the run's phase
:class:`~repro.obs.spans.Span` tree on the result (``result.spans``).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import List, Optional, Tuple

from .artifacts import (
    MANIFEST_SCHEMA_VERSION,
    ArtifactWriter,
    build_run_manifest,
    git_describe,
    to_jsonable,
)
from .diagnostics import (
    RECENT_EVENTS,
    SimulationStallError,
    StallReport,
    build_stall_report,
)
from .metrics import Histogram, render_metrics
from .spans import Span
from .stalls import (
    STALL_REASONS,
    StallAttributor,
    merge_breakdown,
    render_stall_report,
)
from .timeline import (
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    validate_chrome_trace,
)

__all__ = [
    "ArtifactWriter",
    "Histogram",
    "MANIFEST_SCHEMA_VERSION",
    "Observation",
    "RECENT_EVENTS",
    "STALL_REASONS",
    "SimulationStallError",
    "Span",
    "StallAttributor",
    "StallReport",
    "TIMELINE_SCHEMA_VERSION",
    "TimelineRecorder",
    "build_run_manifest",
    "build_stall_report",
    "git_describe",
    "merge_breakdown",
    "render_metrics",
    "render_stall_report",
    "to_jsonable",
    "validate_chrome_trace",
]


#: Read-latency histogram buckets (memory-controller cycles).
_LATENCY_BUCKETS = (24, 32, 48, 64, 96, 128, 192, 256, 512, 1024)


class Observation:
    """Instrumentation bundle for one ``run_query`` invocation, attached
    to the run's memory controller as a probe."""

    def __init__(
        self,
        artifacts_dir: "Optional[str | Path]" = None,
        ring_size: int = RECENT_EVENTS,
        timeline: bool = False,
    ) -> None:
        #: request a TimelineRecorder (the runner attaches it as a second
        #: probe); off by default
        self.timeline = timeline
        self.timeline_recorder = None  # set by the runner when timeline=True
        #: always-on cycle accounting: the controller's waits, overlaid
        #: on each core's busy/blocked log -> the per-run stall breakdown
        self.stalls = StallAttributor()
        self.artifacts_dir = artifacts_dir
        #: last-N issued commands, always on, for stall forensics
        self.ring: "deque[Tuple[int, str, int, int, int]]" = deque(
            maxlen=ring_size
        )
        #: manifest path once artifacts were written
        self.manifest_path: Optional[Path] = None
        #: every served read's latency, published as
        #: ``dram.read_latency_cycles``
        self.read_latency = Histogram("dram.read_latency_cycles",
                                      _LATENCY_BUCKETS)
        # probe methods bound straight to their sinks (no wrapper call)
        self.on_wait = self.stalls.ledger.note
        self.on_read_latency = self.read_latency.observe
        self._claimed = False

    def claim(self) -> None:
        """Take this observation for one run; a second run raises, as its
        numbers would add onto the first run's."""
        if self._claimed:
            raise ValueError("an Observation records one run; pass a "
                             "fresh one to each run")
        self._claimed = True

    # Probe method: one tuple append per DRAM command (commands are
    # orders of magnitude rarer than kernel events).  The ring keeps the
    # command's name, read as ``_value_``: ``.value`` is a Python-level
    # descriptor.
    def on_command(self, cycle, command, request, *, rank=None, bank=None,
                   subarray=None, implicit=False) -> None:
        if request is not None:
            self.ring.append((
                cycle, command._value_, request.addr.rank,
                request.addr.bank, request.addr.row,
            ))
        else:
            self.ring.append((
                cycle, command._value_,
                -1 if rank is None else rank,
                -1 if bank is None else bank,
                -1,
            ))

    def recent_events(self, n: int = RECENT_EVENTS) -> List[Tuple]:
        """Last-``n`` commands from the ring."""
        return list(self.ring)[-n:]
