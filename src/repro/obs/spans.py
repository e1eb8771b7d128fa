"""Phase spans: the nested time intervals of one simulation run.

The runner tags the phases of a run (allocate -> build -> execute ->
flush/drain) with nested :class:`Span` records under one root.  A phase
span carries *two* clocks:

* host wall-time (``perf_counter``), which is what the allocate/build
  phases consume, and
* the simulated kernel clock in memory cycles, which is what the
  execute/drain phases consume.

Per-core activity and per-bank busy windows are only known once the run
finishes; the runner adds them under ``execute`` as cycles-only spans.
:meth:`Span.render` prints a flamegraph-style indented text summary;
:meth:`Span.to_dict` feeds the JSON run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    """One named interval, possibly with children."""

    name: str
    start_cycle: int = 0
    end_cycle: Optional[int] = None
    wall_start: Optional[float] = None
    wall_end: Optional[float] = None
    meta: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def cycles(self) -> int:
        if self.end_cycle is None:
            return 0
        return max(0, self.end_cycle - self.start_cycle)

    @property
    def wall_s(self) -> float:
        if self.wall_start is None or self.wall_end is None:
            return 0.0
        return max(0.0, self.wall_end - self.wall_start)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "cycles": self.cycles,
            "wall_s": self.wall_s,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def render(self, width: int = 32) -> str:
        """Flamegraph-style text: indentation is depth, bar length is a
        span's share of this one (wall time when known, cycles for
        cycles-only spans)."""
        lines = [
            f"{'span'.ljust(34)} {'share'.ljust(width)}"
            f" {'wall':>9} {'cycles':>12}"
        ]

        def visit(span: Span, depth: int) -> None:
            if span.wall_start is not None and self.wall_s > 0:
                frac = span.wall_s / self.wall_s
            elif self.cycles > 0:
                frac = span.cycles / self.cycles
            else:
                frac = 0.0
            bar = "#" * int(round(min(1.0, frac) * width))
            label = ("  " * depth + span.name)[:34]
            wall = f"{span.wall_s * 1e3:8.1f}ms" if span.wall_start \
                else " " * 10
            lines.append(
                f"{label.ljust(34)} {bar.ljust(width)}"
                f" {wall:>9} {span.cycles:>12}"
            )
            for child in span.children:
                visit(child, depth + 1)

        visit(self, 0)
        return "\n".join(lines)
