"""Phase-span profiler: nested time spans over a simulation run.

A :class:`SpanProfiler` tags the phases of a run (allocate -> build ->
execute -> flush/drain) with nested :class:`Span` records.  Every span
carries *two* clocks:

* host wall-time (``perf_counter``), which is what the allocate/build
  phases consume, and
* the simulated kernel clock in memory cycles (via the profiler's
  ``clock`` callable), which is what the execute/drain phases consume.

Synthetic spans can be attached after the fact (per-core activity and
per-bank busy windows are only known once the run finishes) with
:meth:`SpanProfiler.add`.  :meth:`SpanProfiler.render` prints a
flamegraph-style indented text summary; :meth:`Span.to_dict` feeds the
JSON run manifest.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional


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


class SpanProfiler:
    """Builds a span tree; also usable as plain begin/end bracket pairs."""

    def __init__(self, clock: Optional[Callable[[], int]] = None) -> None:
        #: returns the current simulated time; swap in ``kernel.now`` once
        #: a kernel exists (spans opened earlier read cycle 0).
        self.clock: Callable[[], int] = clock or (lambda: 0)
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------ recording

    def begin(self, name: str, **meta: object) -> Span:
        span = Span(
            name,
            start_cycle=self.clock(),
            wall_start=time.perf_counter(),
            meta=meta,
        )
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Optional[Span] = None) -> None:
        if not self._stack:
            raise RuntimeError("no open span to end")
        top = self._stack.pop()
        if span is not None and span is not top:
            raise RuntimeError(
                f"span nesting error: closing {span.name!r} "
                f"but {top.name!r} is open"
            )
        top.end_cycle = self.clock()
        top.wall_end = time.perf_counter()

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[Span]:
        opened = self.begin(name, **meta)
        try:
            yield opened
        finally:
            self.end(opened)

    def add(
        self,
        parent: Span,
        name: str,
        start_cycle: int,
        end_cycle: int,
        **meta: object,
    ) -> Span:
        """Attach a synthetic (cycles-only) span under ``parent``, e.g. a
        per-bank busy window reconstructed after the run."""
        span = Span(name, start_cycle=start_cycle, end_cycle=end_cycle,
                    meta=meta)
        parent.children.append(span)
        return span

    # ------------------------------------------------------------- reading

    @property
    def root(self) -> Optional[Span]:
        return self.roots[0] if self.roots else None

    def to_dict(self) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.roots]

    def render(self, width: int = 32) -> str:
        """Flamegraph-style text: indentation is depth, bar length is the
        span's share of its root (wall time when known, cycles for
        synthetic spans)."""
        if not self.roots:
            return "(no spans)"
        lines = [
            f"{'span'.ljust(34)} {'share'.ljust(width)}"
            f" {'wall':>9} {'cycles':>12}"
        ]

        def frac_of(span: Span, root: Span) -> float:
            if span.wall_start is not None and root.wall_s > 0:
                return span.wall_s / root.wall_s
            if root.cycles > 0:
                return span.cycles / root.cycles
            return 0.0

        def visit(span: Span, root: Span, depth: int) -> None:
            frac = min(1.0, frac_of(span, root))
            bar = "#" * int(round(frac * width))
            label = ("  " * depth + span.name)[:34]
            wall = f"{span.wall_s * 1e3:8.1f}ms" if span.wall_start \
                else " " * 10
            lines.append(
                f"{label.ljust(34)} {bar.ljust(width)}"
                f" {wall:>9} {span.cycles:>12}"
            )
            for child in span.children:
                visit(child, root, depth + 1)

        for root in self.roots:
            visit(root, root, 0)
        return "\n".join(lines)
