"""A run's numbers: one flat, name-sorted dict, and its one histogram.

The cycle-level hot loops accumulate into plain dataclass fields
(``CommandStats``, ``SystemStats``, the core counters) and plain ints
(the scheduler's ``peek_hits``, the timing checker's ``commands_seen``)
because attribute increments are the cheapest thing pure Python can do.
Where a run ends, the runner gathers them into ``RunResult.metrics``
under stable, namespaced names (``dram.reads``, ``core.hits``,
``sim.cycles`` ...).  That dict feeds the run manifest, ``query --stats``
and perfbench's counters.  The power model and the figure harnesses read
the run's own fields instead (``RunResult.cycles``, ``power``,
``memory_stats``, ``stalls``).

The one distribution a run observes as it goes, the DRAM read latency,
is a :class:`Histogram`.  Its fixed upper bounds are chosen at creation
time so ``observe`` is one binary search with no allocation; it is cheap
enough to leave on by default (one observation per DRAM read, not per
kernel event).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields
from typing import Dict, Mapping, Sequence


class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts values ``<= bounds[i]``,
    with one implicit overflow bucket at the end."""

    __slots__ = ("name", "bounds", "counts", "total", "sum")

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Count ``value`` (a number, not NaN) in the bucket of the first
        bound >= it, else in the overflow bucket."""
        self.total += 1
        self.sum += value
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, object]:
        buckets = {f"le_{b:g}": c
                   for b, c in zip(self.bounds, self.counts)}
        buckets["overflow"] = self.counts[-1]
        return {
            "type": "histogram",
            "total": self.total,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.total})"


def struct_metrics(prefix: str, struct: object) -> Dict[str, object]:
    """``<prefix>.<field>`` -> value for every numeric field of a stats
    dataclass (bools and non-numbers are skipped)."""
    out: Dict[str, object] = {}
    for f in fields(struct):
        value = getattr(struct, f.name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[f"{prefix}.{f.name}"] = value
    return out


def render_metrics(metrics: Mapping[str, object]) -> str:
    """Aligned ``name  value`` table of a run's metrics in name order,
    for the terminal."""
    if not metrics:
        return "(no metrics)"
    rows = []
    for name, value in sorted(metrics.items()):
        if isinstance(value, dict):  # histogram
            rows.append(
                (name, f"n={value['total']} mean={value['mean']:.1f}")
            )
        elif isinstance(value, float):
            rows.append((name, f"{value:.6g}"))
        else:
            rows.append((name, str(value)))
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name.ljust(width)}  {val}" for name, val in rows)
