"""Metrics registry: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` per run holds every number a simulation
produces under a stable, namespaced name.  The cycle-level hot loops keep
accumulating into their plain dataclass fields (``CommandStats``,
``SystemStats``, the core counters) because attribute increments are the
cheapest thing pure Python can do; at the end of a run the runner
*publishes* those structs into the registry (``dram.reads``,
``core.hits``, ``sim.cycles`` ...).  The registry feeds the run manifest
(``RunResult.metrics``), ``query --stats`` and perfbench's counters.  The
power model and the figure harnesses read the run's own fields instead
(``RunResult.cycles``, ``power``, ``memory_stats``, ``stalls``), and the
sweep engine counts its points in a registry of its own.

Histograms use fixed upper bounds chosen at creation time so ``observe``
is one binary search with no allocation; they are cheap enough to leave on
by default (one observation per DRAM column command, not per kernel
event).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields, is_dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


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

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding the
        q-th observation (the last finite bound for the overflow bucket)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.total:
            return 0.0
        rank = q * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return float(
                    self.bounds[min(i, len(self.bounds) - 1)]
                )
        return float(self.bounds[-1])

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


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Name -> metric store with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------ accessors

    def _get_or_create(self, name: str, kind: type, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float]) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def set_ratio(self, name: str, numerator: float,
                  denominator: float) -> Gauge:
        """Gauge ``name`` set to ``numerator / denominator`` (0 when the
        denominator is 0).  For derived rates like events-per-simulated-
        cycle, where a bare division would need a guard at every call
        site."""
        gauge = self.gauge(name)
        gauge.set(numerator / denominator if denominator else 0.0)
        return gauge

    # -------------------------------------------------------------- reading

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (histograms return their mean)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.mean
        return metric.value

    def as_dict(self) -> Dict[str, object]:
        """Flat snapshot: scalars for counters/gauges, dicts for
        histograms.  This is what lands in run manifests."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = metric.as_dict()
            else:
                out[name] = metric.value
        return out

    # ------------------------------------------------------------ publishing

    def publish_struct(self, prefix: str, struct: object) -> None:
        """Publish every numeric field of a stats dataclass (or mapping)
        as ``<prefix>.<field>`` counters."""
        if is_dataclass(struct) and not isinstance(struct, type):
            items = [(f.name, getattr(struct, f.name))
                     for f in fields(struct)]
        elif isinstance(struct, Mapping):
            items = list(struct.items())
        else:
            raise TypeError(f"cannot publish {type(struct).__name__}")
        for key, value in items:
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            self.counter(f"{prefix}.{key}").inc(value)

    def render(self) -> str:
        """Aligned ``name  value`` table for terminal output."""
        if not self._metrics:
            return "(no metrics)"
        rows = []
        for name, value in self.as_dict().items():
            if isinstance(value, dict):  # histogram
                rows.append(
                    (name, f"n={value['total']} mean={value['mean']:.1f}")
                )
            elif isinstance(value, float):
                rows.append((name, f"{value:.6g}"))
            else:
                rows.append((name, str(value)))
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {val}"
                         for name, val in rows)
