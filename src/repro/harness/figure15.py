"""Figure 15: parametric arithmetic/aggregate query sweeps.

Nine panels; all normalized to the row-store baseline, with the "ideal"
series being the better of the row store and the column store per point:

(a)-(c) arithmetic query, selectivity sweep at 8 / 64 / 128 projected fields
(d)-(f) arithmetic query, projectivity sweep at 10% / 50% / 100% selected
(g)     aggregate query, selectivity sweep at 8 projected fields
(h)     aggregate query, projectivity sweep at 100% selected
(i)     record-size sweep at 100% projectivity and selectivity

``FIG15_PANELS`` holds each panel as data: its query family, swept axis
and fixed value.  The chosen panels are one
:class:`~repro.exp.ExperimentSpec` keyed ``(series, query name)``, so a
run that two panels plot (panel (a)'s 10% point is panel (d)'s 8-field
point) is one sweep point, simulated once, and :func:`run_figure15`
shapes every panel from that one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exp import (ExperimentSpec, SweepEngine, TableSpec, design_points,
                   standard_tables)
from ..imdb.queries import aggregate_query, arithmetic_query
from ..imdb.query import Predicate, SelectQuery
from ..imdb.schema import FIELD_BYTES
from ..workloads import QueryWorkload

#: The representative designs of Figure 15.
FIG15_DESIGNS = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en")

#: sweep axes (paper: 10%..100% selectivity; 4..128 fields projected)
SELECTIVITIES = (0.1, 0.25, 0.5, 0.75, 1.0)
PROJECTIVITIES = (4, 8, 16, 32, 64, 128)
RECORD_FIELDS = (2, 8, 32, 128, 512, 1024)  # 16B .. 8KB records

#: The nine panels: key -> (query family, swept axis, fixed value).  A
#: selectivity sweep fixes the fields projected, the others the
#: fraction of records selected.
FIG15_PANELS: Dict[str, Tuple[str, str, float]] = {
    "a": ("arithmetic", "selectivity", 8),
    "b": ("arithmetic", "selectivity", 64),
    "c": ("arithmetic", "selectivity", 128),
    "d": ("arithmetic", "projectivity", 0.10),
    "e": ("arithmetic", "projectivity", 0.50),
    "f": ("arithmetic", "projectivity", 1.00),
    "g": ("aggregate", "selectivity", 8),
    "h": ("aggregate", "projectivity", 1.00),
    # panel (i) holds its table footprint constant instead of sizing Ta
    "i": ("arithmetic", "record size", 1.00),
}


@dataclass
class SweepResult:
    """One panel: x-axis values -> {design -> speedup}."""

    panel: str
    xlabel: str
    points: Dict[object, Dict[str, float]] = field(default_factory=dict)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure15-panel",
            "panel": self.panel,
            "xlabel": self.xlabel,
            "points": {str(x): per for x, per in self.points.items()},
        }

    def render(self) -> str:
        designs = list(next(iter(self.points.values())))
        lines = [f"== {self.panel} ({self.xlabel})"]
        lines.append(
            "x".rjust(8) + "".join(d.rjust(14) for d in designs)
        )
        for x, per in self.points.items():
            lines.append(
                f"{x!s:>8}" + "".join(f"{per[d]:14.2f}" for d in designs)
            )
        return "\n".join(lines)


@dataclass
class Figure15Result:
    """The chosen panels by key, in the order they were asked for."""

    panels: Dict[str, SweepResult] = field(default_factory=dict)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure15",
            "panels": {key: p.payload() for key, p in self.panels.items()},
        }

    def render(self) -> str:
        return "\n\n".join(p.render() for p in self.panels.values())


def _record_size_workload(fields: int, selectivity: float,
                          n_bytes_total: int) -> QueryWorkload:
    """Panel (i)'s query over every field of ``fields``-field records.

    The table footprint stays ``n_bytes_total`` (fewer records as they
    grow); table data is deterministic in (schema, records, seed), so
    worker processes rebuild identical tables.
    """
    n_records = max(8, n_bytes_total // (fields * FIELD_BYTES))
    query = SelectQuery(f"Arith[rs={fields}]", "Ta", tuple(range(fields)),
                        Predicate.where(0, "<", selectivity))
    return QueryWorkload(query=query, tables=(
        TableSpec("Ta", fields, n_records, 3), TableSpec("Tb", 16, 64, 4),
    ))


def _panel(key: str, n_ta: int, designs: Sequence[str], n_bytes_total: int
           ) -> Tuple[SweepResult, Tuple[str, ...], List[tuple]]:
    """Panel ``key`` before shaping: its empty result, the series it
    plots and its ``(x, workload)`` pairs."""
    family, axis, fixed = FIG15_PANELS[key]
    maker = aggregate_query if family == "aggregate" else arithmetic_query
    tables = standard_tables(n_ta, 64)
    series = ("baseline", "column-store", *designs)
    if axis == "selectivity":
        return (SweepResult(f"{family}, {fixed} fields projected", axis),
                series,
                [(sel, QueryWorkload(query=maker(fixed, sel), tables=tables))
                 for sel in SELECTIVITIES])
    if axis == "projectivity":
        return (SweepResult(f"{family}, {fixed:.0%} records selected",
                            "fields projected"),
                series,
                [(proj, QueryWorkload(query=maker(proj, fixed), tables=tables))
                 for proj in PROJECTIVITIES])
    # the row store is ideal at 100% projectivity and selectivity
    return (SweepResult(f"{family}, all fields projected, {fixed:.0%} "
                        "selected", "record size (8B)"),
            ("baseline", *designs),
            [(fields, _record_size_workload(fields, fixed, n_bytes_total))
             for fields in RECORD_FIELDS])


def build_figure15_spec(
    panels: Sequence[str] = tuple(FIG15_PANELS),
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    n_bytes_total: int = 1 << 20,
) -> ExperimentSpec:
    """The chosen panels as data: a point per (series, query), keyed
    ``(series, workload.name)``, so a run several panels plot is one
    point.  ``n_bytes_total`` is panel (i)'s table footprint."""
    points = {}
    for key in panels:
        _, series, axis = _panel(key, n_ta, designs, n_bytes_total)
        for point in design_points(series, [w for _, w in axis]):
            points.setdefault(point.key, point)
    return ExperimentSpec("figure15", tuple(points.values()),
                          normalize="divide by baseline cycles per query")


def run_figure15(
    panels: Sequence[str] = tuple(FIG15_PANELS),
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    n_bytes_total: int = 1 << 20,
    engine: Optional[SweepEngine] = None,
) -> Figure15Result:
    """Regenerate the chosen panels of Figure 15 from one sweep.

    ``engine`` chooses parallelism and caching; the default runs
    serially without a cache.
    """
    engine = engine or SweepEngine()
    run = engine.run(build_figure15_spec(panels, n_ta, designs,
                                         n_bytes_total))
    result = Figure15Result()
    for key in panels:
        panel, series, axis = _panel(key, n_ta, designs, n_bytes_total)
        speedups = run.speedups(series[1:], [w.name for _, w in axis])
        column = speedups.get("column-store")
        for x, workload in axis:
            per = {d: speedups[d][workload.name] for d in designs}
            # ideal: the better of the row store and the column store
            per["ideal"] = max(1.0, column[workload.name]) if column else 1.0
            panel.points[x] = per
        result.panels[key] = panel
    return result
