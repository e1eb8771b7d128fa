"""Figure 15: parametric arithmetic/aggregate query sweeps.

Nine panels; all normalized to the row-store baseline, with the "ideal"
series being the better of the row store and the column store per point:

(a)-(c) arithmetic query, selectivity sweep at 8 / 64 / 128 projected fields
(d)-(f) arithmetic query, projectivity sweep at 10% / 50% / 100% selected
(g)     aggregate query, selectivity sweep at 8 projected fields
(h)     aggregate query, projectivity sweep at 100% selected
(i)     record-size sweep at 100% projectivity and selectivity

Each panel is one :class:`~repro.exp.ExperimentSpec` -- the keys are
``(series, x)`` pairs over the panel's x-axis -- and ``FIG15_PANELS``
maps each panel key to its runner.  ``repro figure15`` runs the chosen
panels on one :class:`~repro.exp.SweepEngine`, so a whole figure sweeps
in parallel and caches as a unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Optional, Sequence

from ..exp import (
    ExperimentSpec,
    SweepEngine,
    SweepPoint,
    TableSpec,
    standard_tables,
)
from ..imdb.queries import aggregate_query, arithmetic_query
from ..imdb.query import Predicate, SelectQuery
from ..workloads import QueryWorkload

#: The representative designs of Figure 15.
FIG15_DESIGNS = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en")

#: sweep axes (paper: 10%..100% selectivity; 4..128 fields projected)
SELECTIVITIES = (0.1, 0.25, 0.5, 0.75, 1.0)
PROJECTIVITIES = (4, 8, 16, 32, 64, 128)
RECORD_FIELDS = (2, 8, 32, 128, 512, 1024)  # 16B .. 8KB records


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


def _panel_spec(name: str, series: Sequence[str], axis,
                x_name: str) -> ExperimentSpec:
    """One panel as data: a point per (series, x), x-major and keyed
    ``(series, str(x))``; ``axis`` pairs each x value with its workload."""
    return ExperimentSpec(name, tuple(
        SweepPoint(key=(s, str(x)), scheme=s, workload=workload)
        for x, workload in axis
        for s in series
    ), normalize=f"divide by baseline cycles per {x_name}")


def _shape_panel(run, panel: SweepResult, xs: Sequence[object],
                 designs: Sequence[str]) -> SweepResult:
    """Speedups vs baseline; ideal = best of row store and column store."""
    names = [str(x) for x in xs]
    speedups = run.speedups(designs, names)
    cycles = run.table(["baseline", "column-store"], names)
    for x, name in zip(xs, names):
        per = {design: speedups[design][name] for design in designs}
        row, col = cycles["baseline"][name], cycles["column-store"][name]
        per["ideal"] = row / min(row, col)
        panel.points[x] = per
    return panel


def build_selectivity_spec(
    projected: int,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    selectivities: Sequence[float] = SELECTIVITIES,
    aggregate: bool = False,
) -> ExperimentSpec:
    """Panels (a)-(c)/(g) as data: vary selectivity at fixed projectivity."""
    maker = aggregate_query if aggregate else arithmetic_query
    kind = "aggregate" if aggregate else "arithmetic"
    tables = standard_tables(n_ta, 64)
    return _panel_spec(
        f"figure15-sel-{kind}-p{projected}",
        ("baseline", "column-store", *designs),
        [(sel, QueryWorkload(query=maker(projected, sel), tables=tables))
         for sel in selectivities],
        "selectivity",
    )


def run_selectivity_sweep(
    projected: int,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    selectivities: Sequence[float] = SELECTIVITIES,
    aggregate: bool = False,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panels (a)-(c) and (g): vary selectivity at fixed projectivity."""
    engine = engine or SweepEngine()
    run = engine.run(build_selectivity_spec(
        projected, n_ta, designs, selectivities, aggregate
    ))
    kind = "aggregate" if aggregate else "arithmetic"
    panel = SweepResult(
        f"{kind}, {projected} fields projected", "selectivity"
    )
    return _shape_panel(run, panel, selectivities, designs)


def build_projectivity_spec(
    selectivity: float,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    projectivities: Sequence[int] = PROJECTIVITIES,
    aggregate: bool = False,
) -> ExperimentSpec:
    """Panels (d)-(f)/(h) as data: vary projectivity at fixed selectivity."""
    maker = aggregate_query if aggregate else arithmetic_query
    kind = "aggregate" if aggregate else "arithmetic"
    tables = standard_tables(n_ta, 64)
    return _panel_spec(
        f"figure15-proj-{kind}-s{selectivity:g}",
        ("baseline", "column-store", *designs),
        [(proj, QueryWorkload(query=maker(proj, selectivity), tables=tables))
         for proj in projectivities],
        "projectivity",
    )


def run_projectivity_sweep(
    selectivity: float,
    n_ta: int = 1024,
    designs: Sequence[str] = FIG15_DESIGNS,
    projectivities: Sequence[int] = PROJECTIVITIES,
    aggregate: bool = False,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panels (d)-(f) and (h): vary projectivity at fixed selectivity."""
    engine = engine or SweepEngine()
    run = engine.run(build_projectivity_spec(
        selectivity, n_ta, designs, projectivities, aggregate
    ))
    kind = "aggregate" if aggregate else "arithmetic"
    panel = SweepResult(
        f"{kind}, {selectivity:.0%} records selected", "fields projected"
    )
    return _shape_panel(run, panel, projectivities, designs)


def build_record_size_spec(
    n_bytes_total: int = 1 << 20,
    designs: Sequence[str] = FIG15_DESIGNS,
    record_fields: Sequence[int] = RECORD_FIELDS,
) -> ExperimentSpec:
    """Panel (i) as data: vary record size at constant table footprint.

    Each x-axis value carries its *own* table recipes (fewer records as
    they grow); table data is deterministic in (schema, records, seed),
    so worker processes rebuild identical tables.
    """
    axis = []
    for fields in record_fields:
        ta = TableSpec("Ta", fields, 1, 3)  # for record_bytes only
        n_records = max(8, n_bytes_total // ta.schema.record_bytes)
        tables = (
            TableSpec("Ta", fields, n_records, 3),
            TableSpec("Tb", 16, 64, 4),
        )
        query = SelectQuery(
            f"Arith[rs={fields}]",
            "Ta",
            tuple(range(fields)),
            Predicate.where(0, "<", 1.0),
        )
        axis.append((fields, QueryWorkload(query=query, tables=tables)))
    return _panel_spec("figure15-record-size", ("baseline", *designs),
                       axis, "record size")


def run_record_size_sweep(
    n_bytes_total: int = 1 << 20,
    designs: Sequence[str] = FIG15_DESIGNS,
    record_fields: Sequence[int] = RECORD_FIELDS,
    engine: Optional[SweepEngine] = None,
) -> SweepResult:
    """Panel (i): vary record size at 100% projectivity and selectivity.

    The table footprint is held constant (fewer records as they grow),
    matching the paper's fixed-table-size sweep.
    """
    engine = engine or SweepEngine()
    run = engine.run(build_record_size_spec(
        n_bytes_total, designs, record_fields
    ))
    panel = SweepResult(
        "arithmetic, all fields projected, 100% selected", "record size (8B)"
    )
    speedups = run.speedups(designs, [str(f) for f in record_fields])
    for fields in record_fields:
        point = {design: speedups[design][str(fields)] for design in designs}
        point["ideal"] = 1.0  # row store is ideal at 100%/100%
        panel.points[fields] = point
    return panel


#: The nine panels: key -> runner(n_ta, designs, engine=...).
FIG15_PANELS: Dict[str, Callable[..., SweepResult]] = {
    "a": partial(run_selectivity_sweep, 8),
    "b": partial(run_selectivity_sweep, 64),
    "c": partial(run_selectivity_sweep, 128),
    "d": partial(run_projectivity_sweep, 0.10),
    "e": partial(run_projectivity_sweep, 0.50),
    "f": partial(run_projectivity_sweep, 1.00),
    "g": partial(run_selectivity_sweep, 8, aggregate=True),
    "h": partial(run_projectivity_sweep, 1.00, aggregate=True),
    # panel (i) holds its table footprint constant instead of sizing Ta
    "i": lambda n_ta, designs, engine: run_record_size_sweep(
        designs=designs, engine=engine),
}

