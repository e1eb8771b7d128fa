"""Figure 14: substrate swap, strided granularity, and area overhead.

(a) RC-NVM and SAM implemented on each other's technology: RC-NVM-wd and
    SAM designs with DRAM vs NVM (RRAM) timing.
(b) Performance of RC-NVM-wd, GS-DRAM-ecc and SAM-en at 16/8/4-bit strided
    granularity (gather factors 2/4/8).
(c) Area / storage overhead of every design (static model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..area.overhead import AreaReport, all_designs
from ..exp import ExperimentSpec, SweepEngine, design_points, standard_tables
from ..imdb.queries import all_queries, q_queries
from ..workloads import QueryWorkload, geomean


@dataclass
class Figure14aResult:
    """Average speedup (all queries) of each design on each substrate."""

    speedups: Dict[str, Dict[str, float]]  # substrate -> design -> gmean

    def payload(self) -> Dict[str, object]:
        return {"kind": "figure14a", "speedups": self.speedups}

    def render(self) -> str:
        lines = ["design           on-DRAM   on-NVM"]
        designs = sorted(
            {d for per in self.speedups.values() for d in per}
        )
        for d in designs:
            dram = self.speedups["DRAM"].get(d, float("nan"))
            nvm = self.speedups["NVM"].get(d, float("nan"))
            lines.append(f"{d:14s} {dram:9.2f} {nvm:8.2f}")
        return "\n".join(lines)


#: Figure 14(a) substrates: display label -> timing preset to force.
SUBSTRATES = (("DRAM", "DDR4-2400"), ("NVM", "RRAM"))


def _workloads(source, n_ta: int, n_tb: int,
               queries: Optional[Sequence[str]]):
    """The queries of ``source()`` (only ``queries``, when given) over
    the standard tables."""
    tables = standard_tables(n_ta, n_tb)
    return [
        QueryWorkload(query=q, tables=tables)
        for q in source() if queries is None or q.name in queries
    ]


def _gmeans(run, designs: Sequence[str], prefix: str) -> Dict[str, float]:
    """Per-design gmean speedup of the ``(prefix, design, query)``
    points over the baseline, across the baseline's queries."""
    names = [key[1] for key in run.spec.keys() if key[0] == "baseline"]
    speedups = run.speedups(designs, names, prefix=(prefix,))
    return {d: geomean(speedups[d].values()) for d in designs}


def build_figure14a_spec(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = ("RC-NVM-wd", "SAM-sub", "SAM-IO", "SAM-en"),
    queries: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Figure 14(a) as data: baseline per query + every design on every
    substrate, timing forced via the scheme's immutable ``with_timing``
    clone (no shared-instance monkeypatching)."""
    workloads = _workloads(all_queries, n_ta, n_tb, queries)
    points = design_points(["baseline"], workloads)
    for substrate, timing_name in SUBSTRATES:
        points += design_points(designs, workloads, prefix=(substrate,),
                                timing=timing_name)
    return ExperimentSpec(
        "figure14a", tuple(points),
        normalize="divide by baseline cycles per query, gmean per design",
    )


def run_figure14a(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = ("RC-NVM-wd", "SAM-sub", "SAM-IO", "SAM-en"),
    queries: Optional[Sequence[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Figure14aResult:
    """Figure 14(a): every design on both memory technologies."""
    engine = engine or SweepEngine()
    run = engine.run(build_figure14a_spec(n_ta, n_tb, designs, queries))
    return Figure14aResult({substrate: _gmeans(run, designs, substrate)
                            for substrate, _ in SUBSTRATES})


@dataclass
class Figure14bResult:
    """Q-query gmean speedup per design per strided granularity."""

    speedups: Dict[int, Dict[str, float]]  # granularity bits -> design

    def payload(self) -> Dict[str, object]:
        return {
            "kind": "figure14b",
            "speedups": {str(bits): per
                         for bits, per in self.speedups.items()},
        }

    def render(self) -> str:
        lines = ["granularity   " + "".join(
            d.rjust(14)
            for d in next(iter(self.speedups.values()))
        )]
        for bits in sorted(self.speedups, reverse=True):
            row = f"{bits:2d}-bit        "
            for d, v in self.speedups[bits].items():
                row += f"{v:14.2f}"
            lines.append(row)
        return "\n".join(lines)


#: granularity in bits-per-chip -> gather factor (elements per burst)
GRANULARITY_TO_GATHER = {16: 2, 8: 4, 4: 8}


def build_figure14b_spec(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en"),
    queries: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Figure 14(b) as data: baseline per query + every design at every
    strided granularity."""
    workloads = _workloads(q_queries, n_ta, n_tb, queries)
    points = design_points(["baseline"], workloads)
    for bits, factor in GRANULARITY_TO_GATHER.items():
        points += design_points(designs, workloads, factor,
                                prefix=(f"{bits}-bit",))
    return ExperimentSpec(
        "figure14b", tuple(points),
        normalize="divide by baseline cycles per query, gmean per design",
    )


def run_figure14b(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Sequence[str] = ("RC-NVM-wd", "GS-DRAM-ecc", "SAM-en"),
    queries: Optional[Sequence[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Figure14bResult:
    """Figure 14(b): strided granularity sweep over Q queries."""
    engine = engine or SweepEngine()
    run = engine.run(build_figure14b_spec(n_ta, n_tb, designs, queries))
    return Figure14bResult({bits: _gmeans(run, designs, f"{bits}-bit")
                            for bits in GRANULARITY_TO_GATHER})


def run_figure14c() -> Dict[str, AreaReport]:
    """Figure 14(c): the static area/storage overhead model."""
    return all_designs()


def figure14c_payload() -> Dict[str, object]:
    """Machine-readable Figure 14(c)."""
    return {
        "kind": "figure14c",
        "designs": {
            name: {
                "silicon_fraction": report.silicon_fraction,
                "storage_fraction": report.storage_fraction,
                "extra_metal_layers": report.extra_metal_layers,
            }
            for name, report in run_figure14c().items()
        },
    }


def render_figure14c() -> str:
    lines = ["design          silicon   storage   extra-metal"]
    for name, report in run_figure14c().items():
        lines.append(
            f"{name:14s} {report.silicon_fraction:8.3%} "
            f"{report.storage_fraction:8.3%}   {report.extra_metal_layers}"
        )
    return "\n".join(lines)
