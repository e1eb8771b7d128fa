"""Figure 13: power and energy efficiency by query class.

The paper groups the benchmark into four classes -- read-type Q queries
(Q1-Q10), write-type Q queries (Q11, Q12), read-type Qs queries (Qs1-Qs4)
and write-type Qs queries (Qs5, Qs6) -- and reports, per design:

* average memory power (mW), split into background / RD-WR / ACT,
* energy efficiency normalized to the row-store baseline
  (baseline energy / design energy for the same work).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.registry import FIGURE12_DESIGNS
from ..exp import ExperimentSpec, SweepEngine, design_points, standard_tables
from ..workloads import QueryWorkload
from ..imdb.queries import by_name

#: Figure 13's query classes.
CLASSES = {
    "Read(Q1-Q10)": [f"Q{i}" for i in range(1, 11)],
    "Write(Q11,Q12)": ["Q11", "Q12"],
    "Read(Qs1-Qs4)": ["Qs1", "Qs2", "Qs3", "Qs4"],
    "Write(Qs5,Qs6)": ["Qs5", "Qs6"],
}


@dataclass
class Figure13Result:
    """power_mw[class][design] -> {background, rdwr, act, total};
    efficiency[class][design] -> energy efficiency vs baseline."""

    power_mw: Dict[str, Dict[str, Dict[str, float]]]
    efficiency: Dict[str, Dict[str, float]]

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure13",
            "power_mw": self.power_mw,
            "efficiency": self.efficiency,
        }

    def render(self) -> str:
        lines = []
        for cls, per_design in self.power_mw.items():
            lines.append(f"== {cls}")
            for design, parts in per_design.items():
                eff = self.efficiency[cls][design]
                lines.append(
                    f"  {design:12s} power={parts['total']:7.1f} mW "
                    f"(bg={parts['background']:6.1f} rdwr={parts['rdwr']:6.1f}"
                    f" act={parts['act']:6.1f})  energy-eff={eff:5.2f}x"
                )
        return "\n".join(lines)


def build_figure13_spec(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Optional[Sequence[str]] = None,
) -> ExperimentSpec:
    """Figure 13 as data: one point per (design, query); the query
    classes partition the benchmark, so (design, query) keys are unique."""
    queries = by_name()
    tables = standard_tables(n_ta, n_tb)
    workloads = [
        QueryWorkload(query=queries[qname], tables=tables)
        for names in CLASSES.values()
        for qname in names
    ]
    points = design_points(designs or ("baseline", *FIGURE12_DESIGNS),
                           workloads)
    return ExperimentSpec(
        "figure13", tuple(points),
        normalize="baseline class energy / design class energy",
    )


def run_figure13(
    n_ta: int = 1024,
    n_tb: int = 2048,
    designs: Optional[Sequence[str]] = None,
    engine: Optional[SweepEngine] = None,
) -> Figure13Result:
    """Regenerate Figure 13."""
    engine = engine or SweepEngine()
    designs = list(designs or ("baseline", *FIGURE12_DESIGNS))
    run = engine.run(build_figure13_spec(n_ta, n_tb, designs))
    power: Dict[str, Dict[str, Dict[str, float]]] = {}
    eff: Dict[str, Dict[str, float]] = {}
    for cls, names in CLASSES.items():
        runs = run.table(designs, names, value=lambda r: r.power)
        power[cls] = {}
        # energy per design, for the efficiency ratios
        energy: Dict[str, float] = {}
        for design in designs:
            totals = {"background": 0.0, "rdwr": 0.0, "act": 0.0,
                      "total": 0.0}
            cls_energy = 0.0
            elapsed = 0.0
            for p in runs[design].values():
                cls_energy += p.total_nj
                elapsed += p.elapsed_ns
                totals["background"] += p.background_nj
                totals["rdwr"] += p.rdwr_nj
                totals["act"] += p.act_nj
            # added left to right: sum() compensates float rounding from
            # Python 3.12 on, and the JSON must match on every version
            totals["total"] = (
                totals["background"] + totals["rdwr"] + totals["act"]
            )
            # power = class energy over class runtime
            if elapsed > 0:
                for key in totals:
                    totals[key] = totals[key] / elapsed * 1e3
            power[cls][design] = totals
            energy[design] = cls_energy
        base = energy.get("baseline")
        eff[cls] = {
            design: base / energy[design] if base else float("nan")
            for design in designs
        }
    return Figure13Result(power, eff)
