"""Figure 12: speedup of every design on the Q and Qs queries.

Every (scheme, query) pair is simulated end to end; speedups are
normalized to the commodity row-store baseline, exactly as in the paper.
The ``ideal`` series is a row store for Qs queries and a column store for
Q queries; the row store is the baseline itself, so a Qs query's ideal
reads its baseline point instead of simulating it again.

The harness is a thin layer over :mod:`repro.exp`: it *builds* a
declarative :class:`~repro.exp.ExperimentSpec` of every (scheme, query)
point and *shapes* the engine's results into :class:`Figure12Result`;
execution order, parallelism (``--jobs``) and result caching live in the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.registry import FIGURE12_DESIGNS
from ..exp import (
    ExperimentSpec,
    SweepEngine,
    SweepPoint,
    design_points,
    standard_tables,
)
from ..imdb.queries import q_queries, qs_queries
from ..imdb.query import Query
from ..workloads import QueryWorkload, geomean


@dataclass
class Figure12Result:
    """Speedups[design][query], normalized to the row-store baseline."""

    speedups: Dict[str, Dict[str, float]]
    baseline_cycles: Dict[str, int]
    q_names: List[str]
    qs_names: List[str]

    def gmean(self, design: str, queries: Sequence[str]) -> float:
        if not queries:
            return float("nan")
        return geomean(self.speedups[design][q] for q in queries)

    def q_gmean(self, design: str) -> float:
        return self.gmean(design, self.q_names)

    def qs_gmean(self, design: str) -> float:
        return self.gmean(design, self.qs_names)

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "figure12",
            "designs": list(self.speedups),
            "q_names": self.q_names,
            "qs_names": self.qs_names,
            "speedups": self.speedups,
            "baseline_cycles": self.baseline_cycles,
            "gmeans": {
                d: {
                    "Q": self.q_gmean(d) if self.q_names else None,
                    "Qs": self.qs_gmean(d) if self.qs_names else None,
                }
                for d in self.speedups
            },
        }

    def render(self) -> str:
        designs = list(self.speedups)
        lines = []
        header = "query".ljust(8) + "".join(d.rjust(13) for d in designs)
        lines.append(header)
        rows = list(self.q_names)
        if self.q_names:
            rows.append("Gmean(Q)")
        rows += self.qs_names
        if self.qs_names:
            rows.append("Gmean(Qs)")
        for name in rows:
            row = name.ljust(8)
            for d in designs:
                if name == "Gmean(Q)":
                    v = self.q_gmean(d)
                elif name == "Gmean(Qs)":
                    v = self.qs_gmean(d)
                else:
                    v = self.speedups[d][name]
                row += f"{v:13.2f}"
            lines.append(row)
        return "\n".join(lines)


def _query_lists(queries: Optional[Sequence[str]]):
    q_list = [q for q in q_queries() if queries is None or q.name in queries]
    qs_list = [
        q for q in qs_queries() if queries is None or q.name in queries
    ]
    return q_list, qs_list


def ideal_store(query: Query) -> str:
    """The store Figure 12's ``ideal`` series runs ``query`` on: a plain
    row store for row-preferring queries, a plain column store for
    column-preferring ones."""
    return "baseline" if query.prefers == "row" else "column-store"


def _ideal_key(query: Query) -> Tuple[str, str]:
    """The point that runs ``query`` on its ideal store: its baseline
    point when that store is the baseline row store, else its own."""
    series = "baseline" if ideal_store(query) == "baseline" else "ideal"
    return (series, query.name)


def build_figure12_spec(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    include_ideal: bool = True,
    gather_factor: int = 8,
) -> ExperimentSpec:
    """Figure 12 as data: one point per (series, query)."""
    q_list, qs_list = _query_lists(queries)
    tables = standard_tables(n_ta, n_tb)
    workloads = [QueryWorkload(query=q, tables=tables)
                 for q in q_list + qs_list]
    points = design_points(["baseline", *(designs or FIGURE12_DESIGNS)],
                           workloads, gather_factor)
    if include_ideal:
        # a row-preferring query's ideal run is its baseline point
        points += [
            SweepPoint(key=("ideal", w.name), workload=w,
                       scheme=ideal_store(w.query))
            for w in workloads if ideal_store(w.query) != "baseline"
        ]
    return ExperimentSpec(
        "figure12", tuple(points),
        normalize="divide by baseline cycles per query",
    )


def run_figure12(
    n_ta: int = 2048,
    n_tb: int = 4096,
    designs: Optional[Sequence[str]] = None,
    queries: Optional[Sequence[str]] = None,
    include_ideal: bool = True,
    gather_factor: int = 8,
    engine: Optional[SweepEngine] = None,
) -> Figure12Result:
    """Regenerate Figure 12 (optionally restricted to some designs/queries).

    ``gather_factor=8`` is the paper's default: SSC-DSD chipkill with 4-bit
    strided granularity.  ``engine`` chooses parallelism and caching; the
    default runs serially without a cache.
    """
    engine = engine or SweepEngine()
    q_list, qs_list = _query_lists(queries)
    q_names = [q.name for q in q_list]
    qs_names = [q.name for q in qs_list]
    names = q_names + qs_names
    run = engine.run(build_figure12_spec(
        n_ta, n_tb, designs, queries, include_ideal, gather_factor
    ))
    speedups = run.speedups(designs or FIGURE12_DESIGNS, names)
    if include_ideal:
        speedups["ideal"] = {
            q.name: run.speedup(_ideal_key(q), ("baseline", q.name))
            for q in q_list + qs_list
        }
    return Figure12Result(
        speedups=speedups,
        baseline_cycles=run.table(["baseline"], names)["baseline"],
        q_names=q_names, qs_names=qs_names,
    )
