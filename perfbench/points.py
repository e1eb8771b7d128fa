"""Seeded simulation points for the benchmark's three workloads.

A point is one simulation a user of the simulator runs: a design from
the scheme registry plus either a SQL statement over the paper's Ta/Tb
tables or a generated micro-kernel.  :func:`build_suite` derives every
input from the seed -- table contents, the fields each statement reads,
the kernels' array contents -- so one seed always gives the same points.

Each point carries its own oracle.  A SQL point's answer is recomputed
here with numpy from the raw table values and the statement's literals,
independently of the simulator's planner; a kernel point's answer is
checked by the simulator's kernel oracle in the checked pass.  A suite
also lists the paper's speed-up claims its points must reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.imdb.sql import parse
from repro.sim.runner import run_query, run_workload
from repro.workloads import KernelWorkload, make_tables

#: Table sizes (records) for the SQL points: far below the paper's 10M,
#: so one round stays near a second of host time.  The scans are
#: stationary, so per-record costs have converged at this size.
TA_RECORDS = 512
TB_RECORDS = 1024

#: Comparison literals: each keeps exactly a quarter of the uniform
#: [0, 10000) field values and converts to a selectivity without rounding.
ABOVE = 7500
BELOW = 2500


@dataclass(frozen=True)
class Scan:
    """What a SQL point computes, in the oracle's own terms."""

    kind: str  # sum | avg | project | star | join
    table: str
    fields: Tuple[int, ...] = ()  # a join's are (key, extra compare)
    where: Tuple[Tuple[int, str, int], ...] = ()  # (field, op, literal)
    limit: Optional[int] = None

    @property
    def sql(self) -> str:
        if self.kind == "join":
            key, extra = self.fields
            return (f"SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE "
                    f"Ta.f{key} = Tb.f{key} AND Ta.f{extra} > Tb.f{extra}")
        if self.kind in ("sum", "avg"):
            head = ", ".join(f"{self.kind.upper()}(f{f})" for f in self.fields)
        elif self.kind == "project":
            head = ", ".join(f"f{f}" for f in self.fields)
        else:
            head = "*"
        text = f"SELECT {head} FROM {self.table}"
        if self.where:
            text += " WHERE " + " AND ".join(
                f"f{field} {op} {literal}" for field, op, literal in self.where
            )
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text

    def answer(self, tables) -> object:
        """The statement's result, computed straight from the table values
        in the shape the simulator reports it."""
        if self.kind == "join":
            key, extra = self.fields
            probe, build = tables["Ta"].values, tables["Tb"].values
            pairs = probe[:, key, None] == build[None, :, key]
            pairs &= probe[:, extra, None] > build[None, :, extra]
            return int(pairs.sum())
        values = tables[self.table].values
        keep = np.ones(len(values), dtype=bool)
        for field, op, literal in self.where:
            column = values[:, field]
            keep &= (column > literal) if op == ">" else (column < literal)
        if self.limit is not None:
            keep[self.limit:] = False
        rows = values[keep]
        if self.kind == "sum":
            return {f: int(rows[:, f].sum()) for f in self.fields}
        if self.kind == "avg":
            if not len(rows):
                return {f: 0 for f in self.fields}
            return {f: int(rows[:, f].sum()) / len(rows) for f in self.fields}
        picked = rows if self.kind == "star" else rows[:, list(self.fields)]
        return (len(rows), int(picked.sum()))


@dataclass(frozen=True)
class Point:
    """One simulation: a design running a SQL scan or a kernel spec."""

    scheme: str
    scan: Optional[Scan] = None
    kernel: str = ""

    @property
    def label(self) -> str:
        return f"{self.scheme} | {self.scan.sql if self.scan else self.kernel}"


class Suite:
    """One workload's points, the inputs they share, and its claims."""

    def __init__(self, name: str, seed: int, points: List[Point],
                 claims: List[Tuple[Point, Point]]) -> None:
        self.name = name
        self.points = tuple(points)
        #: (faster, slower): the first must take fewer simulated cycles
        self.claims = tuple(claims)
        scans = [p.scan for p in self.points if p.scan is not None]
        self.tables = (
            make_tables(TA_RECORDS, TB_RECORDS, seed=seed) if scans else None
        )
        self._queries = {
            scan: parse(scan.sql, name=f"{scan.kind}-{scan.table}")
            for scan in scans
        }
        self._answers = {scan: scan.answer(self.tables) for scan in scans}
        self._kernels = {
            p.kernel: KernelWorkload.from_spec(p.kernel, seed=seed)
            for p in self.points if p.kernel
        }

    def run(self, point: Point, check: bool = False):
        """Simulate one point; ``check`` attaches the timing-protocol
        checker and the workload oracles, which raise on a violation."""
        if point.scan is not None:
            return run_query(point.scheme, self._queries[point.scan],
                             self.tables, check=check)
        return run_workload(self._kernels[point.kernel], point.scheme,
                            check=check)

    def problems(self, point: Point, result) -> List[str]:
        """Functional and accounting faults in one finished simulation."""
        found = []
        if point.scan is not None:
            expected = self._answers[point.scan]
            if result.result != expected:
                found.append(f"answer {result.result!r} != {expected!r}")
        for core, breakdown in result.stalls["per_core"].items():
            if breakdown.get("unaccounted"):
                found.append(f"core {core}: {breakdown['unaccounted']} "
                             f"cycles neither busy nor attributed")
        if result.bus_utilization > 1.0:
            found.append(f"data-bus utilization {result.bus_utilization:.3f}")
        return found


def _fields(rng: random.Random, n_fields: int, count: int) -> Tuple[int, ...]:
    """``count`` distinct fields of a table, each in its own 64-byte line."""
    lines = rng.sample(range(n_fields // 8), count)
    return tuple(8 * line + rng.randrange(8) for line in lines)


def sql_scans(seed: int) -> Dict[str, Scan]:
    """The seeded statements: which fields are read, filtered, joined."""
    rng = random.Random(seed)
    agg, other, pred = _fields(rng, 128, 3)
    col, tb_pred = _fields(rng, 16, 2)
    key, extra = rng.sample(range(16), 2)
    return {
        "sum": Scan("sum", "Ta", (agg,), ((pred, ">", ABOVE),)),
        "project": Scan("project", "Ta", (agg, other), ((pred, ">", ABOVE),)),
        "avg": Scan("avg", "Tb", (col,), ((tb_pred, "<", BELOW),)),
        "rows": Scan("star", "Tb", (), ((tb_pred, ">", ABOVE),)),
        "head": Scan("star", "Ta", (), (), limit=48),
        "join": Scan("join", "Ta", (key, extra)),
    }


def _sql(seed: int) -> Suite:
    """The paper's relational queries (Table 3 shapes) on row, column and
    SAM designs: planning and lowering feed the whole memory system."""
    s = sql_scans(seed)
    points = [
        Point("baseline", s["sum"]),
        Point("SAM-en", s["sum"]),
        Point("RC-NVM-wd", s["sum"]),
        Point("column-store", s["project"]),
        Point("SAM-sub", s["project"]),
        Point("GS-DRAM", s["project"]),
        Point("SAM-IO", s["avg"]),
        Point("baseline", s["head"]),
        Point("SAM-en", s["rows"]),
        Point("SAM-en", s["join"]),
    ]
    claims = [(points[1], points[0])]  # SAM's gathers beat the row store
    return Suite("sql", seed, points, claims)


#: strided kernels, each run with and without stride hardware
STRIDED_KERNELS = (
    "strided_read[n=512,stride=256]",
    "strided_write[n=512,stride=1024]",
    "strided_copy[n=256,stride=512]",
    "mxv[n=32]",
    "doitgen[n=24]",
)


def _strided(seed: int) -> Suite:
    """Generated strided kernels on SAM-en and the baseline, plus a
    unit-stride stream on which the stride hardware stays idle."""
    points, claims = [], []
    for kernel in STRIDED_KERNELS:
        slow = Point("baseline", kernel=kernel)
        fast = Point("SAM-en", kernel=kernel)
        points += [slow, fast]
        claims.append((fast, slow))
    points.append(Point("SAM-en", kernel="stream_read[n=2048]"))
    return Suite("strided", seed, points, claims)


#: bank-conflict kernels: two arrays, or three stencil rows, share banks
SALP_KERNELS = ("stream_copy[n=1024]", "jacobi2d[n=24]")


def _salp(seed: int) -> Suite:
    """Bank-conflict kernels and a hash join on the subarray-parallel
    designs, which take the subarray-aware scheduler path."""
    points, claims = [], []
    for kernel in SALP_KERNELS:
        base = Point("baseline", kernel=kernel)
        masa = Point("masa", kernel=kernel)
        points += [base, masa, Point("salp1", kernel=kernel),
                   Point("salp2", kernel=kernel)]
        claims.append((masa, base))
    points.append(Point("SAM-en+masa",
                        kernel="strided_copy[n=256,stride=256]"))
    points.append(Point("masa", sql_scans(seed)["join"]))
    return Suite("salp", seed, points, claims)


WORKLOADS = {"sql": _sql, "strided": _strided, "salp": _salp}


def build_suite(workload: str, seed: int) -> Suite:
    return WORKLOADS[workload](seed)
