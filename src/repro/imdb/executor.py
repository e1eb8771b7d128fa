"""Query execution: plan -> lower -> per-core op streams + results.

The executor is a thin orchestrator over the planning IR:

* :mod:`repro.imdb.plan` defines the physical plan nodes,
* :mod:`repro.imdb.planner` chooses the access mode per operator
  (strided vs plain, the paper's Figure 15 crossover) and costs it,
* :mod:`repro.imdb.lowering` turns the chosen plan into memory ops.

What stays here is the part simulation cannot outsource: the *ground
truth*.  The executor computes the actual query answer from the table
data (and applies updates/inserts), so correctness of every scheme's
access plan is checkable -- a plan that skips data the query needs would
produce the wrong answer in tests.  A build is the workload layer's
:class:`~repro.workloads.base.WorkloadBuild`, so
:class:`~repro.workloads.query.QueryWorkload` hands it on unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.scheme import AccessScheme, Placement
from ..sim.config import SystemConfig
from ..workloads.base import WorkloadBuild
from .lowering import Lowering
from .plan import CostModel, selected_mask
from .planner import Planner, join_matches
from .query import (
    AggregateQuery,
    InsertQuery,
    JoinQuery,
    Query,
    SelectQuery,
    UpdateQuery,
)
from .schema import Table

__all__ = ["CostModel", "QueryExecutor"]


class QueryExecutor:
    """Plans and lowers queries for one scheme over one set of placed
    tables, and computes the ground-truth answers."""

    def __init__(
        self,
        scheme: AccessScheme,
        config: SystemConfig,
        tables: Dict[str, Table],
        placements: Dict[str, Placement],
        cost: Optional[CostModel] = None,
    ) -> None:
        self.tables = tables
        self.planner = Planner(scheme, config, tables, placements, cost)
        self.lowering = Lowering(scheme, config, tables, placements, cost)

    # ------------------------------------------------------------ dispatch

    def build(self, query: Query) -> WorkloadBuild:
        if isinstance(query, SelectQuery):
            return self._build_select(query)
        if isinstance(query, AggregateQuery):
            return self._build_aggregate(query)
        if isinstance(query, UpdateQuery):
            return self._build_update(query)
        if isinstance(query, InsertQuery):
            return self._build_insert(query)
        if isinstance(query, JoinQuery):
            return self._build_join(query)
        raise TypeError(f"unknown query {query!r}")

    # --------------------------------------------------------------- SELECT

    def _build_select(self, query: SelectQuery) -> WorkloadBuild:
        table = self.tables[query.table]
        selected = selected_mask(table, query.predicate)
        n = table.n_records
        if query.limit is not None:
            n = min(n, query.limit)
            selected = selected.copy()
            selected[n:] = False

        plan = self.planner.plan(query, selected=selected)
        ops_per_core = self.lowering.lower(query, plan, selected=selected)

        rows = np.flatnonzero(selected[:n])
        if query.projected is None:
            result = (len(rows), int(table.values[rows].sum()) if len(rows)
                      else 0)
        else:
            cols = list(query.projected)
            data = table.values[np.ix_(rows, cols)] if len(rows) else None
            result = (
                len(rows),
                int(data.sum()) if data is not None else 0,
            )
        return WorkloadBuild(ops_per_core, result, int(len(rows)), plan)

    # ------------------------------------------------------------ AGGREGATE

    def _build_aggregate(self, query: AggregateQuery) -> WorkloadBuild:
        table = self.tables[query.table]
        selected = selected_mask(table, query.predicate)

        plan = self.planner.plan(query, selected=selected)
        ops_per_core = self.lowering.lower(query, plan, selected=selected)

        rows = np.flatnonzero(selected)
        sums = {
            f: int(table.column(f)[rows].sum()) if len(rows) else 0
            for f in query.fields
        }
        if query.func == "AVG" and len(rows):
            result = {f: sums[f] / len(rows) for f in query.fields}
        else:
            result = sums
        return WorkloadBuild(ops_per_core, result, int(len(rows)), plan)

    # --------------------------------------------------------------- UPDATE

    def _build_update(self, query: UpdateQuery) -> WorkloadBuild:
        table = self.tables[query.table]
        selected = selected_mask(table, query.predicate)

        plan = self.planner.plan(query, selected=selected)
        ops_per_core = self.lowering.lower(query, plan, selected=selected)

        rows = np.flatnonzero(selected)
        for f, v in query.assignments:
            table.values[rows, f] = v
        return WorkloadBuild(ops_per_core, int(len(rows)), int(len(rows)),
                             plan)

    # --------------------------------------------------------------- INSERT

    def _build_insert(self, query: InsertQuery) -> WorkloadBuild:
        plan = self.planner.plan(query)
        ops_per_core = self.lowering.lower(query, plan)
        n = plan.node("insert").records
        return WorkloadBuild(ops_per_core, n, n, plan)

    # ----------------------------------------------------------------- JOIN

    def _build_join(self, query: JoinQuery) -> WorkloadBuild:
        build = self.tables[query.build_table]
        probe = self.tables[query.probe_table]
        matches, probe_match = join_matches(
            build, probe, query.key_field, query.extra_compare_field
        )

        plan = self.planner.plan(query, probe_match=probe_match)
        ops_per_core = self.lowering.lower(
            query, plan, probe_match=probe_match
        )
        return WorkloadBuild(ops_per_core, matches, matches, plan)
