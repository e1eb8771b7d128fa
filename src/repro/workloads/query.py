"""The relational workload family: one ``repro.imdb`` query as a Workload.

:meth:`QueryWorkload.build` computes the query's ground truth
(:func:`~repro.imdb.executor.ground_truth`), has the
:class:`~repro.imdb.planner.Planner` choose the physical plan for that
mask, and has the :class:`~repro.imdb.lowering.Lowering` turn the plan
into per-core op streams.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from .base import Workload, WorkloadBuild
from .tables import TableSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheme import AccessScheme, Placement
    from ..imdb.query import Query
    from ..imdb.schema import Table
    from ..sim.config import SystemConfig


@dataclass(frozen=True)
class QueryWorkload(Workload):
    """One relational query over table recipes.

    ``tables`` may stay empty when the caller hands pre-materialized
    tables to ``run_workload`` directly (the ``run_query`` compatibility
    path); sweep points must carry the recipes so worker processes can
    rebuild them.
    """

    query: "Query"
    tables: Tuple[TableSpec, ...] = ()

    kind = "query"

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def table_specs(self) -> Tuple[TableSpec, ...]:
        return self.tables

    @property
    def digest(self) -> str:
        from ..obs.artifacts import to_jsonable

        payload = {
            "family": "query",
            # the query's concrete type matters (two kinds could share
            # field names)
            "query_type": type(self.query).__name__,
            "query": to_jsonable(self.query),
            "tables": to_jsonable(self.tables),
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def build(
        self,
        scheme: "AccessScheme",
        config: "SystemConfig",
        tables: "Dict[str, Table]",
        placements: "Dict[str, Placement]",
        cost: Optional[object] = None,
    ) -> WorkloadBuild:
        from ..imdb.executor import ground_truth
        from ..imdb.lowering import Lowering
        from ..imdb.planner import Planner

        mask, answer, selected = ground_truth(self.query, tables)
        plan = Planner(scheme, tables, placements, cost).plan(self.query, mask)
        ops = Lowering(scheme, config, tables, placements, cost).lower(
            plan, mask
        )
        return WorkloadBuild(ops, answer, selected, plan)
