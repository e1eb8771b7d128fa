"""The relational workload family: one ``repro.imdb`` query as a Workload.

``QueryWorkload`` is a behavior-identical wrapper around the existing
planner/lowering path -- :meth:`build` returns the
:class:`WorkloadBuild` of :class:`~repro.imdb.executor.QueryExecutor`
as is, so a query run through the workload layer produces exactly the
op streams, plan and ground-truth result the pre-IR ``run_query``
produced.
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
        from ..imdb.executor import QueryExecutor

        executor = QueryExecutor(scheme, config, tables, placements, cost)
        return executor.build(self.query)
