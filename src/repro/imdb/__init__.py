"""In-memory database workload: schemas, queries, plans, ground truth."""

from .executor import ground_truth
from .lowering import Lowering
from .plan import CostModel, PhysicalNode, PhysicalPlan, selected_mask
from .planner import Planner, join_matches, plan_for
from .queries import (
    aggregate_query,
    all_queries,
    arithmetic_query,
    by_name,
    q_queries,
    qs_queries,
)
from .query import (
    AggregateQuery,
    Conjunct,
    InsertQuery,
    JoinQuery,
    Predicate,
    Query,
    SelectQuery,
    UpdateQuery,
)
from .schema import FIELD_BYTES, PREDICATE_RANGE, TA, TB, Table, TableSchema
from .sql import SQLError, parse

__all__ = [
    "CostModel",
    "ground_truth",
    "Lowering",
    "PhysicalNode",
    "PhysicalPlan",
    "Planner",
    "join_matches",
    "plan_for",
    "selected_mask",
    "aggregate_query",
    "all_queries",
    "arithmetic_query",
    "by_name",
    "q_queries",
    "qs_queries",
    "AggregateQuery",
    "Conjunct",
    "InsertQuery",
    "JoinQuery",
    "Predicate",
    "Query",
    "SelectQuery",
    "UpdateQuery",
    "FIELD_BYTES",
    "PREDICATE_RANGE",
    "TA",
    "TB",
    "Table",
    "TableSchema",
    "SQLError",
    "parse",
]
