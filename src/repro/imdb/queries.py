"""The benchmark queries of Table 3.

Q1-Q12 come from the RC-NVM benchmark (all prefer a column store); Qs1-Qs6
are the paper's supplements that prefer a row store.  Selectivities follow
Section 6.1: 25% for the ``f10 > x`` filters, "mostly false" (~1%) for Q2,
equality matches (~1%) for the updates.  Q9/Q10's two-conjunct filters use
50% per conjunct so the conjunction also keeps 25%.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from .query import (
    AggregateQuery,
    InsertQuery,
    JoinQuery,
    Predicate,
    Query,
    SelectQuery,
    UpdateQuery,
)

_P25 = Predicate.where(10, ">", 0.25)
_P_RARE = Predicate.where(10, ">", 0.01)
_P_EQ = Predicate.where(10, "==", 0.01)


def _two_conjuncts(f1: int, f2: int) -> Predicate:
    return Predicate(
        (
            Predicate.where(f1, ">", 0.5).conjuncts[0],
            Predicate.where(f2, "<", 0.5).conjuncts[0],
        )
    )


def q_queries() -> List[Query]:
    """Q1-Q12: the column-store-friendly half of the benchmark."""
    return [
        SelectQuery("Q1", "Ta", (3, 4), _P25),
        SelectQuery("Q2", "Tb", None, _P_RARE),
        AggregateQuery("Q3", "Ta", "SUM", (9,), _P25),
        AggregateQuery("Q4", "Tb", "SUM", (9,), _P25),
        AggregateQuery("Q5", "Ta", "AVG", (1,), _P25),
        AggregateQuery("Q6", "Tb", "AVG", (1,), _P25),
        JoinQuery(
            "Q7",
            build_table="Tb",
            probe_table="Ta",
            key_field=9,
            extra_compare_field=1,
            project_probe=3,
            project_build=4,
        ),
        JoinQuery(
            "Q8",
            build_table="Tb",
            probe_table="Ta",
            key_field=9,
            extra_compare_field=None,
            project_probe=3,
            project_build=4,
        ),
        SelectQuery("Q9", "Ta", (3, 4), _two_conjuncts(1, 9)),
        SelectQuery("Q10", "Ta", (3, 4), _two_conjuncts(1, 2)),
        UpdateQuery("Q11", "Tb", ((3, 7), (4, 11)), _P_EQ),
        UpdateQuery("Q12", "Tb", ((9, 13),), _P_EQ),
    ]


def qs_queries() -> List[Query]:
    """Qs1-Qs6: the row-store-friendly supplements."""
    return [
        SelectQuery("Qs1", "Ta", None, None, limit=1024, prefers="row"),
        SelectQuery("Qs2", "Tb", None, None, limit=1024, prefers="row"),
        SelectQuery("Qs3", "Ta", None, _P25, prefers="row"),
        SelectQuery("Qs4", "Tb", None, _P25, prefers="row"),
        InsertQuery("Qs5", "Ta", n_records=0, prefers="row"),  # 0 = whole-table
        InsertQuery("Qs6", "Tb", n_records=0, prefers="row"),
    ]


def all_queries() -> List[Query]:
    return q_queries() + qs_queries()


def by_name() -> Dict[str, Query]:
    return {q.name: q for q in all_queries()}


def _sampled_fields(count: int, n_table_fields: int,
                    seed: int) -> Tuple[int, ...]:
    """``count`` distinct fields out of 1 .. ``n_table_fields - 1`` in a
    fixed pseudo-random pattern (the paper projects fields "in a random
    manner"; field 0 carries the predicate)."""
    candidates = list(range(1, n_table_fields))
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(candidates,
                                   min(count, len(candidates)))))


def arithmetic_query(
    projected_fields: int,
    selectivity: float,
    n_table_fields: int = 128,
    seed: int = 7,
) -> SelectQuery:
    """Figure 15's arithmetic query: SELECT fi + fj + ... FROM Ta WHERE
    f0 < x."""
    return SelectQuery(
        f"Arith[p={projected_fields},s={selectivity:.2f}]",
        "Ta",
        _sampled_fields(projected_fields, n_table_fields, seed),
        Predicate.where(0, "<", selectivity),
    )


def aggregate_query(
    projected_fields: int,
    selectivity: float,
    n_table_fields: int = 128,
    seed: int = 7,
) -> AggregateQuery:
    """Figure 15's aggregate query: SELECT AVG(fi), ..., AVG(fj)."""
    return AggregateQuery(
        f"Aggr[p={projected_fields},s={selectivity:.2f}]",
        "Ta",
        "AVG",
        _sampled_fields(projected_fields, n_table_fields, seed),
        Predicate.where(0, "<", selectivity),
    )
