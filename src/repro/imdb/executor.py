"""Query ground truth: the answer a query computes over the table data.

Simulation cannot outsource this part.  :func:`ground_truth` computes the
actual query answer from the table data (and applies updates), so
correctness of every scheme's access plan is checkable -- a plan that
skips data the query needs would produce the wrong answer in tests.  Its
mask is what the :class:`~repro.imdb.planner.Planner` and the
:class:`~repro.imdb.lowering.Lowering` read the selection from;
:class:`~repro.workloads.query.QueryWorkload` chains the three.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .plan import selected_mask
from .planner import join_matches
from .query import (
    AggregateQuery,
    InsertQuery,
    JoinQuery,
    Query,
    SelectQuery,
    UpdateQuery,
)
from .schema import Table

__all__ = ["ground_truth"]


def ground_truth(
    query: Query, tables: Dict[str, Table]
) -> Tuple[Optional[np.ndarray], object, int]:
    """``(mask, answer, selected records)`` of ``query`` over ``tables``.

    The mask is the selection, cut after its LIMIT-th row; a join's is its
    probe-side matches, and an insert has none.  An update's assignments
    are applied to ``tables``.
    """
    if isinstance(query, InsertQuery):
        n = tables[query.table].n_records
        n = min(query.n_records or n, n)
        return None, n, n
    if isinstance(query, JoinQuery):
        matches, probe_match = join_matches(
            tables[query.build_table], tables[query.probe_table],
            query.key_field, query.extra_compare_field,
        )
        return probe_match, matches, matches
    table = tables[query.table]
    mask = selected_mask(table, query.predicate)
    if isinstance(query, SelectQuery) and query.limit is not None:
        # LIMIT caps the rows returned: keep the first ``limit`` matches
        mask[np.flatnonzero(mask)[query.limit:]] = False
    rows = np.flatnonzero(mask)
    if isinstance(query, UpdateQuery):
        for field, value in query.assignments:
            table.values[rows, field] = value
        answer: object = len(rows)
    elif isinstance(query, AggregateQuery):
        sums = {f: int(table.column(f)[rows].sum()) for f in query.fields}
        answer = sums
        if query.func == "AVG" and len(rows):
            answer = {f: total / len(rows) for f, total in sums.items()}
    elif query.projected is None:
        answer = (len(rows), int(table.values[rows].sum()))
    else:
        answer = (len(rows),
                  int(table.values[np.ix_(rows, query.projected)].sum()))
    return mask, answer, len(rows)
