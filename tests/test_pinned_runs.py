"""Pinned simulated work: the exact cycles and kernel events of eight runs.

The rows run on 512 x 1024 tables: SQL queries by name and one generated
strided kernel, across the row store, the column store, SAM, SAM-sub and
the MASA bank.  Simulated cycles and executed kernel events are
deterministic, so any drift in either is a behaviour change of the
scheduler, the bank model or the event wheel, never host noise.  A change
that alters simulated behaviour on purpose updates this table and says
why.
"""

import pytest

from repro.imdb.queries import by_name
from repro.sim.runner import run_query, run_workload
from repro.workloads import KernelWorkload, make_tables

#: (scheme, workload) -> (simulated cycles, executed kernel events)
PINNED = {
    ("baseline", "Q3"): (2256, 3807),
    ("column-store", "Q1"): (740, 1281),
    ("SAM-en", "Q3"): (553, 984),
    ("SAM-en", "Qs1"): (34511, 56997),
    ("SAM-sub", "Q1"): (851, 1524),
    ("masa", "Q3"): (2256, 3807),
    ("baseline", "strided_read[stride=256]"): (2088, 3544),
    ("SAM-en", "strided_read[stride=256]"): (292, 417),
}


@pytest.fixture(scope="module")
def tables():
    return make_tables(512, 1024)


@pytest.mark.parametrize("scheme,workload", list(PINNED))
def test_pinned_run(scheme, workload, tables):
    queries = by_name()
    if workload in queries:
        result = run_query(scheme, queries[workload], tables)
    else:
        result = run_workload(KernelWorkload.from_spec(workload), scheme)
    work = (result.cycles, int(result.metrics["sim.events"]))
    assert work == PINNED[(scheme, workload)]


def test_pinned_totals():
    """The table's totals, so that an edit to any row also shows up as
    a change to these two numbers."""
    assert sum(cycles for cycles, _ in PINNED.values()) == 43_547
    assert sum(events for _, events in PINNED.values()) == 72_361
