"""Pinned simulated work: the exact cycles and kernel events of eight runs,
the exact metrics dict of two checked runs, and the exact op streams the
relational path lowers.

The rows run on 512 x 1024 tables: SQL queries by name and one generated
strided kernel, across the row store, the column store, SAM, SAM-sub and
the MASA bank.  Simulated cycles and executed kernel events are
deterministic, so any drift in either is a behaviour change of the
scheduler, the bank model or the event wheel, never host noise.  A change
that alters simulated behaviour on purpose updates this table and says
why.

The metrics pins digest the whole ``result.metrics`` dict of a checked
SAM-en query and a checked SAM-en kernel, so a number the end of a run
publishes cannot move, change type or drop out unseen.

The op-stream pins hold one digest per query shape, taken over every
registered design: each op, the ground-truth answer, the selected-record
count, the plan JSON and the table contents after the query.  A drift
names the shape whose planning, lowering or ground truth moved.
"""

import hashlib
import json
import numbers

import numpy as np
import pytest

from repro.core.registry import available_schemes, make_scheme
from repro.cpu.ops import Compute, Load, Store
from repro.imdb.queries import (
    aggregate_query,
    all_queries,
    arithmetic_query,
    by_name,
)
from repro.imdb.sql import parse
from repro.sim.config import SystemConfig
from repro.sim.runner import allocate_placements, run_query, run_workload
from repro.workloads import KernelWorkload, QueryWorkload, make_tables

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


#: (scheme, workload) -> sha256 of ``json.dumps(result.metrics,
#: sort_keys=True)`` for the checked run: every published number, its
#: type (``1`` and ``1.0`` dump apart) and which keys appear, including
#: the ``check.*`` counts (``check.plans`` and ``check.lowered_gathers``
#: for the query, ``check.kernel_ops`` for the kernel)
PINNED_METRICS = {
    ("SAM-en", "Q3"):
        "9135777d1cbb2b8f032f8aa63d48c2ee66676bd677c48975f8c4c768330712d3",
    ("SAM-en", "strided_read[stride=256]"):
        "97976ad66ace49ed1db8c751e4e5c4c50c3d92af6244decf1e654b1b5b75e6c1",
}


@pytest.fixture(scope="module")
def tables():
    return make_tables(512, 1024)


def _run(scheme, workload, tables, check=False):
    queries = by_name()
    if workload in queries:
        return run_query(scheme, queries[workload], tables, check=check)
    return run_workload(KernelWorkload.from_spec(workload), scheme,
                        check=check)


@pytest.mark.parametrize("scheme,workload", list(PINNED))
def test_pinned_run(scheme, workload, tables):
    result = _run(scheme, workload, tables)
    work = (result.cycles, int(result.metrics["sim.events"]))
    assert work == PINNED[(scheme, workload)]
    # perfbench reads both with a default of 0, so a dropped key would
    # read 0 there with nothing failing
    assert {"sim.events", "dram.peek_hits"} <= result.metrics.keys()


@pytest.mark.parametrize("scheme,workload", list(PINNED_METRICS))
def test_pinned_metrics(scheme, workload, tables):
    metrics = _run(scheme, workload, tables, check=True).metrics
    assert list(metrics) == sorted(metrics)
    digest = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_METRICS[(scheme, workload)]


def test_pinned_totals():
    """The table's totals, so that an edit to any row also shows up as
    a change to these two numbers."""
    assert sum(cycles for cycles, _ in PINNED.values()) == 43_547
    assert sum(events for _, events in PINNED.values()) == 72_361


#: SQL shapes no figure builds (every lowering branch and both forms of
#: INSERT and of the join)
PINNED_SQL = (
    "SELECT * FROM Ta WHERE f10 > 9000",
    "SELECT * FROM Tb LIMIT 40",
    "SELECT f3, f4 FROM Ta",
    "SELECT f3, f3, f5 FROM Ta WHERE f10 > 5000 AND f9 < 8000 LIMIT 50",
    "SELECT SUM(f9) FROM Ta",
    "SELECT AVG(f1), AVG(f2) FROM Tb WHERE f10 < 5000",
    "UPDATE Ta SET f3 = 7 WHERE f10 > 9000",
    "UPDATE Tb SET f3 = 7, f4 = 11 WHERE f10 = 300",
    "INSERT INTO Ta VALUES 40",
    "INSERT INTO Tb VALUES (1, 2), (3, 4)",
    "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9",
    "SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9 AND Ta.f1 > Tb.f1",
)


def _pinned_shapes():
    """Shape label -> query: the 18 built-in queries, Figure 15's
    arithmetic and aggregate queries at three projectivities and three
    selectivities, and :data:`PINNED_SQL`."""
    shapes = {q.name: q for q in all_queries()}
    for make in (arithmetic_query, aggregate_query):
        for fields in (4, 64, 128):
            for selectivity in (0.1, 0.5, 1.0):
                query = make(fields, selectivity)
                shapes[query.name] = query
    for sql in PINNED_SQL:
        shapes[sql] = parse(sql, name="pin")
    return shapes


#: shape -> op-stream digest over every design, on 131 x 197 tables
#: (neither size a multiple of a gather group or a vertical group)
PINNED_OP_STREAMS = {
    'Q1': '9542f5cc6c5c56f6',
    'Q2': '027744f6c79a1bab',
    'Q3': '7a6bd92dd2050561',
    'Q4': 'b57761771487ed9c',
    'Q5': 'bc213b9be2f7b5c2',
    'Q6': 'a206329744dc5e85',
    'Q7': '53f037f23dd3716b',
    'Q8': '5f30509607a244d3',
    'Q9': '984d39f15bf920cb',
    'Q10': 'd34bde041eb34355',
    'Q11': '51d7390480897791',
    'Q12': '03ad0d5ad9609b10',
    'Qs1': 'd5a41785474333af',
    'Qs2': '5c11385e14801edb',
    'Qs3': '69caebddc073e784',
    'Qs4': '3e59f8e284351927',
    'Qs5': 'cc1705222e3be0ff',
    'Qs6': 'd82f8b7a96300219',
    'Arith[p=4,s=0.10]': '5f7045f90f8427e5',
    'Arith[p=4,s=0.50]': '2de1b7119dd90822',
    'Arith[p=4,s=1.00]': '5645094552ace19b',
    'Arith[p=64,s=0.10]': 'd1bf86db63cb32a3',
    'Arith[p=64,s=0.50]': 'c71c43311ab5d8a0',
    'Arith[p=64,s=1.00]': '23bbfaec09db9add',
    'Arith[p=128,s=0.10]': '944117740eb24bc4',
    'Arith[p=128,s=0.50]': '77d8ca9be38370c8',
    'Arith[p=128,s=1.00]': '596e80faa5432368',
    'Aggr[p=4,s=0.10]': 'af73aefb98bb9100',
    'Aggr[p=4,s=0.50]': 'c696563457a207e5',
    'Aggr[p=4,s=1.00]': 'c6e38da273b6b38e',
    'Aggr[p=64,s=0.10]': '12c97d91f3a59246',
    'Aggr[p=64,s=0.50]': 'c11c3687ba9a79e7',
    'Aggr[p=64,s=1.00]': '616a04ef614cf1b9',
    'Aggr[p=128,s=0.10]': 'a13362f3bd64382d',
    'Aggr[p=128,s=0.50]': 'ea45e925947164e7',
    'Aggr[p=128,s=1.00]': '8d1018d5a6d53936',
    'SELECT * FROM Ta WHERE f10 > 9000': 'c9226cee27a59cfa',
    'SELECT * FROM Tb LIMIT 40': '6008365583f09b95',
    'SELECT f3, f4 FROM Ta': 'e8a04112f4d85c09',
    # re-pinned when LIMIT came to cap the rows returned, not the
    # records scanned: the plan scans to the 50th match
    'SELECT f3, f3, f5 FROM Ta WHERE f10 > 5000 AND f9 < 8000 LIMIT 50': 'd7fa69e44f4bb07f',
    'SELECT SUM(f9) FROM Ta': 'ae0af8ba83331630',
    'SELECT AVG(f1), AVG(f2) FROM Tb WHERE f10 < 5000': '1698a1e11b8c4f54',
    'UPDATE Ta SET f3 = 7 WHERE f10 > 9000': '875eb61d2a445233',
    'UPDATE Tb SET f3 = 7, f4 = 11 WHERE f10 = 300': '99d649db8e26b696',
    'INSERT INTO Ta VALUES 40': '7bb2f08d83b89ba5',
    'INSERT INTO Tb VALUES (1, 2), (3, 4)': 'fe09ad45d76f84e6',
    'SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9': '40a23c7f2550d46b',
    'SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9 AND Ta.f1 > Tb.f1': '3d8cffb9f6fe6e97',
}


def _plain(value):
    """``value`` with numpy scalars cast to Python ints and floats, so
    its repr does not depend on the numpy version."""
    if isinstance(value, dict):
        return {_plain(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


def _op_text(op) -> str:
    kind = type(op)
    if kind is Compute:
        return f"Compute({float(op.cycles)!r})"
    if kind is Load or kind is Store:
        return f"{kind.__name__}({int(op.addr)}, {int(op.size)})"
    return f"{kind.__name__}({[int(a) for a in op.element_addrs]})"


def op_stream_digest(query) -> str:
    digest = hashlib.sha256()
    for name in available_schemes():
        scheme = make_scheme(name)
        tables = make_tables(131, 197)
        placements = allocate_placements(scheme, tables)
        build = QueryWorkload(query).build(
            scheme, SystemConfig(), tables, placements
        )
        parts = [name]
        for ops in build.ops_per_core:
            parts.append("core")
            parts.extend(map(_op_text, ops))
        parts.append(repr(_plain(build.result)))
        parts.append(repr(int(build.selected_records)))
        parts.append(json.dumps(_plain(build.plan.to_dict()),
                                sort_keys=True))
        digest.update("\n".join(parts).encode())
        for table in sorted(tables):
            digest.update(np.ascontiguousarray(
                tables[table].values, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("shape,query", list(_pinned_shapes().items()))
def test_pinned_op_stream(shape, query):
    assert op_stream_digest(query) == PINNED_OP_STREAMS[shape]


def test_every_op_stream_shape_is_pinned():
    assert list(_pinned_shapes()) == list(PINNED_OP_STREAMS)
    assert len(PINNED_OP_STREAMS) == 48
