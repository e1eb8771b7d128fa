"""Query-plan IR: costed physical plans.

The :class:`~repro.imdb.planner.Planner` turns a
:class:`~repro.imdb.query.Query` straight into a :class:`PhysicalPlan`,
the scheme-specific, costed realization of the query: every operator
carries its access mode (strided gathers vs plain loads vs whole-record
reads), the effective gather factor, its sector/line footprints and an
estimated burst cost -- the quantities behind the paper's Figure 15
row-vs-column crossover.  :mod:`repro.imdb.lowering` turns a physical
plan into per-core memory op streams without re-deriving any of those
decisions.

Physical nodes are frozen: a plan can be hashed, pickled into sweep
workers, embedded in run manifests, and diffed by the
:class:`repro.check.PlanValidator` against the ops actually lowered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .query import Predicate
from .schema import PREDICATE_RANGE, Table


@dataclass(frozen=True)
class CostModel:
    """CPU work per element, in CPU cycles (converted via the config)."""

    predicate_eval: float = 2.0
    project_field: float = 1.0
    aggregate_value: float = 2.0
    materialize_line: float = 4.0
    hash_build: float = 10.0
    hash_probe: float = 12.0
    insert_line: float = 2.0
    #: execution batch: records processed per operator round.  The default
    #: of one gather group matches the paper's executor (predicate and
    #: projection of a record group are adjacent, giving SAM its row-buffer
    #: hits and charging RC-NVM its per-group field switches).  Larger
    #: batches model column-at-a-time vectorized engines.
    batch_records: int = 8


def selected_mask(table: Table,
                  predicate: Optional[Predicate]) -> np.ndarray:
    """Ground-truth selection mask of ``predicate`` over ``table``."""
    if predicate is None:
        return np.ones(table.n_records, dtype=bool)
    mask = np.ones(table.n_records, dtype=bool)
    for conj in predicate.conjuncts:
        column = table.column(conj.field)
        # round: selectivity * range can land just under a SQL literal
        if conj.op == ">":
            threshold = round(PREDICATE_RANGE * (1.0 - conj.selectivity))
            mask &= column > threshold
        elif conj.op == "<":
            threshold = round(PREDICATE_RANGE * conj.selectivity)
            mask &= column < threshold
        else:  # equality: pick a value hitting ~selectivity
            span = max(1, int(PREDICATE_RANGE * conj.selectivity))
            mask &= column < span  # model: matches the rare key set
    return mask


# --------------------------------------------------------------------------
# Physical plan
# --------------------------------------------------------------------------

#: access modes an operator can run in
MODES = (
    "strided",   # hardware gather bursts (sload/sstore groups)
    "vector",    # full-line vector loads over a contiguous field run
    "spans",     # per-record loads of the line spans covering the fields
    "fields",    # per-record, per-field loads (scattered placement)
    "rows",      # whole-record reads/writes, line by line
    "stores",    # per-record, per-field stores (non-strided update)
)


@dataclass(frozen=True)
class PhysicalNode:
    """One operator of a chosen physical plan.

    The footprints are record-relative byte quantities: a strided
    operator gathers every ``sector_offsets`` entry across each gather
    group; a plain one loads every ``line_spans`` ``(offset, size)`` pair
    per record.  ``est_bursts`` is the planner's total burst estimate for
    the operator (already scaled by records and selectivity).
    """

    op: str
    table: str = ""
    mode: str = ""
    fields: Tuple[int, ...] = ()
    records: int = 0
    gather: int = 1
    sector_offsets: Tuple[int, ...] = ()
    line_spans: Tuple[Tuple[int, int], ...] = ()
    est_bursts: float = 0.0
    selectivity: float = 1.0
    writes: bool = False
    skip_line: Optional[int] = None
    detail: Tuple[Tuple[str, object], ...] = ()
    children: Tuple["PhysicalNode", ...] = ()

    def walk(self) -> Iterator["PhysicalNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "table": self.table,
            "mode": self.mode,
            "fields": list(self.fields),
            "records": self.records,
            "gather": self.gather,
            "sector_offsets": list(self.sector_offsets),
            "line_spans": [list(s) for s in self.line_spans],
            "est_bursts": self.est_bursts,
            "selectivity": self.selectivity,
            "writes": self.writes,
            "detail": {k: v for k, v in self.detail},
            "children": [c.to_dict() for c in self.children],
        }


@dataclass(frozen=True)
class PhysicalPlan:
    """A costed, scheme-specific plan, ready for op lowering."""

    scheme: str
    query: str
    mode: str  # overall orientation: "row" or "column"
    root: PhysicalNode
    #: operator batch (records per round), aligned to the gather factor --
    #: the single place the batch size is computed (the partitioner and
    #: the gather grouping both honour it)
    batch_records: int = 8

    def walk(self) -> Iterator[PhysicalNode]:
        return self.root.walk()

    def node(self, op: str, table: Optional[str] = None
             ) -> Optional[PhysicalNode]:
        """The unique node with operator ``op`` (and ``table``, if given)."""
        for node in self.walk():
            if node.op == op and (table is None or node.table == table):
                return node
        return None

    @property
    def est_bursts(self) -> float:
        """Total estimated data bursts over all operators."""
        return sum(node.est_bursts for node in self.walk())

    def strided_nodes(self) -> List[PhysicalNode]:
        """Operators lowered to hardware gathers (declared footprints)."""
        return [n for n in self.walk() if n.mode == "strided"]

    def to_dict(self) -> Dict[str, object]:
        return {
            "scheme": self.scheme,
            "query": self.query,
            "mode": self.mode,
            "batch_records": self.batch_records,
            "est_bursts": self.est_bursts,
            "root": self.root.to_dict(),
        }

    def explain(self) -> str:
        """The operator tree with per-operator mode, cost and footprint."""
        head = (
            f"PhysicalPlan {self.query} on {self.scheme}: mode={self.mode} "
            f"est_bursts={self.est_bursts:.1f} batch={self.batch_records}"
        )
        return "\n".join([head] + _render_tree(self.root))


# --------------------------------------------------------------------------
# rendering helpers
# --------------------------------------------------------------------------

def _fields_label(fields) -> str:
    if fields is None:
        return "*"
    if len(fields) > 6:
        return (",".join(f"f{f}" for f in fields[:5])
                + f",..(+{len(fields) - 5})")
    return ",".join(f"f{f}" for f in fields)


def _physical_label(node: PhysicalNode) -> str:
    parts = [f"{node.op.capitalize():<11s}", node.table]
    if node.op == "scan":
        parts.append(f"({node.records} records)")
        return " ".join(p for p in parts if p)
    if node.fields or node.op == "project":
        parts.append(f"fields={_fields_label(node.fields or None)}")
    attrs = [f"mode={node.mode}"]
    if node.mode == "strided":
        attrs.append(f"g={node.gather}")
        attrs.append(
            "sectors=" + ",".join(str(o) for o in node.sector_offsets)
        )
    elif node.line_spans:
        attrs.append(
            "spans=" + ",".join(f"{o}+{s}" for o, s in node.line_spans[:4])
            + (",..." if len(node.line_spans) > 4 else "")
        )
    if node.selectivity < 1.0:
        attrs.append(f"sel={node.selectivity:.2f}")
    attrs.append(f"est={node.est_bursts:.1f}")
    parts.append("[" + " ".join(attrs) + "]")
    return " ".join(p for p in parts if p)


def _render_tree(root: PhysicalNode) -> List[str]:
    lines: List[str] = []

    def visit(node, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_physical_label(node))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _physical_label(node))
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            visit(child, child_prefix, i == len(node.children) - 1, False)

    visit(root, "", True, True)
    return lines
