"""Query plans for the benchmark of Table 3.

The grammar is the small subset of SQL the paper evaluates: filtered
selects (with projection lists or ``*``), single-field aggregates, updates,
bulk inserts, equi-joins, and the parametric arithmetic/aggregate queries
of Figure 15.  Every query carries a ``prefers`` hint ("row" or "column")
that drives the paper's "ideal" series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class Conjunct:
    """One comparison in a WHERE clause.

    ``selectivity`` is the fraction of records the comparison keeps;
    :func:`~repro.imdb.plan.selected_mask` resolves it to a concrete
    threshold against the table data.
    ``op`` is one of ``>``, ``<``, ``==``.
    """

    field: int
    op: str
    selectivity: float

    def __post_init__(self) -> None:
        if self.op not in (">", "<", "=="):
            raise ValueError(f"unsupported comparison {self.op!r}")
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError("selectivity must be within [0, 1]")


@dataclass(frozen=True)
class Predicate:
    """A conjunction of comparisons (AND)."""

    conjuncts: Tuple[Conjunct, ...]

    @staticmethod
    def where(field: int, op: str, selectivity: float) -> "Predicate":
        return Predicate((Conjunct(field, op, selectivity),))

    @property
    def fields(self) -> Tuple[int, ...]:
        return tuple(c.field for c in self.conjuncts)


@dataclass(frozen=True)
class SelectQuery:
    """SELECT <fields|*> FROM <table> [WHERE ...] [LIMIT n]."""

    name: str
    table: str
    projected: Optional[Tuple[int, ...]]  # None means '*'
    predicate: Optional[Predicate]
    limit: Optional[int] = None
    prefers: str = "column"


@dataclass(frozen=True)
class AggregateQuery:
    """SELECT FUNC(f), ... FROM <table> [WHERE ...]."""

    name: str
    table: str
    func: str  # SUM or AVG
    fields: Tuple[int, ...]
    predicate: Optional[Predicate]
    prefers: str = "column"

    def __post_init__(self) -> None:
        if self.func not in ("SUM", "AVG"):
            raise ValueError(f"unsupported aggregate {self.func!r}")


@dataclass(frozen=True)
class UpdateQuery:
    """UPDATE <table> SET f=v,... WHERE ..."""

    name: str
    table: str
    assignments: Tuple[Tuple[int, int], ...]  # (field, new value)
    predicate: Predicate
    prefers: str = "column"


@dataclass(frozen=True)
class InsertQuery:
    """Bulk INSERT INTO <table> VALUES ... (one record per row)."""

    name: str
    table: str
    n_records: int
    prefers: str = "row"


@dataclass(frozen=True)
class JoinQuery:
    """SELECT a.fa, b.fb FROM a, b WHERE a.key = b.key [AND a.f > b.f]."""

    name: str
    build_table: str  # hashed side (the narrow table)
    probe_table: str
    key_field: int
    extra_compare_field: Optional[int]  # Q7's Ta.f1 > Tb.f1
    project_probe: int  # field projected from the probe side
    project_build: int  # field projected from the build side
    prefers: str = "column"


Query = Union[SelectQuery, AggregateQuery, UpdateQuery, InsertQuery, JoinQuery]
