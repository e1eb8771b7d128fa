"""Table schemas and synthetic data (Section 6.1).

The paper's benchmark uses two tables: a wide table *Ta* with 128 fields
and a narrow table *Tb* with 16 fields, every field 8 bytes (records of
1KB and 128B).  Field ``f10`` drives most predicates; its values are drawn
uniformly so a threshold hits any target selectivity exactly in
expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELD_BYTES = 8
#: predicate fields are drawn uniformly from [0, PREDICATE_RANGE)
PREDICATE_RANGE = 10_000


@dataclass(frozen=True)
class TableSchema:
    """Shape of one relational table."""

    name: str
    n_fields: int
    field_bytes: int = FIELD_BYTES

    @property
    def record_bytes(self) -> int:
        return self.n_fields * self.field_bytes

    def field_offset(self, field: int) -> int:
        if not 0 <= field < self.n_fields:
            raise IndexError(f"field {field} out of range for {self.name}")
        return field * self.field_bytes


#: Table 3's schemas.
TA = TableSchema("Ta", n_fields=128)
TB = TableSchema("Tb", n_fields=16)


class Table:
    """A materialized table: values as an (n_records, n_fields) array."""

    def __init__(self, schema: TableSchema, n_records: int,
                 seed: int = 0) -> None:
        if n_records <= 0:
            raise ValueError("a table needs at least one record")
        self.schema = schema
        self.n_records = n_records
        rng = np.random.default_rng(seed)
        self.values = rng.integers(
            0, PREDICATE_RANGE, size=(n_records, schema.n_fields),
            dtype=np.int64,
        )

    def column(self, field: int) -> np.ndarray:
        return self.values[:, field]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Table {self.schema.name} records={self.n_records} "
            f"fields={self.schema.n_fields}>"
        )
