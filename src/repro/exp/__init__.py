"""Unified sweep engine: declarative specs, parallel execution, caching.

Every harness (Figures 12-15, reliability, SALP, kernels) describes its
grid of independent simulations as an :class:`ExperimentSpec` of
:class:`SweepPoint` data records and hands it to a :class:`SweepEngine`,
which executes points serially or across worker processes (``jobs``),
skips points already present in a content-addressed :class:`ResultCache`,
and returns results keyed and ordered exactly like the spec -- parallel
output is bit-identical to serial.
"""

from .cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
    point_digest,
    source_digest,
)
from .engine import PointOutcome, SweepEngine, SweepRun, execute_point
from .spec import (
    ExperimentSpec,
    SweepPoint,
    TableSpec,
    build_tables,
    design_points,
    standard_tables,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ExperimentSpec",
    "PointOutcome",
    "ResultCache",
    "SweepEngine",
    "SweepPoint",
    "SweepRun",
    "TableSpec",
    "build_tables",
    "default_cache_dir",
    "design_points",
    "execute_point",
    "point_digest",
    "source_digest",
    "standard_tables",
]
