"""Declarative experiment specifications.

A paper figure is a *grid* of independent simulations.  Instead of each
harness hand-rolling its own nested loops around the runner, it builds
an :class:`ExperimentSpec`: a named, ordered tuple of
:class:`SweepPoint` records, each describing one unit of work purely as
data -- scheme name, workload, config and overrides.  Because a point is
plain (frozen-dataclass) data, it can be

* pickled to a worker process (parallel execution),
* hashed to a stable content digest (result caching), and
* replayed bit-identically in any order (deterministic sweeps).

Most figures are a design x workload grid normalized to the row-store
baseline: harnesses build that grid with :func:`design_points` and read
it back with :meth:`~repro.exp.SweepRun.table` and
:meth:`~repro.exp.SweepRun.speedups`.

The work itself is a :class:`repro.workloads.Workload` -- a relational
query (:class:`~repro.workloads.QueryWorkload`) or a generated
micro-kernel (:class:`~repro.workloads.KernelWorkload`).  Workloads
describe their memory footprint as :class:`~repro.workloads.TableSpec`
*recipes* rather than materialized arrays: table data is a pure function
of ``(schema, n_records, seed)``, so workers rebuild it locally and the
spec stays tiny and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

# table recipes live with the workload IR now; re-exported here because
# they are part of the sweep-spec vocabulary (specs reference recipes)
from ..workloads.tables import TableSpec, build_tables, standard_tables
from ..core.registry import stride_gather
from ..sim.config import SystemConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads import Workload

__all__ = [
    "POINT_KINDS",
    "ExperimentSpec",
    "SweepPoint",
    "TableSpec",
    "build_tables",
    "design_points",
    "standard_tables",
]

#: sweep-point kinds :func:`repro.exp.engine.execute_point` runs
POINT_KINDS = ("query", "kernel", "reliability")

#: kinds executed through :func:`repro.sim.runner.run_workload`
WORKLOAD_KINDS = ("query", "kernel")


@dataclass(frozen=True)
class SweepPoint:
    """One unit of sweep work, described purely as data.

    ``key`` is the point's identity inside its spec -- a tuple of strings
    chosen by the spec builder (e.g. ``("SAM-en", "Q3")``) that result
    shapers use to look results back up.  ``kind`` selects the executor:
    ``"query"`` and ``"kernel"`` run the point's ``workload`` through
    :func:`repro.sim.runner.run_workload`, ``"reliability"`` runs a
    fault-injection campaign.  ``params`` carries kind-specific extras as
    a sorted tuple of pairs (kept hashable for caching).

    The whole record is the point's cache identity.  A cycle-level
    timeline observes a run without changing its outcome, so it is set
    on the :class:`~repro.exp.SweepEngine`, not on the point.
    """

    key: Tuple[str, ...]
    kind: str = "query"
    scheme: Optional[str] = None
    workload: "Optional[Workload]" = None
    gather_factor: Optional[int] = None
    timing: Optional[str] = None  # base-timing preset override by name
    config: Optional[SystemConfig] = None
    #: run with the repro.check protocol checker + workload oracle
    #: attached (strict: a violation aborts the sweep); part of the cache
    #: digest, so checked and unchecked payloads never alias
    check: bool = False
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("a sweep point needs a non-empty key")
        if self.kind not in POINT_KINDS:
            raise ValueError(
                f"unknown point kind {self.kind!r}; have {POINT_KINDS}"
            )
        if self.kind in WORKLOAD_KINDS:
            if self.scheme is None or self.workload is None:
                raise ValueError(
                    f"a {self.kind} point needs a scheme and a workload"
                )
            if self.workload.kind != self.kind:
                raise ValueError(
                    f"point kind {self.kind!r} does not match workload "
                    f"kind {self.workload.kind!r} "
                    f"({self.workload.name})"
                )
        elif self.scheme is None:
            raise ValueError(f"a {self.kind} point needs a scheme/design")

    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    @property
    def label(self) -> str:
        return "/".join(self.key)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named grid of sweep points plus its normalization rule.

    ``normalize`` documents how shapers turn raw results into figure
    numbers (e.g. ``"divide by baseline cycles per query"``); the engine
    itself never normalizes -- it only guarantees that results come back
    keyed and ordered exactly like ``points``.
    """

    name: str
    points: Tuple[SweepPoint, ...]
    normalize: Optional[str] = None

    def __post_init__(self) -> None:
        keys = [p.key for p in self.points]
        if len(set(keys)) != len(keys):
            seen: set = set()
            dup = next(k for k in keys if k in seen or seen.add(k))
            raise ValueError(f"duplicate sweep-point key {dup!r}")

    def __len__(self) -> int:
        return len(self.points)

    def keys(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(p.key for p in self.points)


def design_points(
    designs: Iterable[str],
    workloads: Sequence["Workload"],
    gather_factor: Optional[int] = None,
    prefix: Tuple[str, ...] = (),
    timing: Optional[str] = None,
) -> List[SweepPoint]:
    """One point per (design, workload), design-major.

    Each point is keyed ``prefix + (design, workload.name)`` and takes
    its ``kind`` from its workload.  Only stride-capable designs get
    ``gather_factor`` (the others reject one); ``timing`` forces a
    base-timing preset on every point.
    """
    return [
        SweepPoint(key=prefix + (design, w.name), kind=w.kind, scheme=design,
                   workload=w, timing=timing,
                   gather_factor=stride_gather(design, gather_factor))
        for design in designs
        for w in workloads
    ]
