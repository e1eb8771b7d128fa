"""Workload IR: everything the simulator can run, unified as data.

``repro.workloads`` is the layer between "what to measure" and "how to
simulate it".  A :class:`Workload` names itself, digests its content,
describes its memory footprint as :class:`TableSpec` recipes and lowers
itself into per-core op streams over the sload/sstore ISA -- so the
runner (:func:`repro.sim.runner.run_workload`), the sweep engine
(:class:`repro.exp.SweepPoint` carries a workload), the result cache
(keyed on the workload digest) and the check oracles all speak one
vocabulary regardless of whether the work is a relational query
(:class:`QueryWorkload`) or a generated micro-kernel
(:class:`KernelWorkload`, backed by the :data:`KERNELS` registry).

The table helpers (``make_tables``, ``standard_tables``, ``geomean``)
live here too: they describe workload inputs, not harness plumbing.
"""

from .base import Workload, WorkloadBuild
from .kernels import (
    KERNELS,
    KernelDef,
    KernelProgram,
    KernelWorkload,
    available_kernels,
)
from .query import QueryWorkload
from .tables import (
    DEFAULT_TA_RECORDS,
    DEFAULT_TB_RECORDS,
    TableSpec,
    build_tables,
    geomean,
    make_tables,
    standard_tables,
)

__all__ = [
    "DEFAULT_TA_RECORDS",
    "DEFAULT_TB_RECORDS",
    "KERNELS",
    "KernelDef",
    "KernelProgram",
    "KernelWorkload",
    "QueryWorkload",
    "TableSpec",
    "Workload",
    "WorkloadBuild",
    "available_kernels",
    "build_tables",
    "geomean",
    "make_tables",
    "standard_tables",
]
