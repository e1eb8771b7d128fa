"""Micro-kernel stride sweep: where SAM helps, where it cannot.

The paper's Figure 14 asks the sensitivity question -- how does the
speedup move as the access pattern changes?  This harness asks it with
generated micro-kernels instead of SQL: the
:class:`~repro.workloads.KernelWorkload` families from the workload IR
(stream read/write/copy, strided gather/scatter at parametric stride,
and the PolyBench-style mxv / jacobi2d / doitgen) swept across stride
points and designs.  The expected shape:

* ``strided_*`` kernels gain roughly the gather factor once the stride
  spans a full cache line -- each baseline line fetch carries one useful
  element, each SAM gather carries eight;
* ``stream_*`` and ``jacobi2d`` are unit-stride and gain nothing: every
  fetched line is already fully used, so there is nothing for stride
  hardware to recover;
* ``mxv`` / ``doitgen`` mix a contiguous stream with a strided operand
  and land in between;
* ``masa`` (subarray parallelism without stride hardware) tracks the
  baseline on these single-region kernels -- it attacks bank conflicts,
  not sparse fetch.

Every point is one end-to-end simulation through the standard
:class:`~repro.exp.SweepEngine` (``--jobs``, ``--check`` and the result
cache behave exactly like the figure harnesses); under ``--check`` each
kernel run is validated op-for-op against the generator's expected-bytes
model by the :class:`~repro.check.KernelOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..exp import ExperimentSpec, SweepEngine, design_points
from ..workloads import KernelWorkload

#: Designs swept against the row-store baseline.
KERNEL_DESIGNS = ("SAM-en", "masa")

#: Strided families x stride points (bytes): the Figure-14-style grid.
STRIDE_FAMILIES = ("strided_read", "strided_write", "strided_copy")
STRIDE_POINTS = (64, 256, 1024)

#: Footprint (records) of each strided-family kernel.
STRIDE_RECORDS = 512

#: Fixed context rows: unit-stride streams and the PolyBench trio.
FIXED_KERNELS = (
    "stream_read[n=2048]",
    "stream_copy[n=2048]",
    "mxv[n=32]",
    "jacobi2d[n=24]",
    "doitgen[n=24]",
)


def kernel_grid() -> List[KernelWorkload]:
    """The sweep's workloads in row order: stride grid, then fixed rows."""
    grid = [
        KernelWorkload.from_spec(
            f"{family}[n={STRIDE_RECORDS},stride={stride}]"
        )
        for family in STRIDE_FAMILIES
        for stride in STRIDE_POINTS
    ]
    grid += [KernelWorkload.from_spec(spec) for spec in FIXED_KERNELS]
    return grid


@dataclass
class KernelSweepResult:
    """Cycles and speedups per (design, kernel)."""

    designs: List[str]
    kernels: List[str]
    #: cycles[design][kernel]; includes the "baseline" row
    cycles: Dict[str, Dict[str, int]]
    #: speedup over the row-store baseline, per kernel
    speedups: Dict[str, Dict[str, float]]
    #: gather bursts the controller served (reads + writes), per
    #: (design, kernel) -- zero on designs without stride hardware, the
    #: direct witness of *why* a kernel did or did not accelerate
    gathers: Dict[str, Dict[str, int]]

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "kernel-sweep",
            "designs": self.designs,
            "kernels": self.kernels,
            "stride_points": list(STRIDE_POINTS),
            "cycles": self.cycles,
            "speedups": self.speedups,
            "gathers": self.gathers,
        }

    def render(self) -> str:
        designs = self.designs
        width = max(len(k) for k in self.kernels) + 2
        lines = ["Speedup over baseline (cycles_baseline / cycles):"]
        lines.append(
            "kernel".ljust(width) + "baseline".rjust(10)
            + "".join(d.rjust(12) for d in designs)
        )
        for k in self.kernels:
            row = k.ljust(width) + f"{self.cycles['baseline'][k]:10d}"
            row += "".join(
                f"{self.speedups[d][k]:12.2f}" for d in designs
            )
            lines.append(row)
        return "\n".join(lines)


def build_kernel_spec(
    designs: Optional[Sequence[str]] = None,
    gather_factor: int = 8,
) -> ExperimentSpec:
    """The sweep as data: baseline plus every design, per kernel."""
    points = design_points(["baseline", *(designs or KERNEL_DESIGNS)],
                           kernel_grid(), gather_factor)
    return ExperimentSpec(
        "kernels", tuple(points),
        normalize="divide by baseline cycles per kernel",
    )


def run_kernel_sweep(
    designs: Optional[Sequence[str]] = None,
    gather_factor: int = 8,
    engine: Optional[SweepEngine] = None,
) -> KernelSweepResult:
    """Run the micro-kernel sweep and shape the per-kernel speedups."""
    engine = engine or SweepEngine()
    design_list = list(designs or KERNEL_DESIGNS)
    names = [w.name for w in kernel_grid()]
    run = engine.run(build_kernel_spec(design_list, gather_factor))
    series = ["baseline"] + design_list
    return KernelSweepResult(
        design_list, names,
        cycles=run.table(series, names),
        speedups=run.speedups(design_list, names),
        gathers=run.table(series, names, value=lambda r: int(
            r.memory_stats.gather_reads + r.memory_stats.gather_writes)),
    )
