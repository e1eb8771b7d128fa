"""Experiment harness: regenerates every table and figure of the paper."""

from .figure12 import Figure12Result, run_figure12
from .figure13 import Figure13Result, run_figure13
from .figure14 import (
    run_figure14a,
    run_figure14b,
    run_figure14c,
    render_figure14c,
)
from .figure15 import FIG15_DESIGNS, Figure15Result, run_figure15
from .kernels import (
    KERNEL_DESIGNS,
    KernelSweepResult,
    build_kernel_spec,
    run_kernel_sweep,
)
from .reliability import ReliabilityResult, run_reliability

__all__ = [
    "Figure12Result",
    "run_figure12",
    "Figure13Result",
    "run_figure13",
    "run_figure14a",
    "run_figure14b",
    "run_figure14c",
    "render_figure14c",
    "FIG15_DESIGNS",
    "Figure15Result",
    "run_figure15",
    "KERNEL_DESIGNS",
    "KernelSweepResult",
    "build_kernel_spec",
    "run_kernel_sweep",
    "ReliabilityResult",
    "run_reliability",
]
