"""Reliability evaluation (the chipkill claims of Sections 3-4).

Two complementary analyses:

* **structural** -- codeword-integrity checks per access scheme: a strided
  transfer is protectable only if it moves complete codewords
  (:mod:`repro.ecc.layout`); SAM does, GS-DRAM does not.
* **empirical** -- Monte-Carlo fault injection through the real RS
  decoders: chip faults, DQ faults, double-chip faults, with per-design
  protection rates (GS-DRAM's strided accesses run uncovered).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence

from ..core.registry import make_scheme
from ..exp import ExperimentSpec, SweepEngine, SweepPoint
from ..ecc.chipkill import SSCCodec, SSCDSDCodec
from ..ecc.injection import FAULT_MODELS, run_campaign, unprotected_tally
from ..ecc.layout import (
    gs_dram_gather_check,
    regular_transfer_check,
    sam_gather_check,
)


@dataclass
class ReliabilityRow:
    design: str
    strided_codewords_intact: bool
    chip_fault_protection: float  # fraction corrected-or-detected
    dq_fault_protection: float
    double_chip_protection: float


def evaluate_design(design: str, trials: int = 500,
                    seed: int = 0) -> ReliabilityRow:
    """Reliability of strided accesses under one design."""
    scheme = make_scheme(design)
    if not scheme.supports_stride:
        intact = regular_transfer_check().complete
    elif design.startswith("GS-DRAM") and design != "GS-DRAM-ecc":
        intact = gs_dram_gather_check().complete
    elif design == "GS-DRAM-ecc":
        # embedded ECC restores coverage at a bandwidth cost
        intact = True
    else:
        intact = sam_gather_check().complete

    if intact:
        codec = SSCCodec()
        chip = run_campaign(codec, FAULT_MODELS["chip"], trials, seed)
        dq = run_campaign(codec, FAULT_MODELS["dq"], trials, seed + 1)
        dsd = SSCDSDCodec()
        double = run_campaign(dsd, FAULT_MODELS["double_chip"], trials,
                              seed + 2)
        return ReliabilityRow(
            design,
            True,
            chip.protected_rate,
            dq.protected_rate,
            double.protected_rate,
        )
    chip = unprotected_tally(FAULT_MODELS["chip"], trials, seed)
    dq = unprotected_tally(FAULT_MODELS["dq"], trials, seed + 1)
    double = unprotected_tally(FAULT_MODELS["double_chip"], trials, seed + 2)
    return ReliabilityRow(
        design,
        False,
        chip.protected_rate,
        dq.protected_rate,
        double.protected_rate,
    )


#: the designs of the reliability matrix, in display order
RELIABILITY_DESIGNS = (
    "baseline", "SAM-sub", "SAM-IO", "SAM-en",
    "GS-DRAM", "GS-DRAM-ecc", "RC-NVM-wd",
)


def build_reliability_spec(
    trials: int = 500,
    seed: int = 0,
    designs: Sequence[str] = RELIABILITY_DESIGNS,
) -> ExperimentSpec:
    """The reliability matrix as data: one Monte-Carlo campaign per
    design (``kind="reliability"`` points dispatch to
    :func:`evaluate_design` in whichever process runs them)."""
    points = tuple(
        SweepPoint(
            key=("reliability", d),
            kind="reliability",
            scheme=d,
            params=(("seed", seed), ("trials", trials)),
        )
        for d in designs
    )
    return ExperimentSpec(
        "reliability", points,
        normalize="protection rates are already fractions",
    )


@dataclass
class ReliabilityResult:
    """The reliability matrix: one row per design, in display order."""

    rows: Dict[str, ReliabilityRow]
    trials: int

    def payload(self) -> Dict[str, object]:
        """Machine-readable form (``--json`` / artifact export)."""
        return {
            "kind": "reliability",
            "trials": self.trials,
            "designs": {name: asdict(row) for name, row in self.rows.items()},
        }

    def render(self) -> str:
        lines = ["design        codewords-intact  chip-fault  dq-fault  "
                 "double-chip"]
        lines += [
            f"{r.design:13s} {str(r.strided_codewords_intact):>14}"
            f"  {r.chip_fault_protection:9.1%} {r.dq_fault_protection:9.1%}"
            f" {r.double_chip_protection:11.1%}"
            for r in self.rows.values()
        ]
        return "\n".join(lines)


def run_reliability(
    trials: int = 500,
    engine: Optional[SweepEngine] = None,
) -> ReliabilityResult:
    engine = engine or SweepEngine()
    run = engine.run(build_reliability_spec(trials))
    return ReliabilityResult(
        {d: run[("reliability", d)] for d in RELIABILITY_DESIGNS}, trials
    )
