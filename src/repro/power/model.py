"""Energy accounting over a controller's :class:`CommandStats`.

Follows the Micron power-calculator structure the paper uses (Section 6.1):

* background power  -- standby current integrated over the run,
* ACT energy        -- per activate/precharge pair,
* RD/WR energy      -- burst currents during data movement, split into the
  array-to-buffer (internal) part and the I/O part, because SAM-IO's
  gathers move four bursts internally for every burst on the pins.

Per-design adjustments mirror the paper: SAM-sub carries +2% background
(extra decoding and sense-amp logic); SAM-en's fine-grained activation
scales stride-mode activation and internal-burst energy down to the useful
fraction; RRAM has near-zero background but expensive writes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dram.controller import CommandStats
from ..dram.geometry import Geometry
from ..dram.timing import TimingParams
from .idd import DDR4_X4, DDR4_X16_CLASS, IDDValues


@dataclass(frozen=True)
class PowerConfig:
    """Technology + design specific energy knobs."""

    name: str = "dram"
    idd: IDDValues = DDR4_X4
    idd_stride: IDDValues = DDR4_X16_CLASS
    background_scale: float = 1.0  # SAM-sub: 1.02
    #: internal bursts moved per stride-mode gather (SAM-IO: 4; SAM-en: 1)
    stride_internal_bursts: int = 1
    #: activation-energy fraction in stride mode (SAM-en fine-grained: 0.25)
    stride_act_fraction: float = 1.0
    #: RRAM-style overrides (None means "use IDD model").  Crossbar reads
    #: pay half-select sneak currents, writes pay long SET/RESET pulses;
    #: background is near zero (non-volatile, no refresh).
    rram: bool = False
    rram_read_pj_per_bit: float = 15.0
    rram_write_pj_per_bit: float = 40.0
    rram_background_mw_per_chip: float = 1.0


@dataclass
class PowerBreakdown:
    """Energy (nanojoules) and average power (milliwatts) by component."""

    background_nj: float = 0.0
    act_nj: float = 0.0
    rdwr_nj: float = 0.0
    elapsed_ns: float = 0.0

    @property
    def total_nj(self) -> float:
        return self.background_nj + self.act_nj + self.rdwr_nj

    def power_mw(self, component: str = "total") -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        nj = {
            "background": self.background_nj,
            "act": self.act_nj,
            "rdwr": self.rdwr_nj,
            "total": self.total_nj,
        }[component]
        return nj / self.elapsed_ns * 1e3  # nJ/ns == W; report mW

    @property
    def total_mw(self) -> float:
        return self.power_mw("total")


class PowerModel:
    """Turns command counts into energy, Micron-calculator style."""

    def __init__(
        self,
        config: PowerConfig,
        timing: TimingParams,
        geometry: Geometry | None = None,
    ) -> None:
        self.config = config
        self.timing = timing
        self.geometry = geometry or Geometry()

    # ------------------------------------------------------ per-event costs

    def act_energy_nj(self, stride: bool = False) -> float:
        """One rank-level activate/precharge pair across all chips."""
        cfg = self.config
        if cfg.rram:
            # crossbar row "activation" is part of the read/write pulse
            return 0.2
        t = self.timing
        idd = cfg.idd
        trc_ns = t.ns(t.tRAS + t.tRP)
        # (IDD0 - IDD3N) integrated over tRC, per chip
        per_chip_nj = (idd.idd0 - idd.idd3n) * idd.vdd * trc_ns * 1e-3
        energy = per_chip_nj * self.geometry.chips
        if stride:
            energy *= cfg.stride_act_fraction
        return energy

    def burst_energy_nj(self, write: bool, stride: bool = False,
                        internal_only: bool = False) -> float:
        """One 8-beat burst: (IDD4 - IDD3N) over tBL across all chips.

        ``internal_only`` prices the array-to-buffer movement without pin
        I/O (the extra internal bursts of SAM-IO gathers and the
        RC-NVM-bit sub-field collections); it is charged at ~35% of a full
        burst, the array/datapath share of IDD4 without output drivers and
        termination.
        """
        cfg = self.config
        t = self.timing
        bl_ns = t.ns(t.tBL)
        if cfg.rram:
            bits = self.geometry.data_bus_bits * self.geometry.burst_length
            pj = (cfg.rram_write_pj_per_bit if write
                  else cfg.rram_read_pj_per_bit) * bits
            energy = pj * 1e-3
        else:
            idd = cfg.idd_stride if stride else cfg.idd
            amps = idd.idd4w if write else idd.idd4r
            per_chip_nj = (amps - idd.idd3n) * idd.vdd * bl_ns * 1e-3
            energy = per_chip_nj * self.geometry.chips
        if internal_only:
            energy *= 0.35
        return energy

    def background_power_mw(self) -> float:
        cfg = self.config
        if cfg.rram:
            per_chip = cfg.rram_background_mw_per_chip
        else:
            per_chip = cfg.idd.background_mw(active=True)
        chips = self.geometry.chips * self.geometry.ranks
        return per_chip * chips * cfg.background_scale

    # ---------------------------------------------------------- aggregation

    def evaluate(self, stats: CommandStats, elapsed_cycles: int) -> PowerBreakdown:
        """Total energy for a run summarised by ``stats``."""
        cfg = self.config
        out = PowerBreakdown()
        out.elapsed_ns = self.timing.ns(elapsed_cycles)
        out.background_nj = self.background_power_mw() * out.elapsed_ns * 1e-3

        regular_acts = stats.acts
        stride_acts = stats.col_acts
        out.act_nj += regular_acts * self.act_energy_nj(stride=False)
        out.act_nj += stride_acts * self.act_energy_nj(stride=True)

        stride_reads = stats.stride_mode_reads
        regular_reads = stats.reads - stride_reads
        out.rdwr_nj += regular_reads * self.burst_energy_nj(write=False)
        # A stride-mode gather: one burst on the pins at stride-class
        # current, plus the internal-only bursts the design fetches but
        # does not transmit.
        out.rdwr_nj += stride_reads * self.burst_energy_nj(
            write=False, stride=True
        )
        extra_internal = max(0, cfg.stride_internal_bursts - 1)
        out.rdwr_nj += (
            stride_reads
            * extra_internal
            * self.burst_energy_nj(write=False, stride=True,
                                   internal_only=True)
        )
        out.rdwr_nj += stats.writes * self.burst_energy_nj(write=True)
        # request-declared extra internal bursts (RC-NVM-bit, embedded ECC)
        out.rdwr_nj += stats.internal_bursts * self.burst_energy_nj(
            write=False, internal_only=True
        )
        # refresh: IDD5 over tRFC
        if not cfg.rram and self.timing.tRFC:
            idd = cfg.idd
            per_ref = (
                (idd.idd5 - idd.idd3n)
                * idd.vdd
                * self.timing.ns(self.timing.tRFC)
                * 1e-3
                * self.geometry.chips
            )
            out.act_nj += stats.refreshes * per_ref
        return out
