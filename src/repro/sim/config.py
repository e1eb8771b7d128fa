"""Simulated-system configuration (Table 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cache.hierarchy import HierarchyConfig
from ..cpu.core import CoreConfig
from ..dram.controller import ControllerConfig


@dataclass(frozen=True)
class SystemConfig:
    """Everything Table 2 specifies, in one place.

    * Processor: 4 cores, x86, 4.0 GHz (the memory clock is 1.2 GHz, so
      one memory cycle is ~3.33 CPU cycles; core issue costs are given in
      memory cycles).
    * Caches: L1 32KB / L2 256KB / LLC 8MB, 8-way; the 64B line and its
      sectors are the scheme's.
    * Memory controller: open page, FR-FCFS, write queue capacity 32,
      address mapping rw:rk:bk:ch:cl:offset.
    * Memory: DDR4-2400, x4, 1 channel, 2 ranks, 16 banks -- the
      scheme's ``geometry``, since a design's placements, address map
      and controller all follow it.
    """

    cores: int = 4
    cpu_ghz: float = 4.0
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)

    @property
    def cpu_cycles_per_mem_cycle(self) -> float:
        # DDR4-2400 command clock is 1200 MHz
        return self.cpu_ghz * 1e9 / 1.2e9

    def compute_cycles(self, cpu_cycles: float) -> float:
        """Convert CPU cycles of work into memory-clock cycles."""
        return cpu_cycles / self.cpu_cycles_per_mem_cycle


DEFAULT_CONFIG = SystemConfig()
