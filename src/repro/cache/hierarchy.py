"""Three-level cache hierarchy (Table 2: L1 32KB, L2 256KB, LLC 8MB).

The hierarchy is functional (hit/miss classification + inclusive fills).
A probe reports the configured hit latency of the level that hit, but no
simulated timing reads it: the cores charge a hit their issue cycles at
any level.  All levels are sector caches so SAM's strided fills stay at
sector granularity end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .sector import Eviction, SectorCache


@dataclass(frozen=True)
class HierarchyConfig:
    l1_bytes: int = 32 * 1024
    l1_ways: int = 8
    l2_bytes: int = 256 * 1024
    l2_ways: int = 8
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 8
    line_bytes: int = 64
    sectors: int = 4
    # memory-controller cycles, reported by LookupResult.latency; the
    # cores do not charge them
    l1_latency: int = 1
    l2_latency: int = 4
    llc_latency: int = 12


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a hierarchy probe."""

    level: Optional[int]  # 1, 2, 3 for a hit; None for full miss
    latency: int  # configured latency of the deepest level probed
    missing_mask: int  # sectors to fetch from memory (0 on hit)


class CacheHierarchy:
    """L1 -> L2 -> LLC, inclusive on fill paths, LRU everywhere."""

    def __init__(self, config: HierarchyConfig | None = None,
                 per_core_l1: int = 1) -> None:
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1 = [
            SectorCache(c.l1_bytes, c.l1_ways, c.line_bytes, c.sectors,
                        name=f"L1[{i}]")
            for i in range(per_core_l1)
        ]
        self.l2 = SectorCache(c.l2_bytes, c.l2_ways, c.line_bytes, c.sectors,
                              name="L2")
        self.llc = SectorCache(c.llc_bytes, c.llc_ways, c.line_bytes,
                               c.sectors, name="LLC")
        # a hit's result depends only on its level, so it is shared
        self._l1_hit = LookupResult(1, c.l1_latency, 0)
        self._l2_hit = LookupResult(2, c.l2_latency, 0)
        self._llc_hit = LookupResult(3, c.llc_latency, 0)

    # --------------------------------------------------------------- reads

    def lookup(self, core: int, line_addr: int,
               sector_mask: int) -> LookupResult:
        """Probe L1 -> L2 -> LLC; fill upper levels on a lower-level hit."""
        l1 = self.l1[core % len(self.l1)]
        hit, missing = l1.lookup(line_addr, sector_mask)
        if hit:
            return self._l1_hit
        hit, missing2 = self.l2.lookup(line_addr, missing)
        if hit:
            l1.fill(line_addr, missing)
            return self._l2_hit
        hit, missing3 = self.llc.lookup(line_addr, missing2)
        if hit:
            self.l2.fill(line_addr, missing)
            l1.fill(line_addr, missing)
            return self._llc_hit
        return LookupResult(None, self.config.llc_latency, missing3)

    def fill_from_memory(self, core: int, line_addr: int,
                         sector_mask: int) -> List[Eviction]:
        """Install fetched sectors in all levels; returns dirty victims."""
        return self.fill_lines_from_memory(core, ((line_addr, sector_mask),))

    def fill_lines_from_memory(
        self, core: int, fills: Iterable[Tuple[int, int]]
    ) -> List[Eviction]:
        """Install ``(line_addr, sector_mask)`` fills in order, each one
        LLC -> L2 -> L1; returns the dirty victims in eviction order."""
        levels = (self.llc.fill, self.l2.fill,
                  self.l1[core % len(self.l1)].fill)
        evictions = []
        for line_addr, sector_mask in fills:
            for fill in levels:
                victim = fill(line_addr, sector_mask)
                if victim is not None and victim.dirty_mask:
                    evictions.append(victim)
        return evictions

    # -------------------------------------------------------------- writes

    def write(self, core: int, line_addr: int,
              sector_mask: int) -> LookupResult:
        """Write-allocate, write-back: marks sectors dirty when resident,
        otherwise reports the sectors to fetch (read-for-ownership)."""
        result = self.lookup(core, line_addr, sector_mask)
        if result.level is not None:
            self._dirty_all(core, line_addr, sector_mask)
        return result

    def complete_write_fill(self, core: int, line_addr: int,
                            sector_mask: int) -> List[Eviction]:
        """Fill after a write miss, marking the written sectors dirty."""
        evictions = self.fill_from_memory(core, line_addr, sector_mask)
        self._dirty_all(core, line_addr, sector_mask)
        return evictions

    # ------------------------------------------------------------ internals

    def _dirty_all(self, core: int, line_addr: int, sector_mask: int) -> None:
        """Validate and dirty the sectors at every level holding the line."""
        self.l1[core % len(self.l1)].write_resident(line_addr, sector_mask)
        self.l2.write_resident(line_addr, sector_mask)
        self.llc.write_resident(line_addr, sector_mask)

    def occupancy(self) -> dict:
        """Per-level residency snapshot, keyed by cache name."""
        out = {cache.name: cache.occupancy() for cache in self.l1}
        out["L2"] = self.l2.occupancy()
        out["LLC"] = self.llc.occupancy()
        return out

    def flush_dirty(self) -> List[Eviction]:
        """Flush every level; dirty LLC lines become writebacks."""
        for cache in self.l1:
            cache.flush()
        self.l2.flush()
        return [e for e in self.llc.flush() if e.dirty_mask]
