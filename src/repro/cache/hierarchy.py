"""Three-level cache hierarchy (Table 2: L1 32KB, L2 256KB, LLC 8MB).

The hierarchy is functional (hit/miss classification + inclusive fills):
a probe reports only the sectors to fetch, and the cores charge a hit
their issue cycles at any level.  All levels are sector caches so SAM's
strided fills stay at sector granularity end to end; the line and sector
sizes are the design's (a 64-byte line in codeword-sized sectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import List, Sequence, Tuple

from .sector import Eviction, SectorCache


@dataclass(frozen=True)
class HierarchyConfig:
    """Per-level capacity and associativity (Table 2)."""

    l1_bytes: int = 32 * 1024
    l1_ways: int = 8
    l2_bytes: int = 256 * 1024
    l2_ways: int = 8
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 8


class CacheHierarchy:
    """L1 -> L2 -> LLC, inclusive on fill paths, LRU everywhere."""

    def __init__(self, config: HierarchyConfig | None = None,
                 per_core_l1: int = 1, line_bytes: int = 64,
                 sectors: int = 4) -> None:
        c = config or HierarchyConfig()
        self.l1 = [
            SectorCache(c.l1_bytes, c.l1_ways, line_bytes, sectors,
                        name=f"L1[{i}]")
            for i in range(per_core_l1)
        ]
        self.l2 = SectorCache(c.l2_bytes, c.l2_ways, line_bytes, sectors,
                              name="L2")
        self.llc = SectorCache(c.llc_bytes, c.llc_ways, line_bytes, sectors,
                               name="LLC")
        #: ``(line_addr, sector_mask)`` of an access: every level holds
        #: the design's line in the same sectors
        self.locate = self.llc.locate

    # --------------------------------------------------------------- reads

    def lookup(self, core: int, line_addr: int, sector_mask: int) -> int:
        """Probe L1 -> L2 -> LLC; fill upper levels on a lower-level hit.
        Returns the sectors to fetch from memory, 0 on a hit.  A level
        without the line misses whatever the mask, so the next level is
        probed for the same sectors."""
        l1 = self.l1[core % len(self.l1)]
        missing = l1.lookup(line_addr, sector_mask)
        if not missing:
            if missing is not None:
                return 0
            missing = sector_mask
        missing2 = self.l2.lookup(line_addr, missing)
        if not missing2:
            if missing2 is not None:
                l1.fill_clean(line_addr, missing)
                return 0
            missing2 = missing
        missing3 = self.llc.lookup(line_addr, missing2)
        if not missing3:
            if missing3 is not None:
                self.l2.fill_clean(line_addr, missing)
                l1.fill_clean(line_addr, missing)
                return 0
            return missing2
        return missing3

    def fill_from_memory(self, core: int, line_addr: int,
                         sector_mask: int) -> List[Eviction]:
        """Install fetched sectors in all levels, LLC -> L2 -> L1; returns
        the dirty victims in eviction order."""
        llc = self.llc.fill_clean(line_addr, sector_mask)
        l2 = self.l2.fill_clean(line_addr, sector_mask)
        l1 = self.l1[core % len(self.l1)].fill_clean(line_addr, sector_mask)
        if llc is None and l2 is None and l1 is None:
            return []
        return [victim for victim in (llc, l2, l1) if victim is not None]

    def fill_lines_from_memory(
        self, core: int, fills: Sequence[Tuple[int, int]]
    ) -> List[Eviction]:
        """Install ``(line_addr, sector_mask)`` fills as if in order, each
        one LLC -> L2 -> L1; returns the dirty victims in that eviction
        order.  A level's fills touch only that level, so each level
        takes the whole batch at once and its victims are merged back by
        fill, then level."""
        victims = (self.llc.fill_lines(fills) + self.l2.fill_lines(fills)
                   + self.l1[core % len(self.l1)].fill_lines(fills))
        if not victims:
            return []
        # a stable sort of the level-major list keeps LLC, L2, L1 order
        # among one fill's victims
        victims.sort(key=itemgetter(0))
        return [victim for _, victim in victims]

    # -------------------------------------------------------------- writes

    def write(self, core: int, line_addr: int, sector_mask: int) -> int:
        """Write-allocate, write-back: on a hit the sectors become valid
        and dirty at every level holding the line, otherwise returns the
        sectors to fetch (read-for-ownership)."""
        missing = self.lookup(core, line_addr, sector_mask)
        if not missing:
            self.l1[core % len(self.l1)].write_resident(line_addr,
                                                        sector_mask)
            self.l2.write_resident(line_addr, sector_mask)
            self.llc.write_resident(line_addr, sector_mask)
        return missing

    # ------------------------------------------------------------ internals

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
