"""Reference cache: the sector cache and hierarchy as they were before
the packed-int line state.

:class:`ReferenceSectorCache` keeps each line's valid and dirty masks in a
:class:`ReferenceLineState` and each set as an ``OrderedDict`` in LRU
order; :class:`ReferenceCacheHierarchy` builds its levels from it.  Both
are kept verbatim, only renamed and without their hit and miss
counters, so ``test_cache.py`` can drive them in lockstep with
:mod:`repro.cache` and assert every return value, resident line,
eviction and flush order.  Nothing in the simulator calls them.

The hierarchy's probe result, :class:`LookupResult`, and its per-level
hit latencies are kept here too: ``repro.cache`` returns only the
missing-sector mask, which the lockstep compares with ``missing_mask``.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Tuple

from repro.cache.hierarchy import HierarchyConfig
from repro.cache.sector import Eviction

#: hit latencies of L1, L2 and the LLC in memory-controller cycles, as
#: the hierarchy configuration used to carry them
L1_LATENCY, L2_LATENCY, LLC_LATENCY = 1, 4, 12


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a hierarchy probe."""

    level: Optional[int]  # 1, 2, 3 for a hit; None for full miss
    latency: int  # configured latency of the deepest level probed
    missing_mask: int  # sectors to fetch from memory (0 on hit)


@dataclass
class ReferenceLineState:
    """Residency state of one cached line."""

    valid_mask: int = 0
    dirty_mask: int = 0


class ReferenceSectorCache:
    """One cache level with per-sector valid/dirty bits and LRU sets."""

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        sectors: int = 4,
        name: str = "cache",
    ) -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must divide into ways * line size")
        self.name = name
        self.line_bytes = line_bytes
        self.sectors = sectors
        self.sector_bytes = line_bytes // sectors
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        # set index -> OrderedDict line_addr -> ReferenceLineState, LRU
        # first; a set is created on first touch, since a run touches a
        # fraction of an 8 MB LLC's sets
        self._sets: DefaultDict[int, OrderedDict] = defaultdict(OrderedDict)

    # ------------------------------------------------------------- helpers

    def _set_for(self, line_addr: int) -> OrderedDict:
        index = (line_addr // self.line_bytes) % self.num_sets
        return self._sets[index]

    def sector_mask_for(self, addr: int, size: int) -> int:
        """Mask of sectors covering ``[addr, addr + size)`` within a line."""
        if size <= 0:
            raise ValueError("size must be positive")
        offset = addr % self.line_bytes
        if offset + size > self.line_bytes:
            raise ValueError("access crosses a line boundary")
        first = offset // self.sector_bytes
        last = (offset + size - 1) // self.sector_bytes
        mask = 0
        for s in range(first, last + 1):
            mask |= 1 << s
        return mask

    # -------------------------------------------------------------- access

    def lookup(self, line_addr: int, sector_mask: int) -> Tuple[bool, int]:
        """Probe without filling.

        Returns ``(hit, missing_mask)``: hit is True when every requested
        sector is valid; ``missing_mask`` lists the sectors that must be
        fetched.  Updates LRU on any touch of a resident line.
        """
        cache_set = self._set_for(line_addr)
        state = cache_set.get(line_addr)
        if state is None:
            return False, sector_mask
        cache_set.move_to_end(line_addr)
        missing = sector_mask & ~state.valid_mask
        if missing:
            return False, missing
        return True, 0

    def mark_dirty(self, line_addr: int, sector_mask: int) -> bool:
        """Set dirty bits on a resident line; returns False if not present."""
        state = self._set_for(line_addr).get(line_addr)
        if state is None or (state.valid_mask & sector_mask) != sector_mask:
            return False
        state.dirty_mask |= sector_mask
        return True

    def fill(self, line_addr: int, sector_mask: int,
             dirty: bool = False) -> Optional[Eviction]:
        """Install sectors of a line, evicting LRU if needed."""
        cache_set = self._set_for(line_addr)
        state = cache_set.get(line_addr)
        evicted = None
        if state is None:
            if len(cache_set) >= self.ways:
                victim_addr, victim = cache_set.popitem(last=False)
                evicted = Eviction(victim_addr, victim.dirty_mask)
            state = ReferenceLineState()
            cache_set[line_addr] = state
        state.valid_mask |= sector_mask
        if dirty:
            state.dirty_mask |= sector_mask
        cache_set.move_to_end(line_addr)
        return evicted

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        """Drop a line; returns its dirty state for writeback."""
        cache_set = self._set_for(line_addr)
        state = cache_set.pop(line_addr, None)
        if state is None:
            return None
        return Eviction(line_addr, state.dirty_mask)

    def resident(self, line_addr: int) -> bool:
        return line_addr in self._set_for(line_addr)

    def occupancy(self) -> Dict[str, int]:
        """Resident/dirty line counts (observability snapshots)."""
        lines = 0
        dirty = 0
        for cache_set in self._sets.values():
            lines += len(cache_set)
            for state in cache_set.values():
                if state.dirty_mask:
                    dirty += 1
        return {
            "lines": lines,
            "dirty_lines": dirty,
            "capacity_lines": self.num_sets * self.ways,
        }

    def flush(self) -> List[Eviction]:
        """Empty the cache, returning all dirty victims in ascending set
        index (LRU first within a set), the order writebacks drain in."""
        out = []
        for index in sorted(self._sets):
            for line_addr, state in self._sets[index].items():
                if state.dirty_mask:
                    out.append(Eviction(line_addr, state.dirty_mask))
        self._sets.clear()
        return out


class ReferenceCacheHierarchy:
    """L1 -> L2 -> LLC, inclusive on fill paths, LRU everywhere."""

    def __init__(self, config: HierarchyConfig | None = None,
                 per_core_l1: int = 1, line_bytes: int = 64,
                 sectors: int = 4) -> None:
        self.config = config or HierarchyConfig()
        c = self.config
        self.l1 = [
            ReferenceSectorCache(c.l1_bytes, c.l1_ways, line_bytes,
                                 sectors, name=f"L1[{i}]")
            for i in range(per_core_l1)
        ]
        self.l2 = ReferenceSectorCache(c.l2_bytes, c.l2_ways, line_bytes,
                                       sectors, name="L2")
        self.llc = ReferenceSectorCache(c.llc_bytes, c.llc_ways, line_bytes,
                                        sectors, name="LLC")

    # --------------------------------------------------------------- reads

    def lookup(self, core: int, line_addr: int,
               sector_mask: int) -> LookupResult:
        """Probe L1 -> L2 -> LLC; fill upper levels on a lower-level hit."""
        l1 = self.l1[core % len(self.l1)]
        hit, missing = l1.lookup(line_addr, sector_mask)
        if hit:
            return LookupResult(1, L1_LATENCY, 0)
        hit2, missing2 = self.l2.lookup(line_addr, missing)
        if hit2:
            self._fill_upper(l1, None, line_addr, missing)
            return LookupResult(2, L2_LATENCY, 0)
        hit3, missing3 = self.llc.lookup(line_addr, missing2)
        if hit3:
            self._fill_upper(l1, self.l2, line_addr, missing)
            return LookupResult(3, LLC_LATENCY, 0)
        return LookupResult(None, LLC_LATENCY, missing3)

    def fill_from_memory(self, core: int, line_addr: int,
                         sector_mask: int) -> List[Eviction]:
        """Install fetched sectors in all levels; returns dirty victims."""
        l1 = self.l1[core % len(self.l1)]
        evictions = []
        for cache in (self.llc, self.l2, l1):
            victim = cache.fill(line_addr, sector_mask)
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

    def _fill_upper(self, l1: ReferenceSectorCache,
                    l2: Optional[ReferenceSectorCache],
                    line_addr: int, sector_mask: int) -> None:
        if l2 is not None:
            l2.fill(line_addr, sector_mask)
        l1.fill(line_addr, sector_mask)

    def _dirty_all(self, core: int, line_addr: int, sector_mask: int) -> None:
        l1 = self.l1[core % len(self.l1)]
        for cache in (l1, self.l2, self.llc):
            if cache.resident(line_addr):
                cache.fill(line_addr, sector_mask, dirty=True)

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
