"""Set-associative sector cache (Section 5.1.1).

SAM returns strided data as sectors of a cacheline (one chipkill codeword
each), so the cache tracks validity and dirtiness per sector: a line may be
resident with only the sectors a strided load brought in.  Regular fills
validate all sectors.  Sector count is configurable (4 x 16B under SSC,
8 x 8B under SSC-DSD).

A resident line's state is one int, ``valid | dirty << sectors``: the
low ``sectors`` bits are the valid mask and the bits above them the
dirty mask.  Each set is a plain dict from line address to that int,
whose insertion order is the LRU order: a touch pops the line and
re-inserts it as most recently used, and the victim is the first key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterable, List, Optional, Tuple


def full_mask(sectors: int) -> int:
    return (1 << sectors) - 1


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    partial_hits: int = 0  # line present but some requested sectors invalid
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class Eviction:
    """A victim line pushed out by a fill."""

    line_addr: int
    dirty_mask: int


class SectorCache:
    """One cache level with per-sector valid/dirty bits and LRU sets.

    Sector masks passed in must lie within ``full_mask(sectors)``, as
    :meth:`sector_mask_for` builds them; a higher bit would alias a
    dirty bit of the packed line state.
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        sectors: int = 4,
        name: str = "cache",
    ) -> None:
        if min(size_bytes, ways, line_bytes, sectors) <= 0:
            raise ValueError(
                f"cache geometry must be positive: size_bytes={size_bytes}, "
                f"ways={ways}, line_bytes={line_bytes}, sectors={sectors}"
            )
        if line_bytes % sectors:
            raise ValueError(
                f"{sectors} sectors do not divide a {line_bytes}-byte line"
            )
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must divide into ways * line size")
        self.name = name
        self.line_bytes = line_bytes
        self.sectors = sectors
        self.sector_bytes = line_bytes // sectors
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        # set index -> {line_addr: valid | dirty << sectors}, LRU first; a
        # set is created on first touch, since a run touches a fraction
        # of an 8 MB LLC's sets
        self._sets: DefaultDict[int, Dict[int, int]] = defaultdict(dict)
        self.stats = CacheStats()

    # ------------------------------------------------------------- helpers

    def sector_mask_for(self, addr: int, size: int) -> int:
        """Mask of sectors covering ``[addr, addr + size)`` within a line."""
        if size <= 0:
            raise ValueError("size must be positive")
        offset = addr % self.line_bytes
        if offset + size > self.line_bytes:
            raise ValueError("access crosses a line boundary")
        first = offset // self.sector_bytes
        last = (offset + size - 1) // self.sector_bytes
        return (2 << last) - (1 << first)

    # -------------------------------------------------------------- access

    def lookup(self, line_addr: int, sector_mask: int) -> Tuple[bool, int]:
        """Probe without filling.

        Returns ``(hit, missing_mask)``: hit is True when every requested
        sector is valid; ``missing_mask`` lists the sectors that must be
        fetched.  Updates LRU on any touch of a resident line.
        """
        stats = self.stats
        stats.accesses += 1
        cache_set = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        state = cache_set.pop(line_addr, None)
        if state is None:
            stats.misses += 1
            return False, sector_mask
        cache_set[line_addr] = state
        missing = sector_mask & ~state
        if missing:
            stats.misses += 1
            stats.partial_hits += 1
            return False, missing
        stats.hits += 1
        return True, 0

    def fill_clean(self, line_addr: int,
                   sector_mask: int) -> Optional[Eviction]:
        """Install clean sectors of a line as its most recently used,
        evicting the LRU line of a full set.  Returns the victim only when
        it is dirty, so a clean eviction allocates nothing."""
        cache_set = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        state = cache_set.pop(line_addr, None)
        if state is None:
            state = 0
            if len(cache_set) >= self.ways:
                victim_addr = next(iter(cache_set))
                dirty_mask = cache_set.pop(victim_addr) >> self.sectors
                stats = self.stats
                stats.evictions += 1
                if dirty_mask:
                    stats.writebacks += 1
                    cache_set[line_addr] = sector_mask
                    return Eviction(victim_addr, dirty_mask)
        cache_set[line_addr] = state | sector_mask
        return None

    def fill_lines(
        self, fills: Iterable[Tuple[int, int]]
    ) -> List[Tuple[int, Eviction]]:
        """:meth:`fill_clean` of each ``(line_addr, sector_mask)`` in
        order; returns the dirty victims as ``(index of the fill that
        evicted it, victim)``."""
        sets = self._sets
        line_bytes = self.line_bytes
        num_sets = self.num_sets
        ways = self.ways
        sectors = self.sectors
        evictions = 0
        dirty = []
        for index, (line_addr, sector_mask) in enumerate(fills):
            cache_set = sets[(line_addr // line_bytes) % num_sets]
            state = cache_set.pop(line_addr, None)
            if state is None:
                if len(cache_set) >= ways:
                    victim_addr = next(iter(cache_set))
                    dirty_mask = cache_set.pop(victim_addr) >> sectors
                    evictions += 1
                    if dirty_mask:
                        dirty.append(
                            (index, Eviction(victim_addr, dirty_mask)))
                cache_set[line_addr] = sector_mask
            else:
                cache_set[line_addr] = state | sector_mask
        stats = self.stats
        stats.evictions += evictions
        stats.writebacks += len(dirty)
        return dirty

    def write_resident(self, line_addr: int, sector_mask: int) -> bool:
        """Write sectors into a resident line: they become valid and
        dirty, and the line most recently used.  Returns False, changing
        nothing, when the line is not present."""
        cache_set = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        state = cache_set.pop(line_addr, None)
        if state is None:
            return False
        cache_set[line_addr] = state | sector_mask | sector_mask << self.sectors
        return True

    def occupancy(self) -> Dict[str, int]:
        """Resident/dirty line counts (observability snapshots)."""
        lines = 0
        dirty = 0
        sectors = self.sectors
        for cache_set in self._sets.values():
            lines += len(cache_set)
            for state in cache_set.values():
                if state >> sectors:
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
        sectors = self.sectors
        for index in sorted(self._sets):
            for line_addr, state in self._sets[index].items():
                dirty_mask = state >> sectors
                if dirty_mask:
                    out.append(Eviction(line_addr, dirty_mask))
                    self.stats.writebacks += 1
        self._sets.clear()
        return out
