"""Tests for the sector cache and the hierarchy."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.sector import SectorCache, full_mask

from .cache_oracle import ReferenceCacheHierarchy, ReferenceSectorCache


def small_cache(sectors=4, ways=2, sets=4):
    return SectorCache(
        size_bytes=ways * sets * 64, ways=ways, sectors=sectors
    )


def fill_dirty(cache, line_addr, sector_mask):
    """Install sectors and write them, as a write miss's fill does."""
    cache.fill_clean(line_addr, sector_mask)
    assert cache.write_resident(line_addr, sector_mask)


class TestSectorCache:
    def test_cold_miss(self):
        c = small_cache()
        hit, missing = c.lookup(0, 0b0001)
        assert not hit and missing == 0b0001

    def test_fill_then_hit(self):
        c = small_cache()
        c.fill_clean(0, 0b1111)
        hit, missing = c.lookup(0, 0b0110)
        assert hit and missing == 0

    def test_partial_sector_fill(self):
        """A strided fill validates only its sector (Section 5.1.1)."""
        c = small_cache()
        c.fill_clean(0, 0b0010)
        hit, missing = c.lookup(0, 0b0010)
        assert hit
        hit, missing = c.lookup(0, 0b0001)
        assert not hit and missing == 0b0001
        assert c.stats.partial_hits == 1

    def test_incremental_sector_fills_accumulate(self):
        c = small_cache()
        for s in range(4):
            c.fill_clean(0, 1 << s)
        hit, _ = c.lookup(0, full_mask(4))
        assert hit

    def test_lru_eviction(self):
        c = small_cache(ways=2, sets=1)
        fill_dirty(c, 0, 0b1111)
        fill_dirty(c, 64, 0b1111)
        c.lookup(0, 0b0001)  # touch line 0 -> line 64 is LRU
        victim = c.fill_clean(128, 0b1111)
        assert victim is not None and victim.line_addr == 64

    def test_dirty_eviction_reports_writeback(self):
        c = small_cache(ways=1, sets=1)
        fill_dirty(c, 0, 0b1111)
        victim = c.fill_clean(64, 0b1111)
        assert victim.dirty_mask == 0b1111
        assert c.stats.writebacks == 1

    def test_write_resident_requires_a_resident_line(self):
        """A write into a line that is not cached changes nothing; into a
        resident line, its sectors become valid and dirty."""
        c = small_cache()
        assert not c.write_resident(0, 0b0001)
        assert c.occupancy()["lines"] == 0
        c.fill_clean(0, 0b0001)
        assert c.write_resident(0, 0b0010)
        assert c.lookup(0, 0b0011) == (True, 0)
        assert [(e.line_addr, e.dirty_mask) for e in c.flush()] == [
            (0, 0b0010)]

    def test_sector_mask_for(self):
        c = small_cache(sectors=4)
        assert c.sector_mask_for(0, 8) == 0b0001
        assert c.sector_mask_for(16, 16) == 0b0010
        assert c.sector_mask_for(8, 16) == 0b0011
        assert c.sector_mask_for(64 + 48, 16) == 0b1000

    def test_mask_rejects_line_crossing(self):
        c = small_cache()
        with pytest.raises(ValueError):
            c.sector_mask_for(60, 8)

    def test_eight_sector_configuration(self):
        """SSC-DSD granularity: 8 sectors of 8B."""
        c = small_cache(sectors=8)
        assert c.sector_bytes == 8
        assert c.sector_mask_for(24, 8) == 1 << 3

    def test_flush(self):
        c = small_cache()
        fill_dirty(c, 0, 0b1111)
        c.fill_clean(64, 0b1111)
        dirty = c.flush()
        assert len(dirty) == 1 and dirty[0].line_addr == 0
        assert c.lookup(64, 0b0001) == (False, 0b0001)

    def test_flush_returns_victims_in_ascending_set_order(self):
        """Sets are built on first touch, so their creation order follows
        the access stream; flushing must still return dirty victims by
        ascending set index (LRU first within a set), the order the
        end-of-run writebacks drain in."""
        c = small_cache(ways=2, sets=4)
        for index in (3, 2, 1, 0):
            fill_dirty(c, index * 64, 0b1111)
            fill_dirty(c, (index + 4) * 64, 0b0011)
        assert [(e.line_addr // 64, e.dirty_mask) for e in c.flush()] == [
            (0, 0b1111), (4, 0b0011), (1, 0b1111), (5, 0b0011),
            (2, 0b1111), (6, 0b0011), (3, 0b1111), (7, 0b0011),
        ]
        assert c.occupancy()["lines"] == 0

    def test_hit_rate_stat(self):
        c = small_cache()
        c.fill_clean(0, 0b1111)
        c.lookup(0, 1)
        c.lookup(64, 1)
        assert c.stats.hit_rate == 0.5

    @pytest.mark.parametrize("geometry", [
        dict(size_bytes=100, ways=3),
        dict(size_bytes=0, ways=2),
        dict(size_bytes=-512, ways=2),
        dict(size_bytes=512, ways=0),
        dict(size_bytes=512, ways=2, line_bytes=0),
        dict(size_bytes=512, ways=2, sectors=0),
        dict(size_bytes=512, ways=2, sectors=-4),
        dict(size_bytes=512, ways=2, sectors=3),
    ], ids=["indivisible-size", "zero-size", "negative-size", "zero-ways",
            "zero-line", "zero-sectors", "negative-sectors",
            "sectors-not-dividing-line"])
    def test_bad_geometry(self, geometry):
        with pytest.raises(ValueError):
            SectorCache(**geometry)


class TestHierarchy:
    def make(self, sectors=4):
        cfg = HierarchyConfig(l1_bytes=1024, l2_bytes=4096, llc_bytes=16384)
        return CacheHierarchy(cfg, per_core_l1=2, sectors=sectors)

    def test_miss_everywhere(self):
        h = self.make()
        assert h.lookup(0, 0, 0b0001) == 0b0001
        assert h.llc.stats.misses == 1

    def test_fill_hits_l1(self):
        h = self.make()
        h.fill_from_memory(0, 0, 0b1111)
        assert h.lookup(0, 0, 0b0001) == 0
        assert h.l1[0].stats.hits == 1 and h.l2.stats.accesses == 0

    def test_private_l1(self):
        h = self.make()
        h.fill_from_memory(0, 0, 0b1111)
        # other core: L1 miss, L2 hit
        assert h.lookup(1, 0, 0b0001) == 0
        assert h.l1[1].stats.misses == 1 and h.l2.stats.hits == 1

    def test_l2_hit_fills_l1(self):
        h = self.make()
        h.fill_from_memory(0, 0, 0b1111)
        h.lookup(1, 0, 0b0001)
        assert h.lookup(1, 0, 0b0001) == 0
        assert h.l1[1].stats.hits == 1 and h.l2.stats.accesses == 1

    def test_llc_capacity_backs_l1(self):
        h = self.make()
        # fill enough lines to overflow L1 (16 lines) but not LLC
        for i in range(64):
            h.fill_from_memory(0, i * 64, 0b1111)
        assert h.lookup(0, 0, 0b0001) == 0
        assert h.l1[0].stats.misses == 1
        assert h.l2.stats.hits + h.llc.stats.hits == 1

    def test_write_hit_marks_dirty(self):
        h = self.make()
        h.fill_from_memory(0, 0, 0b1111)
        assert h.write(0, 0, 0b0001) == 0
        dirty = h.flush_dirty()
        assert any(e.line_addr == 0 for e in dirty)

    def test_write_miss_reports_fetch(self):
        h = self.make()
        assert h.write(0, 0, 0b0001) == 0b0001
        assert h.llc.stats.misses == 1

    def test_write_after_its_fill_dirties_the_written_sectors(self):
        """A write miss completes as the cores do it: the fetched sectors
        are installed, then the write hits and dirties them."""
        h = self.make()
        assert h.write(0, 0, 0b0011) == 0b0011
        h.fill_from_memory(0, 0, 0b0011)
        assert h.write(0, 0, 0b0011) == 0
        dirty = h.flush_dirty()
        assert dirty and dirty[0].dirty_mask == 0b0011

    def test_write_hit_refreshes_lru_at_every_level(self):
        """A write that hits in L1 also makes the line most recently used
        in L2 and the LLC, so the next conflicting fill evicts the other,
        clean line there and reports no dirty victim."""
        h = CacheHierarchy(HierarchyConfig(
            l1_bytes=128, l1_ways=2, l2_bytes=128, l2_ways=2,
            llc_bytes=128, llc_ways=2,
        ))
        h.fill_from_memory(0, 0, 0b1111)
        h.fill_from_memory(0, 64, 0b1111)
        assert h.write(0, 0, 0b0001) == 0
        assert h.l1[0].stats.hits == 1
        assert h.fill_from_memory(0, 128, 0b1111) == []
        assert h.lookup(0, 0, 0b0001) == 0
        assert h.l1[0].stats.hits == 2


# ---------------------------------------------------------------------------
# Lockstep against the reference cache of ``cache_oracle.py``: random
# operation sequences on tiny geometries, so sets fill up and evict, with
# every return value, counter, occupancy and flush order compared after
# each operation.
# ---------------------------------------------------------------------------

#: few enough distinct lines that writes and lookups often hit
line_indices = st.integers(0, 11)

#: (operation, line index, sector mask); a mask is cut down to the
#: cache's sectors before use.  Flushes are drawn rarely, so that sets
#: fill up and evict between them.
cache_ops = st.lists(
    st.tuples(
        st.sampled_from(("lookup", "fill_clean", "write_resident") * 4
                        + ("flush",)),
        line_indices,
        st.integers(0, 255),
    ),
    min_size=20,
    max_size=80,
)

hierarchy_ops = st.lists(
    st.tuples(
        st.sampled_from(("lookup", "write", "fill_from_memory",
                         "write_miss") * 4 + ("flush_dirty",)),
        st.integers(0, 1),  # core
        line_indices,
        st.integers(0, 255),
    ),
    min_size=20,
    max_size=80,
)


@given(
    sets=st.integers(1, 4),
    ways=st.integers(1, 4),
    sectors=st.sampled_from((4, 8)),
    ops=cache_ops,
)
@settings(max_examples=300, deadline=None)
def test_sector_cache_matches_reference(sets, ways, sectors, ops):
    fast = SectorCache(sets * ways * 64, ways, sectors=sectors)
    ref = ReferenceSectorCache(sets * ways * 64, ways, sectors=sectors)
    for op, line_idx, mask in ops:
        line = line_idx * 64
        mask &= full_mask(sectors)
        if op == "flush":
            assert fast.flush() == ref.flush()
        elif op == "lookup":
            assert fast.lookup(line, mask) == ref.lookup(line, mask)
        elif op == "fill_clean":
            assert fast.fill_clean(line, mask) == dirty_only(
                ref.fill(line, mask))
        else:
            assert fast.write_resident(line, mask) == ref_write_resident(
                ref, line, mask)
        assert fast.stats == ref.stats
        assert fast.occupancy() == ref.occupancy()
    assert fast.flush() == ref.flush()


def dirty_only(victim):
    """A reference fill's victim as :meth:`SectorCache.fill_clean`
    reports it: only when it is dirty."""
    return victim if victim is not None and victim.dirty_mask else None


def ref_write_resident(ref, line, mask):
    """:meth:`SectorCache.write_resident` on the reference, as the
    reference hierarchy dirties each level that holds the line."""
    if not ref.resident(line):
        return False
    ref.fill(line, mask, dirty=True)
    return True


#: ``(sets, ways)`` of L1, L2 and the LLC
hierarchy_geometry = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    min_size=3, max_size=3,
)


def lockstep_hierarchies(geometry, sectors):
    """Two cores with private L1s over a shared L2 and LLC, each level
    ``sets x ways`` lines: ``repro.cache``'s and the reference's."""
    (l1_sets, l1_ways), (l2_sets, l2_ways), (llc_sets, llc_ways) = geometry
    cfg = HierarchyConfig(
        l1_bytes=l1_sets * l1_ways * 64, l1_ways=l1_ways,
        l2_bytes=l2_sets * l2_ways * 64, l2_ways=l2_ways,
        llc_bytes=llc_sets * llc_ways * 64, llc_ways=llc_ways,
    )
    return (CacheHierarchy(cfg, per_core_l1=2, sectors=sectors),
            ReferenceCacheHierarchy(cfg, per_core_l1=2, sectors=sectors))


def apply(hierarchy, op, *args):
    """Run ``op`` on either hierarchy.  ``write_miss`` is a write miss as
    the cores complete it: the fetched sectors are installed, then the
    write hits and dirties them."""
    if op == "write_miss":
        return (hierarchy.fill_from_memory(*args),
                hierarchy.write(*args))
    return getattr(hierarchy, op)(*args)


def probe_matches(op, mine, theirs):
    """A probe (``lookup``, ``write``) returns the reference's missing
    mask; every other operation returns what the reference returns."""
    if op == "write_miss":
        return (mine[0] == theirs[0]
                and probe_matches("write", mine[1], theirs[1]))
    if op in ("lookup", "write"):
        theirs = theirs.missing_mask
    return mine == theirs


def assert_same_levels(fast, ref):
    assert fast.occupancy() == ref.occupancy()
    for mine, theirs in zip((*fast.l1, fast.l2, fast.llc),
                            (*ref.l1, ref.l2, ref.llc)):
        assert mine.stats == theirs.stats, mine.name


@given(geometry=hierarchy_geometry, sectors=st.sampled_from((4, 8)),
       ops=hierarchy_ops)
@settings(max_examples=300, deadline=None)
def test_hierarchy_matches_reference(geometry, sectors, ops):
    fast, ref = lockstep_hierarchies(geometry, sectors)
    for op, core, line_idx, mask in ops:
        args = (core, line_idx * 64, mask & full_mask(sectors))
        if op == "flush_dirty":
            args = ()
        assert probe_matches(op, apply(fast, op, *args),
                             apply(ref, op, *args)), op
        assert_same_levels(fast, ref)
    assert fast.flush_dirty() == ref.flush_dirty()


#: (operation, core, fills): a gather completion installs all of its
#: ``(line index, sector mask)`` fills, whose lines repeat and share sets;
#: a write or write miss takes the first, and leaves lines dirty so that
#: later gathers evict dirty victims at every level
gather_ops = st.lists(
    st.tuples(
        st.sampled_from(("fill_lines_from_memory",) * 2
                        + ("write", "write_miss")),
        st.integers(0, 1),
        st.lists(st.tuples(line_indices, st.integers(0, 255)),
                 min_size=1, max_size=8),
    ),
    min_size=10,
    max_size=40,
)


@given(geometry=hierarchy_geometry, sectors=st.sampled_from((4, 8)),
       ops=gather_ops)
@settings(max_examples=300, deadline=None)
def test_gather_fill_matches_reference(geometry, sectors, ops):
    """One ``fill_lines_from_memory`` call does what the reference's
    ``fill_from_memory`` does line by line: the same dirty victims in the
    same order, and the same counters and occupancy at every level."""
    fast, ref = lockstep_hierarchies(geometry, sectors)
    for op, core, fills in ops:
        fills = [(idx * 64, mask & full_mask(sectors))
                 for idx, mask in fills]
        if op == "fill_lines_from_memory":
            expected = []
            for line, mask in fills:
                expected += ref.fill_from_memory(core, line, mask)
            assert fast.fill_lines_from_memory(core, fills) == expected
        else:
            line, mask = fills[0]
            assert probe_matches(op, apply(fast, op, core, line, mask),
                                 apply(ref, op, core, line, mask)), op
        assert_same_levels(fast, ref)
    assert fast.flush_dirty() == ref.flush_dirty()


#: (operation, fills): a batch of clean fills, one clean fill, or dirty
#: fills (a clean fill, then a write into it) that leave victims for the
#: batches to write back
sector_fill_ops = st.lists(
    st.tuples(
        st.sampled_from(("fill_lines",) * 3 + ("fill_clean", "fill_dirty",
                                               "lookup")),
        st.lists(st.tuples(line_indices, st.integers(0, 255)),
                 min_size=1, max_size=8),
    ),
    min_size=10,
    max_size=40,
)


@given(
    sets=st.integers(1, 4),
    ways=st.integers(1, 4),
    sectors=st.sampled_from((4, 8)),
    ops=sector_fill_ops,
)
@settings(max_examples=300, deadline=None)
def test_batched_fill_matches_reference(sets, ways, sectors, ops):
    """``fill_lines`` does what the reference's ``fill`` does line by
    line: it returns the dirty victims, each with the index of the fill
    that evicted it, and leaves the same counters and occupancy;
    ``fill_clean`` returns the victim only when it is dirty."""
    fast = SectorCache(sets * ways * 64, ways, sectors=sectors)
    ref = ReferenceSectorCache(sets * ways * 64, ways, sectors=sectors)
    for op, fills in ops:
        fills = [(idx * 64, mask & full_mask(sectors))
                 for idx, mask in fills]
        if op == "fill_lines":
            expected = []
            for index, (line, mask) in enumerate(fills):
                victim = ref.fill(line, mask)
                if victim is not None and victim.dirty_mask:
                    expected.append((index, victim))
            assert fast.fill_lines(fills) == expected
        elif op == "fill_clean":
            line, mask = fills[0]
            assert fast.fill_clean(line, mask) == dirty_only(
                ref.fill(line, mask))
        elif op == "fill_dirty":
            for line, mask in fills:
                assert fast.fill_clean(line, mask) == dirty_only(
                    ref.fill(line, mask, True))
                assert fast.write_resident(line, mask)
        else:
            line, mask = fills[0]
            assert fast.lookup(line, mask) == ref.lookup(line, mask)
        assert fast.stats == ref.stats
        assert fast.occupancy() == ref.occupancy()
    assert fast.flush() == ref.flush()
