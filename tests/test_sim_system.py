"""Tests for the system glue: MSHR, fetch/gather paths, cores, runner."""

from dataclasses import replace

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core import make_scheme
from repro.cpu.core import Core, CoreConfig
from repro.cpu.ops import Compute, GatherLoad, GatherStore, Load, Store
from repro.dram.geometry import Geometry
from repro.imdb import TA, TB, Table, by_name
from repro.kernel import Kernel
from repro.sim import MemorySystem, SystemConfig, run_ideal, run_query


def make_system(scheme_name="baseline", **kw):
    kernel = Kernel()
    scheme = make_scheme(scheme_name, **kw)
    system = MemorySystem(kernel, scheme, SystemConfig())
    return kernel, system


class TestMemorySystem:
    def test_custom_hierarchy_reaches_the_caches(self):
        # every field but the scheme's sector count passes through,
        # hit latencies included
        hierarchy = HierarchyConfig(l1_bytes=16 * 1024, l2_ways=4,
                                    l1_latency=2, l2_latency=7,
                                    llc_latency=30)
        scheme = make_scheme("SAM-en")
        system = MemorySystem(Kernel(), scheme,
                              SystemConfig(hierarchy=hierarchy))
        assert system.hierarchy.config == replace(
            hierarchy, sectors=scheme.sectors_per_line)

    def test_config_takes_no_geometry(self):
        """A design's geometry is its scheme's, which its placements,
        address map and controller follow, so the system config takes
        none."""
        with pytest.raises(TypeError):
            SystemConfig(geometry=Geometry(ranks=1, subarrays_per_bank=1))

    @pytest.mark.parametrize("line_bytes", (32, 128))
    def test_cache_line_must_match_the_design(self, line_bytes):
        """The schemes, planner and DRAM bursts move the design's 64-byte
        line, so caches with another line size would mark a 128-byte
        line valid after one 64-byte burst: the run must refuse, naming
        both sizes, not mis-simulate."""
        from repro.sim.runner import run_workload
        from repro.workloads.kernels import KernelWorkload

        config = SystemConfig(hierarchy=HierarchyConfig(line_bytes=line_bytes))
        with pytest.raises(ValueError, match=rf"{line_bytes}.* 64 bytes"):
            MemorySystem(Kernel(), make_scheme("baseline"), config)
        workload = KernelWorkload.from_spec("stream_read[n=512]", seed=1)
        with pytest.raises(ValueError, match="line_bytes"):
            run_workload(workload, "baseline", config=config, check=True)

    def test_sectorize(self):
        _, system = make_system()
        line, mask = system.sectorize(100, 8)
        assert line == 64 and mask == 0b0100  # bytes 36..44 -> sector 2

    def test_fetch_fills_whole_line(self):
        kernel, system = make_system()
        done = []
        assert system.issue_fetch(0, 0, 0b0001, lambda: done.append(1))
        kernel.run()
        assert done == [1]
        # every sector valid after a 64B fetch
        res = system.lookup(0, 0, 0b1111)
        assert res.missing_mask == 0

    def test_mshr_merges_duplicate_fetches(self):
        kernel, system = make_system()
        done = []
        system.issue_fetch(0, 0, 0b0001, lambda: done.append("a"))
        system.issue_fetch(1, 0, 0b0010, lambda: done.append("b"))
        assert system.stats.demand_fetches == 1
        assert system.stats.merged_fetches == 1
        kernel.run()
        assert sorted(done) == ["a", "b"]

    def test_gather_fills_sectors_across_lines(self):
        kernel, system = make_system("SAM-en")
        done = []
        addrs = [i * 1024 + 80 for i in range(8)]
        assert system.issue_gather(0, addrs, lambda: done.append(1))
        kernel.run()
        assert done == [1]
        assert system.gather_cached(0, addrs)
        # but other sectors of those lines are still invalid
        res = system.lookup(0, 1024, 0b11111111)
        assert res.missing_mask != 0

    def test_gather_fallback_for_baseline(self):
        kernel, system = make_system("baseline")
        done = []
        addrs = [0, 64]
        assert system.issue_gather(0, addrs, lambda: done.append(1))
        kernel.run()
        assert done == [1]
        assert system.stats.gather_fallback_requests == 2

    def test_streaming_store(self):
        kernel, system = make_system()
        assert system.issue_store_line(0, 0)
        kernel.run()
        assert system.controller.stats.writes == 1
        assert system.outstanding_writes == 0

    def test_gather_store_updates_cached_copies(self):
        kernel, system = make_system("SAM-en")
        system.issue_fetch(0, 1024, 0b1, lambda: None)
        kernel.run()
        addrs = [i * 1024 + 80 for i in range(8)]
        assert system.issue_gather_store(0, addrs)
        kernel.run()
        assert system.controller.stats.gather_writes >= 1

    def test_gather_store_rejected_without_stride(self):
        _, system = make_system("baseline")
        with pytest.raises(RuntimeError):
            system.issue_gather_store(0, [0, 64])

    def test_eviction_writebacks_reach_memory(self):
        kernel, system = make_system()
        # dirty a line, then evict it by fetching its whole LLC set
        system.hierarchy.complete_write_fill(0, 0, 0b1111)
        llc = system.hierarchy.llc
        sets = llc.num_sets
        for i in range(1, llc.ways + 1):
            system.issue_fetch(0, i * sets * 64, 0b1111, lambda: None)
            kernel.run()
        assert system.stats.writebacks >= 1
        kernel.run()
        assert system.controller.stats.writes >= 1

    def test_fully_drained(self):
        kernel, system = make_system()
        assert system.fully_drained
        system.issue_store_line(0, 0)
        assert not system.fully_drained
        kernel.run()
        assert system.fully_drained


class TestCore:
    def run_ops(self, ops, scheme="baseline"):
        kernel, system = make_system(scheme)
        core = Core(kernel, 0, system, CoreConfig())
        core.run(ops)
        kernel.run(max_events=1_000_000)
        assert core.finished
        return kernel, system, core

    def test_compute_advances_time(self):
        kernel, _, _ = self.run_ops([Compute(100)])
        assert kernel.now >= 100

    def test_load_miss_then_hit(self):
        # the compute gap lets the fill land; the second load hits
        _, _, core = self.run_ops([Load(0, 8), Compute(200), Load(8, 8)])
        assert core.misses == 1 and core.hits == 1

    def test_back_to_back_loads_merge_in_mshr(self):
        """A non-blocking core issues the second load before the first
        fill returns; the MSHR merges them into one memory request."""
        _, system, core = self.run_ops([Load(0, 8), Load(8, 8)])
        assert core.misses == 2
        assert system.stats.demand_fetches == 1
        assert system.stats.merged_fetches == 1

    def test_mlp_limits_outstanding(self):
        """With MLP=2 the core cannot have more than 2 misses in flight."""
        kernel, system = make_system()
        core = Core(kernel, 0, system, CoreConfig(mlp=2))
        core.run([Load(i * 4096, 8) for i in range(8)])
        max_inflight = 0

        def probe():
            nonlocal max_inflight
            max_inflight = max(max_inflight, core._inflight)
            if not core.finished:
                kernel.schedule(1, probe)

        kernel.schedule_at(0, probe)
        kernel.run(max_events=100000)
        assert core.finished
        assert max_inflight <= 2

    def test_gather_load_counts(self):
        _, _, core = self.run_ops(
            [GatherLoad([i * 1024 + 80 for i in range(8)])], scheme="SAM-en"
        )
        assert core.gathers == 1 and core.misses == 1

    def test_gather_hit_after_fill(self):
        addrs = [i * 1024 + 80 for i in range(8)]
        _, _, core = self.run_ops(
            [GatherLoad(addrs), Compute(200), GatherLoad(addrs)],
            scheme="SAM-en",
        )
        assert core.hits == 1

    def test_partial_store_rfo(self):
        _, system, core = self.run_ops([Store(0, 8)])
        # read-for-ownership fetch happened, then the line is dirty
        assert system.controller.stats.reads == 1
        dirty = system.hierarchy.flush_dirty()
        assert dirty

    def test_full_line_store_streams(self):
        _, system, core = self.run_ops([Store(0, 64)])
        assert system.controller.stats.reads == 0
        assert system.controller.stats.writes == 1


class TestRunner:
    def tables(self, n=64):
        return {"Ta": Table(TA, n, seed=1), "Tb": Table(TB, n, seed=2)}

    def test_run_query_returns_result(self):
        r = run_query("baseline", by_name()["Q3"], self.tables())
        assert r.cycles > 0
        assert r.scheme == "baseline" and r.query == "Q3"
        assert isinstance(r.result, dict)

    def test_results_identical_across_schemes(self):
        expected = None
        for scheme in ("baseline", "column-store", "SAM-en", "GS-DRAM-ecc"):
            r = run_query(scheme, by_name()["Q3"], self.tables())
            if expected is None:
                expected = r.result
            assert r.result == expected

    def test_run_ideal_picks_store(self):
        r_col = run_ideal(by_name()["Q3"], self.tables())
        assert r_col.scheme == "ideal"
        r_row = run_ideal(by_name()["Qs1"], self.tables())
        assert r_row.scheme == "ideal"

    def test_power_attached(self):
        r = run_query("SAM-en", by_name()["Q3"], self.tables())
        assert r.power.total_nj > 0
        assert r.power.total_mw > 0

    def test_speedup_helper(self):
        base = run_query("baseline", by_name()["Q3"], self.tables(256))
        sam = run_query("SAM-en", by_name()["Q3"], self.tables(256))
        assert sam.speedup_over(base) > 1.0

    def test_gather_factor_override(self):
        r = run_query(
            "SAM-en", by_name()["Q3"], self.tables(), gather_factor=4
        )
        assert r.cycles > 0

    def test_core_stats_collected(self):
        r = run_query("baseline", by_name()["Q1"], self.tables())
        assert r.core_stats["loads"] > 0
