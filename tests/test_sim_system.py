"""Tests for the system glue: MSHR, fetch/gather paths, cores, runner."""

import dataclasses
from dataclasses import replace

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core import make_scheme
from repro.cpu.core import Core, CoreConfig
from repro.cpu.ops import Compute, GatherLoad, GatherStore, Load, Store
from repro.dram.geometry import Geometry
from repro.dram.scheduler import Scheduler
from repro.imdb import TA, TB, Table, by_name
from repro.kernel import Kernel
from repro.sim import (
    MemorySystem,
    SimulationStallError,
    SystemConfig,
    run_query,
)
from repro.sim.runner import run_workload
from repro.workloads import KernelWorkload, QueryWorkload, standard_tables


def make_system(scheme_name="baseline", **kw):
    kernel = Kernel()
    scheme = make_scheme(scheme_name, **kw)
    system = MemorySystem(kernel, scheme, SystemConfig())
    return kernel, system


class TestMemorySystem:
    def test_custom_hierarchy_reaches_the_caches(self):
        # sizes and ways pass through; the line and its sectors are the
        # design's
        hierarchy = HierarchyConfig(l1_bytes=16 * 1024, l2_ways=4,
                                    llc_bytes=1024 * 1024, llc_ways=16)
        scheme = make_scheme("SAM-en")
        system = MemorySystem(Kernel(), scheme,
                              SystemConfig(hierarchy=hierarchy, cores=2))
        h = system.hierarchy
        caches = (*h.l1, h.l2, h.llc)
        assert [(c.num_sets * c.ways * c.line_bytes, c.ways)
                for c in caches] == [(16 * 1024, 8)] * 2 + [
                    (256 * 1024, 4), (1024 * 1024, 16)]
        assert {(c.line_bytes, c.sectors) for c in caches} == {
            (scheme.geometry.cacheline_bytes, scheme.sectors_per_line)}
        assert scheme.sectors_per_line == 8  # SSC-DSD: 8 x 8B sectors

    def test_config_takes_no_geometry(self):
        """A design's geometry is its scheme's, which its placements,
        address map and controller follow, so the system config takes
        none."""
        with pytest.raises(TypeError):
            SystemConfig(geometry=Geometry(ranks=1, subarrays_per_bank=1))

    @pytest.mark.parametrize("line_bytes", (32, 128))
    def test_cache_line_must_match_the_design(self, line_bytes):
        """The schemes, planner and DRAM bursts move the design's 64-byte
        line in codeword-sized sectors, so caches of another line size
        would mark a 128-byte line valid after one 64-byte burst.  The
        hierarchy config therefore offers neither size: the caches take
        both from the design."""
        with pytest.raises(TypeError):
            HierarchyConfig(line_bytes=line_bytes)
        with pytest.raises(TypeError):
            HierarchyConfig(sectors=line_bytes // 16)

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
        assert system.hierarchy.lookup(0, 0, 0b1111) == 0

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
        assert system.hierarchy.lookup(0, 1024, 0b11111111) != 0

    @pytest.mark.parametrize("gather_factor", (2, 4))
    @pytest.mark.parametrize("offset", (8, 40))
    def test_gather_of_sub_sector_elements_is_cached_after_its_fill(
            self, gather_factor, offset):
        """At gather factors 2 and 4 a sector holds 32 or 16 bytes, so an
        8-byte element need not start its sector.  The probe asks for the
        element's own sector, the one the gather's fill installs: it
        neither spills into the next sector nor raises at the line's
        end."""
        kernel, system = make_system("SAM-en", gather_factor=gather_factor)
        done = []
        addrs = [i * 1024 + offset for i in range(gather_factor)]
        assert system.issue_gather(0, addrs, lambda: done.append(1))
        kernel.run()
        assert done == [1]
        assert system.gather_cached(0, addrs)

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

    def test_gather_fallback_for_baseline(self):
        """A design without stride hardware has no gather path: its
        executor emits plain Loads, and a strided load is refused."""
        _, system = make_system("baseline")
        with pytest.raises(RuntimeError, match="strided loads"):
            system.issue_gather(0, [0, 64], lambda: None)
        assert system.stats.gathers == 0

    def test_gather_store_rejected_without_stride(self):
        _, system = make_system("baseline")
        with pytest.raises(RuntimeError):
            system.issue_gather_store(0, [0, 64])

    def test_eviction_writebacks_reach_memory(self):
        kernel, system = make_system()
        # dirty a line, then evict it by fetching its whole LLC set
        system.hierarchy.fill_from_memory(0, 0, 0b1111)
        assert system.hierarchy.write(0, 0, 0b1111) == 0
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

    @pytest.mark.parametrize("gather_factor", (2, 4))
    def test_checked_kernel_at_a_small_gather_factor(self, gather_factor):
        """mxv's vector elements sit at 8-byte offsets inside 16- and
        32-byte sectors; a checked run gathers and re-probes them."""
        r = run_workload(KernelWorkload.from_spec("mxv[n=32]", seed=1),
                         "SAM-en", gather_factor=gather_factor, check=True)
        assert r.metrics["check.plans"] > 0
        assert "check.violations" not in r.metrics

    def test_livelocked_run_fails_within_its_event_budget(self, monkeypatch):
        """A controller that never sees its banks move issues nothing and
        wakes forever; the default event budget scales with the build's
        op count, so the run fails in seconds, not after hundreds of
        millions of events."""
        rebuild = Scheduler._rebuild

        def first_build_only(scheduler, slot):
            if slot.version < 0:
                rebuild(scheduler, slot)

        workload = KernelWorkload.from_spec("stream_read[n=64]", seed=1)
        healthy = run_workload(workload, "baseline")
        assert healthy.metrics["sim.event_budget_used"] < 0.01
        monkeypatch.setattr(Scheduler, "_rebuild", first_build_only)
        with pytest.raises(SimulationStallError,
                           match=r"event budget exhausted: exceeded \d+ "):
            run_workload(workload, "baseline")

    def test_core_stats_collected(self):
        r = run_query("baseline", by_name()["Q1"], self.tables())
        assert r.core_stats["loads"] > 0


# ---------------------------------------------------------------------------
# Every settable config value changes a run
# ---------------------------------------------------------------------------

#: the run a perturbation is shown on: most move a strided copy on the
#: row store
STRIDED = ("strided_copy[n=256,stride=512]", "baseline")

#: every settable leaf of ``SystemConfig``, dotted below its nested config:
#: ``(value, (workload, design), base config changes)``.  A field missing
#: here fails the test, so a new knob must come with a run it changes.
FIELD_PERTURBATIONS = {
    "cores": (2, STRIDED, {}),
    # only queries charge CPU work between memory operations
    "cpu_ghz": (2.0, ("Q3", "SAM-en"), {}),
    "controller.write_queue_capacity": (8, STRIDED, {}),
    "controller.write_high_watermark": (12, STRIDED, {}),
    "controller.write_low_watermark": (2, STRIDED, {}),
    "controller.read_queue_capacity": (4, STRIDED, {}),
    # a run must outlast the first refresh interval
    "controller.refresh_enabled": (
        False, ("stream_copy[n=4096]", "baseline"), {}),
    "controller.page_policy": ("closed", STRIDED, {}),
    "core.mlp": (2, STRIDED, {}),
    "core.issue_cycles": (3.0, STRIDED, {}),
    # cores retry only when a queue is full
    "core.retry_interval": (
        32, STRIDED, {"controller.read_queue_capacity": 2}),
    "hierarchy.l1_bytes": (4 * 1024, STRIDED, {}),
    "hierarchy.l1_ways": (1, STRIDED, {}),
    "hierarchy.l2_bytes": (16 * 1024, STRIDED, {}),
    "hierarchy.l2_ways": (1, STRIDED, {}),
    "hierarchy.llc_bytes": (64 * 1024, STRIDED, {}),
    "hierarchy.llc_ways": (1, STRIDED, {}),
}


def settable_fields():
    """Every leaf value of ``SystemConfig``: its own scalar fields and
    the fields of the configs nested in it, as dotted names."""
    names = []
    for f in dataclasses.fields(SystemConfig):
        nested = getattr(SystemConfig(), f.name)
        if dataclasses.is_dataclass(nested):
            names += [f"{f.name}.{g.name}" for g in dataclasses.fields(nested)]
        else:
            names.append(f.name)
    return names


def with_field(config, name, value):
    if "." in name:
        section, leaf = name.split(".")
        value = replace(getattr(config, section), **{leaf: value})
        name = section
    return replace(config, **{name: value})


def run_fingerprint(workload, design, config):
    """What a config can change: cycles, DRAM command counts and the
    caches' occupancy at the end of the run."""
    if workload.startswith("Q"):
        workload = QueryWorkload(query=by_name()[workload],
                                 tables=standard_tables(64, 128))
    else:
        workload = KernelWorkload.from_spec(workload, seed=1)
    result = run_workload(workload, design, config=config)
    return (result.cycles, dataclasses.asdict(result.memory_stats),
            {k: v for k, v in result.metrics.items()
             if k.startswith("cache.")})


@pytest.mark.parametrize("name", settable_fields())
def test_every_config_field_changes_a_run(name):
    assert set(FIELD_PERTURBATIONS) == set(settable_fields())
    value, (workload, design), base_changes = FIELD_PERTURBATIONS[name]
    base = SystemConfig()
    for other, other_value in base_changes.items():
        base = with_field(base, other, other_value)
    assert (run_fingerprint(workload, design, with_field(base, name, value))
            != run_fingerprint(workload, design, base)), name
