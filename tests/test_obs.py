"""Tests for the observability layer: metrics registry, phase spans,
run artifacts and stall diagnostics."""

import json
import warnings
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.workloads import make_tables
from repro.imdb.sql import parse
from repro.obs import (
    Observation,
    SimulationStallError,
    build_run_manifest,
    git_describe,
    to_jsonable,
)
from repro.obs.artifacts import ArtifactWriter
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import Span
from repro.sim.runner import run_query


def _small_query():
    return parse("SELECT SUM(f9) FROM Ta WHERE f10 > 7500", name="t")


# --------------------------------------------------------------- metrics


class TestMetricsRegistry:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.value("a") == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        reg.gauge("g").set(7.5)
        assert reg.value("g") == 7.5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_histogram_buckets(self):
        h = Histogram("h", (10, 20, 30))
        for v in (5, 15, 25, 99):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.total == 4
        assert h.mean == pytest.approx(36.0)

    def test_histogram_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", (3, 2, 1))

    def test_histogram_quantile(self):
        h = Histogram("h", (10, 20, 40))
        for _ in range(9):
            h.observe(5)
        h.observe(35)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 40

    def test_publish_struct(self):
        @dataclass
        class S:
            reads: int = 7
            label: str = "no"  # non-numeric fields are skipped
            flag: bool = True  # bools are skipped too

        reg = MetricsRegistry()
        reg.publish_struct("dram", S())
        assert reg.value("dram.reads") == 7
        assert "dram.label" not in reg
        assert "dram.flag" not in reg

    def test_as_dict_and_render(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.histogram("h", (1, 2)).observe(1)
        snap = reg.as_dict()
        assert snap["n"] == 2
        assert snap["h"]["type"] == "histogram"
        text = reg.render()
        assert "n" in text and "h" in text

    def test_render_empty(self):
        assert MetricsRegistry().render() == "(no metrics)"

    # ---- histogram edge cases

    def test_empty_histogram_mean_and_quantile(self):
        h = Histogram("h", (10, 20))
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.total == 0

    def test_quantile_out_of_range_raises(self):
        h = Histogram("h", (10,))
        h.observe(5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_extremes(self):
        h = Histogram("h", (10, 20))
        h.observe(5)
        h.observe(99)  # overflow bucket maps to last finite bound
        assert h.quantile(0.0) == 10
        assert h.quantile(1.0) == 20

    def test_histogram_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_as_dict_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc()
        reg.gauge("mid").set(1)
        assert list(reg.as_dict()) == ["alpha", "mid", "zeta"]
        assert reg.names() == ["alpha", "mid", "zeta"]

    def test_render_rows_follow_sorted_order(self):
        reg = MetricsRegistry()
        reg.counter("b.second").inc()
        reg.counter("a.first").inc()
        lines = reg.render().splitlines()
        assert lines[0].startswith("a.first")
        assert lines[1].startswith("b.second")


def _linear_bucket(bounds, value):
    """The bucket the first bound >= ``value`` names, else overflow."""
    for i, bound in enumerate(bounds):
        if value <= bound:
            return i
    return len(bounds)


_numbers = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)


@given(bounds=st.lists(st.integers(min_value=-20, max_value=20),
                       min_size=1, max_size=8).map(sorted),
       values=st.lists(_numbers, max_size=30))
@settings(max_examples=200, deadline=None)
def test_histogram_bucket_matches_linear_scan(bounds, values):
    """`Histogram.observe` counts each value where a scan of the bounds
    in order would: repeated bounds keep the first, and values past the
    last bound overflow."""
    h = Histogram("h", bounds)
    expected = [0] * (len(bounds) + 1)
    for value in values:
        h.observe(value)
        expected[_linear_bucket(bounds, value)] += 1
        assert h.counts == expected
    assert h.total == len(values)


# ----------------------------------------------------------------- spans


class TestSpan:
    def test_run_builds_phase_tree(self):
        result = run_query("SAM-en", _small_query(), make_tables(128, 128))
        root = result.spans
        assert root.name == "run_query"
        assert root.meta == {"scheme": "SAM-en", "query": "t"}
        assert [c.name for c in root.children] == [
            "allocate", "build", "execute", "flush_drain"]
        # every phase carries both clocks; the cycle clock is the kernel's
        assert (root.start_cycle, root.end_cycle) == (0, result.cycles)
        assert all(c.wall_start is not None for c in root.children)
        assert sum(c.wall_s for c in root.children) <= root.wall_s
        execute = root.children[2]
        windows = execute.children
        assert [w.name for w in windows[:4]] == [
            "core0", "core1", "core2", "core3"]
        assert sum(w.meta["loads"] for w in windows[:4]) == \
            result.core_stats["loads"]
        banks = windows[4:]
        assert banks and all(w.name.startswith("rank") for w in banks)
        assert all(w.wall_start is None for w in windows)  # cycles only

    def test_cycles_only_span(self):
        span = Span("bank0", start_cycle=5, end_cycle=25,
                    meta={"activations": 3})
        assert span.cycles == 20 and span.wall_s == 0.0
        assert Span("open", start_cycle=5).cycles == 0

    def test_render_and_dict(self):
        root = Span("run", 0, 40, wall_start=1.0, wall_end=1.5)
        root.children.append(Span("phase", 0, 10, wall_start=1.0,
                                  wall_end=1.25))
        root.children.append(Span("bank0", 10, 30))
        lines = root.render().splitlines()
        assert [line.split()[0] for line in lines[1:]] == [
            "run", "phase", "bank0"]
        # bars are shares of the root: wall time for the phase, cycles
        # for the cycles-only window -- half the width each
        assert lines[1].count("#") == 32
        assert lines[2].count("#") == lines[3].count("#") == 16
        tree = root.to_dict()
        assert tree["name"] == "run"
        assert [c["name"] for c in tree["children"]] == ["phase", "bank0"]


# ------------------------------------------------------------- artifacts


class TestArtifacts:
    def test_to_jsonable_handles_common_shapes(self):
        @dataclass
        class D:
            x: int
            y: tuple

        out = to_jsonable({"d": D(1, (2, 3)), "s": {4}})
        assert out["d"] == {"x": 1, "y": [2, 3]}
        assert out["s"] == [4]

    def test_to_jsonable_falls_back_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert to_jsonable(Opaque()) == "<opaque>"

    def test_git_describe(self):
        rev = git_describe()
        assert rev is None or isinstance(rev, str)

    def test_writer_roundtrip(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "a")
        path = writer.write_json("x.json", {"k": (1, 2)})
        assert json.loads(path.read_text()) == {"k": [1, 2]}


class TestRunArtifacts:
    @pytest.fixture(scope="class")
    def run(self):
        obs = Observation(timeline=True)
        result = run_query("SAM-en", _small_query(), make_tables(128, 128),
                           observe=obs)
        return obs, result

    def test_manifest_contents(self, run):
        _obs, result = run
        manifest = build_run_manifest(result)
        assert manifest["scheme"] == "SAM-en"
        assert manifest["cycles"] == result.cycles
        assert manifest["config"]["cores"] == 4
        assert manifest["metrics"]["dram.reads"] > 0
        assert manifest["spans"]["name"] == "run_query"
        names = [c["name"] for c in manifest["spans"]["children"]]
        assert names[:3] == ["allocate", "build", "execute"]
        json.dumps(manifest)  # fully serializable

    def test_manifest_written_to_disk(self, tmp_path):
        obs = Observation(artifacts_dir=tmp_path)
        run_query("SAM-en", _small_query(), make_tables(128, 128),
                  observe=obs)
        assert obs.manifest_path is not None
        manifest = json.loads(obs.manifest_path.read_text())
        assert manifest["kind"] == "run"
        assert manifest["metrics"]["sim.cycles"] > 0

    def test_manifest_schema_v2_iso_created(self, tmp_path):
        import time

        from repro.obs.artifacts import MANIFEST_SCHEMA_VERSION, iso_utc

        obs = Observation(artifacts_dir=tmp_path)
        run_query("SAM-en", _small_query(), make_tables(128, 128),
                  observe=obs)
        manifest = json.loads(obs.manifest_path.read_text())
        assert MANIFEST_SCHEMA_VERSION >= 2
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        # ISO-8601 UTC sits next to the epoch float and agrees with it
        assert manifest["created"] == iso_utc(manifest["created_unix"])
        time.strptime(manifest["created"], "%Y-%m-%dT%H:%M:%SZ")

    def test_trace_jsonl_export(self, run, tmp_path):
        obs, _result = run
        recorder = obs.timeline_recorder
        path = recorder.export_jsonl(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(recorder.events)
        event = json.loads(lines[0])
        assert {"cycle", "command", "rank", "bank", "row", "gather"} \
            <= set(event)

    def test_metrics_on_result(self, run):
        _obs, result = run
        assert result.metrics["dram.reads"] == result.memory_stats.reads
        assert result.metrics["core.misses"] == result.core_stats["misses"]
        assert result.metrics["sim.events"] > 0
        assert 0.0 < result.metrics["sim.event_budget_used"] < 1.0

    def test_power_priced_from_registry(self, run):
        # pricing the run's command counts must agree with the energy
        # the run reported
        from repro.core.registry import make_scheme
        from repro.power.model import PowerModel

        _obs, result = run
        scheme = make_scheme("SAM-en")
        direct = PowerModel(
            scheme.power_config, scheme.timing, scheme.geometry
        ).evaluate(result.memory_stats, result.cycles)
        assert direct.total_nj == pytest.approx(result.power.total_nj)

    def test_tracer_chains_ring(self, run):
        obs, _result = run
        # the timeline and the stall ring are two probes on one command
        # stream: the ring holds exactly the timeline's newest commands
        recorder = obs.timeline_recorder
        assert recorder is not None
        tail = recorder.events[-len(obs.ring):]
        assert obs.ring and list(obs.ring) == [e[:5] for e in tail]


# ----------------------------------------------------------- probe stream


class TestProbeStream:
    """The ring is a controller probe: it sees every precharge, including
    the closed-page auto-precharges and the refresh-path PREs."""

    @staticmethod
    def _precharges(obs):
        return [event for event in obs.ring if event[1] == "PRE"]

    def test_ring_sees_closed_page_precharges(self):
        from repro.dram import ControllerConfig
        from repro.sim.config import SystemConfig

        closed = ControllerConfig(page_policy="closed")
        obs = Observation(ring_size=10**6)
        result = run_query("baseline", _small_query(), make_tables(512, 128),
                           config=SystemConfig(controller=closed),
                           observe=obs)
        assert result.memory_stats.precharges == 512
        assert len(self._precharges(obs)) == 512

    def test_ring_sees_refresh_precharges_with_their_bank(self):
        obs = Observation(ring_size=10**6)
        result = run_query(
            "baseline", parse("SELECT * FROM Tb WHERE f3 > 2500", name="t"),
            make_tables(512, 4096, seed=1), observe=obs,
        )
        stats = result.memory_stats
        assert stats.refreshes > 0
        precharges = self._precharges(obs)
        assert len(precharges) == stats.precharges
        refresh_path = [pre for pre in precharges if pre[4] == -1]
        assert refresh_path, "no refresh-path precharge in the run"
        assert all(rank >= 0 and bank >= 0
                   for _c, _n, rank, bank, _row in refresh_path)


# ------------------------------------------------------------ diagnostics


class TestStallDiagnostics:
    def _force_stall(self):
        with pytest.raises(SimulationStallError) as info:
            run_query("SAM-en", _small_query(), make_tables(512, 512),
                      max_events=200)
        return info.value

    def test_forced_stall_report(self):
        err = self._force_stall()
        report = err.report
        assert "event budget" in report.reason
        assert report.scheme == "SAM-en"
        assert report.banks, "per-bank state missing"
        assert report.recent_events, "trace ring missing"
        assert report.unfinished_cores
        assert report.read_queue <= report.read_queue_capacity

    def test_stall_render_and_dict(self):
        err = self._force_stall()
        text = str(err)
        assert "stall at cycle" in text
        assert "open banks" in text
        assert "last" in text  # recent command listing
        payload = err.report.to_dict()
        json.dumps(payload)
        assert payload["cycle"] == err.report.cycle

    def test_stall_is_runtime_error(self):
        # callers catching the old RuntimeError keep working
        with pytest.raises(RuntimeError):
            run_query("SAM-en", _small_query(), make_tables(512, 512),
                      max_events=200)

    def test_stall_report_lists_oldest_across_queues(self):
        """A write queued before 8 reads is the oldest request, so the
        report lists it first rather than only the read queue's head."""
        from repro.core.registry import make_scheme
        from repro.dram import AddressMapper
        from repro.kernel import Kernel
        from repro.obs.diagnostics import build_stall_report
        from repro.sim.system import MemorySystem

        from .test_dram_controller import read, write

        kernel = Kernel()
        system = MemorySystem(kernel, make_scheme("baseline"))
        mc = system.controller
        mapper = AddressMapper(mc.geometry)
        mc.submit(write(mapper, 0, []))
        kernel.schedule_at(1, lambda: [
            mc.submit(read(mapper, (i + 1) * 8192, [])) for i in range(8)
        ])
        kernel.run(until=2)
        assert (len(mc.read_queue), len(mc.write_queue)) == (8, 1)
        report = build_stall_report("forced", kernel, system)
        assert [r["type"] for r in report.oldest_requests] == (
            ["WRITE"] + ["READ"] * 7)
        assert report.oldest_requests[0]["arrival"] == 0


# --------------------------------------------------- runner health metrics


class TestRunnerHealthMetrics:
    def test_event_budget_warning(self):
        # run once to learn the event count, then rerun with a budget
        # tight enough to cross the near-runaway threshold but not stall
        tables = make_tables(128, 128)
        first = run_query("SAM-en", _small_query(), tables)
        events = int(first.metrics["sim.events"])
        tables = make_tables(128, 128)
        with pytest.warns(RuntimeWarning, match="event budget"):
            result = run_query("SAM-en", _small_query(), tables,
                               max_events=int(events * 1.5))
        assert result.metrics["sim.events_near_limit"] == 1
        assert result.metrics["sim.event_budget_used"] > 0.5

    def test_cache_occupancy_gauges_taken_before_the_flush(self):
        """The residency gauges describe the caches as the workload left
        them, not the empty hierarchy after the end-of-run flush."""
        from repro.sim.runner import run_workload
        from repro.workloads import KernelWorkload

        read = run_workload(KernelWorkload.from_spec("stream_read[n=64]"),
                            "baseline")
        assert read.metrics["cache.LLC.lines"] > 0
        assert read.metrics["cache.LLC.dirty_lines"] == 0
        write = run_workload(
            KernelWorkload.from_spec("stream_write[n=64]"), "baseline"
        )
        assert write.metrics["cache.LLC.dirty_lines"] > 0

    def test_bus_utilization_overflow_not_clamped(self):
        from types import SimpleNamespace

        from repro.sim.runner import _bus_utilization

        obs = Observation()
        scheme = SimpleNamespace(name="s")
        with pytest.warns(RuntimeWarning, match="utilization"):
            value = _bus_utilization(obs, busy=150, cycles=100,
                                     scheme=scheme, workload_name="q")
        assert value == pytest.approx(1.5)
        assert obs.registry.value("sim.bus_utilization_overflow") == 1
        assert obs.registry.value("sim.bus_utilization_raw") == \
            pytest.approx(1.5)

    def test_bus_utilization_normal_path(self):
        from types import SimpleNamespace

        from repro.sim.runner import _bus_utilization

        obs = Observation()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _bus_utilization(obs, busy=50, cycles=100,
                                     scheme=SimpleNamespace(name="s"),
                                     workload_name="q")
        assert value == 0.5
        assert "sim.bus_utilization_overflow" not in obs.registry
