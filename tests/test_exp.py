"""Tests for the unified sweep engine (repro.exp) and its satellites."""

import json
import pickle
import warnings

import numpy as np
import pytest

from repro.core.registry import make_scheme
from repro.exp import (
    ExperimentSpec,
    ResultCache,
    SweepEngine,
    SweepPoint,
    TableSpec,
    build_tables,
    design_points,
    point_digest,
    standard_tables,
)
from repro.harness.figure12 import build_figure12_spec, run_figure12
from repro.workloads import KernelWorkload, QueryWorkload, make_tables
from repro.imdb.queries import by_name
from repro.obs.artifacts import to_jsonable


def _tiny_spec(n=2):
    """A minimal two-point query spec (baseline + SAM-en on Q3)."""
    q = by_name()["Q3"]
    tables = standard_tables(64, 64)
    workload = QueryWorkload(query=q, tables=tables)
    points = [
        SweepPoint(key=("baseline", "Q3"), scheme="baseline",
                   workload=workload),
        SweepPoint(key=("SAM-en", "Q3"), scheme="SAM-en",
                   workload=workload, gather_factor=8),
    ]
    return ExperimentSpec("tiny", tuple(points[:n]))


class TestTableSpec:
    def test_build_is_deterministic(self):
        spec = TableSpec("Ta", 128, 32, seed=7)
        a, b = spec.build(), spec.build()
        assert np.array_equal(a.values, b.values)

    def test_standard_tables_match_make_tables(self):
        built = build_tables(standard_tables(32, 48))
        legacy = make_tables(32, 48)
        for name in ("Ta", "Tb"):
            assert np.array_equal(built[name].values, legacy[name].values)
            assert built[name].schema.n_fields == legacy[name].schema.n_fields

    def test_rejects_empty_tables(self):
        with pytest.raises(ValueError):
            TableSpec("Ta", 128, 0, seed=1)


class TestSweepSpec:
    def test_duplicate_keys_rejected(self):
        q = by_name()["Q3"]
        tables = standard_tables(16, 16)
        p = SweepPoint(key=("a",), scheme="baseline",
                       workload=QueryWorkload(query=q, tables=tables))
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec("dup", (p, p))

    def test_query_point_needs_workload(self):
        with pytest.raises(ValueError):
            SweepPoint(key=("a",), scheme="baseline")

    def test_kind_must_match_workload_kind(self):
        workload = QueryWorkload(query=by_name()["Q3"],
                                 tables=standard_tables(16, 16))
        with pytest.raises(ValueError, match="does not match"):
            SweepPoint(key=("a",), kind="kernel", scheme="baseline",
                       workload=workload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SweepPoint(key=("a",), kind="mystery", scheme="baseline")

    def test_reliability_point_params(self):
        p = SweepPoint(key=("reliability", "SAM-en"), kind="reliability",
                       scheme="SAM-en", params=(("trials", 50), ("seed", 3)))
        assert p.param("trials") == 50
        assert p.param("missing", 9) == 9
        assert p.label == "reliability/SAM-en"

    def test_points_are_picklable(self):
        spec = _tiny_spec()
        clone = pickle.loads(pickle.dumps(spec.points[1]))
        assert clone == spec.points[1]


class TestDesignPoints:
    def _workloads(self):
        tables = standard_tables(16, 16)
        return [QueryWorkload(query=by_name()[q], tables=tables)
                for q in ("Q3", "Qs1")]

    def test_keys_order_and_kind(self):
        kernel = KernelWorkload.from_spec("stream_read[n=64]")
        points = design_points(["baseline", "SAM-en"],
                               self._workloads() + [kernel])
        assert [p.key for p in points] == [
            ("baseline", "Q3"), ("baseline", "Qs1"),
            ("baseline", kernel.name),
            ("SAM-en", "Q3"), ("SAM-en", "Qs1"), ("SAM-en", kernel.name),
        ]
        assert [p.kind for p in points] == ["query", "query", "kernel"] * 2
        assert [p.scheme for p in points] == ["baseline"] * 3 + ["SAM-en"] * 3

    def test_gather_factor_only_on_stride_designs(self):
        points = design_points(["baseline", "masa", "SAM-en"],
                               self._workloads()[:1], gather_factor=4)
        assert {p.scheme: p.gather_factor for p in points} == {
            "baseline": None, "masa": None, "SAM-en": 4,
        }

    def test_prefix_and_timing_reach_points(self):
        points = design_points(["SAM-en"], self._workloads(),
                               prefix=("NVM",), timing="RRAM")
        assert [p.key for p in points] == [
            ("NVM", "SAM-en", "Q3"), ("NVM", "SAM-en", "Qs1"),
        ]
        assert [p.timing for p in points] == ["RRAM", "RRAM"]

    def test_run_table_and_speedups(self):
        workloads = [QueryWorkload(query=by_name()["Q3"],
                                   tables=standard_tables(64, 64))]
        spec = ExperimentSpec("grid", tuple(
            design_points(["baseline"], workloads)
            + design_points(["SAM-en"], workloads, 8, prefix=("x",))
        ))
        run = SweepEngine().run(spec)
        base = run.cycles(("baseline", "Q3"))
        sam = run.cycles(("x", "SAM-en", "Q3"))
        assert run.table(["baseline"], ["Q3"]) == {"baseline": {"Q3": base}}
        assert run.table(["baseline"], ["Q3"], value=lambda r: r.scheme) \
            == {"baseline": {"Q3": "baseline"}}
        assert run.speedups(["baseline"], ["Q3"]) == {
            "baseline": {"Q3": 1.0}
        }
        assert run.speedups(["SAM-en"], ["Q3"], prefix=("x",)) == {
            "SAM-en": {"Q3": base / sam}
        }


def _simulation(point):
    """What a point simulates: its identity without its key."""
    workload = point.workload
    return (point.kind, point.scheme,
            workload.digest if workload is not None else None,
            point.gather_factor, point.timing,
            json.dumps(to_jsonable(point.config), sort_keys=True),
            point.check, point.params)


def test_no_spec_simulates_one_run_twice():
    """The engine simulates every point of a spec, and a point's cache
    digest hashes its key too, so two differently keyed points that
    simulate the same run cost two simulations, cold or warm.  No
    harness's spec may hold such a pair."""
    from repro.harness.figure13 import build_figure13_spec
    from repro.harness.figure14 import (
        build_figure14a_spec,
        build_figure14b_spec,
    )
    from repro.harness.figure15 import build_figure15_spec
    from repro.harness.kernels import build_kernel_spec
    from repro.harness.salp import build_salp_spec

    specs = [
        build_figure12_spec(64, 128),
        build_figure13_spec(64, 128),
        build_figure14a_spec(64, 128),
        build_figure14b_spec(64, 128),
        build_figure15_spec(n_ta=64),
        build_salp_spec(64, 128),
        build_kernel_spec(),
    ]
    repeats = {}
    for spec in specs:
        first = {}
        for point in spec.points:
            key = first.setdefault(_simulation(point), point.key)
            if key != point.key:
                repeats.setdefault(spec.name, []).append((key, point.key))
    assert repeats == {}


class TestDigests:
    def test_digest_is_stable(self):
        a, b = _tiny_spec().points[0], _tiny_spec().points[0]
        assert point_digest(a, source="s") == point_digest(b, source="s")

    def test_digest_sees_every_knob(self):
        base = _tiny_spec().points[1]
        d0 = point_digest(base, source="s")
        workload = base.workload
        variants = [
            SweepPoint(key=base.key, scheme=base.scheme, workload=workload,
                       gather_factor=4),
            SweepPoint(key=base.key, scheme=base.scheme, workload=workload,
                       gather_factor=8, timing="RRAM"),
            SweepPoint(key=base.key, scheme=base.scheme,
                       workload=QueryWorkload(
                           query=workload.query,
                           tables=standard_tables(128, 64)),
                       gather_factor=8),
        ]
        for v in variants:
            assert point_digest(v, source="s") != d0
        # a source-tree edit invalidates everything
        assert point_digest(base, source="other") != d0


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("abc", {"x": 1})
        assert cache.get("abc") == {"x": 1}
        assert len(cache) == 1

    def test_miss_and_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope") is None
        cache.path("bad").write_bytes(b"not a pickle")
        assert cache.get("bad") is None  # degrades to a miss, no raise


class TestEngine:
    def test_results_in_spec_order(self):
        spec = _tiny_spec()
        run = SweepEngine().run(spec)
        assert list(run.results) == list(spec.keys())
        assert run.speedup(("SAM-en", "Q3"), ("baseline", "Q3")) > 1.0

    def test_parallel_matches_serial_exactly(self):
        kwargs = dict(n_ta=64, n_tb=64, designs=["SAM-en"],
                      queries=["Q3", "Qs1"], include_ideal=True)
        serial = run_figure12(engine=SweepEngine(jobs=1), **kwargs)
        par = run_figure12(engine=SweepEngine(jobs=4), **kwargs)
        dump = lambda r: json.dumps(to_jsonable(r.payload()), sort_keys=True)
        assert dump(serial) == dump(par)

    def test_warm_cache_executes_nothing(self, tmp_path):
        spec = build_figure12_spec(n_ta=64, n_tb=64, designs=["SAM-en"],
                                   queries=["Q3"], include_ideal=False)
        cold = SweepEngine(cache=ResultCache(tmp_path)).run(spec)
        assert cold.executed == len(spec) and cold.cache_hits == 0
        warm = SweepEngine(cache=ResultCache(tmp_path)).run(spec)
        assert warm.executed == 0 and warm.cache_hits == len(spec)
        assert [r.cycles for r in warm.results.values()] == [
            r.cycles for r in cold.results.values()
        ]

    def test_no_cache_always_executes(self, tmp_path):
        spec = _tiny_spec(n=1)
        engine = SweepEngine()  # cache=None
        assert engine.run(spec).executed == 1
        assert engine.run(spec).executed == 1
        assert not list(tmp_path.iterdir())

    def test_manifest_totals(self, tmp_path):
        engine = SweepEngine(cache=ResultCache(tmp_path))
        engine.run(_tiny_spec())
        engine.run(_tiny_spec())
        manifest = engine.manifest()
        assert manifest["totals"]["points"] == 4
        assert manifest["totals"]["cache_hits"] == 2
        assert manifest["totals"]["executed"] == 2

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepEngine(jobs=0)


class TestWithTiming:
    def test_clone_leaves_original_untouched(self):
        scheme = make_scheme("SAM-en")
        native = scheme.timing.name
        clone = scheme.with_timing("RRAM")
        assert clone is not scheme
        assert "RRAM" in clone.timing.name
        assert scheme.timing.name == native
        assert scheme.timing_override is None

    def test_rcnvm_keeps_native_rram_without_override(self):
        scheme = make_scheme("RC-NVM-wd")
        assert "RRAM" in scheme.timing.name
        dram = scheme.with_timing("DDR4-2400")
        assert "DDR4-2400" in dram.timing.name
        assert "RRAM" in scheme.timing.name

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(KeyError, match="unknown timing preset"):
            make_scheme("SAM-en").with_timing("SRAM-9000")


class TestAllocatePlacements:
    def test_insert_shadow_regions(self):
        from repro.sim.runner import _REGION_STRIDE, allocate_placements

        tables = make_tables(16, 16)
        placements = allocate_placements(make_scheme("baseline"), tables)
        assert set(placements) == {"Ta", "Ta+insert", "Tb", "Tb+insert"}
        # table order is sorted(name); each table owns two stride regions
        assert placements["Ta"].table.base == 0
        assert placements["Ta+insert"].table.base == _REGION_STRIDE
        assert placements["Tb"].table.base == 2 * _REGION_STRIDE
        assert (placements["Tb+insert"].table.base
                == 3 * _REGION_STRIDE)

    def test_capacity_overflow_raises(self):
        from repro.imdb.schema import Table, TableSchema
        from repro.sim.runner import allocate_placements

        tables = {
            f"T{i}": Table(TableSchema(f"T{i}", 4), 4, seed=i)
            for i in range(3)  # 3 tables x 2 regions x 8GiB > 32GiB module
        }
        with pytest.raises(ValueError, match="address space"):
            allocate_placements(make_scheme("baseline"), tables)


class TestBusAccounting:
    def test_subrank_utilization_never_exceeds_one(self):
        """Sub-rank bursts book tBL sub-bus cycles (a quarter of the bus),
        so total busy time can no longer exceed elapsed time."""
        from repro.sim.runner import run_query

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for design in ("baseline", "SAM-sub", "SAM-en"):
                result = run_query(design, by_name()["Q3"],
                                   make_tables(128, 128))
                assert 0.0 < result.bus_utilization <= 1.0
