"""Tests for the workload IR (repro.workloads) and its satellites."""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.registry import available_schemes, make_scheme
from repro.cpu.ops import GatherLoad, Load, Store
from repro.exp import ExperimentSpec, SweepEngine, SweepPoint, point_digest
from repro.imdb.queries import by_name
from repro.sim.runner import allocate_placements, run_workload
from repro.workloads import (
    KERNELS,
    KernelWorkload,
    QueryWorkload,
    available_kernels,
    build_tables,
    standard_tables,
)

# ---------------------------------------------------------- determinism

kernel_names = st.sampled_from(sorted(KERNELS))
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _build_streams(workload, scheme_name="SAM-en"):
    from repro.core.registry import stride_gather

    scheme = make_scheme(scheme_name,
                         gather_factor=stride_gather(scheme_name, 8))
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    tables = workload.materialize()
    placements = allocate_placements(scheme, tables)
    return workload.build(scheme, config, tables, placements)


@settings(max_examples=20, deadline=None)
@given(kernel_names, seeds)
def test_kernel_workload_is_deterministic(name, seed):
    """Identical (name, params, seed) -> identical digest, name and
    per-core op streams."""
    # shrink footprints so expansion stays fast under hypothesis
    params = "[n=8]" if name not in ("jacobi2d", "mxv", "doitgen") else "[n=4]"
    a = KernelWorkload.from_spec(f"{name}{params}", seed=seed)
    b = KernelWorkload.from_spec(f"{name}{params}", seed=seed)
    assert a.digest == b.digest
    assert a.name == b.name
    assert a.program() == b.program()
    assert _build_streams(a).ops_per_core == _build_streams(b).ops_per_core


def test_kernel_digest_separates_content():
    base = KernelWorkload.from_spec("strided_read[stride=256]")
    assert base.digest != KernelWorkload.from_spec(
        "strided_read[stride=512]"
    ).digest
    assert base.digest != KernelWorkload.from_spec(
        "strided_write[stride=256]"
    ).digest
    assert base.digest != dataclasses.replace(base, seed=1).digest


def test_kernel_params_canonicalize():
    """Parameter order and defaults never fork identities."""
    a = KernelWorkload.from_spec("strided_read[stride=256,elem=8]")
    b = KernelWorkload.from_spec("strided_read[elem=8,stride=256]")
    c = KernelWorkload.from_spec("strided_read[stride=256,n=512]")
    assert a == b == c
    assert a.name == "strided_read[elem=8,n=512,stride=256]"


def test_kernel_rejects_bad_specs():
    with pytest.raises(ValueError):
        KernelWorkload.from_spec("no_such_kernel")
    with pytest.raises(ValueError):
        KernelWorkload.from_spec("strided_read[bogus=1]")
    with pytest.raises(ValueError):
        KernelWorkload.from_spec("strided_read[stride=7]")  # not mult of 8
    with pytest.raises(ValueError):
        KernelWorkload.from_spec("strided_read[stride")  # malformed


def test_registry_lists_every_family():
    names = available_kernels()
    for family in ("stream_read", "stream_write", "stream_copy",
                   "strided_read", "strided_write", "strided_copy",
                   "mxv", "jacobi2d", "doitgen"):
        assert family in names


# ----------------------------------------------------------- lowering

def test_strided_kernel_lowers_to_gathers_only_with_stride_hardware():
    w = KernelWorkload.from_spec("strided_read[stride=256,n=64]")
    sam_ops = [op for ops in _build_streams(w, "SAM-en").ops_per_core
               for op in ops]
    base_ops = [op for ops in _build_streams(w, "baseline").ops_per_core
                for op in ops]
    assert any(isinstance(op, GatherLoad) for op in sam_ops)
    assert all(isinstance(op, (Load, Store)) for op in base_ops)
    # same footprint either way: every gathered element is a plain load
    # on the stride-less design
    gathered = [a for op in sam_ops if isinstance(op, GatherLoad)
                for a in op.element_addrs]
    assert sorted(gathered) == sorted(
        op.addr for op in base_ops if isinstance(op, Load)
    )


def test_stream_kernel_never_gathers():
    w = KernelWorkload.from_spec("stream_read[n=64]")
    ops = [op for ops in _build_streams(w, "SAM-en").ops_per_core
           for op in ops]
    assert all(isinstance(op, Load) for op in ops)


# -------------------------------------------------------------- oracle

def test_kernel_oracle_catches_dropped_op():
    from repro.check import KernelOracle, OracleError

    w = KernelWorkload.from_spec("strided_read[stride=256,n=64]")
    scheme = make_scheme("SAM-en", gather_factor=8)
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    tables = w.materialize()
    placements = allocate_placements(scheme, tables)
    build = w.build(scheme, config, tables, placements)
    # drop one op from one core: the access diff must flag it
    broken = [list(ops) for ops in build.ops_per_core]
    victim = next(i for i, ops in enumerate(broken) if ops)
    broken[victim] = broken[victim][1:]
    bad = dataclasses.replace(build, ops_per_core=broken)
    with pytest.raises(OracleError, match="kernel-accesses"):
        KernelOracle().check_build(w, scheme, bad, placements)


def test_kernel_oracle_catches_wrong_result():
    from repro.check import KernelOracle, OracleError

    w = KernelWorkload.from_spec("stream_read[n=64]")
    scheme = make_scheme("baseline")
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    tables = w.materialize()
    placements = allocate_placements(scheme, tables)
    build = w.build(scheme, config, tables, placements)
    bad = dataclasses.replace(build, result="kernel:deadbeef")
    with pytest.raises(OracleError, match="kernel-result"):
        KernelOracle().check_build(w, scheme, bad, placements)


def test_kernel_oracle_accepts_clean_build():
    from repro.check import KernelOracle

    w = KernelWorkload.from_spec("mxv[n=8]")
    scheme = make_scheme("SAM-en", gather_factor=8)
    from repro.sim.config import SystemConfig

    config = SystemConfig()
    tables = w.materialize()
    placements = allocate_placements(scheme, tables)
    build = w.build(scheme, config, tables, placements)
    oracle = KernelOracle()
    oracle.check_build(w, scheme, build, placements)
    assert not oracle.mismatches


# --------------------------------------------------------- end to end

def test_kernel_result_is_scheme_invariant():
    """The differential heart: every design must compute the same bytes,
    whatever its placement (column stores and SAM-sub lay the arrays out
    differently from the row stores)."""
    w = KernelWorkload.from_spec("strided_copy[stride=256,n=64]")
    results = {
        scheme: run_workload(w, scheme, check=True).result
        for scheme in available_schemes()
    }
    assert len(results) == 14
    assert len(set(results.values())) == 1, results
    assert next(iter(results.values())).startswith("kernel:")


def test_sam_accelerates_strided_not_stream():
    strided = KernelWorkload.from_spec("strided_read[stride=512,n=128]")
    stream = KernelWorkload.from_spec("stream_read[n=128]")
    s_base = run_workload(strided, "baseline").cycles
    s_sam = run_workload(strided, "SAM-en").cycles
    u_base = run_workload(stream, "baseline").cycles
    u_sam = run_workload(stream, "SAM-en").cycles
    assert s_base / s_sam > 2.0
    assert u_sam == u_base


# ------------------------------------------------------- sweep plumbing

def test_query_workload_matches_legacy_run():
    from repro.sim.runner import run_query

    q = by_name()["Q3"]
    tables = standard_tables(64, 64)
    workload = QueryWorkload(query=q, tables=tables)
    via_workload = run_workload(workload, "SAM-en", gather_factor=8)
    via_wrapper = run_query("SAM-en", q, build_tables(tables),
                            gather_factor=8)
    assert via_workload.cycles == via_wrapper.cycles
    assert via_workload.result == via_wrapper.result
    assert via_workload.query == "Q3"


def test_kernel_sweep_points_cache_and_digest(tmp_path):
    from repro.exp import ResultCache

    w = KernelWorkload.from_spec("strided_read[stride=256,n=64]")
    point = SweepPoint(key=("SAM-en", w.name), kind="kernel",
                       scheme="SAM-en", workload=w, gather_factor=8)
    other = dataclasses.replace(
        point, workload=KernelWorkload.from_spec(
            "strided_read[stride=512,n=64]"
        ),
    )
    assert point_digest(point, source="s") != point_digest(other, source="s")

    spec = ExperimentSpec("kern", (point,))
    cold = SweepEngine(cache=ResultCache(tmp_path)).run(spec)
    assert cold.executed == 1
    warm = SweepEngine(cache=ResultCache(tmp_path)).run(spec)
    assert warm.executed == 0 and warm.cache_hits == 1
    assert warm[point.key].cycles == cold[point.key].cycles


def test_kernel_harness_sweep_small():
    from repro.harness.kernels import KernelSweepResult, run_kernel_sweep

    result = run_kernel_sweep(designs=["SAM-en"])
    assert isinstance(result, KernelSweepResult)
    payload = result.payload()
    assert payload["kind"] == "kernel-sweep"
    strided = [k for k in result.kernels if k.startswith("strided_")]
    assert len(strided) >= 9  # >= 3 families x >= 3 stride points
    for k in strided:
        assert result.speedups["SAM-en"][k] > 1.0
        assert result.gathers["SAM-en"][k] > 0
        assert result.gathers["baseline"][k] == 0
