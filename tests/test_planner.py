"""Tests for the query-planner IR: query -> physical plan -> ops.

The plan *shapes* (operator tree + per-operator access mode) are pinned
as goldens for every registered scheme x every built-in query.  Schemes
fall into three classes: stride-capable designs, plain row stores
(baseline, sub-rank) and the plain column store.
"""

import pytest

from repro.core.registry import GATHER_FACTORS, available_schemes, make_scheme
from repro.harness.figure14 import GRANULARITY_TO_GATHER
from repro.workloads import make_tables
from repro.imdb import by_name
from repro.imdb.plan import PhysicalPlan
from repro.imdb.planner import plan_for
from repro.sim.runner import run_query

STRIDED = (
    "GS-DRAM", "GS-DRAM-ecc", "RC-NVM-bit", "RC-NVM-wd",
    "SAM-IO", "SAM-en", "SAM-sub", "SAM-en+masa",
)
# the pure SALP schemes keep the stock interface and row layout: their
# plans are plain-row shapes (the salp_row_derate moves costs, not modes,
# for stride-less designs)
ROW_PLAIN = ("baseline", "sub-rank", "salp1", "salp2", "masa")
COL_PLAIN = ("column-store",)


def _class_of(scheme: str) -> str:
    if scheme in STRIDED:
        return "strided"
    return "plain-col" if scheme in COL_PLAIN else "plain-row"


def _signature(plan: PhysicalPlan) -> str:
    return plan.mode + ":" + ",".join(
        f"{n.op}/{n.mode}" for n in plan.walk()
    )


#: Golden plan shapes per (query, scheme class), at Ta=256/Tb=512.
GOLDEN_SHAPES = {
    "Q1": {
        "strided": "column:project/strided,filter/strided,scan/",
        "plain-row": "column:project/spans,filter/spans,scan/",
        "plain-col": "column:project/vector,filter/vector,scan/",
    },
    "Q2": {
        "strided": "column:materialize/rows,filter/strided,scan/",
        "plain-row": "column:materialize/rows,filter/spans,scan/",
        "plain-col": "column:materialize/rows,filter/vector,scan/",
    },
    "Q3": {
        "strided": "column:aggregate/strided,filter/strided,scan/",
        "plain-row": "column:aggregate/spans,filter/spans,scan/",
        "plain-col": "column:aggregate/vector,filter/vector,scan/",
    },
    "Q4": {
        "strided": "column:aggregate/strided,filter/strided,scan/",
        "plain-row": "column:aggregate/spans,filter/spans,scan/",
        "plain-col": "column:aggregate/vector,filter/vector,scan/",
    },
    "Q5": {
        "strided": "column:aggregate/strided,filter/strided,scan/",
        "plain-row": "column:aggregate/spans,filter/spans,scan/",
        "plain-col": "column:aggregate/vector,filter/vector,scan/",
    },
    "Q6": {
        "strided": "column:aggregate/strided,filter/strided,scan/",
        "plain-row": "column:aggregate/spans,filter/spans,scan/",
        "plain-col": "column:aggregate/vector,filter/vector,scan/",
    },
    "Q7": {
        "strided": "column:join/,hash-build/strided,scan/,"
                   "project/strided,hash-probe/strided,scan/",
        "plain-row": "column:join/,hash-build/spans,scan/,"
                     "project/spans,hash-probe/spans,scan/",
        "plain-col": "column:join/,hash-build/vector,scan/,"
                     "project/vector,hash-probe/vector,scan/",
    },
    "Q8": {
        "strided": "column:join/,hash-build/strided,scan/,"
                   "project/strided,hash-probe/strided,scan/",
        "plain-row": "column:join/,hash-build/spans,scan/,"
                     "project/spans,hash-probe/spans,scan/",
        "plain-col": "column:join/,hash-build/vector,scan/,"
                     "project/vector,hash-probe/vector,scan/",
    },
    "Q9": {
        "strided": "column:project/strided,filter/strided,scan/",
        "plain-row": "column:project/spans,filter/spans,scan/",
        "plain-col": "column:project/vector,filter/vector,scan/",
    },
    "Q10": {
        "strided": "column:project/strided,filter/strided,scan/",
        "plain-row": "column:project/spans,filter/spans,scan/",
        "plain-col": "column:project/vector,filter/vector,scan/",
    },
    "Q11": {
        "strided": "column:update/strided,filter/strided,scan/",
        "plain-row": "column:update/stores,filter/spans,scan/",
        "plain-col": "column:update/stores,filter/vector,scan/",
    },
    "Q12": {
        "strided": "column:update/strided,filter/strided,scan/",
        "plain-row": "column:update/stores,filter/spans,scan/",
        "plain-col": "column:update/stores,filter/vector,scan/",
    },
    "Qs1": {
        "strided": "row:materialize/rows,scan/",
        "plain-row": "row:materialize/rows,scan/",
        "plain-col": "row:materialize/rows,scan/",
    },
    "Qs2": {
        "strided": "row:materialize/rows,scan/",
        "plain-row": "row:materialize/rows,scan/",
        "plain-col": "row:materialize/rows,scan/",
    },
    "Qs3": {
        "strided": "row:materialize/rows,filter/spans,scan/",
        "plain-row": "row:materialize/rows,filter/spans,scan/",
        "plain-col": "row:materialize/rows,filter/fields,scan/",
    },
    "Qs4": {
        "strided": "row:materialize/rows,filter/spans,scan/",
        "plain-row": "row:materialize/rows,filter/spans,scan/",
        "plain-col": "row:materialize/rows,filter/fields,scan/",
    },
    "Qs5": {
        "strided": "row:insert/rows",
        "plain-row": "row:insert/rows",
        "plain-col": "row:insert/rows",
    },
    "Qs6": {
        "strided": "row:insert/rows",
        "plain-row": "row:insert/rows",
        "plain-col": "row:insert/rows",
    },
}


@pytest.fixture(scope="module")
def tables():
    return make_tables(256, 512)


class TestPlanShapes:
    @pytest.mark.parametrize("scheme", available_schemes())
    @pytest.mark.parametrize("qname", sorted(GOLDEN_SHAPES))
    def test_golden_shape(self, scheme, qname, tables):
        query = by_name()[qname]
        plan = plan_for(scheme, query, tables)
        assert _signature(plan) == GOLDEN_SHAPES[qname][_class_of(scheme)]

    def test_every_builtin_query_is_pinned(self):
        assert sorted(GOLDEN_SHAPES) == sorted(by_name())

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_explain_renders_every_query(self, scheme, tables):
        for query in by_name().values():
            plan = plan_for(scheme, query, tables)
            text = plan.explain()
            assert text.startswith("PhysicalPlan")
            assert plan.mode in text
            d = plan.to_dict()
            assert d["scheme"] == scheme
            assert d["mode"] == plan.mode
            assert d["root"]["op"] == plan.root.op


class TestIdealChoice:
    def test_matches_paper_preference_for_every_query(self, tables):
        """Figure 12's ideal runs the paper's store for each query: the
        row store for row-preferring queries, else the column store.
        The planner's burst estimates agree: the paper's store is the
        cheaper of the two pure layouts for every query."""
        for name, query in by_name().items():
            estimates = {
                store: plan_for(store, query, tables).est_bursts
                for store in ("baseline", "column-store")
            }
            winner = min(sorted(estimates), key=estimates.get)
            expected = (
                "baseline" if query.prefers == "row" else "column-store"
            )
            assert winner == expected, (
                f"{name}: planner chose {winner} ({estimates}), "
                f"paper says {expected}"
            )


class TestPlanInManifest:
    def test_run_result_embeds_plan(self, tables):
        result = run_query("SAM-en", by_name()["Q1"], tables)
        assert result.plan is not None
        manifest = result.manifest()
        assert manifest["plan"]["scheme"] == "SAM-en"
        assert manifest["plan"]["mode"] == "column"
        assert manifest["plan"]["root"]["op"] == "project"

    def test_lowered_footprint_checker_sees_gathers(self, tables):
        result = run_query("SAM-en", by_name()["Q1"], tables, check=True)
        assert result.metrics["check.lowered_gathers"] > 0


class TestSchemeGatherValidation:
    @pytest.mark.parametrize("name", sorted(ROW_PLAIN + COL_PLAIN))
    def test_no_stride_schemes_reject_gather_factor(self, name):
        with pytest.raises(ValueError, match="gather_factor=8"):
            make_scheme(name, gather_factor=8)

    @pytest.mark.parametrize("name", sorted(ROW_PLAIN + COL_PLAIN))
    def test_default_and_unit_gather_are_fine(self, name):
        assert make_scheme(name) is not None
        assert make_scheme(name, gather_factor=1) is not None

    def test_stride_schemes_accept_gather_factor(self):
        scheme = make_scheme("SAM-en", gather_factor=4)
        assert scheme.gather_factor == 4
        # the paper's 16/8/4-bit granularities, as Figure 14(b) sweeps them
        assert GATHER_FACTORS == tuple(sorted(GRANULARITY_TO_GATHER.values()))
        for name in STRIDED:
            for factor in GATHER_FACTORS:
                assert make_scheme(name, gather_factor=factor).gather_factor \
                    == factor

    @pytest.mark.parametrize("factor", [0, 1, 3, 5, 16, -2])
    def test_stride_schemes_reject_unsimulatable_gather(self, factor):
        """Only 2, 4 and 8 elements per burst tile a 64-byte line with
        whole sectors."""
        for name in STRIDED:
            with pytest.raises(ValueError, match=r"\(2, 4, 8\)"):
                make_scheme(name, gather_factor=factor)
