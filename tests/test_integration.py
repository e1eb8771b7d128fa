"""Integration tests: the paper's qualitative results must hold end to end.

These run full simulations (small tables) and assert the *shape* of the
evaluation: who wins, in which direction, and by roughly what class of
factor -- the reproduction's acceptance criteria.
"""

import pytest

from repro.harness.figure12 import ideal_store
from repro.workloads import geomean, make_tables
from repro.imdb import by_name
from repro.sim import run_query

N_TA = 512
N_TB = 1024


def speedup(design, qname, **kw):
    query = by_name()[qname]
    base = run_query("baseline", query, make_tables(N_TA, N_TB))
    res = run_query(design, query, make_tables(N_TA, N_TB), **kw)
    assert str(res.result) == str(base.result), "wrong query answer"
    return base.cycles / res.cycles


class TestHeadlineClaims:
    def test_sam_accelerates_column_queries(self):
        """SAM-IO/en speed up strided queries by ~3-5x."""
        for design in ("SAM-IO", "SAM-en"):
            s = speedup(design, "Q3")
            assert 2.5 < s < 6.0, f"{design} Q3 speedup {s}"

    def test_sam_io_en_no_row_query_degradation(self):
        """The headline advantage over SAM-sub/RC-NVM: row-preferring
        queries are unaffected (< 1% in the paper)."""
        for qname in ("Qs1", "Qs3", "Qs5"):
            s = speedup("SAM-en", qname)
            assert s == pytest.approx(1.0, abs=0.02), f"{qname}: {s}"

    def test_sam_sub_degrades_row_queries(self):
        """SAM-sub's vertical alignment costs on Qs queries."""
        s = speedup("SAM-sub", "Qs3")
        assert s < 0.95

    def test_rc_nvm_degrades_row_queries_more(self):
        assert speedup("RC-NVM-wd", "Qs3") < speedup("SAM-en", "Qs3")

    def test_rc_nvm_writes_suffer(self):
        """RRAM write latency: Qs6 inserts collapse on RC-NVM."""
        s = speedup("RC-NVM-wd", "Qs6")
        assert s < 0.6

    def test_gs_dram_ecc_pays_for_protection(self):
        """GS-DRAM-ecc is distinctly slower than plain GS-DRAM."""
        plain = speedup("GS-DRAM", "Q3")
        ecc = speedup("GS-DRAM-ecc", "Q3")
        assert ecc < 0.75 * plain

    def test_sam_en_beats_gs_dram_ecc(self):
        """Among ECC-capable designs, SAM-en wins (the paper's point)."""
        assert speedup("SAM-en", "Q3") > speedup("GS-DRAM-ecc", "Q3")

    def test_sam_beats_rc_nvm_on_dram_substrate(self):
        assert speedup("SAM-en", "Q1") > speedup("RC-NVM-wd", "Q1")

    def test_update_queries_benefit_from_sstore(self):
        s = speedup("SAM-en", "Q12")
        assert s > 2.0


class TestGranularity:
    def test_finer_granularity_faster(self):
        """Figure 14(b): 4-bit > 8-bit > 16-bit granularity."""
        speeds = {
            g: speedup("SAM-en", "Q3", gather_factor=f)
            for g, f in ((16, 2), (8, 4), (4, 8))
        }
        assert speeds[4] > speeds[8] > speeds[16]


def figure12_ideal(qname):
    """The store Figure 12's ``ideal`` series runs for ``qname``."""
    return ideal_store(by_name()[qname])


class TestIdealEnvelope:
    def test_ideal_upper_bounds_q_queries(self):
        """The per-query ideal store is at least as good as SAM on plain
        field-scan queries."""
        query = by_name()["Q3"]
        base = run_query("baseline", query, make_tables(N_TA, N_TB))
        ideal = run_query(figure12_ideal("Q3"), query,
                          make_tables(N_TA, N_TB))
        sam = run_query("SAM-en", query, make_tables(N_TA, N_TB))
        assert base.cycles / ideal.cycles >= 0.9 * (
            base.cycles / sam.cycles
        )

    def test_ideal_is_baseline_for_row_queries(self):
        query = by_name()["Qs1"]
        base = run_query("baseline", query, make_tables(N_TA, N_TB))
        ideal = run_query(figure12_ideal("Qs1"), query,
                          make_tables(N_TA, N_TB))
        assert ideal.cycles == base.cycles


class TestEnergyShapes:
    def test_sam_io_draws_more_power_but_less_energy(self):
        """Figure 13: SAM-IO raises power (x16-class internal traffic)
        yet improves energy efficiency by finishing much earlier."""
        query = by_name()["Q3"]
        base = run_query("baseline", query, make_tables(N_TA, N_TB))
        sam = run_query("SAM-IO", query, make_tables(N_TA, N_TB))
        assert sam.power.total_mw > 1.2 * base.power.total_mw
        assert sam.energy_efficiency_over(base) > 1.5

    def test_sam_en_more_efficient_than_sam_io(self):
        query = by_name()["Q3"]
        io = run_query("SAM-IO", query, make_tables(N_TA, N_TB))
        en = run_query("SAM-en", query, make_tables(N_TA, N_TB))
        assert en.power.total_nj < io.power.total_nj

    def test_rram_background_advantage_on_reads(self):
        query = by_name()["Q3"]
        base = run_query("baseline", query, make_tables(N_TA, N_TB))
        rc = run_query("RC-NVM-wd", query, make_tables(N_TA, N_TB))
        assert rc.power.power_mw("background") < base.power.power_mw(
            "background"
        )


class TestDeterminism:
    def test_runs_are_reproducible(self):
        a = run_query("SAM-en", by_name()["Q1"], make_tables(N_TA, N_TB))
        b = run_query("SAM-en", by_name()["Q1"], make_tables(N_TA, N_TB))
        assert a.cycles == b.cycles
        assert a.result == b.result

    def test_all_schemes_all_queries_complete(self):
        """Smoke: every (design, query) pair simulates and agrees on the
        query answer."""
        from repro.core import FIGURE12_DESIGNS

        for qname in ("Q1", "Q4", "Q8", "Q11", "Qs2", "Qs6"):
            query = by_name()[qname]
            expected = None
            for design in ("baseline",) + tuple(FIGURE12_DESIGNS):
                result = run_query(
                    design, query, make_tables(128, 256)
                )
                if expected is None:
                    expected = str(result.result)
                assert str(result.result) == expected, (qname, design)
