"""Ablations of the design decisions DESIGN.md calls out.

* mode-switch delay: the paper claims (Section 5.3) switches are rare so
  the tRTR-class penalty is negligible -- sweep tMOD_IO and verify;
* SAM-en's two options (Section 4.3): energy contribution of fine-grained
  activation, layout contribution of the 2-D buffer;
* sector cache: what strided fills would cost if every gathered element
  invalidated/refetched full lines (executor batching as proxy);
* execution batching: group-at-a-time vs vectorized batches.
"""

import dataclasses

import pytest

from conftest import emit
from repro.core.sam import SAMEnScheme
from repro.dram.timing import DDR4_2400
from repro.workloads import make_tables
from repro.imdb import by_name
from repro.imdb.plan import CostModel
from repro.power.model import PowerModel
from repro.sim import run_query


def test_mode_switch_delay_negligible(benchmark, bench_sizes):
    """Sweep the I/O-mode switch penalty: 0 to 4x nominal tRTR."""
    n_ta, n_tb = bench_sizes
    query = by_name()["Q3"]

    def run():
        cycles = {}
        for tmod in (0, 2, 4, 8):
            scheme = SAMEnScheme()
            timing = dataclasses.replace(
                DDR4_2400, name=f"tMOD={tmod}", tMOD_IO=tmod
            )
            scheme.base_timing = lambda t=timing: t  # type: ignore
            tables = make_tables(n_ta, n_tb)
            cycles[tmod] = run_query(scheme, query, tables).cycles
        return cycles

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: I/O mode-switch delay (Q3 on SAM-en)",
        "\n".join(
            f"  tMOD_IO={t:2d} CK -> {c} cycles "
            f"(+{(c / cycles[0] - 1) * 100:.2f}%)"
            for t, c in cycles.items()
        ),
    )
    # Section 5.3: "the mode switch does not happen frequently, incurring
    # negligible performance overhead" -- the nominal tRTR-class delay
    # costs well under 1%, and even 4x the nominal delay stays small
    assert cycles[2] < 1.01 * cycles[0]
    assert cycles[8] < 1.05 * cycles[0]


def test_sam_en_option1_energy(benchmark, bench_sizes):
    """Option 1 (fine-grained activation) is where the energy saving is."""
    n_ta, n_tb = bench_sizes
    query = by_name()["Q5"]

    def run():
        out = {}
        for fga in (True, False):
            scheme = SAMEnScheme(fine_grained_activation=fga)
            tables = make_tables(n_ta, n_tb)
            result = run_query(scheme, query, tables)
            out[fga] = result.power.total_nj
        return out

    energy = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: SAM-en Option 1 (fine-grained activation), Q5 energy",
        f"  with option 1    : {energy[True] / 1e3:8.1f} uJ\n"
        f"  without option 1 : {energy[False] / 1e3:8.1f} uJ",
    )
    assert energy[True] < 0.85 * energy[False]


def test_sam_en_option2_layout(benchmark):
    """Option 2 (2-D buffer) restores critical-word-first -- a trait, and
    functionally the default storage layout (verified bit-level in the
    datapath tests)."""
    def run():
        return (
            SAMEnScheme(two_d_buffer=True).traits.critical_word_first,
            SAMEnScheme(two_d_buffer=False).traits.critical_word_first,
        )

    with_opt, without_opt = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: SAM-en Option 2 (2-D buffer)",
        f"  critical-word-first with option 2: {with_opt}\n"
        f"  critical-word-first without     : {without_opt}",
    )
    assert with_opt and not without_opt


def test_execution_batching(benchmark, bench_sizes):
    """Group-at-a-time vs vectorized batches: RC-NVM-wd likes large
    batches (field-switch amortization), SAM-en prefers group-at-a-time
    (row-buffer hits between predicate and projection)."""
    n_ta, n_tb = bench_sizes
    query = by_name()["Q1"]

    def run():
        out = {}
        for design in ("SAM-en", "RC-NVM-wd"):
            for batch in (8, 512):
                tables = make_tables(n_ta, n_tb)
                cost = CostModel(batch_records=batch)
                out[(design, batch)] = run_query(
                    design, query, tables, cost=cost
                ).cycles
        return out

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: execution batch size (Q1)",
        "\n".join(
            f"  {d:10s} batch={b:4d}: {c} cycles"
            for (d, b), c in cycles.items()
        ),
    )
    # RC-NVM gains from vectorized execution, relatively more than SAM
    rc_gain = cycles[("RC-NVM-wd", 8)] / cycles[("RC-NVM-wd", 512)]
    sam_gain = cycles[("SAM-en", 8)] / cycles[("SAM-en", 512)]
    assert rc_gain > sam_gain


def test_page_policy_ablation(benchmark, bench_sizes):
    """Open page (Table 2) vs closed page: streaming scans rely on row
    hits, so closed page costs activation churn."""
    import dataclasses as dc

    from repro.dram.controller import ControllerConfig
    from repro.sim import SystemConfig
    from repro.sim.runner import run_query as rq

    n_ta, n_tb = bench_sizes
    query = by_name()["Qs1"]

    def run():
        out = {}
        for policy in ("open", "closed"):
            config = SystemConfig(
                controller=ControllerConfig(page_policy=policy)
            )
            tables = make_tables(n_ta, n_tb)
            out[policy] = rq("baseline", query, tables,
                             config=config).cycles
        return out

    cycles = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: row-buffer policy (Qs1 record scan, baseline DRAM)",
        f"  open page   : {cycles['open']} cycles\n"
        f"  closed page : {cycles['closed']} cycles "
        f"(+{(cycles['closed'] / cycles['open'] - 1) * 100:.0f}%)",
    )
    assert cycles["open"] < cycles["closed"]


def test_critical_word_first_small(benchmark, bench_sizes):
    """Losing critical-word-first (SAM-IO's transposed layout) costs
    under ~2% on row-friendly queries -- the paper cites <1% from [53]."""
    from repro.core.sam import SAMIOScheme

    n_ta, n_tb = bench_sizes
    query = by_name()["Qs3"]

    def run():
        tables = make_tables(n_ta, n_tb)
        io = run_query("SAM-IO", query, tables).cycles  # no CWF
        tables = make_tables(n_ta, n_tb)
        en = run_query("SAM-en", query, tables).cycles  # CWF
        return io, en

    io, en = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: critical-word-first (Qs3)",
        f"  SAM-en (CWF)    : {en} cycles\n"
        f"  SAM-IO (no CWF) : {io} cycles "
        f"(+{(io / en - 1) * 100:.2f}%)",
    )
    assert io <= 1.03 * en
