"""Figure 15: arithmetic/aggregate query sweeps (all nine panels).

Paper shapes:
(a)   speedup rises with selectivity at low projectivity;
(b,c) the rise flattens as more fields are projected;
(d-f) speedup falls as projectivity grows, rises with selectivity;
(g)   aggregate queries lift RC-NVM-wd close to SAM-en;
(h)   at full projectivity everyone converges toward the row store;
(i)   only RC-NVM-wd degrades as records grow (bank-conflict layout).
SAM-en stays at or near the best design in every panel.
"""

import pytest

from conftest import emit
from repro.harness.figure15 import PROJECTIVITIES, run_figure15

N_TA = 256


def _panels(benchmark, keys):
    result = benchmark.pedantic(lambda: run_figure15(keys, N_TA),
                                rounds=1, iterations=1)
    for key, panel in result.panels.items():
        emit(f"Figure 15({key})", panel.render())
    return result.panels


def test_fig15_abc_selectivity(benchmark):
    panels = _panels(benchmark, ["a", "b", "c"])

    # (a) low projectivity: SAM-en well above 1 at every selectivity
    a = panels["a"].points
    assert all(per["SAM-en"] > 1.5 for per in a.values())
    # (c) full projectivity: advantage shrinks toward the row store
    c = panels["c"].points
    assert max(per["SAM-en"] for per in c.values()) < max(
        per["SAM-en"] for per in a.values()
    )
    # SAM-en >= GS-DRAM-ecc everywhere
    for panel in panels.values():
        for per in panel.points.values():
            assert per["SAM-en"] >= 0.9 * per["GS-DRAM-ecc"]


def test_fig15_def_projectivity(benchmark):
    panels = _panels(benchmark, ["d", "f"])

    # speedup declines as projectivity grows (the baseline's home turf)
    for panel in panels.values():
        series = [panel.points[p]["SAM-en"] for p in PROJECTIVITIES]
        assert series[0] > series[-1]


def test_fig15_gh_aggregate(benchmark):
    panels = _panels(benchmark, ["g", "h"])

    # (g): aggregate processing relieves RC-NVM's field switching -- the
    # gap to SAM-en narrows (paper: "nearly the same")
    g = panels["g"].points
    for per in g.values():
        assert per["RC-NVM-wd"] > 0.45 * per["SAM-en"]
    assert all(per["SAM-en"] > 1.5 for per in g.values())


def test_fig15_i_record_size(benchmark):
    panel = benchmark.pedantic(
        lambda: run_figure15(["i"], n_bytes_total=256 * 1024).panels["i"],
        rounds=1,
        iterations=1,
    )
    emit("Figure 15(i): record-size sweep (100%/100%)", panel.render())

    sizes = sorted(panel.points)
    # only RC-NVM-wd degrades with record size (paper's conclusion)
    rc = [panel.points[s]["RC-NVM-wd"] for s in sizes]
    sam = [panel.points[s]["SAM-en"] for s in sizes]
    assert rc[-1] < rc[0]
    assert sam[-1] > 0.75 * sam[0]
