"""The paper's evaluation claims, checked against the committed figure
payloads.

Each row of ``CLAIMS`` names a payload under ``artifacts/``, the paper's
sentence and a predicate over that payload's JSON.  The payloads are the
CLI's ``--json`` output, and CI regenerates every one of them and
compares it byte for byte with the committed file.  A change that moves
a figure therefore has to commit the figure's new payload, and these
claims then judge its new shape.

Most claims read the 64/128-record payloads (``figure15.json`` sizes Ta
at 64 records).  Two claims hold only on larger tables and read payloads
named after the command that made them: Figure 14(a)'s SAM-sub vs
RC-NVM-wd ratio (``figure14a-ta256-tb512``) and Figure 15(g)'s RC-NVM-wd
vs SAM-en gap (``figure15-ta256-g``); EXPERIMENTS.md records both at the
smaller size.  Figure 14(a)'s "RC-NVM-wd trails SAM" rows read the
256/512 payload too: at 64/128 RC-NVM-wd runs below the row store, so
they would hold even with SAM's stride mode removed, while at 256/512
RC-NVM-wd leads the row store and only SAM's mechanism puts SAM ahead.
JSON keys are strings, so a claim that orders the points of a panel
converts its x values back to numbers.
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

ARTIFACTS = Path(__file__).resolve().parent.parent / "artifacts"


@lru_cache(maxsize=None)
def load(artifact):
    return json.loads((ARTIFACTS / f"{artifact}.json").read_text())


# --------------------------------------------------------------- Figure 12

def q(figure, design):
    """Gmean speedup over the row store across Q1-Q12."""
    return figure["gmeans"][design]["Q"]


def qs(figure, design):
    """Gmean speedup over the row store across Qs1-Qs6."""
    return figure["gmeans"][design]["Qs"]


# --------------------------------------------------------------- Figure 13

READS, WRITES = "Read(Q1-Q10)", "Write(Q11,Q12)"
QS_READS, QS_WRITES = "Read(Qs1-Qs4)", "Write(Qs5,Qs6)"


def power(figure, cls, design, part="total"):
    """Average memory power (mW) of ``design`` over the class."""
    return figure["power_mw"][cls][design][part]


def efficiency(figure, cls, design):
    """Energy efficiency over the row store (baseline energy / energy)."""
    return figure["efficiency"][cls][design]


# ------------------------------------------------------------ Figure 14(a)

def sub_rc_ratio_close(figure):
    return all(
        0.6 < per["SAM-sub"] / per["RC-NVM-wd"] < 1.9
        for per in figure["speedups"].values()
    )


def dram_beats_nvm(figure):
    dram, nvm = figure["speedups"]["DRAM"], figure["speedups"]["NVM"]
    return all(dram[design] > nvm[design] for design in dram)


# ------------------------------------------------------------ Figure 14(b)

def finer_granularity_is_faster(figure):
    """SAM-en at 4 bits per chip beats 8 bits, which beats 16 bits."""
    s = figure["speedups"]
    return s["4"]["SAM-en"] > s["8"]["SAM-en"] > s["16"]["SAM-en"]


# -------------------------------------------------------------- Figure 15

def points(figure, panel):
    """The panel's ``{design: speedup}`` per point, in ascending x."""
    pts = figure["panels"][panel]["points"]
    return [pts[x] for x in sorted(pts, key=float)]


def fewer_fields_projected_is_faster(figure):
    series = [[per["SAM-en"] for per in points(figure, panel)]
              for panel in ("d", "f")]
    return all(sam[0] > sam[-1] for sam in series)


# ------------------------------------------------------------- reliability

#: the designs whose strided accesses keep chipkill
CHIPKILL_DESIGNS = ("baseline", "SAM-sub", "SAM-IO", "SAM-en",
                    "GS-DRAM-ecc", "RC-NVM-wd")


def chipkill_kept(field, value):
    return lambda report: all(
        report["designs"][design][field] == value
        for design in CHIPKILL_DESIGNS
    )


# ----------------------------------------------------------------- Table 1

#: Table 1 as printed in the paper (v good, o fair, x poor), one symbol
#: per column in the paper's column order.
PAPER_COLUMNS = ("RC-NVM-bit", "RC-NVM-wd", "GS-DRAM", "SAM-sub", "SAM-IO",
                 "SAM-en")
PAPER_TABLE1 = {
    "Memory Controller":    dict(zip(PAPER_COLUMNS, "vvxvvv")),
    "Command Interface":    dict(zip(PAPER_COLUMNS, "vvxvvv")),
    "Critical-Word-First":  dict(zip(PAPER_COLUMNS, "vvxvxv")),
    "Performance":          dict(zip(PAPER_COLUMNS, "xxvovv")),
    "Power Consumption":    dict(zip(PAPER_COLUMNS, "oovvov")),
    "Area Overhead":        dict(zip(PAPER_COLUMNS, "xxvovv")),
    "Reliability":          dict(zip(PAPER_COLUMNS, "vvxvvv")),
    "Mode Switch Delay":    dict(zip(PAPER_COLUMNS, "oovooo")),
}


def table1_cells_differing(table):
    return [
        (row, design, symbol, table["matrix"][design][row])
        for row, expected in PAPER_TABLE1.items()
        for design, symbol in expected.items()
        if table["matrix"][design][row] != symbol
    ]


# ------------------------------------------------------------------ claims

#: (artifact, the paper's claim, predicate over the artifact's JSON)
CLAIMS = [
    # Figure 12 (Section 6.1): SAM accelerates the Q queries
    # substantially without hurting the Qs queries
    ("figure12", "SAM-IO speeds the Q queries up by more than 3x",
     lambda f: q(f, "SAM-IO") > 3.0),
    ("figure12", "SAM-en speeds the Q queries up by more than 3x",
     lambda f: q(f, "SAM-en") > 3.0),
    ("figure12", "SAM-sub speeds the Q queries up by more than 3x",
     lambda f: q(f, "SAM-sub") > 3.0),
    ("figure12", "SAM-IO leaves the Qs queries untouched",
     lambda f: qs(f, "SAM-IO") > 0.97),
    ("figure12", "SAM-en leaves the Qs queries untouched",
     lambda f: qs(f, "SAM-en") > 0.97),
    ("figure12", "SAM-sub pays on the Qs queries",
     lambda f: qs(f, "SAM-sub") < 0.9),
    ("figure12", "RC-NVM-wd pays more than SAM-sub on the Qs queries",
     lambda f: qs(f, "RC-NVM-wd") < qs(f, "SAM-sub")),
    ("figure12", "GS-DRAM-ecc clearly trails SAM-en on the Q queries "
                 "(the ECC tax)",
     lambda f: q(f, "GS-DRAM-ecc") < 0.75 * q(f, "SAM-en")),
    ("figure12", "RC-NVM-wd on its native substrate trails SAM-en on the "
                 "Q queries",
     lambda f: q(f, "RC-NVM-wd") < q(f, "SAM-en")),
    ("figure12", "RC-NVM-bit trails RC-NVM-wd on the Q queries",
     lambda f: q(f, "RC-NVM-bit") < q(f, "RC-NVM-wd")),

    # Figure 13: SAM-IO pays a power tax but still wins on energy
    ("figure13", "SAM-IO raises read power (x16-class internal movement)",
     lambda f: power(f, READS, "SAM-IO")
     > 1.4 * power(f, READS, "baseline")),
    ("figure13", "SAM-IO still wins on read energy (it finishes much "
                 "earlier)",
     lambda f: efficiency(f, READS, "SAM-IO") > 1.5),
    ("figure13", "SAM-IO still wins on write energy",
     lambda f: efficiency(f, WRITES, "SAM-IO") > 1.5),
    ("figure13", "SAM-en is more energy-efficient than SAM-IO on reads "
                 "(fine-grained activation)",
     lambda f: efficiency(f, READS, "SAM-en")
     > 1.2 * efficiency(f, READS, "SAM-IO")),
    ("figure13", "SAM-en draws less read power than SAM-IO",
     lambda f: power(f, READS, "SAM-en") < power(f, READS, "SAM-IO")),
    ("figure13", "NVM has a low background power",
     lambda f: power(f, READS, "RC-NVM-wd", "background")
     < 0.1 * power(f, READS, "baseline", "background")),
    ("figure13", "NVM is worse than the row store on write energy",
     lambda f: efficiency(f, QS_WRITES, "RC-NVM-wd") < 1.0),
    ("figure13", "on the Qs queries SAM-IO, with the row-store layout, "
                 "matches the baseline",
     lambda f: efficiency(f, QS_READS, "SAM-IO")
     == pytest.approx(1.0, abs=0.05)),

    # Figure 14(a): RC-NVM and SAM on each other's memory technology
    ("figure14a-ta256-tb512", "RC-NVM-wd and SAM-sub perform nearly the "
                              "same on the same substrate",
     sub_rc_ratio_close),
    ("figure14a-ta256-tb512", "RC-NVM-wd trails SAM-IO on DRAM",
     lambda f: f["speedups"]["DRAM"]["SAM-IO"]
     > f["speedups"]["DRAM"]["RC-NVM-wd"]),
    ("figure14a-ta256-tb512", "RC-NVM-wd trails SAM-IO on NVM",
     lambda f: f["speedups"]["NVM"]["SAM-IO"]
     > f["speedups"]["NVM"]["RC-NVM-wd"]),
    ("figure14a-ta256-tb512", "RC-NVM-wd trails SAM-en on DRAM",
     lambda f: f["speedups"]["DRAM"]["SAM-en"]
     > f["speedups"]["DRAM"]["RC-NVM-wd"]),
    ("figure14a", "DRAM timing beats NVM timing for every design",
     dram_beats_nvm),

    # Figure 14(b): strided granularity (16 / 8 / 4 bits per chip)
    ("figure14b", "finer granularity improves SAM-en's performance",
     finer_granularity_is_faster),
    ("figure14b", "SAM-en outperforms RC-NVM-wd at every granularity",
     lambda f: all(per["SAM-en"] >= per["RC-NVM-wd"]
                   for per in f["speedups"].values())),
    ("figure14b", "SAM-en outperforms GS-DRAM-ecc at every granularity",
     lambda f: all(per["SAM-en"] >= per["GS-DRAM-ecc"]
                   for per in f["speedups"].values())),

    # Figure 14(c) (Section 6.1): area and storage overhead
    ("figure14c", "SAM-sub costs about 7.2% silicon",
     lambda f: f["designs"]["SAM-sub"]["silicon_fraction"]
     == pytest.approx(0.072, abs=0.002)),
    ("figure14c", "SAM-IO costs under 0.01% silicon",
     lambda f: f["designs"]["SAM-IO"]["silicon_fraction"] < 0.0001),
    ("figure14c", "SAM-en costs about 0.7% silicon",
     lambda f: f["designs"]["SAM-en"]["silicon_fraction"]
     == pytest.approx(0.007, abs=0.001)),
    ("figure14c", "RC-NVM-bit costs about 15% silicon",
     lambda f: f["designs"]["RC-NVM-bit"]["silicon_fraction"]
     == pytest.approx(0.15, abs=0.01)),
    ("figure14c", "RC-NVM-wd costs about 33% silicon",
     lambda f: f["designs"]["RC-NVM-wd"]["silicon_fraction"]
     == pytest.approx(0.33, abs=0.01)),
    ("figure14c", "GS-DRAM-ecc costs 12.5% storage",
     lambda f: f["designs"]["GS-DRAM-ecc"]["storage_fraction"] == 0.125),
    ("figure14c", "the software two-copy layout costs 100% storage",
     lambda f: f["designs"]["two-copy"]["storage_fraction"] == 1.0),
    ("figure14c", "RC-NVM needs two extra metal layers",
     lambda f: all(f["designs"][name]["extra_metal_layers"] == 2
                   for name in ("RC-NVM-bit", "RC-NVM-wd"))),

    # Figure 15: arithmetic and aggregate query sweeps
    ("figure15", "(a) at low projectivity SAM-en is well above the row "
                 "store at every selectivity",
     lambda f: all(per["SAM-en"] > 1.5 for per in points(f, "a"))),
    ("figure15", "(c) at full projectivity SAM-en's advantage shrinks "
                 "toward the row store",
     lambda f: max(per["SAM-en"] for per in points(f, "c"))
     < max(per["SAM-en"] for per in points(f, "a"))),
    ("figure15", "(a-c) SAM-en stays at or near GS-DRAM-ecc everywhere",
     lambda f: all(per["SAM-en"] >= 0.9 * per["GS-DRAM-ecc"]
                   for panel in "abc" for per in points(f, panel))),
    ("figure15", "(d, f) speedup declines as projectivity grows",
     fewer_fields_projected_is_faster),
    ("figure15-ta256-g", "(g) aggregate processing lifts RC-NVM-wd close "
                         "to SAM-en",
     lambda f: all(per["RC-NVM-wd"] > 0.45 * per["SAM-en"]
                   for per in points(f, "g"))),
    ("figure15", "(g) SAM-en is well above the row store on aggregates",
     lambda f: all(per["SAM-en"] > 1.5 for per in points(f, "g"))),
    ("figure15", "(i) RC-NVM-wd degrades as records grow",
     lambda f: points(f, "i")[-1]["RC-NVM-wd"]
     < points(f, "i")[0]["RC-NVM-wd"]),
    ("figure15", "(i) SAM-en holds up as records grow",
     lambda f: points(f, "i")[-1]["SAM-en"]
     > 0.75 * points(f, "i")[0]["SAM-en"]),

    # Reliability (Sections 3-4): SAM keeps chipkill, GS-DRAM does not
    ("reliability-trials400", "strided accesses move whole codewords on "
                              "every design but GS-DRAM",
     chipkill_kept("strided_codewords_intact", True)),
    ("reliability-trials400", "chipkill survives a chip fault on every "
                              "design but GS-DRAM",
     chipkill_kept("chip_fault_protection", 1.0)),
    ("reliability-trials400", "chipkill survives a DQ fault on every "
                              "design but GS-DRAM",
     chipkill_kept("dq_fault_protection", 1.0)),
    ("reliability-trials400", "double-chip faults are caught on every "
                              "design but GS-DRAM",
     chipkill_kept("double_chip_protection", 1.0)),
    ("reliability-trials400", "GS-DRAM's strided gathers break codewords",
     lambda f: not f["designs"]["GS-DRAM"]["strided_codewords_intact"]),
    ("reliability-trials400", "GS-DRAM's strided gathers lose chip-fault "
                              "protection",
     lambda f: f["designs"]["GS-DRAM"]["chip_fault_protection"] == 0.0),

    # Table 1: the qualitative comparison, cell for cell
    ("table1", "every cell of Table 1 matches the paper",
     lambda f: not table1_cells_differing(f)),
]


@pytest.mark.parametrize("artifact, claim, holds", CLAIMS,
                         ids=[f"{a}: {c}" for a, c, _ in CLAIMS])
def test_claim(artifact, claim, holds):
    figure = load(artifact)
    assert holds(figure), f"artifacts/{artifact}.json: {claim}"

