"""Tests for the repro.check correctness-tooling subsystem.

Three layers:

* every timing rule of :class:`TimingProtocolChecker` fires on a
  hand-built known-violating command stream and stays silent on legal
  spacings;
* known-good simulations (every design, the figure12 harness, parallel
  sweeps) run under ``check`` without a single violation;
* the fuzzer finds deliberately injected timing-table corruption and
  shrinks it to a replayable JSON reproducer.
"""

import json

import pytest

from repro.check import (
    DataOracle,
    FunctionalMemory,
    OracleError,
    ProtocolError,
    PlanValidator,
    TimingProtocolChecker,
    generate_case,
    reference_line,
    replay,
    run_case,
    run_fuzz,
)
from repro.check.fuzz import FuzzCase
from repro.core.registry import make_scheme
from repro.dram.commands import Command, IOMode
from repro.dram.geometry import Geometry
from repro.dram.timing import preset
from repro.workloads import make_tables
from repro.imdb import by_name
from repro.obs import Observation
from repro.sim import run_query

T = preset("DDR4-2400")


def checker(**kw):
    kw.setdefault("strict", False)
    return TimingProtocolChecker(T, Geometry(), **kw)


def rules(c):
    return [v.rule for v in c.violations]


# ---------------------------------------------------------------------------
# Per-rule known-violating streams
# ---------------------------------------------------------------------------

class TestTimingRules:
    def test_trcd_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(5, Command.RD, rank=0, bank=0, row=5)
        assert "tRCD" in rules(c)

    def test_trcd_ok_at_boundary(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=5)
        assert not c.violations

    def test_trp_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRAS, Command.PRE, rank=0, bank=0)
        c.on_command(T.tRAS + T.tRP - 1, Command.ACT, rank=0, bank=0, row=6)
        assert rules(c) == ["tRP"]

    def test_tras_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRAS - 1, Command.PRE, rank=0, bank=0)
        assert rules(c) == ["tRAS"]

    def test_trrd_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        # bank 8 is another bank group: tRRD_S applies
        c.on_command(T.tRRD_S - 1, Command.ACT, rank=0, bank=8, row=5)
        assert rules(c) == ["tRRD"]

    def test_trrd_same_group_needs_long_gap(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        # bank 1 shares bank group 0: tRRD_L applies
        c.on_command(T.tRRD_S, Command.ACT, rank=0, bank=1, row=5)
        assert rules(c) == ["tRRD"]

    def test_tfaw_violation(self):
        c = checker()
        banks = (0, 4, 8, 12, 1)  # rotate groups to keep tRRD legal
        for i, bank in enumerate(banks):
            c.on_command(i * T.tRRD_L, Command.ACT, rank=0, bank=bank,
                         row=5)
        # the 5th ACT at 4*tRRD_L = 24 < acts[0] + tFAW = 26
        assert rules(c) == ["tFAW"]

    def test_tccd_l_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=5)
        c.on_command(T.tRCD + T.tCCD_L - 1, Command.RD, rank=0, bank=0,
                     row=5)
        assert "tCCD_L" in rules(c)

    def test_twr_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRCD, Command.WR, rank=0, bank=0, row=5)
        # past tRAS but inside write recovery
        c.on_command(T.tRAS + 6, Command.PRE, rank=0, bank=0)
        assert rules(c) == ["tWR"]

    def test_trtp_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(40, Command.RD, rank=0, bank=0, row=5)
        c.on_command(40 + T.tRTP - 1, Command.PRE, rank=0, bank=0)
        assert rules(c) == ["tRTP"]

    def test_twtr_violation(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRRD_L, Command.ACT, rank=0, bank=1, row=5)
        c.on_command(T.tRCD, Command.WR, rank=0, bank=0, row=5)
        c.on_command(T.tRCD + 3, Command.RD, rank=0, bank=1, row=5)
        assert "tWTR" in rules(c)

    def test_trfc_violation(self):
        c = checker()
        c.on_command(10, Command.REF, rank=0)
        c.on_command(10 + T.tRFC - 1, Command.ACT, rank=0, bank=0, row=5)
        assert rules(c) == ["tRFC"]

    def test_trfc_ok_after_blackout(self):
        c = checker()
        c.on_command(10, Command.REF, rank=0)
        c.on_command(10 + T.tRFC, Command.ACT, rank=0, bank=0, row=5)
        assert not c.violations

    def test_ref_with_open_bank(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(50, Command.REF, rank=0)
        assert "ref-open-bank" in rules(c)

    def test_tmod_io_violation(self):
        c = checker()
        c.on_command(10, Command.MRS, rank=0, bank=0,
                     io_mode=IOMode.STRIDE)
        c.on_command(10 + T.tMOD_IO - 1, Command.ACT, rank=0, bank=0,
                     row=5)
        assert rules(c) == ["tMOD_IO"]

    def test_act_on_open_bank(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(100, Command.ACT, rank=0, bank=0, row=6)
        assert "act-on-open" in rules(c)

    def test_cas_row_mismatch(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=6)
        assert "cas-row-mismatch" in rules(c)

    def test_cas_on_closed_bank(self):
        c = checker()
        c.on_command(0, Command.RD, rank=0, bank=0, row=5)
        assert "cas-on-closed" in rules(c)

    def test_command_bus_single_slot(self):
        c = checker()
        c.on_command(5, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(5, Command.ACT, rank=0, bank=4, row=5)
        assert "command-bus" in rules(c)

    def test_data_bus_overlap_across_ranks(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(2, Command.ACT, rank=1, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=5)
        # second read's burst lands inside the first burst's window
        c.on_command(T.tRCD + 2, Command.RD, rank=1, bank=0, row=5)
        assert "data-bus-overlap" in rules(c)

    def test_trtr_rank_switch_bubble(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(2, Command.ACT, rank=1, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=5)
        # back to back but not overlapping: misses the tRTR bubble only
        c.on_command(T.tRCD + T.tBL + 1, Command.RD, rank=1, bank=0, row=5)
        assert "tRTR" in rules(c)

    def test_io_mode_mismatch(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(T.tRCD, Command.RD, rank=0, bank=0, row=5,
                     io_mode=IOMode.STRIDE)
        assert "io-mode" in rules(c)

    def test_strict_mode_raises(self):
        c = TimingProtocolChecker(T, Geometry(), strict=True)
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        with pytest.raises(ProtocolError) as err:
            c.on_command(5, Command.RD, rank=0, bank=0, row=5)
        assert err.value.violation.rule == "tRCD"
        # the violation carries the offending command window
        assert len(err.value.violation.window) == 2

    def test_collect_mode_caps_violations(self):
        c = checker(max_violations=3)
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        with pytest.raises(ProtocolError):
            for i in range(10):
                c.on_command(1 + i, Command.RD, rank=0, bank=0, row=5)
        assert len(c.violations) == 3

    def test_violation_serializes(self):
        c = checker()
        c.on_command(0, Command.ACT, rank=0, bank=0, row=5)
        c.on_command(5, Command.RD, rank=0, bank=0, row=5)
        payload = c.violations[0].to_dict()
        assert payload["rule"] == "tRCD"
        assert json.dumps(payload)  # JSON-serializable as-is


# ---------------------------------------------------------------------------
# Known-good runs stay silent
# ---------------------------------------------------------------------------

class TestKnownGood:
    @pytest.mark.parametrize(
        "design", ["baseline", "SAM-sub", "SAM-IO", "SAM-en", "GS-DRAM-ecc",
                   "RC-NVM-wd", "sub-rank"]
    )
    def test_design_runs_clean_under_check(self, design):
        query = by_name()["Q3"]
        result = run_query(design, query, make_tables(64, 64), check=True)
        assert result.metrics["check.commands"] > 0
        assert "check.violations" not in result.metrics

    def test_check_does_not_outlive_its_run_on_a_caller_owned_scheme(self):
        """The plan check hooks the run's memory system, not the design
        object, so a caller's SAM-en instance runs unchecked afterwards
        exactly like a fresh one."""
        query = by_name()["Q3"]
        scheme = make_scheme("SAM-en")
        checked = Observation()
        run_query(scheme, query, make_tables(64, 64), observe=checked,
                  check=True)
        plans = checked.registry.value("check.plans")
        assert plans > 0
        unchecked = run_query(scheme, query, make_tables(64, 64))
        # a hook left on the design would feed the checked run's validator
        assert checked.registry.value("check.plans") == plans
        assert not [m for m in unchecked.metrics if m.startswith("check.")]
        fresh = run_query("SAM-en", query, make_tables(64, 64))
        assert unchecked.cycles == fresh.cycles

    def test_refresh_traffic_is_legal(self):
        case = FuzzCase(
            seed=0, index=0, scheme="baseline", gather_factor=8,
            record_bytes=64, n_records=64, refresh=True,
            ops=tuple(("load", i, 0) for i in range(40)),
        )
        result = run_case(case)
        assert not result.failed
        assert result.commands > 40  # loads plus refresh machinery


# ---------------------------------------------------------------------------
# Differential oracle
# ---------------------------------------------------------------------------

class TestOracle:
    def test_plan_validator_accepts_real_lowering(self):
        scheme = make_scheme("SAM-IO", gather_factor=8)
        validator = PlanValidator(scheme, strict=True)
        addrs = [64 * 128 * 7 + 8 * i for i in range(8)]
        validator.on_plan("read", addrs, scheme.lower_gather_read(addrs))
        assert validator.plans_seen == 1

    def test_plan_validator_rejects_tampered_plan(self):
        scheme = make_scheme("SAM-IO", gather_factor=8)
        validator = PlanValidator(scheme, strict=True)
        addrs = [64 * 128 * 7 + 8 * i for i in range(8)]
        plan = scheme.lower_gather_read(addrs)
        plan.requests[0].gather += 1  # a lowering bug
        with pytest.raises(OracleError) as err:
            validator.on_plan("read", addrs, plan)
        assert err.value.mismatch.kind == "plan-requests"

    def test_plan_validator_rejects_missing_fill(self):
        scheme = make_scheme("SAM-en", gather_factor=8)
        validator = PlanValidator(scheme, strict=True)
        addrs = [64 * 128 * 3 + 8 * i for i in range(8)]
        plan = scheme.lower_gather_read(addrs)
        plan.fills.pop()
        with pytest.raises(OracleError) as err:
            validator.on_plan("read", addrs, plan)
        assert err.value.mismatch.kind == "fills"

    def test_functional_memory_roundtrip(self):
        mem = FunctionalMemory()
        assert mem.read_line(128) == reference_line(128)
        mem.write(100, b"\xaa" * 8)  # unaligned write inside line 64
        assert mem.read(100, 8) == b"\xaa" * 8
        # neighbouring bytes keep the reference pattern
        assert mem.read(96, 4) == reference_line(64)[32:36]

    def test_expected_gather_spans_lines(self):
        mem = FunctionalMemory()
        addrs = [0, 64, 200]
        got = mem.expected_gather(addrs, 8)
        assert got == (reference_line(0)[:8] + reference_line(64)[:8]
                       + reference_line(192)[8:16])

    def test_data_oracle_flags_uncorrectable_gather(self):
        oracle = DataOracle(strict=False)
        rng_lines = [bytes(range(64))] * 4
        # two corrupted chips exceed SSC correction: flagged, not silent
        oracle.check_gather("transposed", 0, 0, [0, 1, 2, 3], 0, rng_lines,
                            faulty_chip=3, fault_mask=0xFFFF)
        oracle.check_gather("transposed", 0, 0, [0, 1, 2, 3], 0, rng_lines)
        assert not oracle.mismatches  # single chip corrected, clean pass ok
        oracle2 = DataOracle(strict=False)
        datapath_lines = [bytes(64)] * 4
        oracle2.check_gather("default", 0, 0, [0, 1, 2, 3], 1,
                             datapath_lines)
        assert not oracle2.mismatches


# ---------------------------------------------------------------------------
# Checked sweeps: parallel execution stays byte-identical
# ---------------------------------------------------------------------------

class TestCheckedSweeps:
    def test_parallel_checked_sweep_matches_serial(self):
        from repro.exp import SweepEngine
        from repro.harness.figure12 import run_figure12
        from repro.obs.artifacts import to_jsonable

        kwargs = dict(n_ta=64, n_tb=64, designs=["SAM-en"],
                      queries=["Q3", "Qs1"], include_ideal=True)
        eng1 = SweepEngine(jobs=1, check=True)
        eng2 = SweepEngine(jobs=2, check=True)
        serial = run_figure12(engine=eng1, **kwargs)
        par = run_figure12(engine=eng2, **kwargs)
        dump = lambda r: json.dumps(to_jsonable(r.payload()), sort_keys=True)
        assert dump(serial) == dump(par)
        # the checker really ran on every point: its counters are in the
        # per-point metrics of both runs
        for engine in (eng1, eng2):
            result = engine.history[0].results[("SAM-en", "Q3")]
            assert result.metrics["check.commands"] > 0


# ---------------------------------------------------------------------------
# Fuzzer: clean streams pass, injected corruption is caught and shrunk
# ---------------------------------------------------------------------------

class TestFuzz:
    def test_clean_fuzz_passes(self):
        report = run_fuzz(seed=7, cases=12)
        assert report.ok
        assert report.cases == 12
        assert report.commands > 0

    def test_cases_are_deterministic(self):
        assert generate_case(3, 5) == generate_case(3, 5)
        assert generate_case(3, 5) != generate_case(3, 6)

    def test_injected_corruption_is_caught(self, tmp_path):
        report = run_fuzz(
            seed=0, cases=12, inject=(("tRCD", 1),),
            artifacts_dir=tmp_path,
        )
        assert not report.ok
        assert report.failures[0].signature() == "protocol:tRCD"
        # a minimized JSON reproducer was written ...
        assert report.reproducer_path is not None
        payload = json.loads(open(report.reproducer_path).read())
        assert payload["inject"] == [["tRCD", 1]]
        original = generate_case(0, payload["index"], inject=(("tRCD", 1),))
        assert len(payload["ops"]) <= len(original.ops)
        # ... and replaying it reproduces the same failure
        replayed = replay(report.reproducer_path)
        assert replayed.signature() == "protocol:tRCD"

    def test_livelocked_controller_is_reported(self):
        # tRAS below tRCD lets a conflicting request precharge the row
        # before its CAS becomes ready: ACT/PRE thrash forever.  The
        # fuzzer must fail the case, not hang.
        case = FuzzCase(
            seed=0, index=0, scheme="RC-NVM-wd", gather_factor=4,
            record_bytes=64, n_records=64, refresh=False,
            ops=(("sload", 0, 0), ("load", 32, 0), ("load", 48, 0)),
            inject=(("tRAS", 1),),
        )
        result = run_case(case)
        assert result.failed
