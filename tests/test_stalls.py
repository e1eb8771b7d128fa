"""Tests for cycle-accounting stall attribution and the structured
queue-full error."""

import pytest

from repro.dram import (
    AddressMapper,
    ControllerConfig,
    DDR4_2400,
    MemoryController,
    Request,
    RequestType,
)
from repro.dram.controller import QueueFullError
from repro.workloads import make_tables
from repro.imdb.sql import parse
from repro.kernel import Kernel
from repro.obs import Observation
from repro.obs.stalls import (
    BUSY,
    DRAM_SERVICE,
    MEM_WAIT,
    STALL_REASONS,
    TRCD,
    CoreStallLog,
    StallAttributor,
    StallLedger,
    merge_breakdown,
    render_stall_report,
)
from repro.sim.runner import run_query


def _query(sql="SELECT SUM(f9) FROM Ta WHERE f10 > 7500"):
    return parse(sql, name="t")


# ----------------------------------------------------------- CoreStallLog


class TestCoreStallLog:
    def test_busy_coalesces_contiguous(self):
        log = CoreStallLog(0)
        log.note_busy(0, 5)
        log.note_busy(5, 9)  # touches the previous interval
        assert log.busy == [[0, 9]]
        assert log.busy_cycles == 9

    def test_busy_ignores_empty(self):
        log = CoreStallLog(0)
        log.note_busy(7, 7)
        log.note_busy(8, 3)
        assert log.busy == []

    def test_open_block_idempotent(self):
        log = CoreStallLog(0)
        log.open_block(10, MEM_WAIT)
        log.open_block(12, "queue_full")  # ignored: already open
        log.close_block(20)
        assert log.blocks == [[10, 20, MEM_WAIT]]

    def test_close_without_open_is_noop(self):
        log = CoreStallLog(0)
        log.close_block(5)
        assert log.blocks == []

    def test_adjacent_same_reason_blocks_coalesce(self):
        log = CoreStallLog(0)
        log.open_block(0, MEM_WAIT)
        log.close_block(4)
        log.open_block(4, MEM_WAIT)
        log.close_block(9)
        assert log.blocks == [[0, 9, MEM_WAIT]]


# ------------------------------------------------------------ StallLedger


class TestStallLedger:
    def test_note_orders_and_merges(self):
        ledger = StallLedger()
        ledger.note(0, 5, TRCD)
        ledger.note(5, 8, TRCD)  # same reason, contiguous -> merged
        assert ledger.entries == [[0, 8, TRCD]]

    def test_note_truncates_stale_tail(self):
        # a submit() can wake the controller inside a recorded wait: the
        # old wait ends the moment the controller re-evaluates
        ledger = StallLedger()
        ledger.note(0, 20, TRCD)
        ledger.note(6, 10, "refresh")
        assert ledger.entries == [[0, 6, TRCD], [6, 10, "refresh"]]

    def test_overlay_partitions_with_gaps(self):
        ledger = StallLedger()
        ledger.note(10, 14, TRCD)
        out = {}
        ledger.overlay_windows([(8, 20)], out)
        assert out == {TRCD: 4, DRAM_SERVICE: 8}
        assert sum(out.values()) == 12

    def test_overlay_empty_window(self):
        out = {}
        StallLedger().overlay_windows([(5, 5)], out)
        assert out == {}


# -------------------------------------------------- conservation (tier-1)


class TestConservation:
    """busy + attributed stalls == finish - start, exactly, per core."""

    @pytest.mark.parametrize("scheme", ["baseline", "SAM-en", "SAM-sub"])
    def test_per_core_cycles_sum_exactly(self, scheme):
        obs = Observation()
        result = run_query(scheme, _query(), make_tables(256, 256),
                           observe=obs)
        assert result.stalls is not None
        per_core = result.stalls["per_core"]
        assert per_core, "no cores attributed"
        for core_id, breakdown in per_core.items():
            total = breakdown["total"]
            attributed = sum(v for k, v in breakdown.items()
                             if k != "total")
            assert attributed == total, (
                f"core {core_id}: {attributed} != {total}: {breakdown}"
            )
            assert "unaccounted" not in breakdown, breakdown

    def test_merged_matches_per_core(self):
        obs = Observation()
        result = run_query("baseline", _query(), make_tables(128, 128),
                           observe=obs)
        per_core = result.stalls["per_core"]
        merged = result.stalls["merged"]
        assert merged == merge_breakdown(per_core)
        assert merged["total"] == sum(
            b["total"] for b in per_core.values()
        )

    def test_stall_gauges_published(self):
        obs = Observation()
        result = run_query("baseline", _query(), make_tables(128, 128),
                           observe=obs)
        assert result.metrics["stalls.total"] > 0
        assert result.metrics["stalls.busy"] > 0

    def test_mode_switch_bucket_appears_for_sam(self):
        # SAM-en on a strided query must pay MRS + tMOD_IO switches
        obs = Observation()
        result = run_query(
            "SAM-en",
            _query("SELECT f3 FROM Ta WHERE f10 > 7500"),
            make_tables(256, 256), observe=obs,
        )
        merged = result.stalls["merged"]
        assert merged.get("mode_switch", 0) > 0

    def test_reason_names_stay_in_taxonomy(self):
        obs = Observation()
        result = run_query("SAM-sub", _query(), make_tables(256, 256),
                           observe=obs)
        allowed = set(STALL_REASONS) | {"total"}
        for breakdown in result.stalls["per_core"].values():
            assert set(breakdown) <= allowed, set(breakdown) - allowed


# -------------------------------------------------------------- reporting


class TestReporting:
    def test_render_has_reason_rows_and_share(self):
        per_core = {
            0: {BUSY: 60, TRCD: 40, "total": 100},
            1: {BUSY: 30, DRAM_SERVICE: 70, "total": 100},
        }
        text = render_stall_report(per_core)
        assert "core0" in text and "core1" in text
        assert "busy" in text and "trcd" in text
        assert "%" in text
        assert text.splitlines()[-1].startswith("total")

    def test_render_empty(self):
        assert render_stall_report({}) == "(no cores)"

    def test_unknown_reason_still_rendered(self):
        per_core = {0: {BUSY: 1, "unaccounted": 2, "total": 3}}
        assert "unaccounted" in render_stall_report(per_core)


# --------------------------------------------------------- QueueFullError


class TestQueueFullError:
    def _fill(self):
        kernel = Kernel()
        mc = MemoryController(
            kernel, DDR4_2400,
            config=ControllerConfig(read_queue_capacity=2,
                                    refresh_enabled=False),
        )
        mapper = AddressMapper(mc.geometry)
        done = []
        for i in range(2):
            mc.submit(Request(
                addr=mapper.decode(i * 4096),
                type=RequestType.READ,
                on_complete=lambda r, t: done.append(t),
            ))
        overflow = Request(
            addr=mapper.decode(3 * 4096),
            type=RequestType.READ,
            on_complete=lambda r, t: done.append(t),
            source_core=3,
        )
        with pytest.raises(QueueFullError) as info:
            mc.submit(overflow)
        return info.value

    def test_structured_fields(self):
        err = self._fill()
        assert err.kind == "read"
        assert err.capacity == 2
        assert err.core == 3
        assert err.cycle == 0
        assert "read queue full" in str(err)
        assert "capacity 2" in str(err)
        assert "core 3" in str(err)

    def test_is_runtime_error(self):
        # callers catching the old RuntimeError keep working
        assert issubclass(QueueFullError, RuntimeError)


# ---------------------------------------------------------- unit overlay


class TestAttributorUnit:
    def test_mem_wait_overlays_ledger(self):
        class FakeCore:
            core_id = 0
            start_cycle = 0
            finish_cycle = 10
            stall_log = CoreStallLog(0)

        attr = StallAttributor()
        log = FakeCore.stall_log
        log.note_busy(0, 4)
        log.open_block(4, MEM_WAIT)
        attr.ledger.note(4, 7, TRCD)
        out = attr.attribute([FakeCore()])
        breakdown = out[0]
        assert breakdown[BUSY] == 4
        assert breakdown[TRCD] == 3
        assert breakdown[DRAM_SERVICE] == 3  # ledger gap 7..10
        assert breakdown["total"] == 10
        assert "unaccounted" not in breakdown

    def test_unaccounted_surfaces_gap(self):
        class FakeCore:
            core_id = 1
            start_cycle = 0
            finish_cycle = 10
            stall_log = CoreStallLog(1)

        attr = StallAttributor()
        log = FakeCore.stall_log
        log.note_busy(0, 4)  # cycles 4..10 never logged as anything
        out = attr.attribute([FakeCore()])
        assert out[1]["unaccounted"] == 6
