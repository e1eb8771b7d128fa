"""Tests for the cycle-level timeline recorder, its Chrome trace-event
export, and the sweep engine's timeline, which stays out of the cache
identity."""

import dataclasses
import json

import pytest

from repro.check import TimingProtocolChecker
from repro.dram import (
    DDR4_2400,
    AddressMapper,
    ControllerConfig,
    MemoryController,
    Request,
    RequestType,
)
from repro.exp import ExperimentSpec, ResultCache, SweepEngine
from repro.exp.cache import point_digest
from repro.exp.spec import SweepPoint, standard_tables
from repro.workloads import make_tables
from repro.imdb.queries import by_name
from repro.imdb.sql import parse
from repro.kernel import Kernel
from repro.obs import Observation
from repro.obs.artifacts import ArtifactWriter
from repro.obs.timeline import (
    TIMELINE_SCHEMA_VERSION,
    TimelineRecorder,
    validate_chrome_trace,
)
from repro.sim.runner import run_query


def _query(sql="SELECT SUM(f9) FROM Ta WHERE f10 > 7500"):
    return parse(sql, name="t")


def _controller():
    kernel = Kernel()
    return kernel, MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )


def _read_stream(mc, kernel):
    """Three row-hit reads to one bank: ACT + 3 RD, three bursts."""
    am = AddressMapper(mc.geometry)
    for addr in (0, 64, 128):
        mc.submit(Request(addr=am.decode(addr), type=RequestType.READ))
    kernel.run()


@pytest.fixture(scope="module")
def timeline_run():
    obs = Observation(timeline=True)
    result = run_query("SAM-en", _query(), make_tables(256, 256),
                       observe=obs)
    return obs, result


# --------------------------------------------------------------- recording


class TestRecording:
    def test_off_by_default(self):
        obs = Observation()
        run_query("baseline", _query(), make_tables(128, 128),
                  observe=obs)
        assert obs.timeline is False
        assert obs.timeline_recorder is None

    def test_events_and_spans_recorded(self, timeline_run):
        obs, result = timeline_run
        rec = obs.timeline_recorder
        assert rec is not None
        assert rec.events, "no command events recorded"
        assert rec.row_spans, "no row-open spans recorded"
        # every command event sits inside the run
        assert all(0 <= cycle <= result.cycles
                   for cycle, *_rest in rec.events)

    def test_row_open_spans_close(self, timeline_run):
        obs, _result = timeline_run
        rec = obs.timeline_recorder
        for _rank, _bank, start, end, _kind, _row, _sub in rec.row_spans:
            assert start <= end <= rec.end_cycle
        assert not rec._open_rows, "finalize left rows open"

    def test_bank_table_row_hit_rates(self, timeline_run):
        obs, _result = timeline_run
        table = obs.timeline_recorder.bank_table()
        assert table
        for row in table:
            refs = (row["row_hits"] + row["row_misses"]
                    + row["row_conflicts"])
            if refs:
                assert row["hit_rate"] == pytest.approx(
                    row["row_hits"] / refs
                )
            assert 0.0 <= row["open_fraction"] <= 1.0

    def test_timeline_metrics_published(self, timeline_run):
        _obs, result = timeline_run
        assert result.metrics["timeline.events"] > 0
        assert result.metrics["timeline.end_cycle"] == result.cycles

    def test_digest_shape(self, timeline_run):
        obs, _result = timeline_run
        digest = obs.timeline_recorder.digest()
        assert digest["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert digest["events"] > 0

    def test_report_renders(self, timeline_run):
        obs, _result = timeline_run
        text = obs.timeline_recorder.report()
        assert "timeline:" in text
        assert "bank" in text

    def test_detach_restores_observer_chain(self):
        # detaching one probe leaves the others subscribed
        kernel, mc = _controller()
        rec = mc.attach(TimelineRecorder(mc))
        obs = mc.attach(Observation())
        mc.detach(rec)
        _read_stream(mc, kernel)
        assert rec.events == [] and rec.bus_spans == []
        assert [e[1] for e in obs.ring] == ["ACT", "RD", "RD", "RD"]

    def test_checker_attached_after_timeline_keeps_bus_spans(self):
        kernel, mc = _controller()
        rec = mc.attach(TimelineRecorder(mc))
        checker = TimingProtocolChecker(mc.timing, mc.geometry).attach(mc)
        _read_stream(mc, kernel)
        assert len(rec.bus_spans) == 3
        assert checker.commands_seen == 4 and not checker.violations


# ------------------------------------------------------ subarray row spans


_Q7_SCHEMES = ("baseline", "salp2", "masa", "SAM-en+masa")


@pytest.fixture(scope="module")
def q7_recorders():
    """Q7's join ping-pongs between tables in different subarrays of the
    same banks, so the SALP designs keep several rows of a bank open."""
    recorders = {}
    for scheme in _Q7_SCHEMES:
        obs = Observation(timeline=True)
        run_query(scheme, by_name()["Q7"], make_tables(256, 512),
                  observe=obs)
        recorders[scheme] = obs.timeline_recorder
    return recorders


class TestSubarrayRowSpans:
    @pytest.mark.parametrize("scheme", _Q7_SCHEMES)
    def test_one_row_span_per_activation(self, q7_recorders, scheme):
        rec = q7_recorders[scheme]
        acts = [e for e in rec.events if e[1] in ("ACT", "ACT_COL")]
        assert len(rec.row_spans) == len(acts)

    @pytest.mark.parametrize("scheme", _Q7_SCHEMES)
    def test_open_fraction_at_most_one(self, q7_recorders, scheme):
        # overlapping subarray spans count once toward the bank's open time
        for row in q7_recorders[scheme].bank_table():
            assert 0.0 <= row["open_fraction"] <= 1.0

    @pytest.mark.parametrize("scheme", ("salp2", "masa"))
    def test_row_slices_nest_per_track(self, q7_recorders, scheme):
        rec = q7_recorders[scheme]
        # a bank holds two rows open at once somewhere in the run ...
        by_bank = {}
        for rank, bank, start, end, *_ in rec.row_spans:
            by_bank.setdefault((rank, bank), []).append((start, end))
        assert any(
            b[0] < a[1]
            for spans in by_bank.values()
            for a, b in zip(sorted(spans), sorted(spans)[1:])
        )
        # ... yet no two slices of one exported track partly overlap
        assert validate_chrome_trace(rec.to_chrome_trace()) == []

    def test_baseline_spans_unchanged(self, q7_recorders):
        rec = q7_recorders["baseline"]
        summed = sum(end - start for _r, _b, start, end, *_ in rec.row_spans)
        assert (len(rec.row_spans), summed) == (44, 61131)
        # one open row per bank: spans never overlap, so union == sum
        assert sum(row["open_cycles"] for row in rec.bank_table()) == summed


# ------------------------------------------------------------ chrome trace


class TestChromeTrace:
    def test_export_passes_validator(self, timeline_run):
        obs, _result = timeline_run
        payload = obs.timeline_recorder.to_chrome_trace()
        assert validate_chrome_trace(payload) == []

    def test_events_have_required_keys(self, timeline_run):
        obs, _result = timeline_run
        payload = obs.timeline_recorder.to_chrome_trace()
        events = payload["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "pid", "name"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        json.dumps(payload)  # fully serializable

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace(["not a dict"])
        assert validate_chrome_trace({"traceEvents": "nope"})
        bad = {"traceEvents": [{"ph": "X", "pid": 1}]}  # no name/ts/dur
        assert validate_chrome_trace(bad)

    def test_validator_requires_nested_slices(self):
        def trace(*spans):
            return {"traceEvents": [
                {"ph": "X", "pid": 2, "tid": tid, "name": "s", "ts": ts,
                 "dur": dur}
                for tid, ts, dur in spans
            ]}

        # nested, touching, and overlapping on different tracks: fine
        assert validate_chrome_trace(
            trace((1, 0.0, 10.0), (1, 2.0, 3.0), (1, 10.0, 5.0),
                  (2, 5.0, 10.0))
        ) == []
        # partly overlapping on one track: rejected
        problems = validate_chrome_trace(trace((1, 0.0, 10.0),
                                               (1, 5.0, 10.0)))
        assert len(problems) == 1 and "without nesting" in problems[0]

    def test_jsonl_export(self, timeline_run, tmp_path):
        obs, _result = timeline_run
        path = obs.timeline_recorder.export_jsonl(tmp_path / "t.jsonl")
        lines = path.read_text().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert "cycle" in first

    def test_artifact_writer_exports_both(self, timeline_run, tmp_path):
        obs, _result = timeline_run
        writer = ArtifactWriter(tmp_path)
        writer.write_timeline(obs.timeline_recorder, "smoke")
        trace = json.loads((tmp_path / "smoke.timeline.json").read_text())
        assert validate_chrome_trace(trace) == []
        assert (tmp_path / "smoke.timeline.jsonl").exists()

    def test_run_artifacts_include_timeline(self, tmp_path):
        obs = Observation(timeline=True, artifacts_dir=tmp_path)
        run_query("SAM-en", _query(), make_tables(128, 128),
                  observe=obs)
        stems = [p.name for p in tmp_path.iterdir()]
        assert any(n.endswith(".timeline.json") for n in stems)
        assert any(n.endswith(".timeline.jsonl") for n in stems)


# --------------------------------------------------------- cache identity


class TestCacheIdentity:
    def _point(self, **kw):
        from repro.workloads import QueryWorkload

        return SweepPoint(
            key=("SAM-en", "Q3"),
            scheme="SAM-en",
            workload=QueryWorkload(query=by_name()["Q3"],
                                   tables=standard_tables(64, 64)),
            **kw,
        )

    def test_timeline_engine_hits_untimed_cache(self, tmp_path):
        spec = ExperimentSpec("t", (self._point(),))
        key = ("SAM-en", "Q3")
        cache = ResultCache(tmp_path / "cache")
        cold = SweepEngine(cache=cache).run(spec)
        traces = tmp_path / "traces"
        warm = SweepEngine(cache=cache, timeline=True,
                           timeline_dir=str(traces)).run(spec)
        assert (cold.executed, warm.executed) == (1, 0)
        assert warm.cycles(key) == cold.cycles(key)
        assert not traces.exists()  # a hit simulates nothing to record
        # without a cache the same engine records and exports the point
        recorded = SweepEngine(timeline=True,
                               timeline_dir=str(traces)).run(spec)
        assert recorded.cycles(key) == cold.cycles(key)
        assert recorded[key].metrics["timeline.events"] > 0
        assert (traces / "point-SAM-en-Q3.timeline.json").exists()

    def test_check_flag_still_forks_digest(self):
        base = self._point()
        checked = dataclasses.replace(base, check=True)
        assert point_digest(base, source="s") != \
            point_digest(checked, source="s")


# ------------------------------------------------------- direct unit paths


class TestRecorderUnit:
    def test_queue_depth_samples_on_change(self, timeline_run):
        obs, _result = timeline_run
        samples = obs.timeline_recorder.queue_samples
        assert samples
        # samples are only taken when a depth changes
        for prev, cur in zip(samples, samples[1:]):
            assert prev[1:] != cur[1:]

    def test_bus_busy_cycles_positive(self, timeline_run):
        obs, result = timeline_run
        busy = obs.timeline_recorder.bus_busy_cycles()
        assert busy
        assert all(0 < v <= result.cycles for v in busy.values())
