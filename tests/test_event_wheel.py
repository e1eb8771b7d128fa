"""Event-wheel lockdown: exactness, wakeup efficiency, and the guard
paths the wheel's equivalence argument leans on.

The event wheel's contract is that it never changes *behavior*, only the
cost of re-deriving scheduler decisions: the controller's wake-up event
stream is identical to the plain polling of the reference scheduler
(``ControllerConfig(reference=True)``) by construction, so command
streams, cycle counts and stall ledgers match exactly.  The fuzzed
battery in ``test_vectorized.py`` replays controller-level traces under
both modes; this file locks down the rest -- full-system equivalence
under backpressure, the stale-wakeup guard, the writeback-poll futility
gate, and the O(commands)-not-O(cycles) event count on idle-gap
workloads.
"""

import dataclasses

import pytest

from repro.dram import AddressMapper, Command, ControllerConfig, DDR4_2400
from repro.dram.controller import MemoryController
from repro.imdb.queries import by_name
from repro.kernel import Kernel
from repro.obs import Observation
from repro.sim import run_query
from repro.sim.config import SystemConfig
from repro.workloads import make_tables

from .test_dram_controller import read, write
from .test_vectorized import lockstep_scans


def _run(scheme, query_name, tables, reference=False, **ctrl):
    obs = Observation()
    config = dataclasses.replace(
        SystemConfig(),
        controller=ControllerConfig(reference=reference, **ctrl),
    )
    result = run_query(
        scheme, by_name()[query_name], tables, config=config, observe=obs,
    )
    return result, obs


@pytest.fixture(scope="module")
def tables():
    return make_tables(256, 512)


def _controllers(monkeypatch):
    """Every MemoryController built from now on, in build order."""
    built = []
    init = MemoryController.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(MemoryController, "__init__", record)
    return built


def _assert_slots_released(controllers):
    """A run that retired every request must have dropped every
    readiness slot: a slot lives exactly while a queued request holds
    it, which is what bounds the slot table's memory."""
    assert controllers
    for mc in controllers:
        assert mc.idle()
        assert mc._slots == {}


# --------------------------------------------------- stale-wakeup guard

def test_stale_wakeup_guard_drops_superseded_event():
    """An earlier wake-up scheduled over a pending later one must not
    fork a second wake-up chain: the superseded event still fires, but
    the ``_wakeup_at`` guard drops it before it reaches the scheduler."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    scans = []
    real_try_issue = mc._try_issue
    mc._try_issue = lambda now: scans.append(now) or real_try_issue(now)

    mc._schedule_wakeup(10)
    mc._schedule_wakeup(4)  # supersedes; the event at 10 lingers
    assert mc._wakeup_at == 4
    assert kernel.pending() == 2  # superseded event NOT cancelled
    kernel.run()
    # both events fired, but only the armed one reached the scheduler
    assert kernel.events == 2
    assert scans == [4]


def test_stale_wakeup_rearm_acts_at_original_position():
    """Re-arming a time that still has a lingering superseded event must
    let that (oldest) event act -- the guard compares times, not tokens,
    so the wake-up keeps its original intra-cycle FIFO position."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    scans = []
    real_try_issue = mc._try_issue
    mc._try_issue = lambda now: scans.append(now) or real_try_issue(now)

    mc._schedule_wakeup(10)
    mc._schedule_wakeup(4)
    kernel.run(until=5)
    assert scans == [4]
    mc._schedule_wakeup(10)  # re-arm: the lingering event stands in
    assert kernel.pending() == 2  # old stale entry + the fresh one
    kernel.run()
    assert scans == [4, 10]  # acted exactly once at the re-armed time


# --------------------------------------------- full-system equivalence

_BACKPRESSURE = dict(
    read_queue_capacity=4,
    write_queue_capacity=4,
    write_high_watermark=3,
    write_low_watermark=1,
)

_CELLS = (("SAM-sub", "Qs5"), ("baseline", "Q7"), ("SAM-en", "Q3"))


@pytest.mark.parametrize("scheme,query", _CELLS)
def test_wheel_matches_polling_full_system(scheme, query, tables,
                                           monkeypatch):
    """Full-system exactness on tiny controller queues, so core
    backpressure retries and blocked writebacks are actually exercised:
    cycles, command counts and the controller stall ledger must be
    identical in both scheduling modes."""
    controllers = _controllers(monkeypatch)
    wheel, wobs = _run(scheme, query, tables, **_BACKPRESSURE)
    poll, pobs = _run(scheme, query, tables, reference=True, **_BACKPRESSURE)
    _assert_slots_released(controllers)
    assert wheel.cycles == poll.cycles
    assert wheel.memory_stats == poll.memory_stats
    assert wobs.stalls.ledger.entries == pobs.stalls.ledger.entries
    assert wheel.stalls == poll.stalls
    # the tiny queues must actually bite, or this test proves nothing
    assert wheel.metrics["core.retries"] > 0
    # identical event streams is the mechanism behind the exactness
    assert wheel.metrics["kernel.events"] == poll.metrics["kernel.events"]


def test_wait_memo_folds_arrivals_in_lockstep(tables, monkeypatch):
    """Under backpressure requests keep arriving while the controller
    waits, so scans resumed from the wait memo fold arrivals in -- and
    some arrivals win.  Every scan must still decide exactly as the full
    recompute does at the same instant."""
    scans = lockstep_scans(monkeypatch)
    controllers = _controllers(monkeypatch)
    for scheme, query in _CELLS:
        _run(scheme, query, tables, **_BACKPRESSURE)
    _assert_slots_released(controllers)
    folded = [won for _now, arrivals, won in scans if arrivals]
    assert len(folded) > 100
    assert sum(folded) > 10


def test_wheel_matches_polling_default_config(tables):
    """Same exactness at the default (paper) configuration."""
    wheel, wobs = _run("SAM-en", "Qs1", tables)
    poll, pobs = _run("SAM-en", "Qs1", tables, reference=True)
    assert wheel.cycles == poll.cycles
    assert wheel.memory_stats == poll.memory_stats
    assert wobs.stalls.ledger.entries == pobs.stalls.ledger.entries


# ------------------------------------------------- memoized scheduler

def test_peek_hits_only_in_wheel_mode(tables):
    """The wait memo must actually be resumed in wheel mode and never
    in the polling reference."""
    wheel, _ = _run("SAM-en", "Q3", tables)
    poll, _ = _run("SAM-en", "Q3", tables, reference=True)
    assert wheel.metrics["dram.peek_hits"] > 0
    assert poll.metrics["dram.peek_hits"] == 0


def _two_bank_wait(request):
    """A controller queueing ``request``-kind accesses to bank 0, whose
    row opened at cycle 0, and to closed bank 1: at cycle 1 nothing is
    ready, and bank 1's ACT (tRRD) is due before bank 0's CAS (tRCD)."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    mapper = AddressMapper(mc.geometry)
    hit, other = request(mapper, 0, []), request(mapper, 8192, [])
    mc.submit(hit)
    queue = mc.read_queue if hit.is_read else mc.write_queue
    mc._issue(0, hit, Command.ACT, queue)
    mc.submit(other)
    wait = mc._frfcfs_choose(1, queue)
    assert wait[:2] == (other, Command.ACT) and wait[2] < DDR4_2400.tRCD
    return mc, mapper, queue, hit, wait


def test_wait_memo_expires_at_its_soonest_time():
    """The wait memo keeps only the candidates tied at the soonest time,
    so a scan after that time -- even with no command issued since --
    must walk the whole queue again and decide as the full recompute."""
    mc, _mapper, queue, hit, wait = _two_bank_wait(read)
    assert mc._frfcfs_choose(2, queue) == wait
    assert mc.peek_hits == 1
    late = DDR4_2400.tRCD + 1
    assert mc._frfcfs_choose(late, queue)[:2] == (hit, Command.RD)
    assert mc._frfcfs_choose_recompute(late, queue)[:2] == (hit, Command.RD)
    assert mc.peek_hits == 1


def test_wait_memo_belongs_to_its_queue():
    """A read arriving while the controller waits on the write queue
    switches the served queue with no command issued: the read queue's
    first scan must walk it, not resume the write queue's memo."""
    mc, mapper, _queue, _hit, _wait = _two_bank_wait(write)
    arrival = read(mapper, 2 * 8192, [])
    mc.submit(arrival)
    assert mc._active_queue() is mc.read_queue
    choice = mc._frfcfs_choose(2, mc.read_queue)
    assert choice[:2] == (arrival, Command.ACT)
    assert choice == mc._frfcfs_choose_recompute(2, mc.read_queue)
    assert mc.peek_hits == 0


# ------------------------------------------------- writeback futility

def test_no_writeback_polls_when_queue_never_blocks(tables):
    """Writeback polling is demand-driven in both modes: a run whose
    writebacks are always admitted immediately schedules zero polls."""
    wheel, _ = _run("SAM-en", "Q3", tables)
    assert wheel.metrics["sys.wb_polls"] == 0


def test_blocked_writebacks_drain_identically(tables):
    """Force writeback blocking with a tiny write queue (the update
    queries dirty cache lines, so the end-of-run flush has real
    writebacks to push): blocked drains must resolve at identical cycles
    in both modes, with identical poll event counts."""
    ctrl = dict(
        write_queue_capacity=2, write_high_watermark=2,
        write_low_watermark=1,
    )
    for query in ("Q11", "Q12"):
        wheel, wobs = _run("baseline", query, tables, **ctrl)
        poll, pobs = _run("baseline", query, tables, reference=True, **ctrl)
        assert wheel.cycles == poll.cycles
        assert wheel.memory_stats == poll.memory_stats
        assert wobs.stalls.ledger.entries == pobs.stalls.ledger.entries
        assert wheel.metrics["sys.writebacks"] > 0
        assert wheel.metrics["sys.wb_polls"] > 0
        assert (
            wheel.metrics["sys.wb_polls"] == poll.metrics["sys.wb_polls"]
        )
        assert poll.metrics["sys.wb_polls_futile"] == 0


def test_writeback_futility_gate_skips_relowering():
    """While no controller issue frees a queue slot, every poll is
    provably futile: the gate must re-arm without re-lowering the
    blocked line, and resume draining the moment a slot-freed
    notification arrives."""
    from repro.core.registry import make_scheme
    from repro.sim.system import MemorySystem

    kernel = Kernel()
    system = MemorySystem(kernel, make_scheme("baseline"))
    lowered = []
    real_lower = system.scheme.lower_write
    system.scheme.lower_write = lambda line: (
        lowered.append(line) or real_lower(line)
    )
    # block admission outright: the poll chain can never succeed
    system._can_accept_all = lambda requests: False
    system._pending_writebacks.append(0)
    system._drain_writebacks()
    assert system._writeback_poll_scheduled
    assert lowered == [0]  # the initial blocked attempt lowered once
    kernel.run(until=100)
    assert system.wb_polls == system.wb_polls_futile > 3
    assert lowered == [0]  # every futile poll skipped the re-lower
    # a slot-freed notification re-arms the next poll as a real attempt
    del system._can_accept_all  # restore the class method
    system._on_slot_freed(None)
    kernel.run(until=200)
    assert not system._pending_writebacks
    assert lowered == [0, 0]  # exactly one real re-lower drained it
    assert system.wb_polls > system.wb_polls_futile


# ----------------------------------------------- wakeup efficiency

def test_idle_gap_workload_events_scale_with_commands():
    """A trace with long idle gaps between requests must execute
    O(commands) kernel events, not O(cycles): the controller sleeps to
    exact deadlines and schedules nothing at all while idle."""
    kernel = Kernel()
    mc = MemoryController(
        kernel, DDR4_2400, config=ControllerConfig(refresh_enabled=False)
    )
    mapper = AddressMapper(mc.geometry)
    done = []
    gap = 5_000
    n = 20
    for i in range(n):
        kernel.schedule_at(
            i * gap,
            lambda i=i: mc.submit(read(mapper, i * 64, done)),
        )
    kernel.run()
    assert len(done) == n
    assert kernel.now >= (n - 1) * gap
    # ~6 events per command (submit, wake-ups along the ACT/RD chain,
    # completion); the budget is generous but a per-cycle poller would
    # blow through it by three orders of magnitude
    assert kernel.events < 12 * n


def test_event_efficiency_gauges_published(tables):
    """The wakeup-efficiency gauges land in the metrics registry (and
    therefore in run manifests and ``repro bench`` payloads)."""
    result, _ = _run("SAM-en", "Qs1", tables)
    m = result.metrics
    assert m["kernel.events"] == m["sim.events"] > 0
    assert m["sim.events_per_cycle"] == pytest.approx(
        m["sim.events"] / result.cycles
    )
    # dense workloads sit around 1-2 events/cycle; a per-cycle poller
    # across every component would be an order of magnitude higher
    assert 0 < m["sim.events_per_cycle"] < 5
