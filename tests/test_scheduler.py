"""The FR-FCFS scheduler's tie rules and its shared-half memo contract.

Where two gates of a readiness entry bind at the same cycle, the one
listed first gives the stall tag: the subarray's gate before the
bank's, the rank gate before the data-bus fit, the bank half before the
shared half.  Tags reach only the stall ledger, so the lockstep
batteries, which compare decisions, cannot see a tie flipped; these
tests pin each rule on an exact tie, beside the frozen reference
derivation of ``scheduler_oracle.py``.

The memo contract of `Scheduler.moved`: after every command of every
kind, each shared half still memoized equals a fresh derivation.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.check.fuzz import generate_case, run_case
from repro.dram import (
    AddressMapper,
    Command,
    ControllerConfig,
    DDR4_2400,
    MemoryController,
    RowKind,
)
from repro.kernel import Kernel
from repro.obs.stalls import (
    CCD_BUS,
    MODE_SWITCH,
    REFRESH,
    SUBARRAY,
    TRCD,
    TRP,
    WRITE_DRAIN,
)
from repro.sim.config import SystemConfig
from repro.sim.runner import run_workload
from repro.workloads.kernels import KernelWorkload

from .scheduler_oracle import ReferenceScan, reference_choice
from .test_dram_controller import read, write

T = DDR4_2400


def _queued(make, **fields):
    """A refresh-free controller holding one ``make`` request (read or
    write) to bank 0, row 0, and the request's queue."""
    mc = MemoryController(
        Kernel(), T, config=ControllerConfig(refresh_enabled=False)
    )
    request = make(AddressMapper(mc.geometry), 0, [], **fields)
    mc.submit(request)
    queue = mc.read_queue if request.is_read else mc.write_queue
    return mc, request, queue


def _opened(make):
    """`_queued`, with the request's row activated at cycle 0."""
    mc, request, queue = _queued(make)
    mc._issue(0, request, Command.ACT, queue)
    return mc, request, queue


def _bank_half(mc, request):
    """The bank half by the scheduler and by the reference, which must
    agree."""
    args = (request, request._rank, request._bank)
    terms = mc.scheduler._entry_terms(*args)
    assert terms == ReferenceScan(mc.scheduler)._entry_terms(*args)
    return terms


def _shared_half(mc, request, command):
    args = (command, request, request._rank)
    terms = mc.scheduler._shared_terms(*args)
    assert terms == ReferenceScan(mc.scheduler)._shared_terms(*args)
    return terms


# ---------------------------------------------------------- tie rules

@pytest.mark.parametrize("make", (read, write))
def test_trcd_tied_with_the_column_gate_binds_trcd(make):
    """A column command whose tRCD (``last_act + tRCD``) and column-path
    gate (``col_next``) fall on one cycle waits on tRCD."""
    mc, request, _queue = _opened(make)
    cas = Command.RD if request.is_read else Command.WR
    assert request._sub.last_act == 0
    for col_next, expected in ((T.tRCD - 1, (T.tRCD, TRCD)),
                               (T.tRCD, (T.tRCD, TRCD)),
                               (T.tRCD + 1, (T.tRCD + 1, CCD_BUS))):
        request._bank.col_next = col_next
        assert _bank_half(mc, request) == (cas, *expected), col_next


@pytest.mark.parametrize("row_kind", (RowKind.ROW, RowKind.COLUMN))
def test_act_gates_tied_bind_the_subarray(row_kind):
    """An ACT whose subarray gate (``next_act``) and the bank's shared
    row-logic gate (``next_any_act``) fall on one cycle waits on the
    subarray: tRP after a precharge, the tRFC blackout after a refresh,
    never SUBARRAY."""
    act = Command.ACT if row_kind is RowKind.ROW else Command.ACT_COL
    mc, request, queue = _queued(read, row_kind=row_kind)
    mc._issue(0, request, act, queue)
    mc._issue(T.tRAS, request, Command.PRE, queue)
    sub, bank = request._sub, request._bank
    ready = sub.next_act
    assert ready == T.tRAS + T.tRP > request._rank.busy_until
    for shared, expected in ((ready - 1, (ready, TRP)),
                             (ready, (ready, TRP)),
                             (ready + 1, (ready + 1, SUBARRAY))):
        bank.next_any_act = shared
        assert _bank_half(mc, request) == (act, *expected), shared

    mc, request, _queue = _queued(read, row_kind=row_kind)
    mc._issue_refresh_step(1000, request.addr.rank)
    blackout = 1000 + T.tRFC
    assert request._sub.next_act == request._bank.next_any_act == blackout
    assert _bank_half(mc, request) == (act, blackout, REFRESH)
    request._bank.next_any_act += 1
    assert _bank_half(mc, request) == (act, blackout + 1, SUBARRAY)


def _gate(rank, kind, at):
    """Hold ``rank``'s CAS gates to cycle ``at`` by ``kind``, the tag
    that gate carries."""
    if kind is REFRESH:
        rank.busy_until = at
    elif kind is MODE_SWITCH:  # tMOD_IO: gates CAS and ACT alike
        rank.issue_mode_switch(at - T.tMOD_IO, rank.io_mode)
    else:  # tWTR after a write
        rank.issue_write(at - T.CWL - T.tBL - T.tWTR)


@pytest.mark.parametrize("make,kind", (
    (read, REFRESH), (read, MODE_SWITCH), (read, WRITE_DRAIN),
    (write, REFRESH), (write, MODE_SWITCH),
))
def test_bus_fit_tied_with_the_rank_gate_keeps_the_rank_tag(make, kind):
    """A CAS whose data-bus fit falls on its rank gate's cycle carries
    the rank gate's tag, not CCD_BUS."""
    gate = 500
    for late, expected in ((0, (gate, kind)), (1, (gate + 1, CCD_BUS))):
        mc, request, _queue = _opened(make)
        cas = Command.RD if request.is_read else Command.WR
        _gate(request._rank, kind, gate)
        # the burst may start once the bus frees: no bubble before it
        latency = T.CL if request.is_read else T.CWL
        mc.channel.data_free = gate + latency + late
        assert _shared_half(mc, request, cas) == expected, late


def test_shared_half_tied_with_the_bank_half_keeps_the_bank_reason():
    """Every gate of a column read on one cycle -- tRCD, the column
    path, tWTR -- and the scan reports the first listed, tRCD; one
    cycle later the shared half binds alone."""
    for late, expected in ((0, (T.tRCD, TRCD)), (1, (T.tRCD + 1,
                                                     WRITE_DRAIN))):
        mc, request, queue = _opened(read)
        request._bank.col_next = T.tRCD
        _gate(request._rank, WRITE_DRAIN, T.tRCD + late)
        choice = mc.scheduler.choose(1, queue)
        assert choice == (request, Command.RD, *expected), late
        assert choice == reference_choice(mc.scheduler, 1, queue)


# ------------------------------------------------- memo contract

#: the commands whose shared halves each memo holds
_MEMOS = (("_cas_memo", {Command.RD, Command.WR, Command.MRS}),
          ("_row_memo", {Command.ACT, Command.ACT_COL, Command.PRE,
                         Command.SA_SEL}))


def _fresh(scan, key):
    """The reference's shared half for memo key (command, rank, subrank
    or bank group)."""
    name, rank_id, third = key
    request = SimpleNamespace(
        addr=SimpleNamespace(rank=rank_id, bank_group=third), subrank=third)
    return scan._shared_terms(Command(name), request,
                              scan.channel.ranks[rank_id])


def test_every_memoized_shared_half_survives_only_while_exact(monkeypatch):
    """After each command of every kind -- refresh PREs and REF and the
    closed-page auto-precharge included -- every shared half left in
    either memo equals the reference's fresh derivation, and the memos
    do keep halves across the commands that leave them."""
    issued = []  # every command kind, in issue order
    kept = {}  # command kind -> memo entries checked right after it

    def check(mc, last):
        scan = ReferenceScan(mc.scheduler)
        entries = 0
        for name, commands in _MEMOS:
            for key, term in getattr(mc.scheduler, name).items():
                assert Command(key[0]) in commands, (name, key)
                assert term == _fresh(scan, key), (last, key, term)
                entries += 1
        kept[last] = kept.get(last, 0) + entries

    def after(method):
        def run(self, *args):
            before = len(issued)
            result = method(self, *args)
            # a CAS under the closed-page policy issues its PRE with it
            for command in issued[before:]:
                check(self, command)
            return result
        return run

    build = MemoryController.__init__

    def build_recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        self.attach(SimpleNamespace(
            on_command=lambda now, command, request, **_: issued.append(
                command)))

    monkeypatch.setattr(MemoryController, "__init__", build_recording)
    monkeypatch.setattr(MemoryController, "_issue",
                        after(MemoryController._issue))
    monkeypatch.setattr(MemoryController, "_issue_refresh_step",
                        after(MemoryController._issue_refresh_step))

    for scheme in ("baseline", "SAM-en", "SAM-sub", "salp2"):
        for index in range(3):
            case = generate_case(seed=2026, index=index, schemes=(scheme,))
            result = run_case(replace(case, refresh=True), oracle_data=False)
            assert not result.failed, result.signature()
    # MASA re-designates subarrays on a stencil's interleaved rows
    run_workload(KernelWorkload.from_spec("jacobi2d[n=12]", seed=1), "masa")
    closed = SystemConfig(controller=ControllerConfig(page_policy="closed"))
    run_workload(KernelWorkload.from_spec("stream_copy[n=256]", seed=1),
                 "baseline", config=closed)

    assert set(kept) == set(Command)
    for command in (Command.MRS, Command.REF):
        assert kept[command] == 0, command  # they drop both memos
    for command in set(Command) - {Command.MRS, Command.REF}:
        assert kept[command] > 0, command  # a memo survives them
