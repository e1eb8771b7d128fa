"""Subarray-generic bank model: unit, protocol-rule and property tests.

Covers the three layers the SALP refactor touched:

* :class:`~repro.dram.bank.SubarrayState` / :class:`~repro.dram.bank.BankState`
  -- per-subarray gates, shared-structure gates, designation, capacity,
  refresh blackout, and the default ``salp="none"`` bank as one subarray
  on the same path;
* the protocol checker's subarray rules (tRA, tSA_SEL, capacity,
  designation, SA_SEL legality) on hand-built command streams;
* the readiness-index invalidation contract: hypothesis properties that
  no mutation of scheduling-visible state ever leaves ``bank.version``
  unchanged, that no change of a rank's ``io_mode`` or ``busy_until``
  leaves any of its banks' ``version`` unchanged, and that a readiness
  slot's key covers everything its bank half reads.
"""

from collections import defaultdict

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.check.protocol import TimingProtocolChecker
from repro.dram.address import DecodedAddress
from repro.core import available_schemes, make_scheme
from repro.dram.bank import FOREVER, BankState
from repro.dram.commands import Command, IOMode, Request, RequestType, RowKind
from repro.dram.controller import ControllerConfig, MemoryController
from repro.dram.geometry import Geometry
from repro.dram.rank import RankState
from repro.dram.timing import DDR4_2400, PRESETS
from repro.kernel import Kernel

T = DDR4_2400
#: rows 0 / 512 / 1024 live in subarrays 0 / 1 / 2 at the test geometry
SUBS = 4
ROWS_PER_SUB = 512
ROW0 = (RowKind.ROW, 0)
ROW1 = (RowKind.ROW, ROWS_PER_SUB)
ROW2 = (RowKind.ROW, 2 * ROWS_PER_SUB)


def make_bank(salp: str) -> BankState:
    return BankState(T, salp=salp, subarrays_per_bank=SUBS,
                     rows_per_subarray=ROWS_PER_SUB)


# ------------------------------------------------------------ construction

def test_unknown_mode_rejected():
    with pytest.raises(ValueError, match="salp"):
        BankState(T, salp="salp3")


def test_none_mode_is_single_subarray():
    bank = BankState(T)
    assert bank.n_subarrays == 1
    assert bank.open_capacity == 1
    assert bank.sub_for_row(123456).sub_id == 0


def test_subarrays_created_lazily():
    bank = make_bank("masa")
    assert set(bank.subarrays) == {0}
    bank.issue_act(10, ROW2)
    assert set(bank.subarrays) == {0, 2}


def test_synthetic_rows_fold_into_range():
    bank = make_bank("masa")
    huge = SUBS * ROWS_PER_SUB * 7 + 3 * ROWS_PER_SUB
    assert bank.sub_for_row(huge).sub_id == 3


# -------------------------------------------- default (one-subarray) bank

def test_none_mode_legacy_field_api():
    """The default bank's one subarray carries the one-open-row state:
    its row, its ACT and tRCD/tRAS/tRP gates, and the designation."""
    bank = BankState(T)
    sub = bank.subarrays[0]
    bank.issue_act(100, ROW0)
    assert bank.open_row == sub.open_row == ROW0
    assert bank.designated == 0
    assert bank.snapshot()["next_cas"] == 100 + T.tRCD
    assert sub.next_pre == 100 + T.tRAS
    assert sub.next_act == FOREVER
    assert sub.last_act == 100
    bank.issue_pre(400)
    assert bank.open_row is None
    assert sub.next_act == 400 + T.tRP
    assert bank.all_closed


def test_subarray_state_gates_match_legacy_bank():
    """A one-subarray bank's local tRCD gate and shared tCCD gate fold
    into the one-open-row bank's combined column gate, and its subarray
    carries the tRAS/tRTP/tWR precharge gate."""
    bank = BankState(T)
    sub = bank.subarrays[0]
    bank.issue_act(50, ROW0)
    assert bank.snapshot()["next_cas"] == 50 + T.tRCD
    assert sub.next_pre == 50 + T.tRAS
    bank.issue_read(60, extra_internal=2)
    tail = 2 * T.tCCD_L
    assert bank.snapshot()["next_cas"] == 60 + T.tCCD_L + tail
    assert sub.next_pre == max(50 + T.tRAS, 60 + T.tRTP + tail)
    bank.issue_write(80)
    assert sub.next_pre >= 80 + T.CWL + T.tBL + T.tWR


@pytest.mark.parametrize("timing", sorted(PRESETS))
def test_tra_never_binds_a_one_subarray_bank(timing):
    """A one-subarray bank's next ACT waits at least tRAS + tRP after the
    last one, so the shared tRA gate never binds it when
    tRA <= tRAS + tRP -- the condition that makes the default bank exact
    on the subarray-aware path.  It must hold for every scheme's timing
    (area-overhead scaling only lengthens tRAS and tRP)."""
    for name in available_schemes():
        t = make_scheme(name).with_timing(timing).timing
        assert t.tRA <= t.tRAS + t.tRP, (name, timing)


# ------------------------------------------------------------- SALP modes

def test_capacity_per_mode():
    assert make_bank("salp1").open_capacity == 1
    assert make_bank("salp2").open_capacity == 2
    assert make_bank("masa").open_capacity == SUBS


def test_salp1_overlapped_precharge():
    """SALP-1's point: after PRE, an ACT to a *different* subarray is
    gated by the shared-logic tRA re-arm, not the local tRP."""
    bank = make_bank("salp1")
    bank.issue_act(0, ROW0)
    bank.issue_pre(100, bank.sub(0))
    # the precharged subarray pays its local tRP ...
    assert bank.sub(0).next_act == 100 + T.tRP
    # ... but subarray 1 only waits for the row logic (armed at ACT time)
    assert bank.sub(1).next_act == 0
    assert bank.next_any_act == T.tRA
    assert T.tRA < T.tRP  # the overlap is real


def test_victim_is_oldest_open_subarray():
    bank = make_bank("salp2")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    assert bank.pre_victim(2) == 0          # FIFO: oldest first
    bank.issue_pre(50, bank.sub(0))
    assert bank.pre_victim(2) is None       # under capacity again
    assert list(bank.open_subs) == [1]


def test_newest_act_owns_designation():
    bank = make_bank("salp2")
    bank.issue_act(0, ROW0)
    assert bank.designated == 0
    bank.issue_act(10, ROW1)
    assert bank.designated == 1
    assert bank.open_row == ROW1            # designated sub's row
    bank.issue_pre(50, bank.sub(1))
    assert bank.designated is None          # closing the owner clears it


def test_sa_sel_redesignates_and_paces_column_path():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    bank.issue_sa_sel(30, bank.sub(0))
    assert bank.designated == 0
    assert bank.next_sa_sel == 30 + T.tSA_SEL
    assert bank.col_next >= 30 + T.tSA_SEL
    assert bank.sa_sels == 1


def test_cas_splits_shared_and_local_gates():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    bank.issue_read(40, sub=bank.sub(1))
    # CAS spacing binds the shared column path ...
    assert bank.col_next == 40 + T.tCCD_L
    # ... read-to-precharge recovery binds only the accessed subarray
    assert bank.sub(1).next_pre >= 40 + T.tRTP
    assert bank.sub(0).next_pre == 0 + T.tRAS


def test_refresh_blackout_covers_lazy_subarrays():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.refresh(100, T.tRFC)
    assert bank.all_closed
    assert bank.sub(0).next_act >= 100 + T.tRFC
    # a subarray created only after the refresh still sees the blackout
    assert bank.sub(3).next_act == 100 + T.tRFC
    assert bank.next_any_act >= 100 + T.tRFC


def test_snapshot_carries_salp_state():
    bank = make_bank("masa")
    bank.issue_act(0, ROW0)
    bank.issue_act(10, ROW1)
    snap = bank.snapshot()
    assert snap["salp"] == "masa"
    assert snap["designated"] == 1
    assert snap["open_subarrays"] == {0: ROW0, 1: ROW1}
    # the default bank's snapshot has the same shape
    default = BankState(T)
    default.issue_act(0, ROW0)
    snap = default.snapshot()
    assert snap["salp"] == "none"
    assert snap["designated"] == 0
    assert snap["open_subarrays"] == {0: ROW0}
    assert snap["next_cas"] == T.tRCD and snap["next_pre"] == T.tRAS


# ----------------------------------------------------- protocol-rule tests

def checker(salp: str) -> TimingProtocolChecker:
    return TimingProtocolChecker(
        T, Geometry(), strict=False, salp=salp
    )


def rules_of(chk: TimingProtocolChecker) -> set:
    return {v.rule for v in chk.violations}


def test_checker_flags_capacity_overflow():
    chk = checker("salp1")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(1000, Command.ACT, rank=0, bank=0, row=ROW1)
    assert "salp-capacity" in rules_of(chk)


def test_checker_flags_tra():
    chk = checker("masa")
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(101, Command.ACT, rank=0, bank=0, row=ROW1)
    assert "tRA" in rules_of(chk)


def test_checker_flags_undesignated_cas():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(200, Command.RD, rank=0, bank=0, row=ROW0)
    assert "cas-undesignated" in rules_of(chk)


def test_checker_flags_tsa_sel_pacing():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(200, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    chk.on_command(201, Command.RD, rank=0, bank=0, row=ROW0)
    assert "tSA_SEL" in rules_of(chk)


def test_checker_rejects_sa_sel_outside_masa():
    chk = checker("salp1")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    assert "sa-sel-mode" in rules_of(chk)


def test_checker_rejects_sa_sel_on_closed_subarray():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW1)
    assert "sa-sel-on-closed" in rules_of(chk)


def test_checker_rejects_sa_sel_without_row():
    chk = checker("masa")
    chk.on_command(0, Command.SA_SEL, rank=0, bank=0)
    assert "sa-sel-without-row" in rules_of(chk)


def test_checker_accepts_clean_masa_stream():
    chk = checker("masa")
    chk.on_command(0, Command.ACT, rank=0, bank=0, row=ROW0)
    chk.on_command(50, Command.ACT, rank=0, bank=0, row=ROW1)
    chk.on_command(100, Command.SA_SEL, rank=0, bank=0, row=ROW0)
    chk.on_command(110, Command.RD, rank=0, bank=0, row=ROW0)
    chk.on_command(200, Command.PRE, rank=0, bank=0, subarray=0)
    chk.on_command(210, Command.PRE, rank=0, bank=0, subarray=1)
    assert chk.violations == []


# --------------------------------------- version-invalidation property

def _visible_state(bank: BankState) -> tuple:
    """Everything the scheduler may read when pricing a request."""
    return (
        tuple(sorted(
            (i, s.open_row, s.next_act, s.next_pre, s.last_act)
            for i, s in bank.subarrays.items()
        )),
        bank.designated,
        bank.next_any_act,
        bank.next_sa_sel,
        bank.col_next,
        tuple(bank.open_subs.items()),
        bank.act_floor,
    )


_OP = st.tuples(
    st.sampled_from(("act", "read", "write", "pre", "sa_sel", "refresh")),
    st.integers(min_value=0, max_value=SUBS - 1),
    st.integers(min_value=1, max_value=50),
)


@pytest.mark.parametrize("salp", ("none", "salp1", "salp2", "masa"))
@given(ops=st.lists(_OP, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_mutations_never_leave_stale_readiness_keys(salp, ops):
    """The invalidation contract of the incremental FR-FCFS index: if a
    command or refresh changes any scheduling-visible bank/subarray
    state, ``bank.version`` -- the one key of every readiness slot on
    the bank -- must change too; otherwise the scheduler would keep
    serving a cached readiness entry computed against the old state."""
    bank = BankState(T, salp=salp, subarrays_per_bank=SUBS,
                     rows_per_subarray=ROWS_PER_SUB)
    now = 0
    for name, sub_id, step in ops:
        now += step
        if salp == "none":
            sub_id = 0
        sub = bank.sub(sub_id)
        row = (RowKind.ROW, sub_id * ROWS_PER_SUB)
        before_state = _visible_state(bank)
        before_key = bank.version
        if name == "act":
            bank.issue_act(now, row, sub)
        elif name == "read":
            bank.issue_read(now, sub=sub)
        elif name == "write":
            bank.issue_write(now, sub=sub)
        elif name == "pre":
            bank.issue_pre(now, sub)
        elif name == "sa_sel":
            if salp == "none":
                continue
            bank.issue_sa_sel(now, sub)
        elif name == "refresh":
            bank.refresh(now, T.tRFC)
        after_state = _visible_state(bank)
        if after_state == before_state:
            continue
        assert bank.version != before_key, (
            f"{name} on subarray {sub_id} at {now} changed visible "
            f"state but left bank.version at {before_key}"
        )


_RANK_OP = st.tuples(
    st.sampled_from(("act", "write", "mode", "refresh")),
    st.integers(min_value=0, max_value=3),  # bank group
    st.sampled_from((IOMode.X4, IOMode.STRIDE)),
    st.integers(min_value=1, max_value=50),
)


@given(ops=st.lists(_RANK_OP, min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_rank_mutations_never_leave_a_stale_rank_epoch(ops):
    """The rank side of the invalidation contract: a readiness slot's
    bank half reads only ``io_mode`` and ``busy_until`` of its rank, so
    any MRS or refresh that changes either must move the ``version`` of
    every bank in the rank (the rank gates and ACT pacing feed the
    shared half, which the scheduler recomputes after every command)."""
    rank = RankState(T, Geometry(subarrays_per_bank=SUBS,
                                 rows_per_subarray=ROWS_PER_SUB))
    now = 0
    for name, group, mode, step in ops:
        now += step
        before = (rank.io_mode, rank.busy_until)
        versions = [bank.version for bank in rank.banks]
        if name == "act":
            rank.issue_act(now, group)
        elif name == "write":
            rank.issue_write(now)
        elif name == "mode":
            rank.issue_mode_switch(now, mode)
        else:
            rank.issue_refresh(now)
        if (rank.io_mode, rank.busy_until) != before:
            for bank_id, bank in enumerate(rank.banks):
                assert bank.version != versions[bank_id], (
                    f"{name} at {now} changed io_mode/busy_until from "
                    f"{before} but left bank {bank_id}'s version at "
                    f"{versions[bank_id]}"
                )


# ------------------------------------------------ readiness-slot keys

#: the fields of a readiness slot's key, as varied by `_variant`
_KEY_FIELDS = ("subarray", "row_kind", "row", "direction", "io_mode",
               "subrank")
_BANKS = (0, 1, 4)  # bank 4 sits in another bank group

_STATE_OP = st.tuples(
    st.sampled_from(("act", "read", "write", "pre", "sa_sel", "mode",
                     "refresh")),
    st.integers(min_value=0, max_value=1),  # rank
    st.sampled_from(_BANKS),
    st.integers(min_value=0, max_value=SUBS - 1),
    st.integers(min_value=0, max_value=1),  # row within the subarray
    st.sampled_from((IOMode.X4, IOMode.STRIDE)),
    st.integers(min_value=1, max_value=50),
)

_REQUEST = st.fixed_dictionaries({
    "rank": st.integers(min_value=0, max_value=1),
    "bank": st.sampled_from(_BANKS),
    "sub": st.integers(min_value=0, max_value=SUBS - 1),
    "offset": st.integers(min_value=0, max_value=1),
    "row_kind": st.sampled_from((RowKind.ROW, RowKind.COLUMN)),
    "read": st.booleans(),
    "io_mode": st.sampled_from((IOMode.X4, IOMode.STRIDE)),
    "subrank": st.sampled_from((None, 0, 1)),
    "column": st.integers(min_value=0, max_value=7),
})


def _drive(mc: MemoryController, salp: str, ops) -> None:
    """Put ``mc``'s ranks, banks and subarrays into a random state."""
    now = 0
    for name, rank_id, bank_id, sub_id, offset, mode, step in ops:
        now += step
        rank = mc.channel.ranks[rank_id]
        bank = rank.banks[bank_id]
        row = sub_id * ROWS_PER_SUB + offset
        sub = bank.sub_for_row(row)
        if name == "act":
            bank.issue_act(now, (RowKind.ROW, row), sub)
            rank.issue_act(now, bank_id >> 2)
        elif name == "read":
            bank.issue_read(now, sub=sub)
        elif name == "write":
            bank.issue_write(now, sub=sub)
            rank.issue_write(now)
        elif name == "pre":
            bank.issue_pre(now, sub)
        elif name == "sa_sel" and salp != "none":
            bank.issue_sa_sel(now, sub)
        elif name == "mode":
            rank.issue_mode_switch(now, mode)
        elif name == "refresh":
            rank.issue_refresh(now)


def _variant(field: str, base: dict) -> dict:
    """``base`` with exactly the slot-key field ``field`` changed."""
    fields = dict(base)
    if field == "subarray":  # the same row of another bank
        fields["bank"] = 1 if base["bank"] == 0 else 0
    elif field == "row":  # another row of the same subarray
        fields["offset"] ^= 1
    elif field == "row_kind":
        fields["row_kind"] = (RowKind.COLUMN if base["row_kind"] is
                              RowKind.ROW else RowKind.ROW)
    elif field == "direction":
        fields["read"] = not base["read"]
    elif field == "io_mode":
        fields["io_mode"] = (IOMode.STRIDE if base["io_mode"] is IOMode.X4
                             else IOMode.X4)
    else:
        fields["subrank"] = {None: 0, 0: 1, 1: None}[base["subrank"]]
    return fields


def _submit(mc: MemoryController, fields: dict) -> Request:
    request = Request(
        addr=DecodedAddress(0, fields["rank"], fields["bank"],
                            fields["sub"] * ROWS_PER_SUB + fields["offset"],
                            fields["column"], 0),
        type=RequestType.READ if fields["read"] else RequestType.WRITE,
        io_mode=fields["io_mode"],
        row_kind=fields["row_kind"],
        subrank=fields["subrank"],
    )
    mc.submit(request)
    return request


@pytest.mark.parametrize("salp", ("none", "salp1", "salp2", "masa"))
@given(ops=st.lists(_STATE_OP, max_size=30),
       requests=st.lists(_REQUEST, min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_slot_key_covers_everything_its_entry_reads(salp, ops, requests):
    """Requests sharing a readiness slot share its bank half, so in any
    bank, rank and subarray state they must give equal `_entry_terms`;
    and requests that differ in exactly one key field (subarray, row
    kind, row, direction, I/O mode, subrank) must never share a slot."""
    mc = MemoryController(
        Kernel(), T,
        geometry=Geometry(subarrays_per_bank=SUBS,
                          rows_per_subarray=ROWS_PER_SUB),
        config=ControllerConfig(refresh_enabled=False), salp=salp,
    )
    _drive(mc, salp, ops)
    base = requests[0]
    twin = dict(base, column=base["column"] + 1)
    variants = [_variant(field, base) for field in _KEY_FIELDS]
    submitted = [_submit(mc, fields)
                 for fields in (*requests, twin, *variants)]
    by_slot = defaultdict(list)
    for request in submitted:
        by_slot[id(request._slot)].append(request)
    for sharing in by_slot.values():
        terms = {mc.scheduler._entry_terms(r, r._rank, r._bank)
                 for r in sharing}
        assert len(terms) == 1, terms
    base_slot = submitted[0]._slot
    assert submitted[len(requests)]._slot is base_slot  # the twin
    for field, request in zip(_KEY_FIELDS, submitted[len(requests) + 1:]):
        assert request._slot is not base_slot, field
