"""Guard for the per-event path: the controller wake-up, the FR-FCFS scan,
command issue, the bank, rank and channel gates, a core's op through the
sector caches and the MSHR to its fill, the event queue, the command
ring, and the timing checker and plan oracle of a checked run.

These functions run once per simulated event, memory op or command, and
three per-access costs that cProfile cannot show (an attribute read is
not a call, so the time lands in the caller's own time) are kept out of
them:

* a member read through its enum class (``Command.RD``): on Python 3.10
  and 3.11 the enum metaclass defines ``__getattr__``, which sends every
  such read down the interpreter's slow attribute-hook path, over ten
  times a module global's cost -- the hot modules import the members bound once in
  ``repro.dram.commands``;
* a ``.value`` read, a Python-level descriptor on every version (a
  member's name is ``member._value_``);
* a call to builtin ``max`` or ``min``, several times a comparison.

Each function is parsed with ``ast``; an exception names the function,
the construct, how many it allows and why.
"""

import ast
import inspect

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sector import SectorCache
from repro.check import oracle
from repro.check.oracle import PlanValidator
from repro.check.protocol import TimingProtocolChecker
from repro.cpu.core import Core
from repro.dram.bank import BankState
from repro.dram.channel import ChannelState
from repro.dram.controller import MemoryController
from repro.dram.rank import RankState
from repro.dram.scheduler import Scheduler, _Slot
from repro.kernel import Kernel
from repro.obs import Observation
from repro.sim.system import MemorySystem

#: (class, method names) of every per-event function
PER_EVENT = (
    (Scheduler, ("admit", "retire", "choose", "moved", "_rebuild",
                 "_entry_terms", "_shared_terms")),
    (_Slot, ("__init__",)),
    (MemoryController, ("submit", "_schedule_wakeup", "_wakeup",
                        "_try_issue", "_issue", "_issue_cas")),
    (ChannelState, ("_gap_after", "earliest_cas_for_bus", "issue_cas")),
    (BankState, ("issue_act", "issue_read", "issue_write")),
    (RankState, ("earliest_act",)),
    (Core, ("_advance", "_schedule_advance", "_do_load", "_do_store",
            "_do_gather_load", "_do_gather_store", "_on_fill",
            "_on_write_fill")),
    (MemorySystem, ("issue_fetch", "_finish_fetch", "_finish_gather",
                    "_submit_plan", "_request_done")),
    (CacheHierarchy, ("lookup", "write", "fill_from_memory",
                      "fill_lines_from_memory")),
    (SectorCache, ("locate", "lookup", "fill_clean", "fill_lines",
                   "write_resident")),
    (Kernel, ("schedule_at",)),
    (Observation, ("on_command",)),
    (TimingProtocolChecker, ("on_command", "_check_shadow_sync", "_on_act",
                             "_on_pre", "_on_ref", "_on_cas", "_on_sa_sel",
                             "_on_mrs", "_check_data_bus", "on_data_burst",
                             "_sub_id_of", "_sub_shadow")),
    (PlanValidator, ("on_plan", "_check_fills")),
    (oracle, ("_request_sig",)),
)

ENUMS = {"Command", "RowKind", "RequestType", "IOMode"}

#: (function, construct) -> (allowed count, why)
ALLOWED = {
    ("Scheduler._shared_terms", "max"): (
        1, "an MRS's bus drain: derived once per CAS-memo miss for a "
           "mode switch, a few hundred times a round"),
}


def _violations(function) -> dict:
    """construct -> the source lines that use it in ``function``."""
    lines, first = inspect.getsourcelines(function)
    tree = ast.parse("".join(lines).lstrip())
    found = {}
    for node in ast.walk(tree):
        construct = None
        if isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS):
                construct = f"{node.value.id}.{node.attr}"
            elif node.attr == "value":
                construct = ".value"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("max", "min")):
            construct = node.func.id
        if construct is not None:
            found.setdefault(construct, []).append(first + node.lineno - 1)
    return found


def _functions():
    for owner, names in PER_EVENT:
        # a module's functions are named by the module's last component
        prefix = owner.__name__.rpartition(".")[2]
        for name in names:
            yield f"{prefix}.{name}", getattr(owner, name)


@pytest.mark.parametrize("qualname,function", list(_functions()))
def test_per_event_function_avoids_hidden_interpreter_costs(qualname,
                                                            function):
    problems = []
    for construct, lines in _violations(function).items():
        allowed, _why = ALLOWED.get((qualname, construct), (0, ""))
        if len(lines) > allowed:
            problems.append(f"{construct} at lines {lines}")
    assert not problems, (
        f"{qualname} is on the per-event path: bind enum members in "
        f"repro.dram.commands, read names as ._value_, and compare "
        f"instead of calling max/min: {problems}")


def test_every_allowance_is_used():
    """An exception that no longer matches anything is stale: drop it."""
    functions = dict(_functions())
    for (qualname, construct), (allowed, _why) in ALLOWED.items():
        found = _violations(functions[qualname]).get(construct, [])
        assert len(found) == allowed, (qualname, construct, found)


def test_guard_catches_each_construct():
    """The parser flags all three constructs (a guard that flags nothing
    passes on anything)."""
    def sample(command, a, b):
        if command is Command.MRS:  # noqa: F821
            return command.value
        return max(a, b) + min(a, b)

    assert set(_violations(sample)) == {"Command.MRS", ".value", "max",
                                        "min"}
