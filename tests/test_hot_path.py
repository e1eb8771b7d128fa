"""Guard for the per-event path: the controller wake-up, the FR-FCFS scan,
command issue, the bank, rank and channel gates, the core's advance and
the command ring.

These functions run once per simulated event or command, and three
per-access costs that cProfile cannot show (an attribute read is not a
call, so the time lands in the caller's own time) are kept out of them:

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

from repro.cpu.core import Core
from repro.dram.bank import BankState
from repro.dram.channel import ChannelState
from repro.dram.controller import MemoryController
from repro.dram.rank import RankState
from repro.dram.scheduler import Scheduler, _Slot
from repro.obs import Observation

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
    (Core, ("_advance", "_schedule_advance")),
    (Observation, ("on_command",)),
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
    for cls, names in PER_EVENT:
        for name in names:
            yield f"{cls.__name__}.{name}", getattr(cls, name)


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
