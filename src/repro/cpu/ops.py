"""Memory-operation stream: what a workload's lowering hands to a core.

A query's lowering turns its physical plan into a per-core sequence of
these ops.
Addresses are physical (the scheme's placement already applied).  Strided
ops carry the element addresses of one gather group -- the hardware
realization (one stride-mode burst, a column-subarray access, a GS-DRAM
gather, or plain loads on the baseline) is decided by the scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Compute:
    """CPU work between memory operations, in memory-clock cycles."""

    cycles: int


@dataclass(frozen=True)
class Load:
    """A demand load of ``size`` bytes (must not cross a cacheline)."""

    addr: int
    size: int = 8


@dataclass(frozen=True)
class Store:
    """A store of ``size`` bytes (write-allocate unless a full line)."""

    addr: int
    size: int = 8


@dataclass(frozen=True)
class GatherLoad:
    """``sload``: one strided load group (Section 5.1.2)."""

    element_addrs: tuple

    def __init__(self, element_addrs) -> None:
        object.__setattr__(self, "element_addrs", tuple(element_addrs))


@dataclass(frozen=True)
class GatherStore:
    """``sstore``: one strided store group."""

    element_addrs: tuple

    def __init__(self, element_addrs) -> None:
        object.__setattr__(self, "element_addrs", tuple(element_addrs))


MemOp = Union[Compute, Load, Store, GatherLoad, GatherStore]
