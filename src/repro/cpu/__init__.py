"""CPU front end: scan cores and their memory-op streams (a gather op
carries the element addresses of one sload/sstore group)."""

from .core import Core, CoreConfig
from .ops import Compute, GatherLoad, GatherStore, Load, MemOp, Store

__all__ = [
    "Core",
    "CoreConfig",
    "Compute",
    "GatherLoad",
    "GatherStore",
    "Load",
    "MemOp",
    "Store",
]
