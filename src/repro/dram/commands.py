"""Memory commands and request/response types.

A :class:`Request` is what the access-scheme layer hands to the memory
controller: a read or write of one burst (64B of data plus parity) at a
decoded address.  Gather (strided) requests are ordinary column accesses on
the bus but carry metadata that the controller uses for I/O-mode switching
(SAM), column-wise activation (SAM-sub / RC-NVM) and energy accounting.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from .address import DecodedAddress


class Command(enum.Enum):
    """DRAM command set used by the controller."""

    ACT = "ACT"  # activate a row (row-wise)
    ACT_COL = "ACT_COL"  # activate a column-wise subarray (SAM-sub / RC-NVM)
    PRE = "PRE"  # precharge
    RD = "RD"  # burst read
    WR = "WR"  # burst write
    REF = "REF"  # refresh (per rank)
    MRS = "MRS"  # mode-register set (I/O mode switch for SAM)
    SA_SEL = "SA_SEL"  # MASA: re-designate the globally connected subarray


class RequestType(enum.Enum):
    READ = "READ"
    WRITE = "WRITE"


class IOMode(enum.Enum):
    """Chip I/O configurations (Figure 7).

    ``X4`` is the regular server mode.  ``STRIDE`` stands for the Sx4_n
    family: the controller only needs to know whether the rank is in regular
    or stride mode, because switching between two Sx4_n lanes is also an MRS
    with the same delay.
    """

    X4 = "x4"
    X8 = "x8"
    X16 = "x16"
    STRIDE = "Sx4"


class RowKind(enum.Enum):
    """Direction of the open 'row' in a bank."""

    ROW = "row"  # regular row-wise activation
    COLUMN = "column"  # column-wise subarray activation (SAM-sub / RC-NVM)


# The members the per-event paths read, each bound once at module scope.
# On Python 3.10 and 3.11 the enum metaclass defines ``__getattr__``, so
# every ``Command.RD`` takes the interpreter's slow attribute-hook path
# (over ten times the cost of a module global); the scheduler, controller,
# channel and request lowering import these names and compare with
# ``is``.  A member's name string is ``member._value_``: ``.value`` is a
# Python-level descriptor.
ACT = Command.ACT
ACT_COL = Command.ACT_COL
PRE = Command.PRE
RD = Command.RD
WR = Command.WR
REF = Command.REF
MRS = Command.MRS
SA_SEL = Command.SA_SEL
READ = RequestType.READ
WRITE = RequestType.WRITE
X4 = IOMode.X4
STRIDE = IOMode.STRIDE
ROW = RowKind.ROW
COLUMN = RowKind.COLUMN


@dataclass(eq=False)
class Request:
    """One burst-granularity memory request.  Requests compare by
    identity: two requests for the same line are still two requests.

    Attributes:
        addr: decoded device coordinates of the accessed line.
        type: read or write.
        io_mode: I/O mode the rank must be in to serve this request.
        row_kind: whether the access opens a row-wise row or a column-wise
            subarray (the latter only for SAM-sub / RC-NVM gathers).
        gather: number of strided elements this burst returns (1 for a
            regular access; 4 or 8 for SAM/GS-DRAM gathers).  Used only for
            statistics -- the bus occupancy is one burst either way.
        internal_bursts: extra internal column operations required to
            assemble the transfer (RC-NVM-bit collects a field from several
            bit-level column accesses; embedded-ECC schemes add line reads).
            Each extra internal burst occupies the bank column path (tCCD)
            but not the channel data bus.
        critical: True for demand reads the CPU blocks on.
        early_restart: critical-word-first -- the waiting load is released
            when its word arrives instead of at the end of the burst.
            Designs with transposed/concentrated layouts (SAM-IO, GS-DRAM)
            cannot use it (Section 5.4.1).
        subrank: sub-rank index for fine-granularity designs (AGMS/DGMS):
            the transfer uses only that sub-rank's chips and occupies one
            quarter of the data bus, so transfers from *different*
            sub-ranks overlap in time.  None means a full-width transfer.
        on_complete: callback invoked as ``on_complete(request, time)`` when
            the data transfer finishes.
    """

    addr: DecodedAddress
    type: RequestType
    io_mode: IOMode = X4
    row_kind: RowKind = ROW
    gather: int = 1
    internal_bursts: int = 0
    critical: bool = True
    early_restart: bool = False
    subrank: Optional[int] = None
    on_complete: Optional[Callable[["Request", int], None]] = None
    #: id of the core that demanded this request (None for cache
    #: writebacks and other requests no core is waiting on); used for
    #: queue-full diagnostics and timeline lanes
    source_core: Optional[int] = None
    #: cycle the controller admitted this request (filled at submit)
    arrival: int = -1
    #: the scheduler's readiness slot for this request's row target,
    #: shared with every queued request that has the same subarray, row
    #: kind, row, direction, I/O mode and subrank; None once its CAS
    #: issues.  Scheduling state only -- never part of the request's
    #: serialized form.
    _slot: Optional[object] = field(default=None, repr=False)
    #: the scheduler's admission number: its slot's FIFO and the
    #: queue's slot order follow it
    _seq: int = field(default=-1, repr=False)
    #: direct references to the RankState/BankState/SubarrayState this
    #: request's fixed address decodes to, filled by the scheduler at
    #: submit so its scan skips the ranks[...]/banks[...]
    #: indexing (the subarray is the whole bank in a one-subarray bank)
    _rank: Optional[object] = field(default=None, repr=False)
    _bank: Optional[object] = field(default=None, repr=False)
    _sub: Optional[object] = field(default=None, repr=False)
    #: True for a READ; set once from ``type``, which never changes
    is_read: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.is_read = self.type is READ

    def row_id(self) -> tuple:
        """The (kind, row-or-column index) this request needs open."""
        return (self.row_kind, self.addr.row)
