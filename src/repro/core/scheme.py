"""Access-scheme abstraction.

An :class:`AccessScheme` bundles everything that distinguishes one design
of the paper's evaluation (baseline, SAM-sub/IO/en, GS-DRAM(-ecc),
RC-NVM-bit/wd, ideal):

* a *placement* -- where a table's records live in physical memory
  (Section 5.4.1's alignment strategies drive row hits and bank conflicts),
* *request lowering* -- how loads, stores, strided loads (``sload``) and
  strided stores (``sstore``) become memory-controller requests,
* *traits* -- the qualitative properties of Table 1 (ECC compatibility,
  critical-word-first, interface modifications, ...),
* the memory technology (timing preset, scaled by area overhead per
  Section 6.1) and the power configuration.
"""

from __future__ import annotations

import abc
import copy
import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..area.overhead import AreaReport
from ..dram.address import AddressMapper, DecodedAddress
from ..dram.commands import IOMode, Request, RequestType, RowKind
from ..dram.geometry import Geometry
from ..dram.timing import TimingParams, preset
from ..power.model import PowerConfig


@dataclass(frozen=True)
class SchemeTraits:
    """The qualitative comparison axes of Table 1."""

    needs_db_alignment: bool = True
    needs_isa_extension: bool = True
    needs_sector_cache: bool = True
    modifies_memory_controller: bool = False
    modifies_command_interface: bool = False
    critical_word_first: bool = True
    ecc_compatible: bool = True
    mode_switch_delay: bool = False  # pays tRTR on stride entry/exit
    substrate: str = "DRAM"  # or "NVM"


@dataclass
class GatherPlan:
    """What one strided access does.

    ``requests`` go to the memory controller (usually one burst; embedded
    ECC schemes add more).  ``fills`` list the ``(line_addr, sector_mask)``
    pairs the cache installs when the plan completes.
    """

    requests: List[Request]
    fills: List[Tuple[int, int]] = field(default_factory=list)


class AccessScheme(abc.ABC):
    """Base class for all evaluated designs."""

    #: overridden by subclasses
    name: str = "abstract"

    #: True when one gather burst can only cover elements inside a single
    #: DRAM row (SAM-IO/en sub-row stride, GS-DRAM intra-row shift); the
    #: executor derates the effective gather factor for huge records.
    gather_within_row: bool = False

    #: False for fine-granularity (sub-ranked) designs whose fetches bring
    #: only the requested sectors instead of the whole 64B line.
    fetch_fills_whole_line: bool = True

    #: name of a forced base-timing preset; set only on clones produced by
    #: :meth:`with_timing` (substrate-swap studies), never mutated in place
    timing_override: Optional[str] = None

    #: subarray-level-parallelism mode the memory controller runs in:
    #: "none" (the default one-subarray, one-open-row banks), "salp1",
    #: "salp2" or "masa" (Kim et al., ISCA'12).  Orthogonal to the
    #: stride mapping, so SAM schemes can compose with it (e.g.
    #: SAM-en+masa).
    salp_mode: str = "none"

    #: planner row-path cost multiplier under SALP: overlapped
    #: precharge/activation makes row-wise plans cheaper per line touched
    #: (< 1.0 for SALP schemes, exactly 1.0 otherwise -- the planner only
    #: applies a non-1.0 derate, keeping existing schemes' cost
    #: arithmetic bit-identical)
    salp_row_derate: float = 1.0

    def __init__(
        self,
        geometry: Optional[Geometry] = None,
        gather_factor: int = 8,
    ) -> None:
        self.geometry = geometry or Geometry()
        self.mapper = AddressMapper(self.geometry)
        self.gather_factor = gather_factor
        line = self.geometry.cacheline_bytes
        #: True when the design accelerates strided accesses in hardware
        self.supports_stride = gather_factor > 1
        #: size of one strided element (= one cache sector)
        self.sector_bytes = (
            line // gather_factor if self.supports_stride else line // 4
        )
        self.sectors_per_line = line // self.sector_bytes
        self._line_offset_mask = line - 1

    # ------------------------------------------------------------ metadata

    @property
    @abc.abstractmethod
    def traits(self) -> SchemeTraits:
        """Table 1 row for this design."""

    @property
    @abc.abstractmethod
    def area(self) -> AreaReport:
        """Silicon/storage overhead (Figure 14(c))."""

    @functools.cached_property
    def _critical_word_first(self) -> bool:
        """``traits.critical_word_first``, read on first use: ``traits``
        builds a fresh record per call, and a subclass may set what it
        reads after this class's ``__init__`` (SAM-en's ``two_d_buffer``)."""
        return self.traits.critical_word_first

    def base_timing(self) -> TimingParams:
        """Device timing of the design's native substrate (subclass hook)."""
        return preset("DDR4-2400")

    def with_timing(self, timing_name: str) -> "AccessScheme":
        """A clone of this scheme whose base timing is forced to the named
        preset (substrate-swap studies, Figure 14(a)).  The receiver is
        left untouched, so a shared scheme instance stays immutable across
        sweep points -- a prerequisite for parallel sweep execution."""
        preset(timing_name)  # fail fast on unknown presets
        clone = copy.copy(self)
        clone.timing_override = timing_name
        return clone

    @property
    def timing(self) -> TimingParams:
        """Device timing, with array latencies scaled by area overhead
        (Section 6.1: latency grows proportionally to the core area)."""
        if self.timing_override is not None:
            base = preset(self.timing_override)
        else:
            base = self.base_timing()
        overhead = self.area.silicon_fraction
        if overhead < 0.005:
            return base
        return base.scaled(f"{base.name}+{self.name}", 1.0 + overhead)

    @property
    def power_config(self) -> PowerConfig:
        return PowerConfig(name=self.name)

    # ------------------------------------------------------------ placement

    @abc.abstractmethod
    def placement(self, table: "TablePlacement") -> "Placement":
        """Bind a table's records to physical addresses."""

    # ------------------------------------------------------------- lowering

    def lower_read(self, line_addr: int) -> List[Request]:
        """A regular 64B demand read.  Designs that keep the default data
        layout deliver the critical word first (early restart)."""
        return [
            Request(
                addr=self.mapper.decode(line_addr),
                type=RequestType.READ,
                early_restart=self._critical_word_first,
            )
        ]

    def lower_write(self, line_addr: int) -> List[Request]:
        """A regular 64B writeback / streaming store."""
        return [
            Request(
                addr=self.mapper.decode(line_addr),
                type=RequestType.WRITE,
                critical=False,
            )
        ]

    def lower_gather_read(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        """A strided load group; None when the design has no stride mode."""
        return None

    def lower_gather_write(
        self, element_addrs: Sequence[int]
    ) -> Optional[GatherPlan]:
        """A strided store group; None when unsupported."""
        return None

    # -------------------------------------------------------------- helpers

    def _sector_fills(
        self, element_addrs: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """(line_addr, sector_mask) of each strided element, in order."""
        low = self._line_offset_mask
        sector_bytes = self.sector_bytes
        return [
            (addr & ~low, 1 << ((addr & low) // sector_bytes))
            for addr in element_addrs
        ]

    def _row_groups(
        self, element_addrs: Sequence[int]
    ) -> Iterable[Tuple[DecodedAddress, List[int]]]:
        """The elements grouped by DRAM row, for gathers that cannot cross
        one (SAM-IO/en, GS-DRAM): ``(first, addrs)`` per (rank, bank, row)
        in order of each row's first element, with ``first`` that
        element's decode.  Each element is decoded once."""
        decode = self.mapper.decode
        groups: Dict[tuple, Tuple[DecodedAddress, List[int]]] = {}
        for addr in element_addrs:
            decoded = decode(addr)
            key = decoded[1:4]  # (rank, bank, row)
            group = groups.get(key)
            if group is None:
                groups[key] = (decoded, [addr])
            else:
                group[1].append(addr)
        return groups.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


@dataclass(frozen=True)
class TablePlacement:
    """Static shape of one table region in memory."""

    base: int  # row-aligned physical base address
    record_bytes: int
    n_records: int

    def __post_init__(self) -> None:
        if self.base % 64:
            raise ValueError("table base must be cacheline aligned")
        if self.record_bytes <= 0 or self.n_records <= 0:
            raise ValueError("empty table placement")


class Placement(abc.ABC):
    """Maps (record, byte offset) to a flat physical address."""

    #: True when consecutive bytes of one record are physically contiguous
    #: (at least within a cacheline) -- multi-field loads may then be
    #: merged into one span.  Column-major placements scatter fields into
    #: separate regions and must load field by field.
    contiguous_records = True

    def __init__(self, table: TablePlacement, scheme: AccessScheme) -> None:
        self.table = table
        self.scheme = scheme

    @abc.abstractmethod
    def addr_of(self, record: int, offset: int) -> int:
        """Physical address of byte ``offset`` of ``record``."""

    @property
    def partition_granularity(self) -> int:
        """Smallest record chunk that keeps parallel workers on separate
        banks (vertical placements stack a whole group in one bank)."""
        return self.scheme.gather_factor

    def gather_group(self, record: int) -> Tuple[int, int]:
        """(first record, size) of the stride group containing ``record``."""
        g = self.scheme.gather_factor
        return (record - record % g, min(g, self.table.n_records))

    def element_addrs(self, first_record: int, count: int,
                      offset: int) -> List[int]:
        """Addresses of one field slice across a gather group."""
        return [
            self.addr_of(first_record + i, offset) for i in range(count)
        ]

    @property
    def footprint(self) -> int:
        """Bytes of address space the table occupies."""
        return self.table.record_bytes * self.table.n_records
