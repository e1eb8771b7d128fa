"""Differential data oracle.

Three layers of "is the data right?" checking, all independent of the
timing simulator:

* :class:`FunctionalMemory` -- a pure-python functional model of the
  module's contents.  Every line has a deterministic reference pattern
  (:func:`reference_line`) until written, so the expected bytes of *any*
  strided gather are computable without running the simulator.
* :class:`PlanValidator` -- a differential re-derivation of request
  lowering.  A checked run hooks its ``on_plan`` onto the memory
  system's ``plan_observer``; for every gather plan the memory system
  admits, it independently recomputes the expected request multiset
  (row-grouped SAM-IO/en gathers, SAM-sub / RC-NVM synthetic
  column-rows, GS-DRAM row groups plus embedded-ECC companions) and the
  exact (line, sector) fill set, then compares.
* :class:`DataOracle` -- bit-exact datapath checks: strided gathers
  through :class:`~repro.dram.datapath.RankDatapath` must return the
  same bytes a software strided read would load, chipkill codewords must
  stay intact under both the default and the transposed (Figure 4(c))
  layout including a corrected chip failure, and SSC-DSD codewords
  (4-bit-chip symbols grouped to GF(256)) must round-trip with
  single-chip correct / double-chip detect behaviour.
"""

from __future__ import annotations

import hashlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.scheme import AccessScheme, GatherPlan
from ..dram.datapath import RankDatapath
from ..dram.geometry import Geometry
from ..ecc.chipkill import ChipAlignedSSC, SSCDSDCodec

_LINE_BYTES = 64


def reference_line(line_addr: int) -> bytes:
    """Deterministic 64B content of an unwritten line."""
    return hashlib.blake2b(
        line_addr.to_bytes(8, "little"), digest_size=_LINE_BYTES
    ).digest()


class FunctionalMemory:
    """Sparse functional model of the module contents."""

    def __init__(self) -> None:
        self._lines: Dict[int, bytes] = {}

    def read_line(self, line_addr: int) -> bytes:
        return self._lines.get(line_addr, reference_line(line_addr))

    def write_line(self, line_addr: int, data: bytes) -> None:
        if len(data) != _LINE_BYTES:
            raise ValueError(f"a line is {_LINE_BYTES} bytes")
        self._lines[line_addr] = bytes(data)

    def read(self, addr: int, size: int) -> bytes:
        """Expected bytes of ``[addr, addr + size)`` (may span lines)."""
        out = b""
        while size > 0:
            line_addr = addr - addr % _LINE_BYTES
            offset = addr - line_addr
            take = min(size, _LINE_BYTES - offset)
            out += self.read_line(line_addr)[offset : offset + take]
            addr += take
            size -= take
        return out

    def write(self, addr: int, data: bytes) -> None:
        """Write arbitrary bytes (read-modify-write at line granularity)."""
        while data:
            line_addr = addr - addr % _LINE_BYTES
            offset = addr - line_addr
            take = min(len(data), _LINE_BYTES - offset)
            line = bytearray(self.read_line(line_addr))
            line[offset : offset + take] = data[:take]
            self._lines[line_addr] = bytes(line)
            addr += take
            data = data[take:]

    def expected_gather(self, element_addrs: Sequence[int],
                        sector_bytes: int) -> bytes:
        """The bytes a strided gather of ``element_addrs`` must return."""
        return b"".join(
            self.read(addr, sector_bytes) for addr in element_addrs
        )


@dataclass(frozen=True)
class OracleMismatch:
    """One divergence between the oracle and the simulator."""

    kind: str  # e.g. "plan-requests", "fills", "gather-data", "dsd"
    scheme: str
    message: str
    detail: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "message": self.message,
            "detail": [list(d) if isinstance(d, tuple) else d
                       for d in self.detail],
        }

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.kind}] {self.scheme}: {self.message}"


class OracleError(Exception):
    """Raised in strict mode on the first oracle mismatch."""

    def __init__(self, mismatch: OracleMismatch) -> None:
        super().__init__(str(mismatch))
        self.mismatch = mismatch


class _MismatchCollector:
    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.mismatches: List[OracleMismatch] = []

    def _mismatch(self, kind: str, scheme: str, message: str,
                  detail: tuple = ()) -> None:
        m = OracleMismatch(kind=kind, scheme=scheme, message=message,
                           detail=detail)
        self.mismatches.append(m)
        if self.strict:
            raise OracleError(m)


#: request signature compared between the scheme's plan and the oracle's
#: independent re-derivation
_Sig = Tuple


def _request_sig(request) -> _Sig:
    return (
        request.type._value_,
        request.addr.rank,
        request.addr.bank,
        request.row_kind._value_,
        request.addr.row,
        request.addr.column,
        request.io_mode._value_,
        request.gather,
        request.internal_bursts,
        request.subrank,
        request.critical,
    )


class PlanValidator(_MismatchCollector):
    """Differential check of one scheme's gather lowering.

    ``on_plan`` fires once per admitted gather plan: a checked run sets
    it as its :class:`~repro.sim.system.MemorySystem`'s
    ``plan_observer``, so the design object itself carries no hook.
    """

    #: scheme families whose lowering the oracle re-derives
    _SAM_ROW = ("SAM-IO", "SAM-en", "SAM-en+masa")
    _GS = ("GS-DRAM", "GS-DRAM-ecc")
    _RC_NVM = {"RC-NVM-wd": 0, "RC-NVM-bit": 3}
    _RC_NVM_GROUP_ROWS = 64

    def __init__(self, scheme: AccessScheme, strict: bool = True) -> None:
        super().__init__(strict)
        self.scheme = scheme
        #: a checked run's ``check.plans``, ``check.lowered_gathers`` and
        #: ``check.kernel_ops``: gather plans admitted, lowered gathers
        #: diffed against the physical plan, and kernel ops the
        #: :class:`KernelOracle` diffed (its workload adds them here)
        self.plans_seen = 0
        self.lowered_gathers = 0
        self.kernel_ops = 0

    # ------------------------------------------- plan-vs-lowering footprint

    def check_lowered_ops(self, plan, ops_per_core, placements) -> None:
        """Static diff of lowered gathers against the physical plan.

        The plan's strided operators declare their footprints (sector
        offsets x gather groups over the operator's records); every
        ``GatherLoad``/``GatherStore`` the lowering emitted must be one
        of those declared gathers (skipping groups is fine -- selection
        masks prune them -- inventing one is not).
        """
        from ..cpu.ops import GatherLoad, GatherStore

        g = self.scheme.gather_factor
        admitted_reads = set()
        admitted_writes = set()
        for node in plan.strided_nodes():
            placement = placements[node.table]
            for offset in node.sector_offsets:
                for gs in range(0, node.records, g):
                    ge = min(node.records, gs + g)
                    group = tuple(
                        placement.addr_of(r, offset) for r in range(gs, ge)
                    )
                    admitted_reads.add(group)
                    if node.writes:
                        admitted_writes.add(group)
        for ops in ops_per_core:
            for op in ops:
                if isinstance(op, GatherStore):
                    admitted, kind = admitted_writes, "write"
                elif isinstance(op, GatherLoad):
                    admitted, kind = admitted_reads, "read"
                else:
                    continue
                self.lowered_gathers += 1
                if tuple(op.element_addrs) not in admitted:
                    self._mismatch(
                        "plan-footprint", self.scheme.name,
                        f"lowered {kind} gather of "
                        f"{len(op.element_addrs)} elements at "
                        f"{[hex(a) for a in op.element_addrs[:4]]}... is "
                        f"outside every footprint the physical plan for "
                        f"{plan.query} declared",
                        detail=(tuple(op.element_addrs),),
                    )

    # ------------------------------------------------------------- checking

    def on_plan(self, kind: str, element_addrs: Sequence[int],
                plan: GatherPlan) -> None:
        """``kind`` is ``"read"`` or ``"write"``."""
        self.plans_seen += 1
        scheme = self.scheme
        self._check_fills(kind, element_addrs, plan)
        expected = self._expected_requests(kind, element_addrs)
        if expected is None:
            self._mismatch(
                "plan-unexpected", scheme.name,
                f"scheme {scheme.name} produced a gather plan but the "
                f"oracle knows no stride lowering for it",
            )
            return
        actual = Counter(_request_sig(r) for r in plan.requests)
        if actual != Counter(expected):
            missing = list((Counter(expected) - actual).elements())
            extra = list((actual - Counter(expected)).elements())
            self._mismatch(
                "plan-requests", scheme.name,
                f"{kind} gather of {len(element_addrs)} elements lowered "
                f"to the wrong requests (missing {missing}, "
                f"extra {extra})",
                detail=(tuple(element_addrs),),
            )

    def _check_fills(self, kind, element_addrs, plan) -> None:
        scheme = self.scheme
        expected = []
        for addr in element_addrs:
            line = addr - addr % _LINE_BYTES
            sector = (addr - line) // scheme.sector_bytes
            if not 0 <= sector < scheme.sectors_per_line:
                self._mismatch(
                    "fills", scheme.name,
                    f"element {addr:#x} maps to sector {sector} outside "
                    f"the line",
                    detail=(tuple(element_addrs),),
                )
                return
            expected.append((line, 1 << sector))
        if Counter(plan.fills) != Counter(expected):
            self._mismatch(
                "fills", scheme.name,
                f"{kind} gather fills {sorted(plan.fills)} do not cover "
                f"the requested elements (expected {sorted(expected)})",
                detail=(tuple(element_addrs),),
            )

    # -------------------------------------------- independent re-derivation

    def _expected_requests(self, kind: str,
                           element_addrs: Sequence[int]):
        scheme = self.scheme
        name = scheme.name
        type_value = "READ" if kind == "read" else "WRITE"
        critical = kind == "read"
        if name in self._SAM_ROW:
            return self._expected_sam_row(type_value, critical,
                                          element_addrs)
        if name == "SAM-sub":
            return self._expected_sam_sub(type_value, critical,
                                          element_addrs)
        if name in self._GS:
            return self._expected_gs(type_value, critical, element_addrs,
                                     ecc=(name == "GS-DRAM-ecc"))
        if name in self._RC_NVM:
            return self._expected_rc_nvm(type_value, critical,
                                         element_addrs,
                                         self._RC_NVM[name])
        return None

    def _by_row(self, element_addrs):
        groups = defaultdict(list)
        for addr in element_addrs:
            d = self.scheme.mapper.decode(addr)
            groups[(d.rank, d.bank, d.row)].append(addr)
        return groups

    def _expected_sam_row(self, type_value, critical, element_addrs):
        out = []
        for addrs in self._by_row(element_addrs).values():
            first = self.scheme.mapper.decode(addrs[0])
            if len(addrs) >= 2:
                out.append((type_value, first.rank, first.bank, "row",
                            first.row, first.column, "Sx4", len(addrs),
                            0, None, critical))
            else:
                out.append((type_value, first.rank, first.bank, "row",
                            first.row, first.column, "x4", 1, 0, None,
                            critical))
        return out

    def _expected_sam_sub(self, type_value, critical, element_addrs):
        mapper = self.scheme.mapper
        first = mapper.decode(element_addrs[0])
        band = first.row - first.row % self.scheme.gather_factor
        synthetic = (band << mapper.column_bits) | first.column
        return [(type_value, first.rank, first.bank, "column", synthetic,
                 first.column, "x4", len(element_addrs), 0, None,
                 critical)]

    def _expected_gs(self, type_value, critical, element_addrs, ecc):
        out = []
        for addrs in self._by_row(element_addrs).values():
            first = self.scheme.mapper.decode(addrs[0])
            out.append((type_value, first.rank, first.bank, "row",
                        first.row, first.column, "x4", len(addrs), 0,
                        None, critical))
            if ecc:
                companion = first.column ^ 1
                out.append(("READ", first.rank, first.bank, "row",
                            first.row, companion, "x4", 1, 0, None,
                            True))
                if type_value == "WRITE":
                    out.append(("WRITE", first.rank, first.bank, "row",
                                first.row, companion, "x4", 1, 0, None,
                                False))
        return out

    def _expected_rc_nvm(self, type_value, critical, element_addrs,
                         internal):
        scheme = self.scheme
        mapper = scheme.mapper
        first = mapper.decode(element_addrs[0])
        region = first.row - first.row % self._RC_NVM_GROUP_ROWS
        field_column = first.column * (
            scheme.geometry.cacheline_bytes // scheme.sector_bytes
        ) + first.offset // scheme.sector_bytes
        synthetic = (region << (mapper.column_bits + 4)) | field_column
        return [(type_value, first.rank, first.bank, "column", synthetic,
                 first.column, "x4", len(element_addrs), internal, None,
                 critical)]


class KernelOracle(_MismatchCollector):
    """Differential check of a generated kernel's lowered op streams.

    A :class:`~repro.workloads.kernels.KernelWorkload` carries its own
    ground truth: the generator's program-order element accesses and the
    expected-bytes digest over the functional memory's reference
    content.  This oracle re-derives both *independently of the
    lowering* -- it flattens whatever ops the build emitted back to
    element granularity and diffs them against the generator's access
    multiset, so a lowering that drops, duplicates or mis-addresses an
    element (or chunks a gather beyond the scheme's gather factor, or
    emits stride ops on a design without stride hardware) is caught
    before a single cycle is simulated.
    """

    def __init__(self, strict: bool = True) -> None:
        super().__init__(strict)
        self.ops_checked = 0

    def check_build(self, workload, scheme: AccessScheme, build,
                    placements) -> None:
        from ..cpu.ops import GatherLoad, GatherStore, Load, Store

        name = scheme.name
        g = scheme.gather_factor
        emitted: Counter = Counter()
        for ops in build.ops_per_core:
            for op in ops:
                self.ops_checked += 1
                if isinstance(op, (GatherLoad, GatherStore)):
                    kind = "read" if isinstance(op, GatherLoad) else "write"
                    if not scheme.supports_stride:
                        self._mismatch(
                            "kernel-gather", name,
                            f"{kind} gather emitted for {workload.name} "
                            f"but {name} has no stride hardware",
                            detail=(tuple(op.element_addrs),),
                        )
                        continue
                    if not 1 <= len(op.element_addrs) <= g:
                        self._mismatch(
                            "kernel-gather", name,
                            f"{kind} gather of {len(op.element_addrs)} "
                            f"elements exceeds the gather factor {g}",
                            detail=(tuple(op.element_addrs),),
                        )
                        continue
                    for addr in op.element_addrs:
                        emitted[(kind, addr, scheme.sector_bytes)] += 1
                elif isinstance(op, (Load, Store)):
                    kind = "read" if isinstance(op, Load) else "write"
                    emitted[(kind, op.addr, op.size)] += 1
        strided_elems = set()
        if scheme.supports_stride:
            for gkind, array, elems, _elem, strided in (
                workload.program().groups
            ):
                if not strided:
                    continue
                placement = placements[array]
                for record, offset in elems:
                    strided_elems.add(
                        (gkind, placement.addr_of(record, offset))
                    )
        expected: Counter = Counter()
        for kind, addr, size in workload.accesses(placements):
            # stride hardware fetches whole sectors; plain accesses fetch
            # the element itself
            if (kind, addr) in strided_elems:
                size = scheme.sector_bytes
            expected[(kind, addr, size)] += 1
        if emitted != expected:
            missing = list((expected - emitted).elements())[:4]
            extra = list((emitted - expected).elements())[:4]
            self._mismatch(
                "kernel-accesses", name,
                f"lowered ops of {workload.name} do not cover the "
                f"generator's element accesses (missing {missing}, "
                f"extra {extra})",
            )
        expected_result = workload.expected_result()
        if build.result != expected_result:
            self._mismatch(
                "kernel-result", name,
                f"build result {build.result!r} differs from the "
                f"generator's expected-bytes model {expected_result!r}",
            )

class DataOracle(_MismatchCollector):
    """Bit-exact datapath and codeword checks.

    These exercise the *functional* half of the design claims: a strided
    gather returns exactly the software-visible bytes, under both storage
    layouts, with the chipkill codeword intact -- even after a whole-chip
    failure -- and SSC-DSD keeps its correct/detect contract.
    """

    def __init__(self, geometry: Optional[Geometry] = None,
                 strict: bool = True) -> None:
        super().__init__(strict)
        self.geometry = geometry or Geometry()

    def check_gather(
        self,
        layout: str,
        bank: int,
        row: int,
        columns: Sequence[int],
        sector: int,
        lines: Sequence[bytes],
        faulty_chip: Optional[int] = None,
        fault_mask: int = 0,
    ) -> None:
        """One strided gather, bit for bit.

        Writes four ``lines`` (with chip-aligned SSC parity) into the
        datapath, optionally corrupts one chip, gathers ``sector`` and
        asserts every element decodes to exactly the software-expected
        16 bytes.  ``layout='transposed'`` is SAM-IO's Figure 4(c)
        codeword; ``'default'`` is SAM-en's 2-D buffer path.
        """
        scheme_name = f"datapath/{layout}"
        datapath = RankDatapath(self.geometry, layout)
        codec = ChipAlignedSSC(layout)
        for column, line in zip(columns, lines):
            parity = b"".join(
                codec.encode_sectors(
                    [line[16 * s : 16 * (s + 1)] for s in range(4)]
                )
            )
            datapath.write_line(bank, row, column, line, parity)
        if faulty_chip is not None and fault_mask:
            datapath.data_chips[faulty_chip].row(bank, row)[
                columns[sector % len(columns)]
            ] ^= fault_mask
        gathered = datapath.gather_sectors(bank, row, list(columns),
                                           sector, with_parity=True)
        for j, (data, parity) in enumerate(gathered):
            expected = lines[j][16 * sector : 16 * (sector + 1)]
            report = codec.decode_sector(data, parity)
            if report.detected_uncorrectable:
                self._mismatch(
                    "gather-data", scheme_name,
                    f"element {j} of gather (bank {bank}, row {row}, "
                    f"sector {sector}) came back uncorrectable",
                    detail=(tuple(columns),),
                )
            elif report.data != expected:
                self._mismatch(
                    "gather-data", scheme_name,
                    f"element {j} of gather (bank {bank}, row {row}, "
                    f"sector {sector}) returned "
                    f"{report.data.hex()} != expected {expected.hex()}",
                    detail=(tuple(columns),),
                )

    def check_line_roundtrip(self, layout: str, bank: int, row: int,
                             column: int, line: bytes) -> None:
        """A regular write + logical read must return the stored line."""
        datapath = RankDatapath(self.geometry, layout)
        datapath.write_line(bank, row, column, line)
        got = datapath.read_line_logical(bank, row, column)
        if got != line:
            self._mismatch(
                "line-roundtrip", f"datapath/{layout}",
                f"line at (bank {bank}, row {row}, column {column}) "
                f"read back {got.hex()} != {line.hex()}",
            )

    def check_dsd(self, data: bytes,
                  chip_masks: Sequence[int]) -> None:
        """SSC-DSD (RS(36,32) over grouped 4-bit-chip symbols): a single
        corrupted chip must be corrected bit-exactly, two must be
        detected (never silently miscorrected)."""
        codec = SSCDSDCodec()
        if len(data) != codec.data_bytes or len(chip_masks) != codec.n:
            raise ValueError("check_dsd wants 32 data bytes and 36 masks")
        parity = codec.encode(data)
        bad_data = bytes(b ^ chip_masks[i] for i, b in enumerate(data))
        bad_parity = bytes(
            b ^ chip_masks[codec.data_bytes + i]
            for i, b in enumerate(parity)
        )
        n_faulty = sum(1 for m in chip_masks if m)
        report = codec.decode(bad_data, bad_parity)
        if n_faulty <= 1:
            if report.detected_uncorrectable or report.data != data:
                self._mismatch(
                    "dsd", "SSC-DSD",
                    f"{n_faulty}-chip fault not corrected bit-exactly",
                    detail=(tuple(chip_masks),),
                )
        elif n_faulty == 2:
            if not report.detected_uncorrectable and report.data != data:
                self._mismatch(
                    "dsd", "SSC-DSD",
                    "double-chip fault silently miscorrected",
                    detail=(tuple(chip_masks),),
                )
