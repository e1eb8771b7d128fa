"""Generated micro-kernel workloads (the paper's Figure-14-style sweeps).

The evaluation of a strided-access accelerator lives or dies on
parameterized micro-kernels: stream read/write/copy (unit stride -- the
case SAM should *not* change), strided gather/scatter at parametric
stride x element width x footprint (the case it exists for), and small
PolyBench-style kernels (``mxv`` column sweeps, ``jacobi2d`` stencils,
``doitgen`` tensor contractions) that mix both.  This module is a
generator registry in the MEF style: a kernel name plus an integer
parameter map deterministically expands into

* a set of flat arrays, described as :class:`TableSpec` recipes (an
  array of ``n`` records with pitch ``stride`` bytes is a table whose
  record size is the stride -- the runner places it through the scheme
  exactly like a relational table), and
* an ordered tuple of *access groups*: logical element accesses
  ``(record, offset)`` into one array, tagged read/write, with an
  element size and a ``strided`` flag.

:meth:`KernelWorkload.build` lowers the groups scheme-aware: strided
groups become ``GatherLoad``/``GatherStore`` chunks of the scheme's
gather factor when the design has stride hardware, and plain per-element
``Load``/``Store`` ops otherwise (stride-less schemes cannot lower
strided stores at all -- the memory system rejects them by design).
Groups round-robin across cores, so multi-core interleaving is
deterministic in the group order.

Invariants every generator keeps (the differential oracle relies on
them):

* at most two arrays (the runner's address space holds four regions:
  two tables plus their insert shadows);
* read and write footprints are disjoint, so the expected bytes of every
  read are the functional memory's reference pattern regardless of how
  cores interleave;
* element addresses are ``elem``-aligned and sit at a record-relative
  offset inside the array.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..cpu.isa import encode
from ..cpu.ops import GatherLoad, GatherStore, Load, MemOp, Store
from .base import Workload, WorkloadBuild
from .tables import TableSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..core.scheme import AccessScheme, Placement
    from ..imdb.schema import Table
    from ..sim.config import SystemConfig

#: one access group: (kind, array, ((record, offset), ...), elem, strided)
Group = Tuple[str, str, Tuple[Tuple[int, int], ...], int, bool]

#: records per generated group (the unit of core round-robin; strided
#: groups are re-chunked to the scheme's gather factor at build time)
_GROUP_RECORDS = 32


@dataclass(frozen=True)
class KernelProgram:
    """A fully expanded kernel: its arrays and its access groups."""

    arrays: Tuple[TableSpec, ...]
    groups: Tuple[Group, ...]

    @property
    def reads(self) -> int:
        return sum(len(g[2]) for g in self.groups if g[0] == "read")

    @property
    def writes(self) -> int:
        return sum(len(g[2]) for g in self.groups if g[0] == "write")


@dataclass(frozen=True)
class KernelDef:
    """Registry entry: defaults plus the generator function."""

    name: str
    defaults: Tuple[Tuple[str, int], ...]
    generate: Callable[[Dict[str, int], int], KernelProgram]
    doc: str = ""


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start : start + size]


def _validate_strided(p: Dict[str, int]) -> int:
    """Common stride/elem validation; returns fields per record."""
    stride, elem = p["stride"], p["elem"]
    if elem not in (1, 2, 4, 8):
        raise ValueError(f"element width {elem} not in (1, 2, 4, 8)")
    if stride < elem or stride % elem:
        raise ValueError(
            f"stride {stride} must be a multiple of element width {elem}"
        )
    if p["n"] <= 0:
        raise ValueError("kernel footprint n must be positive")
    return stride // elem


def _array(name: str, n_fields: int, n_records: int, seed: int,
           field_bytes: int = 8) -> TableSpec:
    return TableSpec(name, n_fields, n_records, seed,
                     field_bytes=field_bytes)


def _linear_groups(kind: str, array: str, n: int, elem: int,
                   strided: bool) -> Iterator[Group]:
    """Groups over records 0..n, element at offset 0 of each record."""
    records = list(range(n))
    for chunk in _chunks(records, _GROUP_RECORDS):
        yield (kind, array, tuple((r, 0) for r in chunk), elem, strided)


def _row_group(kind: str, array: str, record: int, n_fields: int,
               elem: int) -> Group:
    """One contiguous row: every field of one record."""
    return (kind, array,
            tuple((record, elem * f) for f in range(n_fields)), elem,
            False)


# --------------------------------------------------------------- generators

def _gen_strided(mode: str):
    def generate(p: Dict[str, int], seed: int) -> KernelProgram:
        n_fields = _validate_strided(p)
        n, elem = p["n"], p["elem"]
        strided = p["stride"] > elem
        arrays = [_array("A", n_fields, n, seed, field_bytes=elem)]
        groups: List[Group] = []
        if mode == "copy":
            arrays.append(
                _array("B", n_fields, n, seed + 1, field_bytes=elem)
            )
            for chunk in _chunks(list(range(n)), _GROUP_RECORDS):
                elems = tuple((r, 0) for r in chunk)
                groups.append(("read", "A", elems, elem, strided))
                groups.append(("write", "B", elems, elem, strided))
        else:
            kind = "read" if mode == "read" else "write"
            groups.extend(_linear_groups(kind, "A", n, elem, strided))
        return KernelProgram(tuple(arrays), tuple(groups))

    return generate


def _gen_stream(mode: str):
    """:func:`_gen_strided` at a stride of one element: unit stride."""
    strided = _gen_strided(mode)
    return lambda p, seed: strided(dict(p, stride=p["elem"]), seed)


def _gen_mxv(p: Dict[str, int], seed: int) -> KernelProgram:
    """y = A.x by column sweep: every column of the row-major matrix is
    a strided gather of ``n`` elements at pitch ``n * 8`` -- the access
    pattern SAM's stride mode was built for."""
    n = p["n"]
    if n <= 0:
        raise ValueError("mxv needs a positive dimension n")
    matrix = _array("A", n, n, seed)
    # x occupies records [0, n), y records [n, 2n) of one vector array
    # (kernels keep to two arrays so the runner's four address-space
    # regions suffice)
    vec = _array("v", 1, 2 * n, seed + 1)
    groups: List[Group] = []
    for j in range(n):
        groups.append(("read", "v", ((j, 0),), 8, False))
        for chunk in _chunks(list(range(n)), _GROUP_RECORDS):
            groups.append(
                ("read", "A", tuple((r, 8 * j) for r in chunk), 8, True)
            )
    for chunk in _chunks(list(range(n, 2 * n)), _GROUP_RECORDS):
        groups.append(("write", "v", tuple((r, 0) for r in chunk), 8,
                       False))
    return KernelProgram((matrix, vec), tuple(groups))


def _gen_jacobi2d(p: Dict[str, int], seed: int) -> KernelProgram:
    """5-point stencil over a row-major grid: the neighbour rows are
    contiguous reads, so the kernel is unit-stride end to end -- SAM's
    stride hardware has nothing to accelerate here."""
    n, iters = p["n"], p["iters"]
    if n < 3 or iters <= 0:
        raise ValueError("jacobi2d needs n >= 3 and iters >= 1")
    a = _array("A", n, n, seed)
    b = _array("B", n, n, seed + 1)
    groups: List[Group] = []
    for _ in range(iters):
        for i in range(1, n - 1):
            for row in (i - 1, i, i + 1):
                groups.append(_row_group("read", "A", row, n, 8))
            groups.append(
                ("write", "B", tuple((i, 8 * j) for j in range(1, n - 1)),
                 8, False)
            )
    return KernelProgram((a, b), tuple(groups))


def _gen_doitgen(p: Dict[str, int], seed: int) -> KernelProgram:
    """PolyBench doitgen's inner product: stream one row of the tensor
    slice, gather one column of the C4 coefficient matrix (pitch
    ``n * 8``) -- a half-streaming, half-strided mix."""
    n = p["n"]
    if n <= 0:
        raise ValueError("doitgen needs a positive dimension n")
    a = _array("A", n, n, seed)
    c4 = _array("C4", n, n, seed + 1)
    groups: List[Group] = []
    for r in range(n):
        groups.append(_row_group("read", "A", r, n, 8))
        for chunk in _chunks(list(range(n)), _GROUP_RECORDS):
            groups.append(
                ("read", "C4", tuple((k, 8 * (r % n)) for k in chunk), 8,
                 True)
            )
    return KernelProgram((a, c4), tuple(groups))


KERNELS: Dict[str, KernelDef] = {
    "stream_read": KernelDef(
        "stream_read", (("n", 4096), ("elem", 8)), _gen_stream("read"),
        "unit-stride read of n elements"),
    "stream_write": KernelDef(
        "stream_write", (("n", 4096), ("elem", 8)), _gen_stream("write"),
        "unit-stride write of n elements"),
    "stream_copy": KernelDef(
        "stream_copy", (("n", 4096), ("elem", 8)), _gen_stream("copy"),
        "unit-stride copy of n elements"),
    "strided_read": KernelDef(
        "strided_read", (("n", 512), ("stride", 512), ("elem", 8)),
        _gen_strided("read"),
        "gather n elements at parametric byte stride"),
    "strided_write": KernelDef(
        "strided_write", (("n", 512), ("stride", 512), ("elem", 8)),
        _gen_strided("write"),
        "scatter n elements at parametric byte stride"),
    "strided_copy": KernelDef(
        "strided_copy", (("n", 512), ("stride", 512), ("elem", 8)),
        _gen_strided("copy"),
        "gather + scatter n elements at parametric byte stride"),
    "mxv": KernelDef(
        "mxv", (("n", 32),), _gen_mxv,
        "matrix-vector product by strided column sweep"),
    "jacobi2d": KernelDef(
        "jacobi2d", (("n", 24), ("iters", 1)), _gen_jacobi2d,
        "5-point stencil (unit stride; SAM-neutral by design)"),
    "doitgen": KernelDef(
        "doitgen", (("n", 24),), _gen_doitgen,
        "tensor contraction: streamed rows x strided coefficient columns"),
}


def available_kernels() -> Tuple[str, ...]:
    return tuple(sorted(KERNELS))


@lru_cache(maxsize=256)
def _expand(kernel: str, params: Tuple[Tuple[str, int], ...],
            seed: int) -> KernelProgram:
    return KERNELS[kernel].generate(dict(params), seed)


#: address-space spacing of the arrays in the result digest's layout
_DIGEST_REGION = 1 << 33


@lru_cache(maxsize=256)
def _result_digest(kernel: str, params: Tuple[Tuple[str, int], ...],
                   seed: int) -> str:
    """Digest over every read element's reference bytes, in program
    order, with each array laid out row-major in a region of its own.

    The layout is the kernel's, not a design's, so every design computes
    the same digest.  Generators keep read and write footprints
    disjoint, so no read sees a store however per-core streams
    interleave, and the stores need no model.
    """
    from ..check.oracle import FunctionalMemory

    program = _expand(kernel, params, seed)
    layout = {
        spec.name: (region * _DIGEST_REGION, spec.schema.record_bytes)
        for region, spec in enumerate(program.arrays)
    }
    memory = FunctionalMemory()
    h = hashlib.blake2b(digest_size=16)
    for kind, array, elems, elem, _strided in program.groups:
        if kind != "read":
            continue
        base, pitch = layout[array]
        for record, offset in elems:
            h.update(memory.read(base + record * pitch + offset, elem))
    return f"kernel:{h.hexdigest()}"


@dataclass(frozen=True)
class KernelWorkload(Workload):
    """One parameterized micro-kernel from the generator registry.

    Identity is ``(kernel, params, seed)``: equal triples expand to the
    same arrays, the same access groups, the same op streams under any
    given scheme, and the same digest.  ``params`` is canonicalized
    (sorted, defaults filled in) at construction, so two spellings of
    the same kernel alias to one cache entry.
    """

    kernel: str
    params: Tuple[Tuple[str, int], ...] = ()
    seed: int = 0

    kind = "kernel"

    def __post_init__(self) -> None:
        definition = KERNELS.get(self.kernel)
        if definition is None:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; have "
                f"{available_kernels()}"
            )
        defaults = dict(definition.defaults)
        resolved = dict(defaults)
        for key, value in dict(self.params).items():
            if key not in defaults:
                raise ValueError(
                    f"kernel {self.kernel!r} knows no parameter {key!r} "
                    f"(have {sorted(defaults)})"
                )
            resolved[key] = int(value)
        object.__setattr__(
            self, "params", tuple(sorted(resolved.items()))
        )
        # expand eagerly so invalid parameter *values* (stride not a
        # multiple of the element width, non-positive footprints, ...)
        # fail at construction, not at first build; the expansion is
        # memoized, so sweeps pay nothing extra
        self.program()

    # ------------------------------------------------------------- identity

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kernel}[{inner}]"

    @property
    def digest(self) -> str:
        payload = {
            "family": "kernel",
            "kernel": self.kernel,
            "params": [list(p) for p in self.params],
            "seed": self.seed,
        }
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "KernelWorkload":
        """Parse ``"strided_read[n=512,stride=256]"`` (or a bare kernel
        name, which takes every default)."""
        spec = spec.strip()
        if "[" not in spec:
            return cls(kernel=spec, seed=seed)
        kernel, _, rest = spec.partition("[")
        body = rest.rstrip()
        if not body.endswith("]"):
            raise ValueError(f"malformed kernel spec {spec!r}")
        body = body[:-1]
        params = []
        for pair in filter(None, (s.strip() for s in body.split(","))):
            key, sep, value = pair.partition("=")
            if not sep or not key or not value:
                raise ValueError(
                    f"malformed kernel parameter {pair!r} in {spec!r}"
                )
            params.append((key.strip(), int(value)))
        return cls(kernel=kernel.strip(), params=tuple(params), seed=seed)

    # ------------------------------------------------------------ expansion

    def program(self) -> KernelProgram:
        return _expand(self.kernel, self.params, self.seed)

    @property
    def table_specs(self) -> Tuple[TableSpec, ...]:
        return self.program().arrays

    def accesses(
        self, placements: "Dict[str, Placement]"
    ) -> Iterator[Tuple[str, int, int]]:
        """Program-order element accesses as ``(kind, addr, size)``.

        This is the generator's own view of the kernel -- independent of
        how :meth:`build` chunks, partitions or encodes the ops -- and is
        what the kernel oracle diffs the lowered streams against.
        """
        for kind, array, elems, elem, _strided in self.program().groups:
            placement = placements[array]
            for record, offset in elems:
                yield kind, placement.addr_of(record, offset), elem

    def expected_result(self) -> str:
        """The expected-bytes model: a digest over every read element's
        reference bytes, the same on every design (computed once per
        kernel; see :func:`_result_digest`)."""
        return _result_digest(self.kernel, self.params, self.seed)

    # ------------------------------------------------------------- lowering

    def build(
        self,
        scheme: "AccessScheme",
        config: "SystemConfig",
        tables: "Dict[str, Table]",
        placements: "Dict[str, Placement]",
        cost: Optional[object] = None,
    ) -> WorkloadBuild:
        program = self.program()
        ops_per_core: List[List[MemOp]] = [
            [] for _ in range(config.cores)
        ]
        g = scheme.gather_factor
        for index, (kind, array, elems, elem, strided) in enumerate(
            program.groups
        ):
            placement = placements[array]
            addrs = [placement.addr_of(r, off) for r, off in elems]
            ops: List[MemOp] = []
            if strided and scheme.supports_stride:
                op_cls = GatherLoad if kind == "read" else GatherStore
                for chunk in _chunks(addrs, g):
                    ops.append(op_cls(chunk))
            else:
                # stride-less designs take per-element demand accesses
                # (the memory system refuses to lower strided stores for
                # them, by design)
                op_cls = Load if kind == "read" else Store
                ops.extend(op_cls(addr, elem) for addr in addrs)
            ops_per_core[index % config.cores].extend(ops)
        return WorkloadBuild(
            ops_per_core=ops_per_core,
            result=self.expected_result(),
            selected_records=program.reads,
        )

    def check_build(self, validator, build: WorkloadBuild,
                    placements: "Dict[str, Placement]") -> None:
        """Route the ``--check`` pass to the kernel oracle."""
        from ..check.oracle import KernelOracle

        KernelOracle(
            registry=getattr(validator, "registry", None),
            strict=getattr(validator, "strict", True),
        ).check_build(self, validator.scheme, build, placements)


def encode_stream(ops: "List[MemOp]") -> List[int]:
    """Encode a core's gather ops as 64-bit sload/sstore words.

    The register field carries the gather-group size (how many elements
    the stride burst covers); the address field carries the group's
    leading element.  Plain loads/stores have no stride-ISA form and are
    skipped.  Round-tripping through :func:`repro.cpu.isa.decode` is the
    decode path a real frontend would exercise.
    """
    words = []
    for op in ops:
        if isinstance(op, GatherLoad):
            words.append(
                encode("sload", len(op.element_addrs),
                       op.element_addrs[0])
            )
        elif isinstance(op, GatherStore):
            words.append(
                encode("sstore", len(op.element_addrs),
                       op.element_addrs[0])
            )
    return words
