"""Per-layer host-time ledger and layer micro-benchmarks.

The simulator's layers are its modules, grouped in :data:`LAYERS`.  A
cProfile of the measured rounds is bucketed into them by source file.
Time spent outside the package -- builtins, numpy, heapq, the methods
dataclasses generate -- is charged to the package functions that called
it, split by cProfile's per-caller timings, so every profiled second
lands in exactly one layer.  cProfile's own per-call cost lands mostly
on the calling function, so layers that make many calls read somewhat
high; compare a layer with itself across commits.  (A stack-sampling
thread is no better in CPython: the interpreter hands it the lock only
at calls and loop back-edges, so it credits a long call-free stretch of
code to whatever function that code calls next.)

The micro-benchmarks time layers the simulation rounds do not reach: the
chipkill codec, the datapath's bit-matrix line packers, the query
planner on its own, and warm hits in the sweep engine's result cache.
Each one also checks its layer's output.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import hostspeed

#: layer -> source paths under ``src/repro`` (a trailing ``/`` is a whole
#: package).  The first match wins; the rest of the package -- the
#: runner, the power model, result assembly -- is :data:`OTHER`.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("kernel", ("kernel.py",)),  # event-queue dispatch
    ("controller", ("dram/controller.py",)),  # FR-FCFS scheduling
    ("bank", ("dram/",)),  # bank, rank and channel state and issue
    ("cores", ("cpu/",)),
    ("cache", ("cache/",)),
    # request lowering, MSHRs, writebacks and the schemes' gather plans
    ("system", ("sim/system.py", "core/", "vm/")),
    ("obs", ("obs/", "sim/trace.py")),  # metrics, spans, stall ledger
    # query planning and op lowering; a kernel computes its expected
    # result through the check package's functional memory
    ("planner", ("imdb/", "workloads/", "check/oracle.py")),
)
OTHER = "runner"
LAYER_NAMES = tuple(name for name, _ in LAYERS) + (OTHER,)

_PACKAGE = "/src/repro/"

#: micro-benchmark batch sizes: a few milliseconds of work per timing
CODEWORDS = 4096
LINES = 512
#: timings per micro-benchmark; each metric is their median
REPEATS = 7
#: designs the planner benchmark plans every seeded statement for
PLANNER_DESIGNS = ("baseline", "column-store", "SAM-sub", "SAM-IO",
                   "SAM-en", "GS-DRAM", "RC-NVM-wd")


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None outside the package."""
    path = filename.replace("\\", "/")
    at = path.rfind(_PACKAGE)
    if at < 0:
        return None
    module = path[at + len(_PACKAGE):]
    for name, prefixes in LAYERS:
        if module.startswith(prefixes):
            return name
    return OTHER


def bucket(stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self seconds and package-function calls per layer, from a
    :class:`pstats.Stats`."""
    entries = stats.stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def split(func) -> Dict[str, float]:
        """The layers ``func``'s own time belongs to, as fractions."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {OTHER: 1.0}  # stands in while a call cycle resolves
        # a caller edge is (calls, primitive calls, self s, cumulative s)
        callers = entries[func][4] if func in entries else {}
        weights = {c: edge[2] for c, edge in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: edge[0] for c, edge in callers.items()}
        total = sum(weights.values())
        if total > 0:
            shares: Dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                for layer, frac in split(caller).items():
                    shares[layer] += frac * weight / total
            memo[func] = dict(shares)
        return memo[func]

    seconds = dict.fromkeys(LAYER_NAMES, 0.0)
    calls = dict.fromkeys(LAYER_NAMES, 0)
    for func, (_cc, ncalls, self_s, _cum_s, _callers) in entries.items():
        for layer, frac in split(func).items():
            seconds[layer] += self_s * frac
        layer = layer_of(func[0])
        if layer is not None:
            calls[layer] += ncalls
    return seconds, calls


def _median_time(work: Callable[[], object]) -> Tuple[float, object]:
    """Median seconds over ``REPEATS`` calls, each at the reference host's
    speed, and the last call's output."""
    samples = []
    out = None
    for _ in range(REPEATS):
        speed = hostspeed.speed()
        start = time.perf_counter()
        out = work()
        samples.append((time.perf_counter() - start) * speed)
    return statistics.median(samples), out


def micro_benchmarks(seed: int, workdir: Path,
                     faults: List[str]) -> Dict[str, Tuple[float, str]]:
    """Throughput of the layers the rounds do not reach, each checked for
    correct output (a wrong output is appended to ``faults``)."""
    from repro.dram.iobuffer import pack_line_default, unpack_line_default
    from repro.ecc.chipkill import SSCCodec
    from repro.exp import ExperimentSpec, ResultCache, SweepEngine, SweepPoint
    from repro.imdb.planner import plan_for
    from repro.imdb.sql import parse
    from repro.workloads import KernelWorkload, make_tables

    from points import TA_RECORDS, TB_RECORDS, sql_scans

    rng = np.random.default_rng(seed)
    out: Dict[str, Tuple[float, str]] = {}

    # chipkill: batched RS(18,16) encode and syndrome check
    codec = SSCCodec()
    words = [row.tobytes() for row in rng.integers(
        0, 256, (CODEWORDS, codec.data_bytes), dtype=np.uint8)]
    t, parity = _median_time(lambda: codec.encode_many(words))
    out["codec_encode_per_s"] = (CODEWORDS / t, "words/s")
    t, clean = _median_time(lambda: codec.check_many(words, parity))
    out["codec_check_per_s"] = (CODEWORDS / t, "words/s")
    if not all(clean) or parity[0] != codec.encode(words[0]):
        faults.append("chipkill: batch encode/check disagrees with the "
                      "scalar codec")
    corrupt = bytes([words[0][0] ^ 0x5A]) + words[0][1:]
    if codec.check(corrupt, parity[0]):
        faults.append("chipkill: a corrupted codeword passed its check")

    # datapath: table-driven line pack/unpack (the Figure 4 default layout)
    lines = [row.tobytes() for row in rng.integers(
        0, 256, (LINES, 64), dtype=np.uint8)]
    t, blocks = _median_time(lambda: [pack_line_default(x) for x in lines])
    out["bitmatrix_pack_per_s"] = (LINES / t, "lines/s")
    t, back = _median_time(lambda: [unpack_line_default(b) for b in blocks])
    out["bitmatrix_unpack_per_s"] = (LINES / t, "lines/s")
    if back != lines:
        faults.append("bitmatrix: unpacking a packed line changed it")
    for bit in rng.choice(512, size=8, replace=False).tolist():
        # line bit 64k + 4i + l travels on chip i, lane l, beat k
        chip, lane, beat = (bit % 64) // 4, bit % 4, bit // 64
        want = [0] * 16
        want[chip] = 1 << (8 * lane + beat)
        if pack_line_default((1 << bit).to_bytes(64, "little")) != want:
            faults.append(f"bitmatrix: line bit {bit} missed chip {chip} "
                          f"lane {lane} beat {beat}")

    # planner: cost-based plans of the seeded statements on every design
    tables = make_tables(TA_RECORDS, TB_RECORDS, seed=seed)
    queries = [parse(s.sql, name=name) for name, s in sql_scans(seed).items()]
    jobs = [(d, q) for d in PLANNER_DESIGNS for q in queries]
    t, plans = _median_time(lambda: [plan_for(d, q, tables) for d, q in jobs])
    out["planner_plans_per_s"] = (len(jobs) / t, "plans/s")
    if any(p.est_bursts <= 0 for p in plans):
        faults.append("planner: a plan estimates no memory bursts")

    # sweep engine: warm result-cache hits (digest + load, no simulation)
    spec = ExperimentSpec("perfbench-cache", tuple(
        SweepPoint(key=(design, str(i)), kind="kernel", scheme=design,
                   workload=KernelWorkload.from_spec(
                       "strided_read[n=64,stride=256]", seed=seed + i))
        for i in range(4) for design in ("baseline", "SAM-en")
    ))
    with tempfile.TemporaryDirectory(dir=workdir, prefix=".perfbench-") as tmp:
        engine = SweepEngine(cache=ResultCache(tmp))
        cold = engine.run(spec)
        t, warm = _median_time(lambda: engine.run(spec))
    out["sweep_hit_ms"] = (1e3 * t / len(spec), "ms")
    if warm.executed or any(
            warm[k].cycles != cold[k].cycles for k in spec.keys()):
        faults.append("sweep cache: a warm rerun simulated again or "
                      "changed cycles")
    return out
