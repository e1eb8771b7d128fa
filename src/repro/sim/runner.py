"""End-to-end runner: scheme + workload -> RunResult.

This is the reproduction's equivalent of the paper's gem5+NVMain stack:
it allocates the workload's tables through the scheme's placement,
lowers the workload into per-core op streams (the planner and lowering
for queries, the generator registry for micro-kernels), runs the cores
against the cycle-level memory system, flushes dirty state, and reports
time, command counts and energy.

:func:`run_workload` is the single core path; :func:`run_query` is a
thin wrapper that constructs a :class:`~repro.workloads.QueryWorkload`
-- its parameter list cannot drift from the core's because it *is* the
core's.

Every run is observed, and the runner wires each observer onto the run
it builds.  It stamps the phase spans itself (``result.spans``).  A
:class:`repro.obs.Observation` (created on demand when the caller does
not pass one) rides the memory controller as a probe: it publishes all
statistics into a metrics registry, the source of the run manifest,
``query --stats`` and perfbench's counters, and keeps a ring of recently
issued DRAM commands for stall forensics.
Each core keeps its own stall log, and with ``check`` a plan validator
rides the memory system.  With an artifacts directory the run writes a
JSON manifest plus a JSONL command trace.  A wedged simulation raises
:class:`repro.obs.SimulationStallError` carrying per-bank state, queue
occupancies and the last commands instead of a bare string; a livelocked
one does so once it exhausts an event budget scaled to its op count.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from ..core.registry import make_scheme
from ..core.scheme import AccessScheme, Placement, TablePlacement
from ..cpu.core import Core
from ..kernel import Kernel, SimulationError
from ..obs import (
    Observation,
    SimulationStallError,
    Span,
    build_stall_report,
    merge_breakdown,
)
from ..obs.artifacts import ArtifactWriter
from ..power.model import PowerModel

# typing-only imports of the imdb/workloads layers (they import
# sim.config, so pulling them at module load would be circular; the
# wrappers import lazily instead)
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..imdb.plan import CostModel
    from ..imdb.query import Query
    from ..imdb.schema import Table
    from ..workloads import Workload
from .config import SystemConfig
from .results import RunResult
from .system import MemorySystem

#: Address-space spacing between allocated regions (tables never overlap).
#: The module holds 32 GiB (2^35 bytes); four 8 GiB regions tile it exactly.
_REGION_STRIDE = 1 << 33

#: Safety valve for runaway simulations: a run may execute this many
#: kernel events per op of its build, plus a floor for tiny builds, in
#: each of its execute and drain phases.  Healthy runs take at most 22
#: events per op (about 100 with one-entry queues and 16 cores retrying
#: every cycle), so a livelocked one fails within seconds.
_EVENTS_PER_OP = 2_000
_MIN_EVENTS = 100_000

#: Fraction of the event budget beyond which a run counts as near-runaway.
_EVENT_WARN_FRACTION = 0.5


def allocate_placements(
    scheme: AccessScheme, tables: Dict[str, Table]
) -> Dict[str, Placement]:
    """Place every table (and an insert shadow region per table)."""
    placements: Dict[str, Placement] = {}
    capacity = scheme.geometry.capacity_bytes
    if 2 * len(tables) * _REGION_STRIDE > capacity:
        raise ValueError("too many tables for the module's address space")
    region = 0
    for name in sorted(tables):
        table = tables[name]
        base = region * _REGION_STRIDE
        placements[name] = scheme.placement(
            TablePlacement(base, table.schema.record_bytes, table.n_records)
        )
        region += 1
        insert_base = region * _REGION_STRIDE
        placements[f"{name}+insert"] = scheme.placement(
            TablePlacement(
                insert_base, table.schema.record_bytes, table.n_records
            )
        )
        region += 1
    return placements


@contextmanager
def _phase(name: str, kernel: Kernel, parent: Optional[Span] = None,
           **meta: object) -> Iterator[Span]:
    """A span around the block, stamped with both clocks: the kernel's
    simulated cycle and host wall time."""
    span = Span(name, start_cycle=kernel.now,
                wall_start=time.perf_counter(), meta=meta)
    if parent is not None:
        parent.children.append(span)
    try:
        yield span
    finally:
        span.end_cycle = kernel.now
        span.wall_end = time.perf_counter()


def _attach_observers(system: MemorySystem, obs: Observation) -> None:
    """Attach the observation (and its timeline) as controller probes."""
    controller = system.controller
    controller.attach(obs)
    controller.metrics = obs.registry
    if obs.timeline:
        from ..obs.timeline import TimelineRecorder

        obs.timeline_recorder = controller.attach(TimelineRecorder(controller))


def _stall(
    reason: str,
    kernel: Kernel,
    system: MemorySystem,
    cores: List[Core],
    scheme: AccessScheme,
    workload_name: str,
    obs: Observation,
) -> SimulationStallError:
    return SimulationStallError(build_stall_report(
        reason,
        kernel,
        system,
        cores=cores,
        scheme=scheme.name,
        query=workload_name,
        recent_events=obs.recent_events(),
    ))


def _add_activity_spans(
    execute_span: Span, cores: List[Core], system: MemorySystem
) -> None:
    """Reconstruct per-core and per-bank activity windows as cycles-only
    spans under ``execute``."""
    windows = execute_span.children
    for core in cores:
        windows.append(Span(
            f"core{core.core_id}",
            start_cycle=core.start_cycle,
            end_cycle=core.finish_cycle
            if core.finish_cycle is not None else core.start_cycle,
            meta={"loads": core.loads, "stores": core.stores,
                  "gathers": core.gathers, "misses": core.misses},
        ))
    for rank_id, rank in enumerate(system.controller.channel.ranks):
        for bank_id, bank in enumerate(rank.banks):
            if bank.first_act_cycle < 0:
                continue
            windows.append(Span(
                f"rank{rank_id}/bank{bank_id}",
                start_cycle=bank.first_act_cycle,
                end_cycle=bank.last_act_cycle,
                meta={"activations": bank.activations,
                      "row_hits": bank.row_hits,
                      "row_conflicts": bank.row_conflicts},
            ))


def _publish_metrics(
    obs: Observation,
    system: MemorySystem,
    cores: List[Core],
    cycles: int,
    events: int,
    max_events: int,
    scheme: AccessScheme,
    occupancy: Dict[str, Dict[str, int]],
    kernel: Optional[Kernel] = None,
) -> None:
    """Publish every collected statistic into the metrics registry;
    ``occupancy`` is the cache residency snapshot taken before the
    end-of-run flush empties every level."""
    reg = obs.registry
    reg.publish_struct("dram", system.controller.stats)
    reg.gauge("dram.avg_read_latency").set(
        system.controller.stats.avg_read_latency
    )
    reg.publish_struct("sys", system.stats)
    for name in ("loads", "stores", "gathers", "hits", "misses",
                 "retries"):
        reg.counter(f"core.{name}").inc(
            sum(getattr(c, name) for c in cores)
        )
    for level, occ in occupancy.items():
        for key, value in occ.items():
            reg.gauge(f"cache.{level}.{key}").set(value)
    reg.gauge("sim.cycles").set(cycles)
    reg.gauge("sim.ns").set(scheme.timing.ns(cycles))
    # Event count against the safety valve: near-runaway runs become
    # visible long before they exhaust the budget.
    reg.gauge("sim.events").set(events)
    reg.gauge("sim.max_events").set(max_events)
    # Event-wheel efficiency gauges: executed kernel events per simulated
    # cycle (the wake-up efficiency), FR-FCFS scans resumed from the wait
    # memo, and writeback polls fired.
    reg.set_ratio("sim.events_per_cycle", events, cycles)
    if kernel is not None:
        reg.gauge("kernel.events").set(kernel.events)
    reg.gauge("dram.peek_hits").set(system.controller.scheduler.peek_hits)
    reg.gauge("sys.wb_polls").set(system.wb_polls)
    frac = events / max_events if max_events else 0.0
    reg.gauge("sim.event_budget_used").set(frac)
    if frac > _EVENT_WARN_FRACTION:
        reg.counter("sim.events_near_limit").inc()
        warnings.warn(
            f"simulation used {frac:.0%} of its event budget "
            f"({events}/{max_events}); raise max_events or shrink the "
            f"workload ({scheme.name})",
            RuntimeWarning,
            stacklevel=3,
        )


def _attribute_stalls(obs: Observation, cores: List[Core]) -> Dict:
    """Run the stall attributor and publish the breakdown as metrics."""
    per_core = obs.stalls.attribute(cores)
    merged = merge_breakdown(per_core)
    for reason, cyc in sorted(merged.items()):
        obs.registry.gauge(f"stalls.{reason}").set(cyc)
    return {"per_core": per_core, "merged": merged}


def _finish_timeline(obs: Observation, cycles: int,
                     cores: List[Core]) -> None:
    """Close the timeline, add the core lanes, publish its digest."""
    timeline = obs.timeline_recorder
    if timeline is None:
        return
    timeline.finalize(cycles)
    for core in cores:
        log = core.stall_log
        for start, end in log.busy:
            timeline.add_core_span(core.core_id, start, end, "busy")
        for start, end, reason in log.blocks:
            timeline.add_core_span(core.core_id, start, end,
                                   f"stall:{reason}")
    for key, value in timeline.digest().items():
        obs.registry.gauge(f"timeline.{key}").set(value)


def _bus_utilization(obs: Observation, busy: int, cycles: int,
                     scheme: AccessScheme, workload_name: str) -> float:
    """Busy fraction of the data bus, *without* clamping: a value above
    1.0 is a bookkeeping bug, so it is surfaced as a warning metric
    rather than silently hidden by ``min(1.0, ...)``."""
    if not cycles:
        return 0.0
    utilization = busy / cycles
    if utilization > 1.0:
        obs.registry.counter("sim.bus_utilization_overflow").inc()
        obs.registry.gauge("sim.bus_utilization_raw").set(utilization)
        warnings.warn(
            f"data-bus utilization {utilization:.3f} > 1.0 "
            f"({scheme.name}/{workload_name}): busy-cycle bookkeeping bug",
            RuntimeWarning,
            stacklevel=3,
        )
    obs.registry.gauge("sim.bus_utilization").set(utilization)
    return utilization


def run_workload(
    workload: "Workload",
    scheme: "AccessScheme | str",
    tables: "Optional[Dict[str, Table]]" = None,
    config: Optional[SystemConfig] = None,
    cost: "Optional[CostModel]" = None,
    gather_factor: Optional[int] = None,
    timing: Optional[str] = None,
    observe: Optional[Observation] = None,
    max_events: Optional[int] = None,
    check: bool = False,
) -> RunResult:
    """Simulate one workload on one design and return the measurements.

    ``workload`` is any :class:`repro.workloads.Workload` -- a relational
    query or a generated micro-kernel; ``tables`` optionally supplies
    pre-materialized tables (the workload's own
    :meth:`~repro.workloads.Workload.materialize` runs otherwise).

    ``check`` attaches the :mod:`repro.check` correctness tooling: a
    strict :class:`~repro.check.TimingProtocolChecker` on the memory
    controller and a :class:`~repro.check.PlanValidator` on the memory
    system's plan hook, plus the workload's own build oracle (the plan
    footprint diff for queries, the :class:`~repro.check.KernelOracle`
    access/expected-bytes diff for kernels).  Any protocol violation or
    oracle mismatch aborts the run with a structured exception;
    ``check.*`` counters land in the run's metrics.

    A ``scheme`` name builds a fresh design for this run, which is what
    every harness, CLI path and perfbench point passes.  A caller-owned
    :class:`~repro.core.scheme.AccessScheme` instance is used as-is, so
    the run state a design keeps (GS-DRAM-ecc's read and write counters)
    carries from one run into the next, checked or not.

    ``observe`` threads a caller-owned :class:`repro.obs.Observation`
    through the run (enable tracing, choose an artifacts directory); it
    records one run, so one handed to a second run raises ``ValueError``
    before anything is simulated.  Without one, default-on metrics,
    spans and the stall ring are still recorded.  ``max_events``
    overrides the runaway-simulation safety valve, an event budget
    scaled to the build's op count.
    ``timing`` forces a base-timing preset by name (substrate swap) via
    :meth:`~repro.core.scheme.AccessScheme.with_timing`; together with a
    string ``scheme`` this keeps the whole entry point picklable, which
    is what lets :mod:`repro.exp` run sweep points in worker processes.
    """
    obs = observe if observe is not None else Observation()
    obs.claim()
    if isinstance(scheme, str):
        scheme = make_scheme(scheme, gather_factor=gather_factor)
    if timing is not None:
        scheme = scheme.with_timing(timing)
    config = config or SystemConfig()
    if tables is None:
        tables = workload.materialize()
    validator = None
    if check:
        from ..check import PlanValidator, TimingProtocolChecker

        validator = PlanValidator(scheme, registry=obs.registry, strict=True)

    kernel = Kernel()
    events = 0
    span_name = "run_query" if workload.kind == "query" else "run_kernel"
    with _phase(span_name, kernel, scheme=scheme.name,
                query=workload.name) as root:
        with _phase("allocate", kernel, root):
            system = MemorySystem(kernel, scheme, config)
            if validator is not None:
                system.plan_observer = validator.on_plan
                TimingProtocolChecker(
                    scheme.timing, scheme.geometry,
                    registry=obs.registry, strict=True,
                    salp=scheme.salp_mode,
                ).attach(system.controller)
            placements = allocate_placements(scheme, tables)
        with _phase("build", kernel, root):
            build = workload.build(scheme, config, tables, placements,
                                   cost=cost)
            if validator is not None:
                # static check before any cycle is simulated: the plan
                # footprint diff for queries, the generator access /
                # expected-bytes oracle for kernels
                workload.check_build(validator, build, placements)
            limit = (max_events if max_events is not None
                     else _MIN_EVENTS + _EVENTS_PER_OP * build.total_ops)
            cores = [
                Core(kernel, core_id, system, config.core)
                for core_id in range(config.cores)
            ]
            for core, ops in zip(cores, build.ops_per_core):
                core.run(ops)
        _attach_observers(system, obs)
        with _phase("execute", kernel, root) as execute_span:
            try:
                events += kernel.run(max_events=limit)
            except SimulationStallError:
                raise
            except SimulationError as exc:
                raise _stall(f"event budget exhausted: {exc}", kernel,
                             system, cores, scheme, workload.name,
                             obs) from exc
            unfinished = [c.core_id for c in cores if not c.finished]
            if unfinished:
                raise _stall(
                    f"cores {unfinished} stalled (no events left to make "
                    f"progress)", kernel, system, cores, scheme,
                    workload.name, obs
                )
            occupancy = system.hierarchy.occupancy()
        # Account the writeback tail: flush dirty lines, drain the queues.
        with _phase("flush_drain", kernel, root):
            system.flush_caches()
            try:
                events += kernel.run(max_events=limit)
            except SimulationStallError:
                raise
            except SimulationError as exc:
                raise _stall(f"event budget exhausted during drain: {exc}",
                             kernel, system, cores, scheme, workload.name,
                             obs) from exc
            if not system.fully_drained:
                raise _stall("memory system failed to drain", kernel,
                             system, cores, scheme, workload.name, obs)
        _add_activity_spans(execute_span, cores, system)

    cycles = kernel.now
    _publish_metrics(obs, system, cores, cycles, events, limit, scheme,
                     occupancy, kernel=kernel)
    stalls = _attribute_stalls(obs, cores)
    _finish_timeline(obs, cycles, cores)
    power = PowerModel(
        scheme.power_config, scheme.timing, scheme.geometry
    ).evaluate(system.controller.stats, cycles)
    obs.registry.gauge("power.background_nj").set(power.background_nj)
    obs.registry.gauge("power.act_nj").set(power.act_nj)
    obs.registry.gauge("power.rdwr_nj").set(power.rdwr_nj)
    obs.registry.gauge("power.total_nj").set(power.total_nj)
    obs.registry.gauge("power.total_mw").set(power.total_mw)
    core_stats = {
        "loads": sum(c.loads for c in cores),
        "stores": sum(c.stores for c in cores),
        "gathers": sum(c.gathers for c in cores),
        "hits": sum(c.hits for c in cores),
        "misses": sum(c.misses for c in cores),
    }
    busy = system.controller.channel.data_busy_cycles
    result = RunResult(
        scheme=scheme.name,
        query=workload.name,
        cycles=cycles,
        ns=scheme.timing.ns(cycles),
        memory_stats=system.controller.stats,
        power=power,
        result=build.result,
        selected_records=build.selected_records,
        core_stats=core_stats,
        bus_utilization=_bus_utilization(obs, busy, cycles, scheme,
                                         workload.name),
        metrics=obs.registry.as_dict(),
        spans=root,
        stalls=stalls,
        config=config,
        plan=build.plan,
    )
    if obs.artifacts_dir is not None:
        writer = ArtifactWriter(obs.artifacts_dir)
        obs.manifest_path = writer.write_run(
            result, timeline=obs.timeline_recorder
        )
    return result


def run_query(
    scheme: "AccessScheme | str",
    query: "Query",
    tables: "Dict[str, Table]",
    config: Optional[SystemConfig] = None,
    cost: "Optional[CostModel]" = None,
    gather_factor: Optional[int] = None,
    timing: Optional[str] = None,
    observe: Optional[Observation] = None,
    max_events: Optional[int] = None,
    check: bool = False,
) -> RunResult:
    """Simulate one query on one design (thin :func:`run_workload`
    wrapper around a :class:`~repro.workloads.QueryWorkload`).

    The caller's ``tables`` dict is used as-is -- updates and inserts
    mutate it, exactly as before the workload IR existed.
    """
    from ..workloads import QueryWorkload

    return run_workload(
        QueryWorkload(query=query),
        scheme,
        tables=tables,
        config=config,
        cost=cost,
        gather_factor=gather_factor,
        timing=timing,
        observe=observe,
        max_events=max_events,
        check=check,
    )
