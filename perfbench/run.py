#!/usr/bin/env python3
"""Repository benchmark: how fast the simulator simulates.

Run from the repository root::

    python3 perfbench/run.py --workload sql --seed 1 --seconds 10 --trace 0

``--workload`` names a point set of ``points.py`` (``sql``, ``strided``
or ``salp``) and ``--seed`` generates its inputs.  The benchmark
simulates every point once to warm up, then simulates the whole set
again and again -- one *round* per pass -- for ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics: simulated memory cycles and
memory operations per host CPU second (each point timed by its median
round), the peak resident memory of the process, and the set-up time,
the median CPU time of fresh interpreters that import the simulator,
build the inputs and run the warm-up round.  Every CPU time is taken at
the reference host's speed: ``hostspeed.py`` probes the host right
before each simulation and each set-up, and the time is scaled by how
much faster or slower than on the reference host the probe ran.
``--trace 1`` measures the rounds under cProfile and prints the
per-layer host-time ledger, the run phases, the simulated work per
round, the host's speed and the layer micro-benchmarks of ``ledger.py``.

Both modes check the simulator's outputs: every SQL answer against
numpy, every rerun of a point against its first run (cycles, events,
command counts), exact stall accounting, the paper's speed-up claims,
and a last pass with the DRAM timing-protocol checker and the workload
oracles attached.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; faults go
to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: fresh interpreters timed for ``setup_s`` (the metric is their median)
SETUP_PROBES = 5
#: one set-up probe's time limit, so a run stays within its own
SETUP_TIMEOUT_S = 40
#: fewest measured rounds, however short ``--seconds`` is
MIN_ROUNDS = 3
#: untraced rounds a traced run times, to scale the profile to real time
PLAIN_ROUNDS = 3
#: the simulator's run-phase spans, and the names they are reported by
PHASES = {"allocate": "allocate", "build": "build", "execute": "execute",
          "flush_drain": "drain"}


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


@dataclasses.dataclass
class Round:
    """Totals of one pass over a suite's points."""

    cycles: int = 0
    ops: int = 0
    events: int = 0
    commands: int = 0
    #: FR-FCFS decisions replayed from the scheduler's next-cycle memo
    peek_hits: int = 0
    #: host CPU seconds per point at the reference host's speed, and the
    #: host's speed probed right before the point
    times: Dict[object, float] = dataclasses.field(default_factory=dict)
    speeds: Dict[object, float] = dataclasses.field(default_factory=dict)
    #: host wall seconds per run phase at the reference host's speed, from
    #: the simulator's span tree; ``other`` is the time outside the phase
    #: spans (scheme set-up, metrics, stall attribution, energy)
    phases: Dict[str, float] = dataclasses.field(
        default_factory=lambda: dict.fromkeys(
            [*PHASES.values(), "other"], 0.0))


class Tally:
    """Attempted and failed simulations and every fault found.  A point's
    first run is the reference its later runs must reproduce exactly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.faults: List[str] = []
        self.reference: Dict[object, tuple] = {}

    def simulate(self, suite, point, check=False, profiler=None):
        """Run one point; returns (result or None, host CPU seconds, host
        wall seconds)."""
        self.attempted += 1
        start, start_wall = time.process_time(), time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = suite.run(point, check=check)
        except Exception as exc:  # a failed point is counted; the run goes on
            self.failed += 1
            self.faults.append(f"{point.label}: {type(exc).__name__}: {exc}")
            return None, 0.0, 0.0
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.process_time() - start
        wall = time.perf_counter() - start_wall
        outputs = (result.cycles, result.metrics.get("sim.events"),
                   dataclasses.astuple(result.memory_stats))
        first = self.reference.setdefault(point, outputs)
        problems = suite.problems(point, result)
        if outputs != first:
            problems.append(f"reran to cycles/events {outputs[:2]}, "
                            f"first run {first[:2]}")
        if problems:
            self.failed += 1
            self.faults.extend(f"{point.label}: {p}" for p in problems)
        return result, elapsed, wall


def _commands(stats) -> int:
    """DRAM commands issued (gather reads and writes are already counted
    among reads and writes)."""
    return (stats.acts + stats.col_acts + stats.reads + stats.writes
            + stats.precharges + stats.refreshes + stats.mode_switches
            + stats.sa_sels)


def run_round(suite, tally, profiler=None) -> Round:
    """Simulate every point of ``suite`` once."""
    # every round starts from a collected heap, outside the timed calls
    gc.collect()
    total = Round()
    for point in suite.points:
        speed = hostspeed.speed()
        result, elapsed, wall = tally.simulate(suite, point,
                                               profiler=profiler)
        if result is None:
            continue
        total.cycles += result.cycles
        total.ops += sum(result.core_stats[k]
                         for k in ("loads", "stores", "gathers"))
        total.events += int(result.metrics.get("sim.events", 0))
        total.commands += _commands(result.memory_stats)
        total.peek_hits += int(result.metrics.get("dram.peek_hits", 0))
        total.times[point] = elapsed * speed
        total.speeds[point] = speed
        inside = 0.0
        for span in result.spans.children:
            if span.name in PHASES:
                total.phases[PHASES[span.name]] += span.wall_s * speed
                inside += span.wall_s
        total.phases["other"] += (wall - inside) * speed
    return total


def measure(suite, tally, seconds, profiler=None) -> List[Round]:
    """Rounds until ``seconds`` of host time have passed (and at least
    ``MIN_ROUNDS``)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(run_round(suite, tally, profiler))
    return rounds


def point_seconds(rounds: List[Round]) -> float:
    """Host CPU seconds of one round, each point timed by its median
    round."""
    times: Dict[object, List[float]] = {}
    for r in rounds:
        for point, t in r.times.items():
            times.setdefault(point, []).append(t)
    return max(sum(statistics.median(ts) for ts in times.values()), 1e-9)


def _median_speed(rounds: List[Round]) -> float:
    return statistics.median(s for r in rounds for s in r.speeds.values())


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setup(args, tally) -> float:
    """Median host CPU seconds, at the reference host's speed, a fresh
    interpreter takes to import the simulator, build this workload's
    inputs and run its warm-up round."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    for _ in range(SETUP_PROBES):
        speed = hostspeed.speed(5)
        start = _children_cpu_s()
        try:
            child = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            tally.faults.append(f"set-up probe ran past {SETUP_TIMEOUT_S} s")
            break
        samples.append((_children_cpu_s() - start) * speed)
        if child.returncode:
            tally.faults.append(
                f"set-up probe exited {child.returncode}: "
                f"{child.stderr.strip()[-300:]}")
    return statistics.median(samples) if samples else float(SETUP_TIMEOUT_S)


def end_to_end(suite, tally, args) -> Dict[str, dict]:
    rounds = measure(suite, tally, args.seconds)
    # ru_maxrss is in KiB on Linux
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    seconds = point_seconds(rounds)
    print(f"perfbench: {len(rounds)} rounds of {len(suite.points)} points, "
          f"host at {_median_speed(rounds):.2f}x the reference speed",
          file=sys.stderr)
    return {
        "cycles_per_s": _metric(rounds[0].cycles / seconds, "cycles/s"),
        "mem_ops_per_s": _metric(rounds[0].ops / seconds, "ops/s"),
        "peak_rss_mib": _metric(peak_mib, "MiB"),
        "setup_s": _metric(time_setup(args, tally), "s"),
    }


def per_layer(suite, tally, args) -> Dict[str, dict]:
    import ledger

    plain = [run_round(suite, tally) for _ in range(PLAIN_ROUNDS)]
    profiler = cProfile.Profile()
    traced = measure(suite, tally, args.seconds, profiler)
    seconds, calls = ledger.bucket(pstats.Stats(profiler))
    profiled = sum(seconds.values()) or 1.0
    round_s = point_seconds(plain)
    metrics = {}
    for layer in ledger.LAYER_NAMES:
        share = seconds[layer] / profiled
        metrics[f"{layer}_ms"] = _metric(1e3 * share * round_s, "ms")
        metrics[f"{layer}_share"] = _metric(100 * share, "%")
        metrics[f"{layer}_calls"] = _metric(
            round(calls[layer] / len(traced)), "count")
    for phase in plain[0].phases:
        metrics[f"phase_{phase}_ms"] = _metric(
            1e3 * statistics.median(r.phases[phase] for r in plain), "ms")
    work = plain[0]
    metrics.update({
        "sim_cycles": _metric(work.cycles, "cycles"),
        "sim_events": _metric(work.events, "count"),
        "dram_commands": _metric(work.commands, "count"),
        "mem_ops": _metric(work.ops, "count"),
        "peek_hits": _metric(work.peek_hits, "count"),
        "events_per_cycle": _metric(
            work.events / max(work.cycles, 1), "ev/cycle"),
        "host_us_per_event": _metric(
            1e6 * round_s / max(work.events, 1), "us"),
        "profile_overhead": _metric(point_seconds(traced) / round_s, "x"),
        "host_speed": _metric(_median_speed(plain), "x"),
    })
    for name, (value, unit) in ledger.micro_benchmarks(
            args.seed, ROOT, tally.faults).items():
        metrics[name] = _metric(value, unit)
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the SAM memory simulator.")
    parser.add_argument("--workload", required=True,
                        help="point set: sql, strided or salp")
    parser.add_argument("--seed", type=int, required=True,
                        help="generates the workload's inputs")
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer ledger instead of the "
                             "end-to-end metrics")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # numpy generators take non-negative seeds only
    args.seed %= 1 << 32
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from points import WORKLOADS, build_suite

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    suite = build_suite(args.workload, args.seed)
    tally = Tally()
    # warm-up: finishes lazy set-up and records every point's reference
    run_round(suite, tally)
    if args.setup_probe:
        return 1 if tally.faults else 0
    for fast, slow in suite.claims:
        if fast in tally.reference and slow in tally.reference:
            mine, theirs = tally.reference[fast][0], tally.reference[slow][0]
            if not mine < theirs:
                tally.faults.append(f"{fast.label}: {mine} cycles, not "
                                    f"fewer than {slow.scheme}'s {theirs}")
    metrics = (per_layer if args.trace else end_to_end)(suite, tally, args)
    # checked pass: the checkers raise on a violation, and a checked run
    # must reproduce the unchecked cycles and command counts exactly
    for point in suite.points:
        tally.simulate(suite, point, check=True)
    for fault in tally.faults[:20]:
        print(f"perfbench: {fault}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.faults,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
