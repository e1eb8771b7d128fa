"""Sweep engine: executes an :class:`~repro.exp.spec.ExperimentSpec`.

Execution is pluggable between a serial in-process loop and a
``multiprocessing`` pool (``jobs > 1``).  Worker processes receive only
the pickled :class:`SweepPoint`, rebuild their own tables and
``MemorySystem`` from it, and return the pickled payload -- simulations
share no state, so the two executors produce *bit-identical* results;
the engine re-orders completions back into spec order regardless of
which worker finished first.

An optional :class:`~repro.exp.cache.ResultCache` short-circuits points
whose content digest (point + config + source tree) already has a stored
payload, so an interrupted figure run resumes where it stopped and a
warm rerun executes zero simulations.

Every run is observed: each :class:`SweepRun` counts its points, cache
hits/misses and executed simulations, each executed point records its
wall time (measured in the worker for parallel points), and
:meth:`SweepEngine.manifest` rolls the whole history into one
machine-readable sweep manifest whose ``totals`` sum those counts.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
import warnings
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cache import ResultCache, point_digest, source_digest
from .spec import ExperimentSpec, SweepPoint

Key = Tuple[str, ...]


# --------------------------------------------------------------------------
# Point execution (must stay module-level: worker processes import it)
# --------------------------------------------------------------------------

def execute_point(point: SweepPoint, timeline: bool = False,
                  timeline_dir: Optional[str] = None) -> object:
    """Run one sweep point to completion (in whichever process).

    ``timeline`` records a workload point's cycle-level timeline, and
    ``timeline_dir`` receives its Chrome trace-event export.
    """
    if point.kind == "reliability":
        from ..harness.reliability import evaluate_design

        return evaluate_design(
            point.scheme,
            trials=int(point.param("trials", 500)),
            seed=int(point.param("seed", 0)),
        )
    from ..obs import Observation
    from ..sim.runner import run_workload

    observe = Observation(timeline=True) if timeline else None
    result = run_workload(
        point.workload,
        point.scheme,
        config=point.config,
        gather_factor=point.gather_factor,
        timing=point.timing,
        check=point.check,
        observe=observe,
    )
    if observe is not None and timeline_dir:
        from ..obs.artifacts import ArtifactWriter, _slug

        ArtifactWriter(timeline_dir).write_timeline(
            observe.timeline_recorder,
            f"point-{_slug('-'.join(point.key))}",
        )
    return result


def _pool_worker(
    item: Tuple[int, SweepPoint, bool, Optional[str]]
) -> Tuple[int, object, float]:
    """Pool entry: returns (spec index, payload, worker wall seconds)."""
    index, point, timeline, timeline_dir = item
    start = time.perf_counter()
    with warnings.catch_warnings():
        # diagnostics-by-warning (near-runaway etc.) stay visible in the
        # parent's serial path; in workers they would interleave rawly
        warnings.simplefilter("ignore", RuntimeWarning)
        payload = execute_point(point, timeline, timeline_dir)
    return index, payload, time.perf_counter() - start


# --------------------------------------------------------------------------
# Results
# --------------------------------------------------------------------------

@dataclass
class PointOutcome:
    """Bookkeeping for one executed-or-cached point."""

    key: Key
    cached: bool
    wall_s: float


@dataclass
class SweepRun:
    """Outcome of one engine run: payloads in spec order plus counters."""

    spec: ExperimentSpec
    results: Dict[Key, object]
    outcomes: List[PointOutcome] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    executed: int = 0
    jobs: int = 1
    wall_s: float = 0.0

    def __getitem__(self, key: Key) -> object:
        return self.results[key]

    def cycles(self, key: Key) -> int:
        """Simulated cycles of a query point."""
        return self.results[key].cycles

    def speedup(self, key: Key, baseline_key: Key) -> float:
        """The normalization rule of every figure: baseline cycles of the
        same query divided by this point's cycles."""
        return self.cycles(baseline_key) / self.cycles(key)

    def table(self, series: Sequence[str], names: Sequence[str],
              value: Callable = attrgetter("cycles")) -> Dict[str, dict]:
        """``{s: {name: value(result)}}`` over the ``(s, name)`` points
        (simulated cycles by default)."""
        return {s: {n: value(self.results[(s, n)]) for n in names}
                for s in series}

    def speedups(self, series: Sequence[str], names: Sequence[str],
                 prefix: Key = ()) -> Dict[str, Dict[str, float]]:
        """``{s: {name: speedup}}`` of the ``prefix + (s, name)`` points
        over the row-store ``("baseline", name)`` points."""
        return {s: {n: self.speedup(prefix + (s, n), ("baseline", n))
                    for n in names}
                for s in series}

    def manifest(self) -> dict:
        """Machine-readable sweep summary (rolled into artifacts)."""
        return {
            "kind": "sweep",
            "name": self.spec.name,
            "normalize": self.spec.normalize,
            "points": len(self.spec),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "executed": self.executed,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "outcomes": [
                {
                    "key": list(o.key),
                    "cached": o.cached,
                    "wall_s": o.wall_s,
                }
                for o in self.outcomes
            ],
        }


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

class SweepEngine:
    """Executes experiment specs with caching and optional parallelism.

    One engine instance may run several specs; ``history`` keeps every
    :class:`SweepRun` for roll-up into a single sweep manifest.

    ``timeline`` records a cycle-level timeline for every workload point
    the engine simulates (exported into ``timeline_dir`` when set).  It
    observes without changing a result, so it is no part of a point's
    cache digest: cached points stay hits and come back without
    ``timeline.*`` metrics.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        check: bool = False,
        timeline: bool = False,
        timeline_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.check = check
        self.timeline = timeline
        self.timeline_dir = timeline_dir
        self.history: List[SweepRun] = []

    # ---------------------------------------------------------------- runs

    def run(self, spec: ExperimentSpec) -> SweepRun:
        """Execute every point of ``spec``; results come back keyed and
        ordered exactly like ``spec.points`` no matter the executor."""
        started = time.perf_counter()
        points = spec.points
        if self.check:
            # every query point runs with the protocol checker attached;
            # part of the point identity, so digests diverge from
            # unchecked runs of the same spec
            points = tuple(
                dataclasses.replace(p, check=True)
                if p.workload is not None and not p.check else p
                for p in points
            )
        payloads: List[Optional[object]] = [None] * len(points)
        outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        digests: List[Optional[str]] = [None] * len(points)
        pending: List[int] = []

        hits = 0
        if self.cache is not None:
            source = source_digest()
            for i, point in enumerate(points):
                digests[i] = point_digest(point, source=source)
                payload = self.cache.get(digests[i])
                if payload is not None:
                    payloads[i] = payload
                    outcomes[i] = PointOutcome(point.key, True, 0.0)
                    hits += 1
                else:
                    pending.append(i)
        else:
            pending = list(range(len(points)))

        if pending:
            if self.jobs > 1 and len(pending) > 1:
                self._run_parallel(points, pending, payloads, outcomes)
            else:
                self._run_serial(points, pending, payloads, outcomes)
            if self.cache is not None:
                for i in pending:
                    self.cache.put(digests[i], payloads[i])

        run = SweepRun(
            spec=spec,
            results={p.key: payloads[i] for i, p in enumerate(points)},
            outcomes=[o for o in outcomes if o is not None],
            cache_hits=hits,
            cache_misses=len(pending),
            executed=len(pending),
            jobs=self.jobs,
            wall_s=time.perf_counter() - started,
        )
        self.history.append(run)
        return run

    def _run_serial(self, points, pending, payloads, outcomes) -> None:
        for i in pending:
            point = points[i]
            start = time.perf_counter()
            payloads[i] = execute_point(point, self.timeline,
                                        self.timeline_dir)
            outcomes[i] = PointOutcome(point.key, False,
                                       time.perf_counter() - start)

    def _run_parallel(self, points, pending, payloads, outcomes) -> None:
        # fork keeps worker start-up free of re-imports on POSIX; the
        # work items are picklable either way, so spawn also works.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        jobs = min(self.jobs, len(pending))
        items = [(i, points[i], self.timeline, self.timeline_dir)
                 for i in pending]
        with ctx.Pool(processes=jobs) as pool:
            # unordered: completions land as they finish, the index puts
            # them back in spec order (determinism is by construction --
            # workers share no state)
            for index, payload, wall in pool.imap_unordered(
                _pool_worker, items
            ):
                payloads[index] = payload
                outcomes[index] = PointOutcome(points[index].key, False, wall)

    # ----------------------------------------------------------- reporting

    @property
    def cache_hits(self) -> int:
        return sum(r.cache_hits for r in self.history)

    @property
    def executed(self) -> int:
        return sum(r.executed for r in self.history)

    def manifest(self) -> dict:
        """One roll-up manifest over every spec this engine ran."""
        return {
            "kind": "sweep-manifest",
            "jobs": self.jobs,
            "cached": self.cache is not None,
            "cache_dir": (
                str(self.cache.directory) if self.cache is not None else None
            ),
            "sweeps": [r.manifest() for r in self.history],
            "totals": {
                "points": sum(len(r.spec) for r in self.history),
                "cache_hits": self.cache_hits,
                "cache_misses": sum(r.cache_misses for r in self.history),
                "executed": self.executed,
                "wall_s": sum(r.wall_s for r in self.history),
            },
        }

    def summary(self) -> str:
        """One-line human summary (the CLI prints this to stderr)."""
        totals = self.manifest()["totals"]
        return (
            f"sweep: {totals['points']} points, "
            f"{totals['executed']} executed, "
            f"{totals['cache_hits']} cached, jobs={self.jobs}, "
            f"{totals['wall_s']:.1f}s"
        )
