"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's artefacts:

* ``figure12`` / ``figure13`` / ``figure14a`` / ``figure14b`` /
  ``figure14c`` / ``figure15`` -- regenerate an evaluation figure;
* ``salp``        -- subarray-level-parallelism interaction sweep
  (SALP-1/SALP-2/MASA vs SAM-en and the composed SAM-en+masa design);
* ``kernels``     -- micro-kernel stride sweep over the generated
  workload families (stream/strided/PolyBench) on baseline vs SAM-en
  vs masa, the Figure-14-style sensitivity grid;
* ``table1``      -- the qualitative comparison matrix;
* ``reliability`` -- the fault-injection matrix;
* ``query``       -- run one SQL statement on a chosen design;
* ``explain``     -- show the planner's operator tree for a statement
  without simulating it;
* ``schemes``     -- list the available designs.

Every figure/table command also speaks JSON (``--json``) and can drop
its payload into an artifacts directory (``--artifacts DIR``); ``query``
additionally offers ``--stats`` (metrics registry dump), ``--profile``
(phase-span flamegraph), ``--stalls`` (cycle-accounting stall
attribution) and ``--timeline`` (command-level timeline report with
per-bank utilization and row-hit rates; Chrome trace-event and JSONL
command-log export with ``--artifacts``).  Sweep commands accept
``--timeline`` to record every simulated point.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import List, Optional

from .core.registry import GATHER_FACTORS
from .harness.figure15 import FIG15_PANELS


def _add_size_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ta", type=int, default=512,
                        help="records in the wide table Ta")
    parser.add_argument("--tb", type=int, default=1024,
                        help="records in the narrow table Tb")


def _add_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of text")
    parser.add_argument("--artifacts", metavar="DIR", default=None,
                        help="also write the result into DIR as JSON")


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Shared flags of every sweep-driven command (the figures, the SALP
    and kernel sweeps and the reliability matrix all execute through
    :class:`repro.exp.SweepEngine`), output flags included."""
    _add_output_args(parser)
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep points "
                             "(results are identical at any N)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR, else ~/.cache/repro/sweeps)")
    parser.add_argument("--no-cache", action="store_true",
                        help="re-simulate every point; neither read nor "
                             "write the result cache")
    parser.add_argument("--check", action="store_true",
                        help="attach the repro.check protocol checker and "
                             "plan oracle to every simulated point (a "
                             "violation aborts the sweep)")
    parser.add_argument("--timeline", action="store_true",
                        help="record a cycle-level timeline for every "
                             "simulated point (cached points are still "
                             "hits: the flag is not part of the cache "
                             "key); Chrome trace-event exports land in "
                             "--artifacts when set")


def _make_engine(args):
    """A :class:`SweepEngine` from the shared sweep flags."""
    from .exp import ResultCache, SweepEngine, default_cache_dir

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    return SweepEngine(jobs=args.jobs, cache=cache, check=args.check,
                       timeline=args.timeline, timeline_dir=args.artifacts)


def _finish_sweep(args, name: str, engine) -> None:
    """Engine epilogue: one-line summary on stderr, sweep manifest into
    the artifacts directory when one was requested."""
    print(engine.summary(), file=sys.stderr)
    if args.artifacts:
        from .obs.artifacts import ArtifactWriter

        path = ArtifactWriter(args.artifacts).write_json(
            f"{name}.sweep.json", engine.manifest()
        )
        print(f"wrote {path}", file=sys.stderr)


def _emit(args, name: str, payload, text_fn) -> int:
    """Common output path: text by default, JSON and/or artifacts on
    request.  ``text_fn`` is lazy so --json skips ASCII rendering."""
    from .obs.artifacts import ArtifactWriter, to_jsonable

    if getattr(args, "artifacts", None):
        path = ArtifactWriter(args.artifacts).write_json(
            f"{name}.json", payload
        )
        print(f"wrote {path}", file=sys.stderr)
    if getattr(args, "json", False):
        print(json.dumps(to_jsonable(payload), indent=2, sort_keys=True))
    else:
        print(text_fn())
    return 0


def _sweep(args, name: str, run) -> int:
    """Every sweep command: build the engine from the shared flags, get
    the result of ``run(engine=engine)``, emit its ``payload()`` and
    ``render()`` and finish the sweep."""
    engine = _make_engine(args)
    result = run(engine=engine)
    code = _emit(args, name, result.payload(), result.render)
    _finish_sweep(args, name, engine)
    return code


def _cmd_figure12(args) -> int:
    from .harness.figure12 import run_figure12

    return _sweep(args, "figure12", partial(
        run_figure12, n_ta=args.ta, n_tb=args.tb,
        designs=args.designs or None, queries=args.queries or None,
    ))


def _cmd_figure13(args) -> int:
    from .harness.figure13 import FIGURE13_DESIGNS, run_figure13

    return _sweep(args, "figure13", partial(
        run_figure13, n_ta=args.ta, n_tb=args.tb,
        designs=args.designs or FIGURE13_DESIGNS,
    ))


def _cmd_figure14a(args) -> int:
    from .harness.figure14 import run_figure14a

    return _sweep(args, "figure14a",
                  partial(run_figure14a, n_ta=args.ta, n_tb=args.tb))


def _cmd_figure14b(args) -> int:
    from .harness.figure14 import run_figure14b

    return _sweep(args, "figure14b",
                  partial(run_figure14b, n_ta=args.ta, n_tb=args.tb))


def _cmd_figure14c(args) -> int:
    from .harness.figure14 import figure14c_payload, render_figure14c

    return _emit(args, "figure14c", figure14c_payload(), render_figure14c)


def _cmd_figure15(args) -> int:
    from .harness.figure15 import run_figure15

    # only the chosen panels are simulated
    return _sweep(args, "figure15", partial(
        run_figure15, panels=args.panels or list(FIG15_PANELS), n_ta=args.ta,
    ))


def _cmd_salp(args) -> int:
    from .harness.salp import run_salp_sweep

    return _sweep(args, "salp", partial(
        run_salp_sweep, n_ta=args.ta, n_tb=args.tb,
        designs=args.designs or None, queries=args.queries or None,
    ))


def _cmd_kernels(args) -> int:
    from .harness.kernels import run_kernel_sweep

    return _sweep(args, "kernels", partial(
        run_kernel_sweep, designs=args.designs or None,
        gather_factor=args.gather,
    ))


def _cmd_table1(args) -> int:
    from .core.compare import comparison_matrix, render_table

    payload = {"kind": "table1", "matrix": comparison_matrix()}
    return _emit(args, "table1", payload, render_table)


def _cmd_reliability(args) -> int:
    from .harness.reliability import run_reliability

    return _sweep(args, "reliability",
                  partial(run_reliability, trials=args.trials))


def _cmd_explain(args) -> int:
    from .core.registry import available_schemes, stride_gather
    from .imdb.planner import plan_for
    from .workloads import make_tables
    from .imdb.sql import parse

    query = parse(args.sql, name="cli")
    tables = make_tables(args.ta, args.tb)
    schemes = available_schemes() if args.all_schemes else [args.scheme]
    # stride-less designs reject an explicit gather factor; with
    # --all-schemes the flag only applies where it is meaningful
    plans = {
        name: plan_for(name, query, tables, gather_factor=(
            stride_gather(name, args.gather) if args.all_schemes
            else args.gather))
        for name in schemes
    }
    if args.json:
        payload = {name: plan.to_dict() for name, plan in plans.items()}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print("\n\n".join(
        f"-- {name} --\n{plan.explain()}" if args.all_schemes
        else plan.explain()
        for name, plan in plans.items()
    ))
    return 0


def _cmd_query(args) -> int:
    from .workloads import make_tables
    from .imdb.sql import parse
    from .obs import Observation
    from .sim.runner import run_query

    query = parse(args.sql, name="cli")
    tables = make_tables(args.ta, args.tb)
    observe = Observation(timeline=args.timeline,
                          artifacts_dir=args.artifacts)
    result = run_query(args.scheme, query, tables,
                       gather_factor=args.gather, observe=observe,
                       check=args.check)
    if args.json:
        from .obs.artifacts import to_jsonable

        print(json.dumps(to_jsonable(result.manifest()), indent=2,
                         sort_keys=True))
    else:
        print(f"scheme   : {result.scheme}")
        print(f"result   : {result.result}")
        print(f"cycles   : {result.cycles}  ({result.ns / 1000:.1f} us)")
        print(f"power    : {result.power.total_mw:.0f} mW")
        stats = result.memory_stats
        print(
            f"commands : {stats.reads} RD ({stats.gather_reads} gathers), "
            f"{stats.writes} WR, {stats.acts + stats.col_acts} ACT, "
            f"{stats.mode_switches} mode switches"
        )
        if args.check:
            print(
                f"checked  : {observe.registry.value('check.commands')} "
                f"commands, 0 violations"
            )
    if args.stats:
        print()
        print(observe.registry.render())
    if args.profile:
        print()
        print(result.spans.render())
    if args.stalls and not args.json:
        from .obs import render_stall_report

        print()
        print("stall attribution (cycles):")
        print(render_stall_report(result.stalls["per_core"]))
    if args.timeline and not args.json:
        print()
        print(observe.timeline_recorder.report())
    if observe.manifest_path is not None:
        print(f"wrote {observe.manifest_path}", file=sys.stderr)
    if args.baseline and args.scheme != "baseline":
        tables = make_tables(args.ta, args.tb)
        base = run_query("baseline", query, tables)
        print(f"speedup  : {base.cycles / result.cycles:.2f}x over baseline")
    return 0


def _parse_inject(pairs) -> tuple:
    """Parse --inject PARAM=VALUE pairs into timing-override tuples;
    PARAM must be one of :class:`TimingParams`'s integer timing fields
    and VALUE an integer."""
    from dataclasses import fields

    from .dram.timing import TimingParams

    valid = [f.name for f in fields(TimingParams) if f.type in (int, "int")]
    out = []
    for pair in pairs or ():
        name, _, value = pair.partition("=")
        if not _ or not name:
            raise SystemExit(f"--inject wants PARAM=VALUE, got {pair!r}")
        if name not in valid:
            raise SystemExit(f"--inject: unknown timing parameter {name!r}; "
                             f"valid: {', '.join(valid)}")
        try:
            out.append((name, int(value)))
        except ValueError:
            raise SystemExit(f"--inject: {name} wants an integer, "
                             f"got {value!r}") from None
    return tuple(out)


def _cmd_check_fuzz(args) -> int:
    from .check import DEFAULT_SCHEMES, run_fuzz

    report = run_fuzz(
        seed=args.seed,
        cases=args.cases,
        schemes=tuple(args.schemes) if args.schemes else DEFAULT_SCHEMES,
        inject=_parse_inject(args.inject),
        artifacts_dir=args.artifacts,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    else:
        s = report.summary()
        status = "OK" if report.ok else "FAIL"
        print(f"{status}: {s['cases']} cases, {s['commands']} commands "
              f"checked, {s['failures']} failures")
        if report.reproducer_path:
            print(f"reproducer: {report.reproducer_path}")
    return 0 if report.ok else 1


def _cmd_check_replay(args) -> int:
    from .check import replay

    result = replay(args.artifact)
    payload = {
        "case": result.case.describe(),
        "commands": result.commands,
        "failed": result.failed,
        "signature": result.signature(),
        "violations": [v.to_dict() for v in result.violations],
        "mismatches": [m.to_dict() for m in result.mismatches],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{result.case.describe()}: "
              f"{'FAIL ' + str(result.signature()) if result.failed else 'OK'}")
        for v in result.violations[:8]:
            print(f"  {v}")
        for m in result.mismatches[:8]:
            print(f"  {m}")
    return 1 if result.failed else 0


def _cmd_schemes(args) -> int:
    from .core.registry import available_schemes, make_scheme

    rows = []
    for name in available_schemes():
        scheme = make_scheme(name)
        rows.append({
            "name": name,
            "timing": scheme.timing.name,
            "supports_stride": scheme.supports_stride,
            "gather_factor": (
                scheme.gather_factor if scheme.supports_stride else None
            ),
            "area_silicon_fraction": scheme.area.silicon_fraction,
        })
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        stride = (
            f"gather x{row['gather_factor']}"
            if row["supports_stride"]
            else "no stride hw"
        )
        print(
            f"{row['name']:14s} {row['timing']:22s} {stride:14s} "
            f"area +{row['area_silicon_fraction']:.2%}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'SAM: Accelerating Strided Memory "
                    "Accesses' (MICRO 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("figure12", help="speedup over all queries")
    _add_size_args(p)
    p.add_argument("--designs", nargs="*", default=None)
    p.add_argument("--queries", nargs="*", default=None)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_figure12)

    p = sub.add_parser("figure13", help="power and energy efficiency")
    _add_size_args(p)
    p.add_argument("--designs", nargs="*", default=None)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_figure13)

    p = sub.add_parser("figure14a", help="substrate swap")
    _add_size_args(p)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_figure14a)

    p = sub.add_parser("figure14b", help="strided granularity sweep")
    _add_size_args(p)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_figure14b)

    p = sub.add_parser("figure14c", help="area/storage overhead")
    _add_output_args(p)
    p.set_defaults(func=_cmd_figure14c)

    p = sub.add_parser("figure15", help="parametric query sweeps")
    # every panel but (i) sizes Ta; Tb is fixed at 64 records
    p.add_argument("--ta", type=int, default=512,
                   help="records in the wide table Ta")
    p.add_argument("--panels", nargs="*", default=None,
                   choices=list(FIG15_PANELS),
                   help="panels a..i (default: all)")
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_figure15)

    p = sub.add_parser(
        "salp",
        help="subarray-level-parallelism interaction sweep",
    )
    _add_size_args(p)
    p.add_argument("--designs", nargs="*", default=None,
                   help="designs to sweep (default: the SALP family "
                        "plus SAM-en and SAM-en+masa)")
    p.add_argument("--queries", nargs="*", default=None,
                   help="queries to sweep (default: the bank-conflict-"
                        "heavy Q3/Q7/Q8)")
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_salp)

    p = sub.add_parser(
        "kernels",
        help="micro-kernel stride sweep (generated workloads)",
    )
    p.add_argument("--designs", nargs="*", default=None,
                   help="designs to sweep against baseline "
                        "(default: SAM-en and masa)")
    p.add_argument("--gather", type=int, default=8, choices=GATHER_FACTORS,
                   help="gather factor for stride-capable designs")
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("table1", help="qualitative comparison matrix")
    _add_output_args(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("reliability", help="fault-injection matrix")
    p.add_argument("--trials", type=int, default=500)
    _add_sweep_args(p)
    p.set_defaults(func=_cmd_reliability)

    p = sub.add_parser("check", help="correctness tooling (repro.check)")
    check_sub = p.add_subparsers(dest="check_command", required=True)
    f = check_sub.add_parser(
        "fuzz", help="randomized config x trace fuzzing with the protocol "
                     "checker and data oracle attached")
    f.add_argument("--seed", type=int, default=0,
                   help="base seed of the deterministic case stream")
    f.add_argument("--cases", type=int, default=200,
                   help="number of generated cases")
    f.add_argument("--schemes", nargs="*", default=None,
                   help="designs to draw from (default: the six core "
                        "designs)")
    f.add_argument("--inject", nargs="*", default=None,
                   metavar="PARAM=VALUE",
                   help="corrupt the controller-side timing table "
                        "(e.g. tRCD=1) to prove the checker catches it")
    f.add_argument("--artifacts", metavar="DIR", default=None,
                   help="directory for minimized JSON reproducers")
    f.add_argument("--json", action="store_true",
                   help="print the machine-readable summary")
    f.set_defaults(func=_cmd_check_fuzz)
    r = check_sub.add_parser(
        "replay", help="re-run a minimized JSON reproducer")
    r.add_argument("artifact", help="path to a fuzz-failure-*.json file")
    r.add_argument("--json", action="store_true",
                   help="print the machine-readable outcome")
    r.set_defaults(func=_cmd_check_replay)

    p = sub.add_parser("query", help="run one SQL statement")
    p.add_argument("sql", help="e.g. 'SELECT SUM(f9) FROM Ta WHERE f10 > "
                               "7500'")
    p.add_argument("--scheme", default="SAM-en")
    p.add_argument("--gather", type=int, default=None,
                   choices=GATHER_FACTORS, help="gather factor")
    p.add_argument("--baseline", action="store_true",
                   help="also run the baseline and print the speedup")
    p.add_argument("--stats", action="store_true",
                   help="print the full metrics registry after the run")
    p.add_argument("--profile", action="store_true",
                   help="print the phase-span profile after the run")
    p.add_argument("--check", action="store_true",
                   help="attach the repro.check protocol checker and "
                        "plan oracle (a violation aborts the run)")
    p.add_argument("--stalls", action="store_true",
                   help="print the cycle-accounting stall attribution "
                        "(per-core busy / stall-reason breakdown)")
    p.add_argument("--timeline", action="store_true",
                   help="attach the timeline recorder (command and per-bank "
                        "report; Chrome trace-event and JSONL export with "
                        "--artifacts)")
    _add_size_args(p)
    _add_output_args(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "explain", help="show the physical query plan without running it")
    p.add_argument("sql", help="e.g. 'SELECT f3 FROM Ta WHERE f10 > 7500'")
    p.add_argument("--scheme", default="SAM-en")
    p.add_argument("--all-schemes", action="store_true",
                   help="print the plan under every registered design")
    p.add_argument("--gather", type=int, default=None,
                   choices=GATHER_FACTORS, help="gather factor")
    _add_size_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit the plan tree(s) as JSON")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("schemes", help="list available designs")
    p.add_argument("--json", action="store_true",
                   help="emit the scheme list as JSON")
    p.set_defaults(func=_cmd_schemes)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
