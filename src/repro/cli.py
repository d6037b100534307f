"""Command-line interface: ``rctree-bounds``.

Subcommands
-----------

``analyze DECK.sp``
    Read a SPICE deck (R/C/V subset), compute the characteristic times and
    delay bounds of every output, and print a report.  ``--threshold`` sets
    the voltage threshold, ``--deadline`` additionally certifies each output
    (the paper's ``OK`` function).

``expression "EXPR"``
    Evaluate a paper-style tree expression (``(URC 15 0) WC (URC 0 2) ...``)
    and print its two-port summary and delay bounds.

``experiments [names...]``
    Regenerate the paper's figures and tables (Fig. 5, 10, 11, 13).

``pla N``
    Print the delay bounds of an N-minterm PLA line (Section V model).

``timing --netlist DESIGN.json [--spef FILE.spef] --period SECONDS``
    Design-level static timing through the array-native
    :class:`~repro.graph.TimingGraph`: reads a JSON netlist (and optionally a
    SPEF file streamed straight into the flat engine), propagates all three
    delay models at once, and emits a JSON report with the worst slack per
    model, the paper's ternary PASS/FAIL/INDETERMINATE verdict and the
    critical path (under ``--model``, the sign-off upper bound by default).
    ``--corners FILE.json`` additionally analyses a whole
    :class:`~repro.scenarios.ScenarioSet` (named corners with R/C/drive
    derates, per-net scales, threshold/period overrides) in one batched pass
    and reports per-scenario results; ``--jobs N`` runs that sweep on the
    sharded multi-core engine (:mod:`repro.parallel`) with ``N`` worker
    threads (``--jobs 1`` forces the serial backend; the default
    auto-selects by sweep size), and ``--engine NAME`` pins a registered
    kernel backend outright (``auto``, ``numpy``, ``process``,
    ``contract``), overriding the ``--jobs``-derived choice.  ``--store DIR`` streams the stage
    forest into a memory-mapped shard store (:mod:`repro.store`) and
    solves out of core, bounding resident memory by one shard instead of
    the design.  Exit status 1 when the (overall) verdict is FAIL, 2 when
    it is INDETERMINATE.

``serve [--host H] [--port P] [--tick SECONDS]``
    Run the timing-as-a-service HTTP/JSON server (:mod:`repro.serve`):
    clients load designs into named warm sessions and issue ECO edits,
    slack/corner queries and coalesced what-if scoring over keep-alive
    connections.  ``--tick`` sets the what-if coalescing window,
    ``--engine``/``--jobs`` the default kernel backend for session solves
    (overridable per session at creation).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.algebra.expression import parse_expression
from repro.core.bounds import delay_bounds
from repro.core.certify import Verdict, certify
from repro.core.timeconstants import characteristic_times_all
from repro.experiments.runner import run_all
from repro.spicefmt.reader import read_spice
from repro.utils.units import format_engineering


def _cmd_analyze(args: argparse.Namespace) -> int:
    tree = read_spice(args.deck)
    outputs = args.output or tree.outputs or tree.leaves()
    all_times = characteristic_times_all(tree, outputs)
    print(f"network: {len(tree)} nodes, {len(tree.edges)} branches, "
          f"total C = {format_engineering(tree.total_capacitance, 'F')}, "
          f"total R = {format_engineering(tree.total_resistance, 'ohm')}")
    status = 0
    for name, times in all_times.items():
        bounds = delay_bounds(times, args.threshold)
        print(f"\noutput {name}:")
        print(f"  T_P  = {format_engineering(times.tp, 's')}")
        print(f"  T_De = {format_engineering(times.tde, 's')} (Elmore delay)")
        print(f"  T_Re = {format_engineering(times.tre, 's')}")
        print(f"  delay to {args.threshold:g}: "
              f"[{format_engineering(bounds.lower, 's')}, {format_engineering(bounds.upper, 's')}]")
        if args.deadline is not None:
            certificate = certify(times, args.threshold, args.deadline)
            print(f"  certification against {format_engineering(args.deadline, 's')}: "
                  f"{certificate.verdict.name} "
                  f"(guaranteed slack {format_engineering(certificate.guaranteed_slack, 's')})")
            if certificate.verdict is Verdict.FAIL:
                status = 1
    return status


def _cmd_expression(args: argparse.Namespace) -> int:
    expression = parse_expression(args.expression)
    twoport = expression.to_twoport()
    times = twoport.characteristic_times("port2")
    print(f"expression : {expression.to_text()}")
    print(f"two-port   : CT={twoport.ct:g}, TP={twoport.tp:g}, R22={twoport.r22:g}, "
          f"TD2={twoport.td2:g}, TR2*R22={twoport.tr2_r22:g}")
    for threshold in args.threshold:
        bounds = delay_bounds(times, threshold)
        print(f"delay to {threshold:g}: [{bounds.lower:.6g}, {bounds.upper:.6g}]")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    results = run_all(tuple(args.names))
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"=== {result.experiment}: {result.description} [{status}] ===")
        print(result.report)
        print()
        failures += 0 if result.passed else 1
    return 1 if failures else 0


def _verdict_status(verdict: str) -> int:
    """Exit status for a ternary verdict: FAIL -> 1, INDETERMINATE -> 2."""
    if verdict == Verdict.FAIL.name:
        return 1
    if verdict == Verdict.INDETERMINATE.name:
        return 2
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.graph import DesignDB, TimingGraph
    from repro.sta.delaycalc import DelayModel
    from repro.sta.netlist import load_design

    design = load_design(args.netlist)
    if args.spef is not None:
        db = DesignDB.from_spef(
            design,
            args.spef,
            is_path=True,
            input_drive_resistance=args.input_drive,
            default_wire_capacitance=args.wire_cap,
            store_dir=args.store,
        )
    else:
        db = DesignDB(
            design,
            input_drive_resistance=args.input_drive,
            default_wire_capacitance=args.wire_cap,
            store_dir=args.store,
        )
    graph = TimingGraph(db, clock_period=args.period, threshold=args.threshold)
    model = DelayModel(args.model)
    summary = graph.summary(path_model=model)
    report = summary.to_dict()
    report["model"] = model.value
    verdict = summary.verdict
    if args.corners is not None:
        from repro.scenarios import ScenarioSet

        with open(args.corners, "r", encoding="utf-8") as handle:
            scenarios = ScenarioSet.from_dict(json.load(handle))
        # --engine pins a backend outright; --jobs alone pins the parallel
        # backend; the default leaves engine auto-selection (by sweep size
        # and depth pathology) to repro.parallel.
        engine = None
        if args.engine is not None and args.engine != "auto":
            engine = args.engine
        elif args.jobs is not None:
            engine = "numpy" if args.jobs == 1 else "process"
        scenario_report = graph.analyze_scenarios(
            scenarios, path_model=model, engine=engine, jobs=args.jobs
        )
        report["scenarios"] = scenario_report.to_dict()["scenarios"]
        verdict = scenario_report.overall_verdict
        report["verdict"] = verdict
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    print(payload)
    return _verdict_status(verdict)


def _cmd_pla(args: argparse.Namespace) -> int:
    from repro.apps.pla import pla_delay_sweep

    rows = pla_delay_sweep([args.minterms], args.threshold)
    row = rows[0]
    print(f"PLA line with {row.minterms} minterms, threshold {row.threshold:g}:")
    print(f"  guaranteed delay <= {row.t_upper_ns:.3f} ns")
    print(f"  delay           >= {row.t_lower_ns:.3f} ns")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_server

    run_server(
        args.host,
        args.port,
        tick=args.tick,
        engine=None if args.engine in (None, "auto") else args.engine,
        jobs=args.jobs,
        executor_workers=args.executor_workers,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="rctree-bounds",
        description="RC-tree signal delay bounds (Penfield & Rubinstein, 1981).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyze a SPICE deck")
    analyze.add_argument("deck", help="path to the SPICE netlist")
    analyze.add_argument("--threshold", type=float, default=0.5, help="voltage threshold (0-1)")
    analyze.add_argument("--deadline", type=float, default=None, help="certify against this delay (seconds)")
    analyze.add_argument("--output", action="append", help="restrict the report to these nodes")
    analyze.set_defaults(func=_cmd_analyze)

    expression = subparsers.add_parser("expression", help="evaluate a tree expression")
    expression.add_argument("expression", help="paper-style expression, e.g. '(URC 15 0) WC URC 0 9'")
    expression.add_argument(
        "--threshold", type=float, action="append", default=None,
        help="thresholds to report (repeatable; default 0.5 and 0.9)",
    )
    expression.set_defaults(func=_cmd_expression)

    experiments = subparsers.add_parser("experiments", help="reproduce the paper's figures")
    experiments.add_argument("names", nargs="*", help="experiment ids (default: all)")
    experiments.set_defaults(func=_cmd_experiments)

    pla = subparsers.add_parser("pla", help="delay bounds of a PLA AND-plane line")
    pla.add_argument("minterms", type=int, help="number of minterms on the line")
    pla.add_argument("--threshold", type=float, default=0.7, help="voltage threshold (default 0.7)")
    pla.set_defaults(func=_cmd_pla)

    timing = subparsers.add_parser(
        "timing", help="design-level STA through the TimingGraph engine"
    )
    timing.add_argument("--netlist", required=True, help="JSON netlist file")
    timing.add_argument("--spef", default=None, help="SPEF parasitics file")
    timing.add_argument(
        "--period", type=float, required=True, help="clock period (seconds)"
    )
    timing.add_argument(
        "--threshold", type=float, default=0.5, help="voltage threshold (0-1)"
    )
    timing.add_argument(
        "--input-drive", type=float, default=0.0,
        help="drive resistance assumed for primary inputs (ohms)",
    )
    timing.add_argument(
        "--wire-cap", type=float, default=0.0,
        help="default lumped wire capacitance for nets without parasitics (farads)",
    )
    timing.add_argument(
        "--store", default=None, metavar="DIR",
        help="solve out of core: stream the stage forest into a "
        "memory-mapped shard store at DIR (created or overwritten) and "
        "solve shard-by-shard, bounding resident memory by one shard "
        "instead of the design",
    )
    timing.add_argument(
        "--corners", default=None,
        help="JSON scenario-set file; analyse every corner in one batched pass",
    )
    timing.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads for the corner-sweep solve; requires "
        "--corners (1 = serial; default: auto-select the sharded engine "
        "by sweep size)",
    )
    timing.add_argument(
        "--engine", default=None,
        choices=["auto", "numpy", "process", "contract"],
        help="kernel backend for the corner-sweep solve; requires --corners "
        "(default: auto-select by sweep size and depth; overrides the "
        "--jobs-derived choice)",
    )
    timing.add_argument(
        "--model", default="upper_bound",
        choices=["elmore", "upper_bound", "lower_bound"],
        help="delay model the critical path is traced under",
    )
    timing.add_argument(
        "--output", default=None, help="also write the JSON report to this file"
    )
    timing.set_defaults(func=_cmd_timing)

    serve = subparsers.add_parser(
        "serve",
        help="run the timing-as-a-service HTTP/JSON server (repro.serve)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="bind port (default 8787; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--tick", type=float, default=0.002,
        help="what-if coalescing window in seconds (default 2 ms; 0 still "
        "coalesces requests that pile up during a solve but adds no latency)",
    )
    serve.add_argument(
        "--jobs", type=int, default=None,
        help="worker threads for session corner sweeps (default: "
        "auto-select by sweep size)",
    )
    serve.add_argument(
        "--engine", default=None,
        choices=["auto", "numpy", "process", "contract"],
        help="default kernel backend for session solves (sessions may "
        "override at creation)",
    )
    serve.add_argument(
        "--executor-workers", type=int, default=4,
        help="threads in the solve executor (default 4)",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "expression" and args.threshold is None:
        args.threshold = [0.5, 0.9]
    if getattr(args, "command", None) == "timing":
        if args.jobs is not None and args.corners is None:
            # Silently running serial after the user asked for workers would be
            # worse than refusing: --jobs parallelizes the corner sweep only.
            parser.error("timing: --jobs requires --corners (it parallelizes the corner sweep)")
        if args.engine is not None and args.corners is None:
            parser.error("timing: --engine requires --corners (it selects the corner-sweep kernel)")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
