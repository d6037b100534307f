"""``signoff``: the CLI sign-off flow, run cold, on a 20k-instance design.

Each operation is one ``python -m repro.cli timing --netlist --spef
--corners --period`` subprocess: a fresh interpreter parses the JSON
netlist and the SPEF, compiles the design, builds the timing graph, takes
the single-corner summary and sweeps every corner.  Parse, compile and graph
build dominate this flow, so it is where a faster design load shows and a
faster kernel barely does.

The oracle is an in-process flow over the same files that solves its
corners on the serial ``numpy`` engine; a sample of its stage trees is in
turn checked against the dict engine of :mod:`repro.core`.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional

from perfbench.common import (
    Outcome,
    median,
    mismatch,
    peak_rss_mb,
    scratch_dir,
    source_env,
)
from perfbench.trace import Tracer

#: Clock period of every flow (seconds).
PERIOD = 2e-9
FLOW_TIMEOUT = 150.0
MODELS = ("elmore", "upper_bound", "lower_bound")


@dataclass(frozen=True)
class Sizes:
    instances: int = 20000
    scenarios: int = 16
    setup_repeats: int = 3
    sampled_trees: int = 24


def write_inputs(seed: int, sizes: Sizes, directory: str) -> Dict[str, str]:
    """Write the netlist JSON, the SPEF and the corners file for ``seed``."""
    from repro.generators import random_design, random_scenarios
    from repro.spef.writer import write_spef
    from repro.sta.netlist import write_design

    design, parasitics = random_design(sizes.instances, seed=seed)
    paths = {
        "netlist": f"{directory}/design.json",
        "spef": f"{directory}/design.spef",
        "corners": f"{directory}/corners.json",
    }
    write_design(design, paths["netlist"])
    trees = {name: rec.tree for name, rec in parasitics.items() if rec.tree is not None}
    write_spef(trees, paths["spef"])
    with open(paths["corners"], "w", encoding="utf-8") as handle:
        json.dump(random_scenarios(sizes.scenarios, seed=seed).to_dict(), handle)
    return paths


def run_cli(paths: Dict[str, str]):
    """One cold CLI flow: (seconds, report or None, engines, error or None)."""
    env = source_env()
    env["REPRO_ENGINE_LOG"] = "1"
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "timing",
             "--netlist", paths["netlist"], "--spef", paths["spef"],
             "--corners", paths["corners"], "--period", repr(PERIOD)],
            capture_output=True, text=True, env=env, timeout=FLOW_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, [], "timed out"
    elapsed = time.perf_counter() - start
    engines = [
        word.split("=", 1)[1]
        for line in proc.stderr.splitlines()
        if line.startswith("repro.engine:")
        for word in line.split()
        if word.startswith("engine=")
    ]
    # Exit 0/1/2 are the PASS/FAIL/INDETERMINATE verdicts; others are errors.
    if proc.returncode not in (0, 1, 2):
        return elapsed, None, engines, f"exit {proc.returncode}: {proc.stderr[-400:]}"
    try:
        return elapsed, json.loads(proc.stdout), engines, None
    except ValueError as error:
        return elapsed, None, engines, f"unparsable report: {error}"


def flow_in_process(paths: Dict[str, str], tracer: Tracer, *, engine: Optional[str] = None):
    """The CLI's timing flow, called layer by layer: (report, graph, scenarios)."""
    from repro.graph import DesignDB, TimingGraph
    from repro.scenarios import ScenarioSet
    from repro.sta.delaycalc import DelayModel
    from repro.sta.netlist import load_design

    model = DelayModel.UPPER_BOUND
    with tracer.span("netlist.load"):
        design = load_design(paths["netlist"])
    with tracer.span("designdb.from_spef"):
        db = DesignDB.from_spef(design, paths["spef"], is_path=True)
    with tracer.span("timinggraph.build"):
        graph = TimingGraph(db, clock_period=PERIOD, threshold=0.5)
    with tracer.span("timinggraph.summary"):
        summary = graph.summary(path_model=model)
    with tracer.span("report.serialize"):
        report = summary.to_dict()
    with open(paths["corners"], "r", encoding="utf-8") as handle:
        scenarios = ScenarioSet.from_dict(json.load(handle))
    with tracer.span("timinggraph.analyze_scenarios"):
        scenario_report = graph.analyze_scenarios(scenarios, path_model=model, engine=engine)
    with tracer.span("report.serialize"):
        report["model"] = model.value
        report["scenarios"] = scenario_report.to_dict()["scenarios"]
        report["verdict"] = scenario_report.overall_verdict
        json.dumps(report, indent=2, sort_keys=True)
    return report, graph, scenarios


def check_report(report: dict, reference: dict) -> Optional[str]:
    """Per-scenario worst slack and verdicts of ``report`` against ``reference``."""
    for model in MODELS:
        problem = mismatch(report["worst_slack"][model], reference["worst_slack"][model], scale=PERIOD)
        if problem:
            return f"summary worst_slack[{model}]: {problem}"
    if report["verdict"] != reference["verdict"]:
        return f"verdict {report['verdict']} != {reference['verdict']}"
    got, want = report["scenarios"], reference["scenarios"]
    if [s["name"] for s in got] != [s["name"] for s in want]:
        return "scenario names differ"
    for a, b in zip(got, want):
        if a["verdict"] != b["verdict"]:
            return f"scenario {a['name']}: verdict {a['verdict']} != {b['verdict']}"
        for model in MODELS:
            problem = mismatch(a["worst_slack"][model], b["worst_slack"][model], scale=PERIOD)
            if problem:
                return f"scenario {a['name']} worst_slack[{model}]: {problem}"
    return None


def dict_engine_rows(db, net: str):
    """(got, want) sink-row times of one stage tree: forest solve vs dict engine."""
    from repro.core.timeconstants import characteristic_times
    from repro.core.tree import RCTree

    flat = db.stage_tree(net)
    names = flat.names
    # The compiled arrays are read, never written.
    parent, edge_r, edge_c, node_c = flat._parent, flat._edge_r, flat._edge_c, flat._node_c
    tree = RCTree(root=names[0])
    for i in range(1, len(names)):
        if edge_c[i] > 0.0:
            tree.add_line(names[parent[i]], names[i], float(edge_r[i]), float(edge_c[i]))
        else:
            tree.add_resistor(names[parent[i]], names[i], float(edge_r[i]))
        if node_c[i] > 0.0:
            tree.add_capacitor(names[i], float(node_c[i]))
    rows = db.sink_rows(net)
    sinks = db.sinks
    got, want = [], []
    for row in range(rows.start, rows.stop):
        pin = sinks.pins[row]
        node = pin if pin in flat else ("net" if len(names) == 2 else None)
        if node is None:
            continue
        times = characteristic_times(tree, node)
        got.append((sinks.tp[row], sinks.tde[row], sinks.tre[row]))
        want.append((times.tp, times.tde, times.tre))
    return got, want


def check_dict_engine(db, seed: int, count: int) -> Optional[str]:
    nets = [net for net in db.timed_nets()]
    rng = random.Random(seed)
    for net in rng.sample(nets, min(count, len(nets))):
        got, want = dict_engine_rows(db, net)
        problem = mismatch(got, want)
        if problem:
            return f"stage tree {net}: {problem}"
    return None


def run(seed: int, seconds: float, tracer: Tracer, sizes: Sizes = Sizes()) -> Outcome:
    from repro.parallel import last_selection

    out = Outcome()
    with scratch_dir("signoff-") as directory:
        paths = write_inputs(seed, sizes, directory)

        # Set-up: a fresh interpreter importing the CLI.
        setups = []
        for _ in range(sizes.setup_repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.cli"], env=source_env(),
                check=True, timeout=FLOW_TIMEOUT,
            )
            setups.append(time.perf_counter() - start)
        out.metrics["setup_s"] = (median(setups), "s", len(setups))

        # Timed region.  A traced run spends its first third on cold CLI
        # flows, then runs the same flow in process without and with spans.
        reports, flows = [], []
        traced_flows, plain_flows = [], []
        phase_end = seconds / 3.0 if tracer.enabled else seconds
        start = time.perf_counter()
        while not flows or time.perf_counter() - start < phase_end:
            elapsed, report, engines, error = run_cli(paths)
            out.attempted += 1
            flows.append(elapsed)
            for name in engines:
                out.count_engine(name)
            if error:
                out.fail(f"cli flow: {error}")
            else:
                reports.append(report)
        rss = peak_rss_mb(children=True)
        if tracer.enabled:
            off = Tracer(False)
            while not plain_flows or time.perf_counter() - start < 2 * seconds / 3.0:
                t0 = time.perf_counter()
                report, _, _ = flow_in_process(paths, off)
                plain_flows.append(time.perf_counter() - t0)
                out.attempted += 1
                out.count_engine((last_selection() or {}).get("engine"))
                reports.append(report)
            while not traced_flows or time.perf_counter() - start < seconds:
                with tracer.span("signoff.flow") as root:
                    report, graph, scenarios = flow_in_process(paths, tracer)
                traced_flows.append(root["end"] - root["start"])
                out.attempted += 1
                out.count_engine((last_selection() or {}).get("engine"))
                reports.append(report)
            layer_probes(paths, graph, scenarios, tracer, out)

        out.metrics["peak_rss_mb"] = (rss, "MB", len(flows))
        out.op_seconds = list(flows)
        out.metrics["op_p50_ms"] = (median(flows) * 1e3, "ms", len(flows))
        out.metrics["ops_per_s"] = (len(flows) / sum(flows), "1/s", len(flows))
        out.named["flow_s"] = (median(flows), "s", len(flows))

        # Oracle, outside the timed region.
        reference, ref_graph, _ = flow_in_process(paths, Tracer(False), engine="numpy")
        problem = check_dict_engine(ref_graph.db, seed, sizes.sampled_trees)
        if problem:
            # An untrustworthy reference vouches for no operation.
            out.errors.append(f"reference disagrees with the dict engine: {problem}")
            out.failed = out.attempted
        else:
            for report in reports:
                problem = check_report(report, reference)
                if problem:
                    out.fail(problem)

    if tracer.enabled:
        summarize_trace(tracer, out, cli_median=median(flows),
                        plain=median(plain_flows), traced=median(traced_flows))
    return out


def layer_probes(paths, graph, scenarios, tracer: Tracer, out: Outcome) -> None:
    """Separately timed calls that split the flow's spans into layers."""
    from repro.spef.reader import iter_spef_nets

    with tracer.span("spef.parse") as span:
        with open(paths["spef"], "r", encoding="utf-8") as handle:
            text = handle.read()
        nets = sum(1 for _ in iter_spef_nets(text))
    span["attrs"] = {"nets": nets}
    out.layers["spef.nets"] = (nets, "count", 1)
    sweep_probes(graph, scenarios, tracer)


def sweep_probes(graph, scenarios, tracer: Tracer) -> None:
    """Time the corner solve and its bare forest sweep on the workload's planes."""
    db = graph.db
    with tracer.span("designdb.solve_scenarios"):
        db.solve_scenarios(scenarios)
    with tracer.span("flat.sweep"):
        db.forest.solve_batch(
            edge_r=scenarios.r_derates, edge_c=scenarios.c_derates,
            node_c=scenarios.c_derates, count=len(scenarios),
        )


def summarize_trace(tracer: Tracer, out: Outcome, *, cli_median: float,
                    plain: float, traced: float) -> None:
    def med(name):
        values = tracer.durations(name)
        return median(values) if values else 0.0

    flows = len(tracer.durations("signoff.flow"))
    parse = med("spef.parse")
    solve = med("designdb.solve_scenarios")
    out.layers.update({
        "netlist.load_s": (med("netlist.load"), "s", flows),
        "spef.parse_s": (parse, "s", 1),
        "designdb.build_s": (med("designdb.from_spef") - parse, "s", flows),
        "timinggraph.build_s": (med("timinggraph.build"), "s", flows),
        "timinggraph.summary_s": (med("timinggraph.summary"), "s", flows),
        "report.serialize_s": (sum(tracer.durations("report.serialize")) / flows, "s", flows),
        "designdb.solve_scenarios_s": (solve, "s", 1),
        "timinggraph.propagate_s": (med("timinggraph.analyze_scenarios") - solve, "s", flows),
        "flat.sweep_s": (med("flat.sweep"), "s", 1),
        "trace.overhead_frac": (traced / plain - 1.0, "frac", flows),
    })
    # The CLI flow's median is the end-to-end figure the layer spans must
    # account for; the rest is interpreter start-up, imports and printing.
    children = [
        s["end"] - s["start"] for s in tracer.spans
        if s["parent"] is not None and s["name"] != "signoff.flow"
    ]
    out.layers["trace.unaccounted_frac"] = (
        1.0 - (sum(children) / flows) / cli_median, "frac", flows,
    )
