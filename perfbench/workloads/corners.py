"""``corners``: warm multi-corner sweeps and what-if sizing on a 20k design.

The design is compiled during set-up, so the timed loop spends its time in
the batched forest sweep and the levelized tensor propagation.  One
operation is one closed-loop cycle: ``analyze_scenarios`` over 16 corners,
then ``whatif_resize_worst_slack`` over 32 X1 -> X2 candidates, both under
the default engine selection.  At 85k stage nodes x 16 corners the sweep is
past ``AUTO_PROCESS_CELLS``, so on two or more cores auto-selection runs the
``process`` backend: this is where backend, shared-memory and plane
validation changes show, and where compile changes should not.

The oracle re-runs both calls on the serial ``numpy`` engine after the
timed loop; nothing mutates the graph, so every cycle must match it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from perfbench.common import Outcome, current_rss_mb, median, mismatch, peak_rss_mb
from perfbench.trace import Tracer

PERIOD = 2e-9


@dataclass(frozen=True)
class Sizes:
    instances: int = 20000
    scenarios: int = 16
    candidates: int = 32
    setup_repeats: int = 3


def upsize_candidates(design, library, count: int, seed: int) -> List[Tuple[str, object]]:
    """``count`` seeded X1 -> X2 swaps over the design's combinational X1 cells."""
    pool = sorted(
        name for name, inst in design.instances.items()
        if inst.cell.name.endswith("_X1") and not inst.cell.is_sequential
    )
    rng = random.Random(seed)
    chosen = rng.sample(pool, min(count, len(pool)))
    return [(name, library[design.instances[name].cell.name[:-3] + "_X2"]) for name in chosen]


def build(design, parasitics, tracer: Tracer):
    from repro.graph import DesignDB, TimingGraph

    with tracer.span("designdb.build"):
        db = DesignDB(design, parasitics)
    with tracer.span("timinggraph.build"):
        graph = TimingGraph(db, clock_period=PERIOD, threshold=0.5)
    return graph


def cycle(graph, scenarios, swaps, tracer: Tracer, engine: Optional[str] = None):
    """One operation: ((worst slacks, verdicts, scores), engines, (sweep s, what-if s))."""
    from repro.parallel import last_selection

    t0 = time.perf_counter()
    with tracer.span("timinggraph.analyze_scenarios"):
        report = graph.analyze_scenarios(scenarios, engine=engine)
    t1 = time.perf_counter()
    engines = [(last_selection() or {}).get("engine")]
    with tracer.span("timinggraph.whatif"):
        scores = graph.whatif_resize_worst_slack(swaps, engine=engine)
    t2 = time.perf_counter()
    engines.append((last_selection() or {}).get("engine"))
    result = (np.array(report.worst_slack), list(report.verdicts), np.array(scores))
    return result, engines, (t1 - t0, t2 - t1)


def check_cycle(result, reference) -> Optional[str]:
    slack, verdicts, scores = result
    ref_slack, ref_verdicts, ref_scores = reference
    if verdicts != ref_verdicts:
        return f"verdicts {verdicts} != {ref_verdicts}"
    problem = mismatch(slack, ref_slack, scale=PERIOD)
    if problem:
        return f"corner worst slack: {problem}"
    problem = mismatch(scores, ref_scores, scale=PERIOD)
    if problem:
        return f"what-if scores: {problem}"
    return None


def run(seed: int, seconds: float, tracer: Tracer, sizes: Sizes = Sizes()) -> Outcome:
    from repro.generators import random_design, random_scenarios
    from repro.sta.cells import standard_cell_library

    out = Outcome()
    design, parasitics = random_design(sizes.instances, seed=seed)
    scenarios = random_scenarios(sizes.scenarios, seed=seed)
    swaps = upsize_candidates(design, standard_cell_library(), sizes.candidates, seed)
    out.named["baseline_rss_mb"] = (current_rss_mb(), "MB", 1)

    # Set-up: compile, build the graph, one warm-up cycle.  Repeated so the
    # median is steady; the graph of the last repeat is the one measured.
    setups = []
    for _ in range(sizes.setup_repeats):
        graph = None  # free the previous build so two never coexist
        start = time.perf_counter()
        graph = build(design, parasitics, tracer)
        cycle(graph, scenarios, swaps, Tracer(False))
        setups.append(time.perf_counter() - start)
    out.metrics["setup_s"] = (median(setups), "s", len(setups))

    results, ops, parts, traced_ops = [], [], [], []

    def attempt(active: Tracer):
        """One cycle; a raising cycle counts as a failed operation."""
        out.attempted += 1
        try:
            result, engines, times = cycle(graph, scenarios, swaps, active)
        except Exception as error:  # noqa: BLE001 - recorded, the loop goes on
            out.fail(f"cycle raised {error!r}")
            return None
        results.append(result)
        for name in engines:
            out.count_engine(name)
        return times

    phase_end = seconds / 2.0 if tracer.enabled else seconds
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < phase_end:
        t0 = time.perf_counter()
        times = attempt(Tracer(False))
        ops.append(time.perf_counter() - t0)
        if times is not None:
            parts.append(times)
    rss = peak_rss_mb()
    if tracer.enabled:
        while not traced_ops or time.perf_counter() - start < seconds:
            with tracer.span("corners.cycle") as root:
                attempt(tracer)
            traced_ops.append(root["end"] - root["start"])
            layer_probes(graph, scenarios, swaps, tracer)

    out.metrics["peak_rss_mb"] = (rss, "MB", len(ops))
    out.op_seconds = list(ops)
    out.metrics["op_p50_ms"] = (median(ops) * 1e3, "ms", len(ops))
    out.metrics["ops_per_s"] = (len(ops) / sum(ops), "1/s", len(ops))
    if parts:
        out.named["sweep_ms"] = (median([p[0] for p in parts]) * 1e3, "ms", len(parts))
        out.named["whatif_ms"] = (median([p[1] for p in parts]) * 1e3, "ms", len(parts))

    # Oracle, outside the timed region: the serial numpy engine.
    reference, _, _ = cycle(graph, scenarios, swaps, Tracer(False), engine="numpy")
    for result in results:
        problem = check_cycle(result, reference)
        if problem:
            out.fail(problem)

    if tracer.enabled:
        summarize_trace(tracer, out, plain=median(ops), traced=median(traced_ops))
    return out


def layer_probes(graph, scenarios, swaps, tracer: Tracer) -> None:
    """Separately timed calls that split the cycle into layers."""
    from perfbench.workloads.signoff import sweep_probes

    sweep_probes(graph, scenarios, tracer)
    with tracer.span("designdb.whatif_planes"):
        graph.db.whatif_cell_elements(swaps)


def summarize_trace(tracer: Tracer, out: Outcome, *, plain: float, traced: float) -> None:
    def med(name):
        values = tracer.durations(name)
        return median(values) if values else 0.0

    cycles = len(tracer.durations("corners.cycle"))
    solve = med("designdb.solve_scenarios")
    out.layers.update({
        "designdb.build_s": (med("designdb.build"), "s", len(tracer.durations("designdb.build"))),
        "timinggraph.build_s": (med("timinggraph.build"), "s", len(tracer.durations("timinggraph.build"))),
        "designdb.solve_scenarios_s": (solve, "s", cycles),
        "timinggraph.propagate_s": (med("timinggraph.analyze_scenarios") - solve, "s", cycles),
        "designdb.whatif_planes_s": (med("designdb.whatif_planes"), "s", cycles),
        "flat.sweep_s": (med("flat.sweep"), "s", cycles),
        "trace.overhead_frac": (traced / plain - 1.0, "frac", cycles),
        "trace.unaccounted_frac": (median(tracer.self_share("corners.cycle")), "frac", cycles),
    })
