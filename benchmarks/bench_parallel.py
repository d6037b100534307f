"""Benchmark: the sharded multi-core solve engine vs the serial kernels.

The workload is the scenario-sweep benchmark's design-scale plane: a
seed-stable 2000-instance random design
(:func:`repro.generators.random_design`) whose stage-tree forest is swept
over 64 scenarios (:func:`repro.generators.random_scenarios`) under full
``(S, N)`` effective element planes -- exactly what
:meth:`repro.graph.DesignDB.solve_scenarios` hands the engine.  Three
contenders produce every node's characteristic times under every scenario:

* ``engine="numpy"`` -- the serial vectorized kernels (the reference);
* ``engine="process"`` -- node-balanced shards solved on worker threads
  over in-process planes (:mod:`repro.parallel.engine`);
* the chunked axis -- a 256-scenario sweep through
  ``scenario_chunk``-bounded passes, demonstrating the bounded working set.

Parity is asserted at rtol 1e-12 for every array of every contender (the
sharding actually guarantees bitwise equality -- a speedup over a
disagreeing engine would be meaningless).  The speedup assertion -- **>= 2x
for the 64-scenario, 2000-instance sweep** -- applies on machines with at
least 4 usable cores; below that the sharded path cannot physically beat
the serial one and the run only records the measured ratio.  The printed
table is the record for ``docs/performance.md``.
"""

import time

import numpy as np
import pytest

from repro.generators import random_design, random_scenarios
from repro.graph import TimingGraph
from repro.parallel import default_job_count, scenario_chunks
from repro.utils.tables import format_table

N_INSTANCES = 2_000
N_SCENARIOS = 64
N_SCENARIOS_CHUNKED = 256
PERIOD = 2e-9
THRESHOLD = 0.5
INPUT_DRIVE = 120.0
FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")
CORES = default_job_count()
#: At least two workers even on small machines, so the sharded path is
#: always the one whose parity gets pinned; capped to avoid oversharding.
JOBS = max(2, min(CORES, 8))


def _best(function, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def workload():
    design, parasitics = random_design(N_INSTANCES, seed=7)
    graph = TimingGraph(
        design,
        dict(parasitics),
        clock_period=PERIOD,
        threshold=THRESHOLD,
        input_drive_resistance=INPUT_DRIVE,
    )
    forest = graph.db.forest
    rng = np.random.default_rng(11)
    n = forest.node_count

    def planes(count):
        # Full node-major effective element planes (transposed views), the
        # layout DesignDB.solve_scenarios hands the engine.
        return {
            "edge_r": (forest._edge_r[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
            "edge_c": (forest._edge_c[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
            "node_c": (forest._node_c[:, None] * rng.uniform(0.85, 1.2, (n, count))).T,
        }

    return graph, forest, planes(N_SCENARIOS), planes(N_SCENARIOS_CHUNKED)


def _assert_parity(got, want, label):
    worst = 0.0
    for name in FIELDS:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        scale = np.maximum(np.abs(b), 1e-18)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    assert worst < 1e-12, f"{label}: worst relative mismatch {worst:.3e}"
    return worst


def test_sharded_engine_speedup(benchmark, workload, report):
    graph, forest, planes, _ = workload

    # Warm both paths (worker-pool fork, shared-block creation, page cache).
    serial_result = forest.solve_batch(**planes, count=N_SCENARIOS, engine="numpy")
    sharded_result = forest.solve_batch(
        **planes, count=N_SCENARIOS, engine="process", jobs=JOBS
    )
    worst = _assert_parity(sharded_result, serial_result, "sharded vs serial")
    del serial_result, sharded_result

    serial_time, _ = _best(
        lambda: forest.solve_batch(**planes, count=N_SCENARIOS, engine="numpy")
    )
    sharded_time, _ = _best(
        lambda: forest.solve_batch(
            **planes, count=N_SCENARIOS, engine="process", jobs=JOBS
        )
    )
    speedup = serial_time / sharded_time

    sweep_serial, _ = _best(
        lambda: graph.db.solve_scenarios(
            random_scenarios(N_SCENARIOS, seed=11), engine="numpy"
        ),
        repeats=3,
    )
    sweep_sharded, _ = _best(
        lambda: graph.db.solve_scenarios(
            random_scenarios(N_SCENARIOS, seed=11), engine="process", jobs=JOBS
        ),
        repeats=3,
    )

    benchmark(
        lambda: forest.solve_batch(
            **planes, count=N_SCENARIOS, engine="process", jobs=JOBS
        )
    )

    rows = [
        ("forest solve, engine=numpy (serial reference)", serial_time * 1e3, 1.0),
        (
            f"forest solve, engine=process ({JOBS} workers)",
            sharded_time * 1e3,
            speedup,
        ),
        (
            "whole solve_scenarios, engine=numpy",
            sweep_serial * 1e3,
            1.0,
        ),
        (
            f"whole solve_scenarios, engine=process ({JOBS} workers)",
            sweep_sharded * 1e3,
            sweep_serial / sweep_sharded,
        ),
    ]
    table = format_table(
        ["workload", "time (ms)", "speedup"],
        rows,
        precision=3,
        title=(
            f"{N_SCENARIOS}-scenario x {N_INSTANCES}-instance sweep, "
            f"{CORES} usable cores, parity {worst:.1e}"
        ),
    )
    report("sharded-engine speedup", table)

    # Acceptance: >= 2x on >= 4 cores.  Fewer cores cannot express the
    # speedup -- those runs still pin parity above and record the ratio.
    if CORES >= 4:
        assert speedup >= 2.0, (
            f"sharded speedup {speedup:.2f}x < 2x on {CORES} cores"
        )


def test_chunked_axis_bounds_working_set(workload, report):
    _, forest, _, big_planes = workload
    n = forest.node_count

    serial = forest.solve_batch(**big_planes, count=N_SCENARIOS_CHUNKED, engine="numpy")
    chunked_serial = forest.solve_batch(
        **big_planes, count=N_SCENARIOS_CHUNKED, engine="numpy", scenario_chunk=48
    )
    chunked_sharded = forest.solve_batch(
        **big_planes,
        count=N_SCENARIOS_CHUNKED,
        engine="process",
        jobs=JOBS,
        scenario_chunk=48,
    )
    _assert_parity(chunked_serial, serial, "chunked serial vs serial")
    worst = _assert_parity(chunked_sharded, serial, "chunked sharded vs serial")

    pieces = scenario_chunks(N_SCENARIOS_CHUNKED, n, chunk=48)
    widest = max(hi - lo for lo, hi in pieces)
    report(
        "chunked scenario axis",
        f"{N_SCENARIOS_CHUNKED} scenarios x {n} nodes in {len(pieces)} passes; "
        f"working planes bounded at {widest} x {n} cells "
        f"({widest * n * 8 / 2**20:.1f} MiB each); parity {worst:.1e}",
    )
    assert len(pieces) >= 2
    assert widest * n * 8 < N_SCENARIOS_CHUNKED * n * 8
