"""Concurrent callers of the sharded engine each get their own answer.

Two threads solve *different* forests with ``engine="process", jobs=2`` at
the same time, round after round, and every result must match the serial
numpy answer at 1e-12.  The second arm reaches the same path through
auto-selection (threshold monkeypatched low), the way the serve tier's
executor threads do.  A sharded solve keeps its planes, shard plans and
results in its own frame, so nothing one caller writes can reach another;
a shared cache of either would show up here as mismatches, errors or a
hang.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.generators import random_forest
from repro.parallel import backends as backends_module
from repro.parallel import resolve_engine

SCENARIOS = 8
ROUNDS = 10
DEADLINE = 120.0
FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")


@pytest.fixture(scope="module")
def workloads():
    """Two forests of different sizes, their planes and numpy answers."""
    cases = []
    for index, size in enumerate((3000, 2000)):
        forest = random_forest(size, seed=index)
        rng = np.random.default_rng(index)
        planes = {
            "edge_r": forest._edge_r
            * rng.uniform(0.5, 1.5, size=(SCENARIOS, forest.node_count)),
            "edge_c": rng.uniform(0.8, 1.2, size=SCENARIOS),
            "count": SCENARIOS,
        }
        expected = forest.solve_batch(**planes, engine="numpy")
        cases.append((forest, planes, expected))
    return cases


def _matches(got, want):
    return all(
        np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0)
        for name in FIELDS
    )


def _run_concurrently(workloads, engine, jobs):
    """Solve each workload on its own thread; return (mismatches, errors)."""
    mismatches = []
    errors = []
    start = threading.Barrier(len(workloads))

    def worker(index):
        forest, planes, expected = workloads[index]
        try:
            start.wait()
            for round_ in range(ROUNDS):
                got = forest.solve_batch(**planes, engine=engine, jobs=jobs)
                if not _matches(got, expected):
                    mismatches.append((index, round_))
        except BaseException as exc:  # reported below, never swallowed
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,), daemon=True)
        for index in range(len(workloads))
    ]
    deadline = time.monotonic() + DEADLINE
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    hung = [thread.name for thread in threads if thread.is_alive()]
    assert not hung, f"sharded solves still running after {DEADLINE}s: {hung}"
    return mismatches, errors


def test_explicit_process_threads_get_their_own_results(workloads, hang_guard):
    hang_guard(int(DEADLINE) + 30)
    mismatches, errors = _run_concurrently(workloads, "process", 2)
    assert errors == []
    assert mismatches == []


def test_auto_selected_process_threads_get_their_own_results(
    workloads, monkeypatch, hang_guard
):
    hang_guard(int(DEADLINE) + 30)
    monkeypatch.setattr(backends_module, "AUTO_PROCESS_CELLS", 1024)
    for forest, _, _ in workloads:
        backend, jobs = resolve_engine(
            None,
            cells=forest.node_count * SCENARIOS,
            jobs=2,
            nodes=forest.node_count,
            depth=int(forest.structure.depth.max()),
        )
        assert backend.name == "process" and jobs == 2
    mismatches, errors = _run_concurrently(workloads, None, 2)
    assert errors == []
    assert mismatches == []
