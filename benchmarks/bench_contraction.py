"""Benchmark: pointer-jumping contraction vs the level sweeps on deep forests.

The level sweeps issue one numpy call per depth level -- O(depth) dispatch
overhead that erases the vectorization win on chain-shaped nets (the "depth
pathology" of docs/performance.md).  The contraction engine
(:mod:`repro.flat.contraction`) replays a ``ceil(log2(depth + 1))``-round
jump schedule instead, so its dispatch count is 14 where the chain sweep's
is 10k.

The workload solves a 4-scenario batch on one ~10k-node tree of each shape
class: the chain (maximal depth -- the pathology itself), the caterpillar
(spine depth with leaves at every level), the balanced binary tree (the
friendly case, where contraction's heavier rounds should *not* win much or
at all) and the star (depth 1, degenerate).  Parity against the serial
level sweeps is asserted at rtol 1e-12 for every array of every shape in
the same run as the timings -- a speedup over a disagreeing kernel would be
meaningless.

Acceptance: **>= 5x over the serial level sweeps on the 10k-node chain.**
The printed table is the record for docs/performance.md.
"""

import time

import numpy as np
import pytest

from repro.flat import FlatForest
from repro.flat.contraction import jump_schedule
from repro.generators.random_trees import RandomTreeConfig, random_flat_tree
from repro.utils.tables import format_table

N_NODES = 10_000
N_SCENARIOS = 4
FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")


def _best(function, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def _chain(nodes, seed):
    return random_flat_tree(seed, RandomTreeConfig(nodes=nodes, branching_bias=0.0))


def _caterpillar(nodes, seed):
    # Spine at even indices, a leaf hanging off at odd ones: depth ~ nodes/2.
    rng = np.random.default_rng(seed)
    parent = [-1]
    spine = 0
    for index in range(1, nodes + 1):
        parent.append(spine)
        if index % 2 == 1:
            spine = index
    return _from_parents(parent, rng)


def _balanced(nodes, seed):
    rng = np.random.default_rng(seed)
    parent = [-1] + [(index - 1) // 2 for index in range(1, nodes + 1)]
    return _from_parents(parent, rng)


def _star(nodes, seed):
    rng = np.random.default_rng(seed)
    return _from_parents([-1] + [0] * nodes, rng)


def _from_parents(parent, rng):
    from repro.flat import FlatTree

    n = len(parent)
    edge_r = np.concatenate([[0.0], rng.uniform(1.0, 1000.0, n - 1)])
    edge_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, n - 1)])
    node_c = np.concatenate([[0.0], rng.uniform(1e-15, 1e-12, n - 1)])
    return FlatTree.from_arrays(parent, edge_r, edge_c, node_c)


SHAPES = (
    ("chain", _chain),
    ("caterpillar", _caterpillar),
    ("balanced", _balanced),
    ("star", _star),
)


def _parity(got, want):
    worst = 0.0
    for name in FIELDS:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        scale = np.maximum(np.abs(b), 1e-30)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    return worst


@pytest.fixture(scope="module")
def forests():
    return {name: FlatForest([build(N_NODES, 7)]) for name, build in SHAPES}


def test_contraction_beats_level_sweeps_on_chains(benchmark, forests, report):
    rows = []
    chain_speedup = None
    worst_parity = 0.0
    rounds = {}
    for name, _ in SHAPES:
        forest = forests[name]
        serial = forest.solve_batch(count=N_SCENARIOS, engine="numpy")
        contracted = forest.solve_batch(count=N_SCENARIOS, engine="contract")
        rounds[name] = len(jump_schedule(forest.structure.parent))
        parity = _parity(contracted, serial)
        worst_parity = max(worst_parity, parity)
        assert parity < 1e-12, f"{name}: worst relative mismatch {parity:.3e}"
        del serial, contracted

        serial_time, _ = _best(
            lambda f=forest: f.solve_batch(count=N_SCENARIOS, engine="numpy")
        )
        contract_time, _ = _best(
            lambda f=forest: f.solve_batch(count=N_SCENARIOS, engine="contract")
        )
        speedup = serial_time / contract_time
        if name == "chain":
            chain_speedup = speedup
        depth = int(forests[name]._depth.max())
        rows.append(
            (
                f"{name} (depth {depth}, {rounds[name]} rounds)",
                serial_time * 1e3,
                contract_time * 1e3,
                speedup,
            )
        )

    # The single-scenario chain is the classic pathology from the docs: the
    # level sweeps' 10k-dispatch overhead against 14 contraction rounds.
    chain = forests["chain"]
    single_serial, _ = _best(lambda: chain.solve_batch(count=1, engine="numpy"))
    single_contract, _ = _best(lambda: chain.solve_batch(count=1, engine="contract"))
    rows.append(
        (
            "chain, single scenario",
            single_serial * 1e3,
            single_contract * 1e3,
            single_serial / single_contract,
        )
    )

    benchmark(lambda: chain.solve_batch(count=N_SCENARIOS, engine="contract"))

    table = format_table(
        ["topology", "level sweeps (ms)", "contraction (ms)", "speedup"],
        rows,
        precision=3,
        title=(
            f"{N_NODES}-node trees x {N_SCENARIOS} scenarios, "
            f"parity {worst_parity:.1e}"
        ),
    )
    report("contraction vs level sweeps", table)

    assert rounds["chain"] <= 15, rounds
    assert chain_speedup >= 5.0, (
        f"contraction speedup {chain_speedup:.2f}x < 5x on the {N_NODES}-node chain"
    )
