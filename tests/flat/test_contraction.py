"""Unit and regression tests for the pointer-jumping contraction engine.

Covers the kernel primitives (jump schedules, path/subtree sums) against
brute-force oracles, the 10k-node chain regression the tentpole exists for
(no RecursionError, O(log N) rounds, 1e-12 parity with the level sweeps),
and the observability knobs (``last_selection`` / ``REPRO_ENGINE_LOG``)
with the chain-auto-picks-contract guarantee.
"""

import math
import random

import numpy as np
import pytest

from repro.flat import FlatForest
from repro.flat.contraction import (
    jump_schedule,
    path_sums,
    subtree_sums,
    sweep_scenarios_contract,
)
from repro.parallel import backends as backends_module
from repro.parallel import last_selection, should_contract

from tests.properties.topologies import (
    TOPOLOGY_KINDS,
    topology_flat_tree,
    topology_parents,
)

FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")
CHAIN_NODES = 10_001


def _brute_path_sums(parent, weights):
    totals = np.array(weights, dtype=float)
    order = sorted(range(len(parent)), key=lambda i: _depth(parent, i))
    for node in order:
        if parent[node] >= 0:
            totals[node] += totals[parent[node]]
    return totals


def _brute_subtree_sums(parent, weights):
    totals = np.array(weights, dtype=float)
    order = sorted(range(len(parent)), key=lambda i: -_depth(parent, i))
    for node in order:
        if parent[node] >= 0:
            totals[parent[node]] += totals[node]
    return totals


def _depth(parent, node):
    depth = 0
    while parent[node] >= 0:
        node = parent[node]
        depth += 1
    return depth


class TestPrimitives:
    def test_chain_schedule_is_logarithmic(self):
        parent = np.arange(-1, 255)
        schedule = jump_schedule(parent)
        assert len(schedule) == 8  # ceil(log2(depth + 1)), depth = 255

    def test_star_schedule_is_one_round(self):
        parent = np.zeros(50, dtype=np.int64)
        parent[0] = -1
        assert len(jump_schedule(parent)) == 1

    def test_empty_and_single_node(self):
        assert jump_schedule(np.array([], dtype=np.int64)) == []
        assert jump_schedule(np.array([-1])) == []

    @pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
    def test_sums_match_brute_force(self, kind):
        rng = random.Random(17)
        parent = np.asarray(topology_parents(kind, 80, rng), dtype=np.int64)
        weights = np.asarray([rng.uniform(-2.0, 2.0) for _ in range(80)])
        schedule = jump_schedule(parent)
        np.testing.assert_allclose(
            path_sums(weights, schedule), _brute_path_sums(parent, weights), rtol=1e-12
        )
        np.testing.assert_allclose(
            subtree_sums(weights, schedule),
            _brute_subtree_sums(parent, weights),
            rtol=1e-12,
        )

    def test_sums_accept_scenario_planes(self):
        rng = np.random.default_rng(3)
        parent = np.asarray(topology_parents("caterpillar", 30, random.Random(2)))
        weights = rng.uniform(0.0, 1.0, size=(30, 4))
        schedule = jump_schedule(parent)
        stacked = np.stack(
            [path_sums(weights[:, s], schedule) for s in range(4)], axis=1
        )
        np.testing.assert_array_equal(path_sums(weights, schedule), stacked)

    def test_forest_of_trees_sums_independently(self):
        # Two chains: sums must never leak across root boundaries.
        parent = np.array([-1, 0, 1, -1, 3, 4])
        weights = np.ones(6)
        schedule = jump_schedule(parent)
        np.testing.assert_array_equal(
            path_sums(weights, schedule), [1, 2, 3, 1, 2, 3]
        )
        np.testing.assert_array_equal(
            subtree_sums(weights, schedule), [3, 2, 1, 3, 2, 1]
        )


class TestChainRegression:
    @pytest.fixture(scope="class")
    def chain(self):
        return FlatForest([topology_flat_tree("chain", CHAIN_NODES, seed=11)])

    def test_deep_chain_solves_without_recursion(self, chain):
        """10k-node chain: builds, solves and stays iterative end to end."""
        times = chain.solve_batch(count=2, engine="contract")
        assert np.all(np.isfinite(times.tde))

    def test_contract_rounds_are_logarithmic(self, chain):
        schedule = jump_schedule(chain.structure.parent)
        assert len(schedule) == math.ceil(math.log2(CHAIN_NODES))

    def test_chain_parity_with_level_sweeps(self, chain):
        rng = np.random.default_rng(5)
        scale = rng.uniform(0.5, 2.0, size=(3, chain.node_count))
        want = chain.solve_batch(edge_r=scale * chain._edge_r, engine="numpy")
        got = chain.solve_batch(edge_r=scale * chain._edge_r, engine="contract")
        for name in FIELDS:
            a, b = getattr(want, name), getattr(got, name)
            scale_ = np.maximum(np.abs(a), 1e-30)
            assert np.all(np.abs(b - a) <= 1e-12 * scale_), name


class TestAutoSelection:
    def test_chain_auto_picks_contract(self):
        chain = FlatForest([topology_flat_tree("chain", 4000, seed=1)])
        chain.solve_batch(count=1)
        record = last_selection()
        assert record["engine"] == "contract"
        assert record["requested"] == "auto"
        assert record["nodes"] == 4000 and record["depth"] == 3999

    def test_shallow_forest_stays_on_level_sweeps(self):
        forest = FlatForest(
            [topology_flat_tree("balanced", 200, seed=s) for s in range(3)]
        )
        forest.solve_batch(count=1)
        assert last_selection()["engine"] == "numpy"

    def test_explicit_engine_is_recorded_verbatim(self):
        forest = FlatForest([topology_flat_tree("star", 40, seed=2)])
        forest.solve_batch(count=1, engine="contract")
        record = last_selection()
        assert record["requested"] == "contract"
        assert record["engine"] == "contract"

    def test_should_contract_threshold(self, monkeypatch):
        assert not should_contract(0, 1)  # degenerate sizes never contract
        assert not should_contract(10, 1024)  # bushy: ratio 1
        assert should_contract(3999, 4000)  # chain: ratio ~334
        monkeypatch.setattr(backends_module, "CONTRACT_DEPTH_RATIO", 0.5)
        assert should_contract(10, 1024)  # threshold is read at call time


class TestEngineLog:
    def test_log_knob_reports_selection(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_LOG", "1")
        chain = FlatForest([topology_flat_tree("chain", 4000, seed=1)])
        chain.solve_batch(count=2)
        err = capsys.readouterr().err
        assert "repro.engine: engine=contract (requested=auto)" in err
        assert "nodes=4000 scenarios=2 depth=3999" in err

    def test_log_knob_off_by_default(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_LOG", raising=False)
        forest = FlatForest([topology_flat_tree("star", 40, seed=2)])
        forest.solve_batch(count=1)
        assert capsys.readouterr().err == ""

    def test_log_knob_zero_means_off(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_LOG", "0")
        forest = FlatForest([topology_flat_tree("star", 40, seed=2)])
        forest.solve_batch(count=1)
        assert capsys.readouterr().err == ""
