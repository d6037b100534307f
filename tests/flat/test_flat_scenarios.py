"""Scenario-batched FlatTree/FlatForest solves vs the single-scenario engine."""

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.core.networks import figure7_tree
from repro.flat import FlatForest, FlatTree
from repro.generators import RandomTreeConfig, random_flat_tree, random_forest
from repro.scenarios import ParameterPlane, Scenario, ScenarioSet, scaled_tree

SCENARIOS = ScenarioSet(
    [
        Scenario("nom"),
        Scenario("slow", r_derate=1.25, c_derate=1.2),
        Scenario("fast", r_derate=0.8, c_derate=0.85),
    ]
)


def assert_matches_loop(flat, tree, scenarios, rtol=1e-12):
    """Batched solve row ``s`` == fresh solve of the scenario-scaled tree."""
    times = flat.solve_scenarios(scenarios)
    for index, scenario in enumerate(scenarios):
        reference = FlatTree.from_tree(
            scaled_tree(tree, scenario.r_derate, scenario.c_derate)
        ).solve()
        np.testing.assert_allclose(times.tde[index], reference.tde, rtol=rtol, atol=0)
        np.testing.assert_allclose(times.tre[index], reference.tre, rtol=rtol, atol=0)
        np.testing.assert_allclose(times.ree[index], reference.ree, rtol=rtol, atol=0)
        assert times.tp[index] == pytest.approx(reference.tp, rel=rtol)
        assert times.total_capacitance[index] == pytest.approx(
            reference.total_capacitance, rel=rtol
        )


class TestFlatTreeScenarios:
    def test_matches_per_scenario_loop_on_figure7(self):
        tree = figure7_tree()
        assert_matches_loop(FlatTree.from_tree(tree), tree, SCENARIOS)

    def test_plane_shapes(self):
        flat = FlatTree.from_tree(figure7_tree())
        n = len(flat)
        plane = ParameterPlane(
            r_scale=np.full((2, n), 1.1), c_scale=np.ones((2, n))
        )
        times = flat.solve_scenarios(plane)
        assert times.tde.shape == (2, n)
        assert times.scenario_count == 2

    def test_solve_batch_defaults_to_base_arrays(self):
        flat = FlatTree.from_tree(figure7_tree())
        single = flat.solve()
        batched = flat.solve_batch(count=1)
        np.testing.assert_allclose(batched.tde[0], single.tde, rtol=1e-12, atol=0)
        assert batched.tp[0] == pytest.approx(single.tp, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        flat = FlatTree.from_tree(figure7_tree())
        with pytest.raises(AnalysisError):
            flat.solve_batch(edge_r=np.ones((2, len(flat) + 1)))
        with pytest.raises(AnalysisError):
            flat.solve_batch(edge_r=np.ones(2), edge_c=np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_bad_element_values_rejected(self, bad):
        # A negative R used to come back as a negative T_De, and inf as NaN
        # with only a RuntimeWarning.
        flat = FlatTree.from_tree(figure7_tree())
        plane = np.ones((2, len(flat)))
        plane[0, 1] = bad
        with pytest.raises(ElementValueError, match="edge_r"):
            flat.solve_batch(edge_r=plane)
        with pytest.raises(ElementValueError, match="edge_c"):
            flat.solve_batch(edge_c=np.array([bad, 1.0]))

    def test_single_scenario_cache_untouched(self):
        flat = FlatTree.from_tree(figure7_tree())
        single = flat.solve()
        flat.solve_scenarios(SCENARIOS)
        assert flat.solve() is single  # cache neither read nor invalidated

    def test_batched_solve_sees_incremental_updates(self):
        flat = random_flat_tree(seed=4, config=RandomTreeConfig(nodes=60))
        flat.update_resistance(5, 123.0)
        flat.update_capacitance(9, 4.5e-13)
        nominal = flat.solve_scenarios(ScenarioSet([Scenario("nom")]))
        fresh = flat.solve()
        np.testing.assert_allclose(nominal.tde[0], fresh.tde, rtol=1e-12, atol=0)

    def test_random_tree_parity(self):
        flat = random_flat_tree(seed=11, config=RandomTreeConfig(nodes=120))
        times = flat.solve_scenarios(SCENARIOS)
        # Row s equals solving a tree whose arrays carry the scenario factors.
        for index, scenario in enumerate(SCENARIOS):
            reference = FlatTree(
                flat.names,
                flat._parent.copy(),
                flat._edge_r * scenario.r_derate,
                flat._edge_c * scenario.c_derate,
                flat._node_c * scenario.c_derate,
                flat._is_output.copy(),
            ).solve()
            np.testing.assert_allclose(
                times.tde[index], reference.tde, rtol=1e-12, atol=0
            )
            np.testing.assert_allclose(
                times.tre[index], reference.tre, rtol=1e-12, atol=0
            )


class TestFlatForestScenarios:
    def test_forest_batch_matches_member_solves(self):
        forest = random_forest(8, seed=3, config=RandomTreeConfig(nodes=40))
        times = forest.solve_batch(
            edge_r=SCENARIOS.r_derates,
            edge_c=SCENARIOS.c_derates,
            count=3,
        )
        # (S,) planes are per-scenario factors *applied as effective values*,
        # so compare against per-tree solves with constant element arrays.
        assert times.tde.shape == (3, forest.node_count)
        assert times.tp.shape == (3, len(forest))

    def test_forest_scenario_rows_match_scaled_trees(self):
        trees = [figure7_tree(), figure7_tree()]
        forest = FlatForest.from_rctrees(trees)
        r = SCENARIOS.r_derates[:, np.newaxis]
        c = SCENARIOS.c_derates[:, np.newaxis]
        times = forest.solve_batch(
            edge_r=forest._edge_r * r,
            edge_c=forest._edge_c * c,
            node_c=forest._node_c * c,
            count=3,
        )
        for index, scenario in enumerate(SCENARIOS):
            for t, tree in enumerate(trees):
                reference = FlatTree.from_tree(
                    scaled_tree(tree, scenario.r_derate, scenario.c_derate)
                ).solve()
                window = forest.tree_slice(t)
                np.testing.assert_allclose(
                    times.tde[index, window], reference.tde, rtol=1e-12, atol=0
                )
                assert times.tp[index, t] == pytest.approx(reference.tp, rel=1e-12)
                assert times.total_capacitance[index, t] == pytest.approx(
                    reference.total_capacitance, rel=1e-12
                )

    def test_replace_tree_then_batch_is_exact(self):
        forest = random_forest(5, seed=9, config=RandomTreeConfig(nodes=30))
        replacement = random_flat_tree(seed=100, config=RandomTreeConfig(nodes=45))
        forest.replace_tree(2, replacement)
        times = forest.solve_batch(count=1)
        window = forest.tree_slice(2)
        np.testing.assert_allclose(
            times.tde[0, window], replacement.solve().tde, rtol=1e-12, atol=0
        )
