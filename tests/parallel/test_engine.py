"""The sharded engine agrees exactly with the serial reference path.

Shard solves never read across tree boundaries and keep the per-tree
reduction order, so the contract here is stronger than the documented 1e-12
relative tolerance: results are asserted *bitwise* equal.  ``jobs`` counts
above the machine's core count are intentional -- correctness of the
process backend does not depend on actual parallel speedup, so these tests
exercise the sharded path even on a single-core runner.
"""

import gc

import numpy as np
import pytest

from repro.core.exceptions import AnalysisError, ElementValueError
from repro.flat import FlatForest, FlatTree
from repro.generators import random_design, random_flat_tree, random_forest
from repro.generators import random_scenarios
from repro.graph import TimingGraph
from repro.parallel import ForestStructure, solve_forest_batch

TIME_FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")
#: Element values the paper's bounds exclude: negative, infinite, NaN.
BAD_VALUES = (-1.0, np.inf, np.nan)


def assert_times_equal(got, want, fields=TIME_FIELDS):
    for name in fields:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), (name, float(np.max(np.abs(a - b))))


@pytest.fixture(scope="module")
def forest():
    return random_forest(60, seed=21)


@pytest.fixture(scope="module")
def planes(forest):
    rng = np.random.default_rng(7)
    s = 11
    return {
        "edge_r": forest._edge_r * rng.uniform(0.5, 1.5, size=(s, forest.node_count)),
        "edge_c": rng.uniform(0.8, 1.2, size=s),
        "node_c": None,
        "count": s,
    }


class TestEngineParity:
    def test_process_matches_numpy_bitwise(self, forest, planes):
        serial = forest.solve_batch(**planes)
        sharded = forest.solve_batch(**planes, engine="process", jobs=3)
        assert_times_equal(sharded, serial)

    def test_chunked_serial_matches_unchunked(self, forest, planes):
        serial = forest.solve_batch(**planes)
        chunked = forest.solve_batch(**planes, engine="numpy", scenario_chunk=4)
        assert_times_equal(chunked, serial)

    def test_chunked_process_matches(self, forest, planes):
        serial = forest.solve_batch(**planes)
        chunked = forest.solve_batch(
            **planes, engine="process", jobs=3, scenario_chunk=3
        )
        assert_times_equal(chunked, serial)

    def test_single_scenario_and_base_planes(self, forest):
        serial = forest.solve_batch(count=1)
        sharded = forest.solve_batch(count=1, engine="process", jobs=2)
        assert_times_equal(sharded, serial)

    def test_node_major_transposed_views_accepted(self, forest):
        s = 5
        rng = np.random.default_rng(3)
        node_major = np.ascontiguousarray(
            (forest._edge_r[:, None] * rng.uniform(0.5, 2.0, size=(forest.node_count, s)))
        )
        serial = forest.solve_batch(edge_r=node_major.T, count=s)
        sharded = forest.solve_batch(edge_r=node_major.T, count=s, engine="process", jobs=2)
        reference = forest.solve_batch(edge_r=node_major.T.copy(), count=s)
        assert_times_equal(serial, reference)
        assert_times_equal(sharded, reference)

    def test_nonzero_root_plane_is_shard_invariant(self, forest):
        # A plane may (degenerately) put elements on tree roots; the root's
        # "parent" term is defined as zero, so results must not depend on
        # which node happens to sit at a shard's local index 0.
        s = 4
        rng = np.random.default_rng(11)
        er = forest._edge_r * rng.uniform(0.5, 1.5, size=(s, forest.node_count))
        ec = forest._edge_c * rng.uniform(0.5, 1.5, size=(s, forest.node_count))
        roots = np.asarray(forest._offsets[:-1], dtype=np.int64)
        er[:, roots] = rng.uniform(10.0, 500.0, size=(s, len(roots)))
        ec[:, roots] = rng.uniform(1e-15, 1e-13, size=(s, len(roots)))
        serial = forest.solve_batch(edge_r=er, edge_c=ec, count=s)
        sharded = forest.solve_batch(
            edge_r=er, edge_c=ec, count=s, engine="process", jobs=3
        )
        assert_times_equal(sharded, serial)

    def test_many_jobs_more_than_trees(self):
        small = random_forest(3, seed=5)
        serial = small.solve_batch(count=4)
        sharded = small.solve_batch(count=4, engine="process", jobs=16)
        assert_times_equal(sharded, serial)

    def test_single_tree_forest_falls_back_to_serial(self):
        lone = FlatForest([random_flat_tree(seed=1)])
        serial = lone.solve_batch(count=3)
        sharded = lone.solve_batch(count=3, engine="process", jobs=4)
        assert_times_equal(sharded, serial)

    def test_results_outlive_the_record(self, forest, planes):
        tde = forest.solve_batch(**planes, engine="process", jobs=3).tde
        gc.collect()  # collect the record (and its shared-block holder)
        want = forest.solve_batch(**planes).tde
        assert np.array_equal(np.asarray(tde), want)


class TestIncrementalInvalidation:
    def test_replace_tree_reflected_by_every_engine(self):
        forest = random_forest(20, seed=9)
        forest.solve_batch(count=4, engine="process", jobs=3)
        forest.replace_tree(7, random_flat_tree(seed=123))
        serial = forest.solve_batch(count=4)
        sharded = forest.solve_batch(count=4, engine="process", jobs=3)
        assert serial.tde.shape[1] == forest.node_count
        assert_times_equal(sharded, serial)

    def test_structure_tracks_current_layout(self):
        forest = random_forest(10, seed=2)
        before = forest.structure.node_count
        replacement = random_flat_tree(seed=77)
        delta = len(replacement) - len(forest.trees[0])
        forest.replace_tree(0, replacement)
        structure = forest.structure
        assert structure.node_count == forest.node_count == before + delta
        assert structure.tree_count == len(forest)
        assert structure.parent is forest._parent


class TestValidation:
    def test_bad_scenario_vector_length(self, forest):
        with pytest.raises(AnalysisError, match="entries"):
            forest.solve_batch(edge_c=np.ones(3), count=5)

    def test_bad_plane_shape(self, forest):
        with pytest.raises(AnalysisError, match="shape"):
            forest.solve_batch(edge_r=np.ones((2, 3)), count=2)

    @pytest.mark.parametrize("bad", BAD_VALUES)
    @pytest.mark.parametrize("engine", ["numpy", "process"])
    def test_bad_element_values_raise(self, forest, bad, engine):
        matrix = np.tile(forest._edge_r, (2, 1))
        matrix[1, -1] = bad
        with pytest.raises(ElementValueError, match="edge_r"):
            forest.solve_batch(edge_r=matrix, engine=engine, jobs=2)
        with pytest.raises(ElementValueError, match="node_c"):
            forest.solve_batch(node_c=np.array([1.0, bad]), engine=engine, jobs=2)

    def test_unknown_engine(self, forest):
        with pytest.raises(AnalysisError, match="unknown engine"):
            forest.solve_batch(count=2, engine="quantum")

    def test_bad_count(self, forest):
        with pytest.raises(AnalysisError):
            solve_forest_batch(
                forest.structure,
                (forest._edge_r, forest._edge_c, forest._node_c),
                (None, None, None),
                0,
            )


class TestDesignLevel:
    @pytest.fixture(scope="class")
    def workload(self):
        design, parasitics = random_design(80, seed=13)
        scenarios = random_scenarios(10, seed=4)
        graph = TimingGraph(
            design,
            dict(parasitics),
            clock_period=1.5e-9,
            input_drive_resistance=110.0,
        )
        return graph, scenarios

    def test_solve_scenarios_parity(self, workload):
        graph, scenarios = workload
        serial = graph.db.solve_scenarios(scenarios, engine="numpy")
        sharded = graph.db.solve_scenarios(scenarios, engine="process", jobs=3)
        assert_times_equal(sharded, serial, fields=("tp", "tde", "tre", "total_capacitance"))
        assert sharded.scenario_names == serial.scenario_names

    def test_analyze_scenarios_parity(self, workload):
        graph, scenarios = workload
        serial = graph.analyze_scenarios(scenarios)
        sharded = graph.analyze_scenarios(scenarios, engine="process", jobs=3)
        assert np.array_equal(serial.worst_slack, sharded.worst_slack)
        assert serial.verdicts == sharded.verdicts
        assert serial.worst_endpoint == sharded.worst_endpoint

    def test_corner_sweep_parity(self, workload):
        from repro.apps.corners import corner_sweep

        graph, scenarios = workload
        assert corner_sweep(graph, scenarios) == corner_sweep(
            graph, scenarios, engine="process", jobs=2
        )

    def test_scenario_pin_slacks_parity(self, workload):
        graph, scenarios = workload
        serial = graph.scenario_pin_slacks(scenarios)
        sharded = graph.scenario_pin_slacks(scenarios, engine="process", jobs=2)
        assert serial.keys() == sharded.keys()
        for pin in serial:
            assert np.array_equal(serial[pin], sharded[pin]), pin

    def test_cli_jobs_flag(self, tmp_path):
        import json

        from repro.cli import main
        from repro.scenarios import ScenarioSet
        from repro.sta.netlist import design_to_dict

        design, _ = random_design(20, seed=3)
        netlist = tmp_path / "design.json"
        netlist.write_text(json.dumps(design_to_dict(design)))
        corners = tmp_path / "corners.json"
        corners.write_text(json.dumps(ScenarioSet.corners().to_dict()))
        out_parallel = tmp_path / "parallel.json"
        out_serial = tmp_path / "serial.json"
        argv = [
            "timing", "--netlist", str(netlist), "--period", "1",
            "--corners", str(corners),
        ]
        assert main(argv + ["--jobs", "2", "--output", str(out_parallel)]) == 0
        assert main(argv + ["--jobs", "1", "--output", str(out_serial)]) == 0
        assert json.loads(out_parallel.read_text()) == json.loads(
            out_serial.read_text()
        )
        # --jobs without --corners is a usage error, not a silent serial run.
        with pytest.raises(SystemExit) as excinfo:
            main([
                "timing", "--netlist", str(netlist), "--period", "1",
                "--jobs", "2",
            ])
        assert excinfo.value.code == 2
