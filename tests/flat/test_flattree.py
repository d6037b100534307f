"""Unit tests for the array-backed flat-tree engine."""

import numpy as np
import pytest

from repro.core.exceptions import (
    ElementValueError,
    TopologyError,
    UnknownNodeError,
)
from repro.core.networks import figure7_tree, rc_ladder, single_line
from repro.core.timeconstants import characteristic_times, characteristic_times_all
from repro.core.tree import RCTree
from repro.flat import FlatTree
from repro.generators.random_trees import RandomTreeConfig, random_tree


class TestCompile:
    def test_figure7_matches_direct_computation(self):
        tree = figure7_tree()
        flat = FlatTree.from_tree(tree)
        reference = characteristic_times(tree, "out")
        result = flat.characteristic_times("out")
        assert result.tp == pytest.approx(reference.tp, rel=1e-12)
        assert result.tde == pytest.approx(reference.tde, rel=1e-12)
        assert result.tre == pytest.approx(reference.tre, rel=1e-12)
        assert result.ree == reference.ree
        assert result.total_capacitance == pytest.approx(reference.total_capacitance)

    def test_preorder_layout(self):
        tree = RCTree("in")
        tree.add_resistor("in", "a", 1.0)
        tree.add_resistor("a", "b", 1.0)
        tree.add_resistor("a", "c", 1.0)
        flat = FlatTree.from_tree(tree)
        assert flat.names == ["in", "a", "b", "c"]
        assert flat.root == "in"
        assert len(flat) == 4
        assert "b" in flat and "zz" not in flat
        assert flat.name_of(flat.index("c")) == "c"

    def test_outputs_preserved(self):
        tree = figure7_tree()
        flat = FlatTree.from_tree(tree)
        assert flat.outputs == tree.outputs

    def test_unknown_output_raises(self):
        flat = FlatTree.from_tree(figure7_tree())
        with pytest.raises(UnknownNodeError):
            flat.characteristic_times("nope")

    def test_disconnected_node_rejected(self):
        tree = RCTree("in")
        tree.add_resistor("in", "a", 1.0)
        tree.add_node("floating")
        with pytest.raises(TopologyError):
            FlatTree.from_tree(tree)

    def test_aggregates_match_tree(self):
        tree = figure7_tree()
        flat = FlatTree.from_tree(tree)
        assert flat.total_capacitance == pytest.approx(tree.total_capacitance)
        for name in tree.nodes:
            assert flat.downstream_capacitance(name) == pytest.approx(
                tree.subtree_capacitance(name)
            )

    def test_path_resistance(self):
        tree = figure7_tree()
        flat = FlatTree.from_tree(tree)
        assert flat.path_resistance("out") == pytest.approx(18.0)
        assert flat.path_resistance("b") == pytest.approx(23.0)


class TestFromArrays:
    def test_matches_rctree_build(self):
        tree = RCTree("in")
        tree.add_resistor("in", "n1", 10.0)
        tree.add_line("n1", "n2", 5.0, 2.0)
        tree.add_capacitor("n1", 1.0)
        tree.add_capacitor("n2", 3.0)
        reference = FlatTree.from_tree(tree)
        built = FlatTree.from_arrays(
            [-1, 0, 1], [0.0, 10.0, 5.0], [0.0, 0.0, 2.0], [0.0, 1.0, 3.0],
            names=["in", "n1", "n2"],
        )
        for name in tree.nodes:
            a = reference.characteristic_times(name)
            b = built.characteristic_times(name)
            assert b.tde == a.tde and b.tre == a.tre and b.tp == a.tp

    def test_non_preorder_input_is_relabelled(self):
        # Creation order: n2 hangs off n1 *after* n3 attached to the root.
        built = FlatTree.from_arrays(
            [-1, 0, 0, 1],
            [0.0, 1.0, 2.0, 4.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1e-12, 2e-12, 3e-12],
            names=["in", "a", "b", "c"],
        )
        tree = RCTree("in")
        tree.add_resistor("in", "a", 1.0)
        tree.add_resistor("in", "b", 2.0)
        tree.add_resistor("a", "c", 4.0)
        tree.add_capacitor("a", 1e-12)
        tree.add_capacitor("b", 2e-12)
        tree.add_capacitor("c", 3e-12)
        reference = characteristic_times_all(tree, tree.nodes)
        for name in ("a", "b", "c"):
            assert built.characteristic_times(name).tde == reference[name].tde
        # Subtree-slice updates must work on the relabelled layout.
        built.update_resistance("a", 8.0)
        assert built.path_resistance("c") == pytest.approx(12.0)

    def test_default_outputs_are_leaves(self):
        flat = FlatTree.from_arrays(
            [-1, 0, 1, 1], [0.0, 1.0, 1.0, 1.0], [0.0] * 4, [0.0, 0.0, 1.0, 1.0]
        )
        assert flat.outputs == ["n2", "n3"]

    def test_bad_topology_rejected(self):
        with pytest.raises(TopologyError):
            FlatTree.from_arrays([-1, 2, 1], [0.0, 1.0, 1.0], [0.0] * 3, [0.0] * 3)
        with pytest.raises(TopologyError):
            FlatTree.from_arrays([0, 0], [0.0, 1.0], [0.0] * 2, [0.0] * 2)
        with pytest.raises(ElementValueError):
            FlatTree.from_arrays([-1, 0], [0.0, -1.0], [0.0] * 2, [0.0] * 2)

    @pytest.mark.parametrize(
        "edge_r, edge_c", [([5.0, 1.0], [0.0, 0.0]), ([0.0, 1.0], [3e-12, 0.0])]
    )
    def test_root_edge_elements_rejected(self, edge_r, edge_c):
        # The input node has no incoming edge; an element there would leak
        # into the T_P of whichever tree a forest solve gathers it for.
        with pytest.raises(TopologyError, match="no incoming edge"):
            FlatTree.from_arrays([-1, 0], edge_r, edge_c, [0.0, 1e-12])
        with pytest.raises(TopologyError, match="no incoming edge"):
            FlatTree(["in", "n1"], [-1, 0], edge_r, edge_c, [0.0, 1e-12], [False, True])


class TestAllOutputs:
    def test_matches_dict_engine_on_ladder(self):
        tree = rc_ladder(50, 10.0, 1e-12)
        flat = FlatTree.from_tree(tree)
        reference = characteristic_times_all(tree, tree.nodes)
        result = flat.characteristic_times_all(tree.nodes)
        assert set(result) == set(reference)
        for name, expected in reference.items():
            assert result[name].tde == expected.tde
            assert result[name].tre == expected.tre
            assert result[name].ree == expected.ree

    def test_default_output_selection_matches_dict_engine(self):
        tree = random_tree(7, RandomTreeConfig(nodes=40))
        flat = FlatTree.from_tree(tree)
        assert set(flat.characteristic_times_all()) == set(characteristic_times_all(tree))

    def test_single_line_closed_forms(self):
        tree = single_line(1000.0, 1e-12)
        flat = FlatTree.from_tree(tree)
        times = flat.characteristic_times("out")
        rc = 1000.0 * 1e-12
        assert times.tp == pytest.approx(rc / 2.0)
        assert times.tde == pytest.approx(rc / 2.0)
        assert times.tre == pytest.approx(rc / 3.0)

    def test_elmore_delays_helper(self):
        tree = figure7_tree()
        flat = FlatTree.from_tree(tree)
        delays = flat.elmore_delays(tree.nodes)
        reference = characteristic_times_all(tree, tree.nodes)
        assert delays == {name: ct.tde for name, ct in reference.items()}

    def test_ordering_invariant_holds(self):
        for seed in range(10):
            flat = FlatTree.from_tree(random_tree(seed, RandomTreeConfig(nodes=60)))
            for record in flat.characteristic_times_all().values():
                record.check_ordering()


class TestSolveCaching:
    def test_solve_is_cached_until_edit(self):
        flat = FlatTree.from_tree(figure7_tree())
        first = flat.solve()
        assert flat.solve() is first
        flat.update_capacitance("b", 8.0)
        assert flat.solve() is not first

    def test_no_op_update_keeps_cache(self):
        flat = FlatTree.from_tree(figure7_tree())
        first = flat.solve()
        flat.update_capacitance("b", 7.0)  # unchanged value
        assert flat.solve() is first
