"""A tree is a forest of one, a scenario is a batch of one.

Every numpy solve path runs the same forest kernel, so a tree's times
must agree bit for bit (``np.array_equal``, not a tolerance) whether it is
solved alone, batched with ``S = 1``, inside a forest next to other trees,
or out of a shard store -- ``T_P`` and ``C_T`` included.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.flat import FlatForest, FlatTree
from repro.generators import RandomTreeConfig, random_flat_tree
from repro.generators.random_trees import random_chain
from repro.store import ShardStoreWriter, StoredForest

FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")
TREES = 40


def _tree(index):
    """Tree ``index``: 40 random shapes with distributed lines, then a chain."""
    if index == TREES:
        return FlatTree.from_tree(random_chain(300, seed=3))
    config = RandomTreeConfig(
        nodes=4 + 9 * (index % 11), distributed_fraction=0.5, branching_bias=0.7
    )
    return random_flat_tree(index, config)


INDICES = list(range(TREES + 1))


def _single(times):
    return {field: getattr(times, field) for field in FIELDS}


def _member(times, tree, window):
    """One tree's entries of a forest result (``ForestTimes`` layout)."""
    return {
        "tp": times.tp[tree],
        "tde": times.tde[window],
        "tre": times.tre[window],
        "ree": times.ree[window],
        "total_capacitance": times.total_capacitance[tree],
    }


def _scenario(times, scenario=0):
    """Scenario ``scenario`` of a batched result, laid out like one solve."""
    return SimpleNamespace(
        **{field: getattr(times, field)[scenario] for field in FIELDS}
    )


def _assert_bitwise(got, want, path):
    for field in FIELDS:
        assert np.array_equal(got[field], want[field]), f"{path}: {field} differs"


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """Every tree in one shard store, several trees per shard."""
    directory = str(tmp_path_factory.mktemp("forest-of-one") / "store")
    with ShardStoreWriter(directory, shard_nodes=200) as writer:
        for index in INDICES:
            writer.add_flat_tree(_tree(index))
        writer.close()
    stored = StoredForest(directory)
    assert stored.shard_count > 1
    return stored


@pytest.mark.parametrize("index", INDICES)
def test_every_solve_path_gives_the_same_bits(index, store):
    tree = _tree(index)
    want = _single(tree.solve())

    _assert_bitwise(
        _single(_scenario(tree.solve_batch(count=1))), want, "solve_batch"
    )
    _assert_bitwise(
        _member(FlatForest([tree]).solve(), 0, slice(None)), want, "forest of one"
    )

    before, after = _tree((index - 1) % len(INDICES)), _tree((index + 1) % len(INDICES))
    forest = FlatForest([before, tree, after])
    window = forest.tree_slice(1)
    _assert_bitwise(_member(forest.solve(), 1, window), want, "forest solve")
    batched = forest.solve_batch(count=1, engine="numpy")
    _assert_bitwise(
        _member(_scenario(batched), 1, window), want, "forest solve_batch"
    )

    stored = store.solve()
    lo = int(store.offsets[index])
    _assert_bitwise(
        _member(stored, index, slice(lo, lo + len(tree))), want, "stored solve"
    )


@pytest.mark.parametrize("index", INDICES)
def test_single_output_query_matches_full_solve(index):
    fresh = _tree(index)
    output = int(fresh.output_indices[-1])
    # A freshly compiled tree has no solved arrays: this is the O(depth)
    # path query plus the kernel's T_P and C_T reductions.
    query = fresh.characteristic_times(output)
    times = fresh.solve()
    assert query.tp == times.tp
    assert query.total_capacitance == times.total_capacitance
    assert query.tde == times.tde[output]
    assert query.tre == times.tre[output]
