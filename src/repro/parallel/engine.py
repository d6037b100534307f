"""The chunked solve engine behind every ``engine=`` backend.

:func:`solve_forest_batch` is the single entry point every scenario-batched
caller funnels through (:meth:`repro.flat.FlatForest.solve_batch` delegates
here, which carries :meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` and the CLI's ``timing --jobs``
along).  It normalizes the element planes, picks a backend through
:func:`repro.parallel.backends.resolve_engine`, and runs the forest kernel
:func:`repro.flat.scenarios.solve_range` chunk by chunk over the scenario
axis.

Execution model
---------------

* A backend is a shard plan.  The serial backends run the whole forest as
  one shard carrying their two-pass sweep: ``"numpy"`` the level sweeps,
  ``"contract"`` the pointer-jumping rounds.  ``"process"`` partitions
  the forest into contiguous, node-balanced shards
  (:func:`repro.parallel.sharding.plan_shards`).  Because every tree's
  nodes are contiguous and no level sweep ever reads across tree
  boundaries, a shard solve is **bitwise identical** to the
  same trees' rows of a whole-forest solve -- the 1e-12 parity the tests
  pin is really exact equality.  Only a depth-pathological shard of a
  sharded solve contracts; a forest that plans to one shard runs the
  level sweeps.
* One chunk loop runs every plan.  Shards run on threads over
  in-process planes: the calling thread solves the first shard and the
  shard executor's worker threads the rest.  Each shard reads row slices
  of the chunk's node-major ``(N, w)`` element matrices and writes its
  results straight into its rows of the preallocated result arrays; numpy
  releases the GIL inside the sweeps' gathers, scatters and arithmetic, so
  the shards overlap on separate cores.  Nothing is copied between shards
  and the caller.
* The scenario axis is processed in bounded chunks
  (:func:`repro.parallel.sharding.scenario_chunks`), so a 256-scenario
  sweep of a large design never materializes more than a few
  :data:`~repro.parallel.sharding.DEFAULT_CHUNK_CELLS`-sized planes at once.
* The shard executors are shared per worker count and created lazily
  behind a lock; every solve keeps its planes, shard plans and results in
  its own frame, so concurrent callers never share state.  Nothing about a
  *forest* is cached in this module, so incremental edits
  (:meth:`~repro.flat.FlatForest.replace_tree`,
  :meth:`~repro.graph.DesignDB.update_net`) need no invalidation here --
  the next solve simply reads the forest's current arrays.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.contraction import jump_schedule, sweep_scenarios_contract
from repro.flat.scenarios import (
    PLANE_NAMES,
    ScenarioForestTimes,
    SweepFn,
    chunk_matrix,
    level_buckets,
    normalize_plane,
    solve_range,
)
from repro.parallel.backends import (
    record_selection,
    register_backend,
    resolve_engine,
    should_contract,
)
from repro.parallel.sharding import plan_shards, scenario_chunks, shard_node_ranges

__all__ = ["ForestStructure", "solve_forest_batch", "shutdown_pools"]

#: The forest's base element arrays, in ``(edge_r, edge_c, node_c)`` order.
BasePlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: Normalized scenario planes (outputs of
#: :func:`repro.flat.scenarios.normalize_plane`), same order.
ScenarioPlanes = Tuple[
    Optional[np.ndarray], Optional[np.ndarray], Optional[np.ndarray]
]


@dataclass(frozen=True)
class ForestStructure:
    """The topology arrays a forest solve needs, independent of element values.

    ``parent`` uses global node indices (``-1`` for each tree's root),
    ``depth`` is the per-node level, ``offsets`` the cumulative node counts
    (``offsets[t]`` = first node of tree ``t``).  ``levels`` may carry the
    forest's precomputed level buckets to skip re-deriving them; the arrays
    are *referenced*, not copied, so a structure taken from a live forest
    always reflects its current (post-splice) layout.
    """

    parent: np.ndarray
    depth: np.ndarray
    offsets: np.ndarray
    levels: Optional[List[np.ndarray]] = None

    @property
    def node_count(self) -> int:
        """Total nodes across the forest."""
        return int(self.parent.shape[0])

    @property
    def tree_count(self) -> int:
        """Number of member trees."""
        return int(len(self.offsets) - 1)


# ----------------------------------------------------------------------
# Shards: what each backend runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Shard:
    """One node range's local topology and kernel, prepared once per solve.

    ``sweep=None`` runs the level sweeps over ``levels``; otherwise
    ``sweep`` is the contraction kernel and ``levels`` is not read.
    """

    nodes: slice
    trees: slice
    parent: np.ndarray
    levels: Sequence[np.ndarray]
    starts: np.ndarray
    sweep: Optional[SweepFn]


def _levels_of(structure: ForestStructure) -> List[np.ndarray]:
    """The forest's level buckets, derived from ``depth`` when not carried."""
    if structure.levels is not None:
        return structure.levels
    return level_buckets(structure.depth)


def _whole_forest(
    structure: ForestStructure,
    levels: Sequence[np.ndarray],
    sweep: Optional[SweepFn],
) -> List[_Shard]:
    """The whole forest as a single shard: the plan of every serial backend."""
    return [
        _Shard(
            nodes=slice(None),
            trees=slice(None),
            parent=structure.parent,
            levels=levels,
            starts=np.asarray(structure.offsets[:-1], dtype=np.int64),
            sweep=sweep,
        )
    ]


def _contract_sweep(parent: np.ndarray) -> SweepFn:
    """The contraction kernel with its jump schedule precomputed.

    The schedule depends only on topology, so one pass serves every
    scenario chunk of a solve (and every element plane of a shard).
    """
    schedule = jump_schedule(parent)

    def sweep(
        parent_: np.ndarray, er: np.ndarray, ec: np.ndarray, nc: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return sweep_scenarios_contract(parent_, er, ec, nc, schedule=schedule)

    return sweep


def _numpy_shards(structure: ForestStructure, jobs: int) -> List[_Shard]:
    """``"numpy"``: the level sweeps over the whole forest (the reference)."""
    return _whole_forest(structure, _levels_of(structure), None)


def _contract_shards(structure: ForestStructure, jobs: int) -> List[_Shard]:
    """``"contract"``: the pointer-jumping sweeps over the whole forest."""
    return _whole_forest(structure, (), _contract_sweep(structure.parent))


def _plan_shard(
    structure: ForestStructure,
    offsets: np.ndarray,
    ranges: Tuple[Tuple[int, int], Tuple[int, int]],
) -> _Shard:
    """Rebase one shard's topology to local indices and pick its kernel.

    A depth-pathological shard (per
    :func:`repro.parallel.backends.should_contract`) runs the contraction
    sweeps -- 1e-12-equal to, but not bitwise-identical with, the level
    sweeps -- so one deep chain inside an otherwise bushy design cannot
    serialize its worker.
    """
    trees, (n_lo, n_hi) = ranges
    parent = structure.parent[n_lo:n_hi].copy()
    parent[parent >= 0] -= n_lo
    levels = level_buckets(structure.depth[n_lo:n_hi])
    sweep = None
    if should_contract(len(levels) - 1, n_hi - n_lo):
        sweep = _contract_sweep(parent)
    return _Shard(
        nodes=slice(n_lo, n_hi),
        trees=slice(*trees),
        parent=parent,
        levels=levels,
        starts=offsets[trees[0] : trees[1]] - n_lo,
        sweep=sweep,
    )


def _process_shards(structure: ForestStructure, jobs: int) -> List[_Shard]:
    """``"process"``: node-balanced shards (see the module docstring).

    A forest that plans to one shard runs the whole-forest level sweeps,
    exactly the ``"numpy"`` plan.
    """
    offsets = np.asarray(structure.offsets, dtype=np.int64)
    tree_ranges = plan_shards(offsets, jobs)
    if len(tree_ranges) == 1:
        return _numpy_shards(structure, 1)
    node_ranges = shard_node_ranges(offsets, tree_ranges)
    return _run_shards(
        partial(_plan_shard, structure, offsets), list(zip(tree_ranges, node_ranges))
    )


# ----------------------------------------------------------------------
# The chunk loop every backend runs
# ----------------------------------------------------------------------
def _solve_shard(
    planes: Sequence[np.ndarray],
    outs: Tuple[np.ndarray, ...],
    columns: slice,
    shard: _Shard,
) -> None:
    """Solve one shard's rows of one chunk straight into the result arrays."""
    rows, trees = shard.nodes, shard.trees
    er, ec, nc = (plane[rows] for plane in planes)
    ree, tde, tre, tp, total = outs
    solve_range(
        shard.parent,
        shard.levels,
        shard.starts,
        er,
        ec,
        nc,
        sweep=shard.sweep,
        out=(
            ree[rows, columns],
            tde[rows, columns],
            tre[rows, columns],
            tp[trees, columns],
            total[trees, columns],
        ),
    )


#: Shard executors, one per worker count, created on first use.  Shard
#: tasks never submit to an executor themselves, so a full pool cannot
#: deadlock; concurrent solves simply queue their shards on it.
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(jobs: int) -> ThreadPoolExecutor:
    """The shared shard executor with ``jobs`` worker threads."""
    with _POOLS_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None:
            pool = ThreadPoolExecutor(jobs, thread_name_prefix="repro-shard")
            _POOLS[jobs] = pool
        return pool


def shutdown_pools() -> None:
    """Shut down every shard executor, waiting for its queued work."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def _run_shards(
    task: Callable[[_Item], _Result], items: Sequence[_Item]
) -> List[_Result]:
    """Run ``task`` on every item at once, results in order.

    The calling thread takes the first item itself and the shard executor
    the rest, so a two-shard solve needs one worker thread and a one-shard
    solve none.  Besides the dispatch this saves memory: the C allocator
    keeps a per-thread arena resident at its high-water mark, and the
    caller's arena is already there.
    """
    futures = [_pool(len(items) - 1).submit(task, item) for item in items[1:]]
    try:
        first = task(items[0])
    finally:
        wait(futures)  # no worker may still write once this call is over
    return [first] + [future.result() for future in futures]


def _solve_chunks(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
    shards: Sequence[_Shard],
) -> ScenarioForestTimes:
    """Run ``shards`` over every scenario chunk into preallocated results.

    Each chunk materializes the node-major ``(N, w)`` element matrices once
    and every shard writes its rows of the chunk's columns in place, so the
    serial backends (one whole-forest shard) and ``"process"`` (many) share
    one execution path.
    """
    n = structure.node_count
    trees = structure.tree_count
    outs = (
        np.empty((n, count), dtype=np.float64),
        np.empty((n, count), dtype=np.float64),
        np.empty((n, count), dtype=np.float64),
        np.empty((trees, count), dtype=np.float64),
        np.empty((trees, count), dtype=np.float64),
    )
    chunks = scenario_chunks(count, n, chunk=chunk)
    for lo, hi in chunks:
        chunk_planes = tuple(
            chunk_matrix(plane, values, lo, hi, n) for plane, values in zip(planes, base)
        )
        _run_shards(partial(_solve_shard, chunk_planes, outs, slice(lo, hi)), shards)
    ree, tde, tre, tp, total = outs
    return ScenarioForestTimes(
        tp=tp.T, tde=tde.T, tre=tre.T, ree=ree.T, total_capacitance=total.T
    )


register_backend(
    "numpy",
    _numpy_shards,
    parallel=False,
    description="serial vectorized kernels, in-process (the reference path)",
)
register_backend(
    "process",
    _process_shards,
    parallel=True,
    description="node-balanced shards solved on worker threads over "
    "in-process planes",
)
register_backend(
    "contract",
    _contract_shards,
    parallel=False,
    description="pointer-jumping tree contraction: O(log N) rounds "
    "regardless of depth, for chain-heavy forests",
)


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def solve_forest_batch(
    structure: ForestStructure,
    base: Tuple[np.ndarray, np.ndarray, np.ndarray],
    planes: Tuple,
    count: int,
    *,
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    scenario_chunk: Optional[int] = None,
) -> ScenarioForestTimes:
    """Solve every tree of a forest under ``count`` scenarios.

    ``base`` carries the forest's resident ``(edge_r, edge_c, node_c)``
    arrays; ``planes`` the caller's overrides in
    :meth:`~repro.flat.FlatTree.solve_batch` form (``None`` / ``(S,)`` /
    ``(S, N)`` each).  ``engine`` selects a registered backend by name
    (``None`` auto-selects by sweep size and depth pathology), ``jobs``
    caps the worker count of parallel backends, and ``scenario_chunk``
    overrides the bounded-memory chunk width.  Every backend returns
    numerically identical (to 1e-12; bitwise between ``"numpy"`` and
    ``"process"`` on shallow shards)
    :class:`~repro.flat.scenarios.ScenarioForestTimes` -- backend choice is
    an execution detail, never a semantics change.  The selection is
    recorded (:func:`repro.parallel.backends.last_selection`) and reported
    to stderr under ``REPRO_ENGINE_LOG=1``.
    """
    count = int(count)
    if count < 1:
        raise AnalysisError(f"scenario count must be >= 1, got {count}")
    n = structure.node_count
    planes = tuple(
        normalize_plane(plane, n, count, name)
        for plane, name in zip(planes, PLANE_NAMES)
    )
    if structure.levels is not None:
        depth = len(structure.levels) - 1
    else:
        depth = int(structure.depth.max()) if n else 0
    backend, jobs = resolve_engine(
        engine, cells=n * count, jobs=jobs, nodes=n, depth=depth
    )
    record_selection(
        engine, backend.name, nodes=n, scenarios=count, depth=depth, jobs=jobs
    )
    shards = backend.solver(structure, jobs)
    return _solve_chunks(structure, base, planes, count, scenario_chunk, shards)
