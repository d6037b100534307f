"""The sharded multi-core solve engine behind ``engine="process"``.

:func:`solve_forest_batch` is the single entry point every scenario-batched
caller funnels through (:meth:`repro.flat.FlatForest.solve_batch` delegates
here, which carries :meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` and the CLI's ``timing --jobs``
along).  It normalizes the element planes, picks a backend through
:func:`repro.parallel.backends.resolve_engine`, and runs the paper's two
characteristic-time passes chunk by chunk over the scenario axis.

Execution model of the sharded backend
--------------------------------------

* The forest is partitioned into contiguous, node-balanced shards
  (:func:`repro.parallel.sharding.plan_shards`).  Because every tree's nodes
  are contiguous and no level sweep ever reads across tree boundaries, a
  shard solve is **bitwise identical** to the same trees' rows of a
  whole-forest solve -- the 1e-12 parity the tests pin is really exact
  equality.
* Shards run on threads over in-process planes: the calling thread solves
  the first shard and the shard executor's worker threads the rest.  Each
  shard reads row slices of the chunk's node-major ``(N, w)`` element
  matrices and writes its results straight into its rows of the
  preallocated result arrays; numpy releases the GIL inside the sweeps'
  gathers, scatters and arithmetic, so the shards overlap on separate
  cores.  Nothing is copied between shards and the caller.
* The scenario axis is processed in bounded chunks
  (:func:`repro.parallel.sharding.scenario_chunks`), so a 256-scenario
  sweep of a large design never materializes more than a few
  :data:`~repro.parallel.sharding.DEFAULT_CHUNK_CELLS`-sized planes at once.
* The shard executors are shared per worker count and created lazily
  behind a lock; every solve keeps its planes, shard plans and results in
  its own frame, so concurrent callers never share state.  Nothing about a
  *forest* is cached in this module, so incremental edits
  (:meth:`~repro.flat.FlatForest.replace_tree`,
  :meth:`~repro.graph.DesignDB.update_net`) invalidate exactly as they do
  for the serial path -- the next solve simply reads the forest's current
  arrays.
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
    PlaneInput,
    ScenarioForestTimes,
    check_elements,
    level_buckets,
    sweep_scenarios,
)
from repro.parallel.backends import (
    record_selection,
    register_backend,
    resolve_engine,
    should_contract,
)
from repro.parallel.sharding import plan_shards, scenario_chunks, shard_node_ranges

__all__ = ["ForestStructure", "solve_forest_batch", "shutdown_pools"]

#: A substitute two-pass kernel: ``(parent, er, ec, nc)`` node-major
#: matrices in, ``(rkk, c_down, tde, tre)`` out (the contraction sweeps
#: with their jump schedule baked in).
SweepFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]
#: The forest's base element arrays, in ``(edge_r, edge_c, node_c)`` order.
BasePlanes = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: The element planes in ``(edge_r, edge_c, node_c)`` order, by name.
PLANE_NAMES = ("edge_r", "edge_c", "node_c")
#: Normalized scenario planes (outputs of :func:`normalize_plane`), same order.
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


def normalize_plane(
    values: PlaneInput, n: int, count: int, name: str = "scenario plane"
) -> Optional[np.ndarray]:
    """Validate one scenario plane without materializing the ``(N, S)`` matrix.

    Returns ``None`` (use base values), a ``(S,)`` per-scenario vector, or a
    ``(S, N)`` matrix -- the same shapes
    :func:`repro.flat.scenarios.as_node_matrix` accepts, but kept in their
    compact form so chunked execution can slice scenarios lazily.
    Non-finite or negative values raise
    :class:`~repro.core.exceptions.ElementValueError`.
    """
    if values is None:
        return None
    array = check_elements(np.asarray(values, dtype=float), name)
    if array.ndim == 1:
        if array.shape[0] != count:
            raise AnalysisError(
                f"scenario vector has {array.shape[0]} entries, expected {count}"
            )
        return array
    if array.shape != (count, n):
        raise AnalysisError(
            f"scenario plane has shape {array.shape}, expected ({count}, {n})"
        )
    return array


def _chunk_matrix(
    values: Optional[np.ndarray], base: np.ndarray, lo: int, hi: int, n: int
) -> np.ndarray:
    """The node-major ``(N, hi-lo)`` effective element matrix for [lo, hi).

    Copy-free when the caller's plane is already node-major underneath (an
    ``(S, N)`` array that is a transposed view of a C-contiguous ``(N, S)``
    matrix, the layout :meth:`repro.graph.DesignDB.solve_scenarios` builds);
    otherwise one materialization, exactly like the pre-parallel
    ``as_node_matrix`` path.
    """
    w = hi - lo
    if values is None:
        return np.ascontiguousarray(np.broadcast_to(base[:, np.newaxis], (n, w)))
    if values.ndim == 1:
        return np.ascontiguousarray(np.broadcast_to(values[np.newaxis, lo:hi], (n, w)))
    return np.ascontiguousarray(values[lo:hi].T)


def _solve_range(
    parent: np.ndarray,
    levels: Sequence[np.ndarray],
    starts: np.ndarray,
    er: np.ndarray,
    ec: np.ndarray,
    nc: np.ndarray,
    sweep: Optional[SweepFn] = None,
    out: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The forest kernel over one contiguous node range.

    ``parent`` must be range-local (roots ``-1``), ``starts`` the local
    first-node index of each member tree.  Returns ``(ree, tde, tre, tp,
    total)`` with the node-indexed arrays shaped like ``er`` and the
    per-tree reductions shaped ``(trees, S)``.  With the default level
    sweeps the arithmetic -- including the per-tree ``reduceat`` order --
    is exactly the whole-forest kernel's, which is what makes shard results
    bitwise identical to serial results; ``sweep`` substitutes an
    alternative two-pass kernel with the :func:`sweep_scenarios` signature
    minus ``levels`` (the contraction kernel), which keeps the documented
    1e-12 parity instead.  ``out`` optionally supplies the five result
    arrays (e.g. one shard's rows of a whole-forest result): the level
    sweeps and reductions then write into them directly, a substitute
    sweep's node arrays are copied in, and ``out`` is what is returned.
    """
    if sweep is None:
        rkk, c_down, tde, tre = sweep_scenarios(
            levels, parent, er, ec, nc, out=None if out is None else out[:3]
        )
    else:
        rkk, c_down, tde, tre = sweep(parent, er, ec, nc)
        if out is not None:
            out[0][...] = rkk
            out[1][...] = tde
            out[2][...] = tre
            rkk, tde, tre = out[:3]
    del c_down  # not a result; one fewer plane alive through the reductions
    # The gathered parent path resistance, turned in place into the T_P
    # terms ``rkk * nc + (rkk_parent + er / 2) * ec`` (same operations, same
    # bits as the expression, without its temporaries).
    tp_terms = rkk[np.maximum(parent, 0)]
    # A root has no parent edge: its gathered "parent" row above is whatever
    # node sits at local index 0, which differs between a whole-forest solve
    # and a shard solve.  Base forests keep root edge elements at zero so the
    # term vanishes either way, but solve_batch accepts arbitrary planes --
    # zero the root rows explicitly so every node range, sharded or not,
    # computes the identical (and well-defined) T_P contribution.
    tp_terms[parent < 0] = 0.0
    tp_terms += er / 2.0
    tp_terms *= ec
    tp_terms += rkk * nc
    tp = np.add.reduceat(tp_terms, starts, axis=0, out=None if out is None else out[3])
    total = np.add.reduceat(
        nc + ec, starts, axis=0, out=None if out is None else out[4]
    )
    return rkk, tde, tre, tp, total


# ----------------------------------------------------------------------
# Serial backends ("numpy" and "contract")
# ----------------------------------------------------------------------
def _solve_serial(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    chunk: Optional[int],
    sweep: Optional[SweepFn] = None,
) -> ScenarioForestTimes:
    """Chunked in-process execution of the forest kernel.

    ``sweep=None`` runs the level sweeps (the ``"numpy"`` reference path);
    a ``sweep`` callable substitutes another two-pass kernel -- the
    contraction backend passes the pointer-jumping sweeps with their jump
    schedule baked in, so chunked solves pay the topology pass once.
    """
    n = structure.node_count
    trees = structure.tree_count
    parent = structure.parent
    levels = structure.levels
    if levels is None and sweep is None:
        levels = level_buckets(structure.depth)
    starts = np.asarray(structure.offsets[:-1], dtype=np.int64)
    chunks = scenario_chunks(count, n, chunk=chunk)
    base_er, base_ec, base_nc = base
    plane_er, plane_ec, plane_nc = planes

    if len(chunks) == 1:
        # Whole sweep fits one working set: solve in place, return views.
        er = _chunk_matrix(plane_er, base_er, 0, count, n)
        ec = _chunk_matrix(plane_ec, base_ec, 0, count, n)
        nc = _chunk_matrix(plane_nc, base_nc, 0, count, n)
        ree, tde, tre, tp, total = _solve_range(
            parent, levels, starts, er, ec, nc, sweep=sweep
        )
        return ScenarioForestTimes(
            tp=tp.T, tde=tde.T, tre=tre.T, ree=ree.T, total_capacitance=total.T
        )

    out_tde = np.empty((n, count), dtype=np.float64)
    out_tre = np.empty((n, count), dtype=np.float64)
    out_ree = np.empty((n, count), dtype=np.float64)
    out_tp = np.empty((trees, count), dtype=np.float64)
    out_total = np.empty((trees, count), dtype=np.float64)
    for lo, hi in chunks:
        er = _chunk_matrix(plane_er, base_er, lo, hi, n)
        ec = _chunk_matrix(plane_ec, base_ec, lo, hi, n)
        nc = _chunk_matrix(plane_nc, base_nc, lo, hi, n)
        ree, tde, tre, tp, total = _solve_range(
            parent, levels, starts, er, ec, nc, sweep=sweep
        )
        out_ree[:, lo:hi] = ree
        out_tde[:, lo:hi] = tde
        out_tre[:, lo:hi] = tre
        out_tp[:, lo:hi] = tp
        out_total[:, lo:hi] = total
    return ScenarioForestTimes(
        tp=out_tp.T,
        tde=out_tde.T,
        tre=out_tre.T,
        ree=out_ree.T,
        total_capacitance=out_total.T,
    )


def _solve_numpy(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    jobs: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked serial execution of the level sweeps (the reference path)."""
    return _solve_serial(structure, base, planes, count, chunk)


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


def _solve_contract(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    jobs: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked serial execution of the pointer-jumping contraction kernels."""
    return _solve_serial(
        structure, base, planes, count, chunk, sweep=_contract_sweep(structure.parent)
    )


# ----------------------------------------------------------------------
# Compiled backend ("native")
# ----------------------------------------------------------------------
def _native_sweep_for(
    parent: np.ndarray, levels: Sequence[np.ndarray]
) -> Optional[SweepFn]:
    """A compiled two-pass kernel for one node range, or ``None``.

    ``None`` means the compiled kernels are unusable here (Numba missing,
    disabled via ``REPRO_DISABLE_NATIVE``, or a JIT failure) and the caller
    should fall through to the numpy kernels.  Deep ranges (per
    :func:`repro.parallel.backends.should_contract`) get the compiled
    contraction rounds, everything else the fused compiled level sweep --
    the same per-range decision the process shards make for the numpy
    kernels.
    """
    from repro.flat import native

    if not native.native_ready():
        return None
    deep = should_contract(len(levels) - 1, int(parent.shape[0]))
    return native.native_sweeps_for(parent, levels, deep)


def _solve_native(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    jobs: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Chunked in-process execution of the JIT-compiled kernels.

    The compiled kernels are ``prange``-parallel across scenario blocks
    already, so this backend never shards (``jobs`` is unused).  If the
    kernels turn out unusable the numpy path runs --
    :func:`solve_forest_batch` normally swaps the backend (and records the
    reason) before ever dispatching here, so this is a second belt.
    """
    levels = structure.levels
    if levels is None:
        levels = level_buckets(structure.depth)
    sweep = _native_sweep_for(structure.parent, levels)
    if sweep is None:
        return _solve_numpy(structure, base, planes, count, 1, chunk)
    return _solve_serial(structure, base, planes, count, chunk, sweep=sweep)


# ----------------------------------------------------------------------
# Sharded backend ("process")
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Shard:
    """One shard's range-local topology, prepared once per solve."""

    nodes: slice
    trees: slice
    parent: np.ndarray
    levels: List[np.ndarray]
    starts: np.ndarray
    sweep: Optional[SweepFn]


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


def _solve_shard(
    planes: BasePlanes,
    outs: Tuple[np.ndarray, ...],
    columns: slice,
    shard: _Shard,
) -> None:
    """Solve one shard's rows of one chunk straight into the result arrays."""
    rows, trees = shard.nodes, shard.trees
    er, ec, nc = (plane[rows] for plane in planes)
    ree, tde, tre, tp, total = outs
    _solve_range(
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
    the rest, so a two-shard solve needs one worker thread.  Besides the
    dispatch this saves memory: the C allocator keeps a per-thread arena
    resident at its high-water mark, and the caller's arena is already
    there.
    """
    futures = [_pool(len(items) - 1).submit(task, item) for item in items[1:]]
    try:
        first = task(items[0])
    finally:
        wait(futures)  # no worker may still write once this call is over
    return [first] + [future.result() for future in futures]


def _solve_process(
    structure: ForestStructure,
    base: BasePlanes,
    planes: ScenarioPlanes,
    count: int,
    jobs: int,
    chunk: Optional[int],
) -> ScenarioForestTimes:
    """Node-balanced shards solved on worker threads (see the module docstring)."""
    n = structure.node_count
    trees = structure.tree_count
    offsets = np.asarray(structure.offsets, dtype=np.int64)
    tree_ranges = plan_shards(offsets, jobs)
    if len(tree_ranges) == 1:
        return _solve_numpy(structure, base, planes, count, 1, chunk)
    node_ranges = shard_node_ranges(offsets, tree_ranges)
    shards = _run_shards(
        partial(_plan_shard, structure, offsets), list(zip(tree_ranges, node_ranges))
    )
    outs = (
        np.empty((n, count), dtype=np.float64),
        np.empty((n, count), dtype=np.float64),
        np.empty((n, count), dtype=np.float64),
        np.empty((trees, count), dtype=np.float64),
        np.empty((trees, count), dtype=np.float64),
    )
    base_er, base_ec, base_nc = base
    plane_er, plane_ec, plane_nc = planes
    chunks = scenario_chunks(count, n, chunk=chunk)
    for lo, hi in chunks:
        chunk_planes = (
            _chunk_matrix(plane_er, base_er, lo, hi, n),
            _chunk_matrix(plane_ec, base_ec, lo, hi, n),
            _chunk_matrix(plane_nc, base_nc, lo, hi, n),
        )
        _run_shards(partial(_solve_shard, chunk_planes, outs, slice(lo, hi)), shards)
    ree, tde, tre, tp, total = outs
    return ScenarioForestTimes(
        tp=tp.T, tde=tde.T, tre=tre.T, ree=ree.T, total_capacitance=total.T
    )


register_backend(
    "numpy",
    _solve_numpy,
    parallel=False,
    description="serial vectorized kernels, in-process (the reference path)",
)
register_backend(
    "process",
    _solve_process,
    parallel=True,
    description="node-balanced shards solved on worker threads over "
    "in-process planes",
)
register_backend(
    "contract",
    _solve_contract,
    parallel=False,
    description="pointer-jumping tree contraction: O(log N) rounds "
    "regardless of depth, for chain-heavy forests",
)
register_backend(
    "native",
    _solve_native,
    parallel=False,
    description="Numba JIT-compiled fused sweeps, prange-parallel "
    "in-process; degrades to numpy without Numba",
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
    reason = ""
    if backend.name == "native":
        from repro.flat import native

        if not native.native_ready():
            # Auto-selection never picks an unready "native", so this is an
            # *explicit* request on a machine without usable Numba: honour
            # the solve with the reference kernels and record why, instead
            # of failing a pipeline over an optional accelerator.
            reason = f"native kernels unavailable ({native.native_status()})"
            backend, jobs = resolve_engine("numpy")
    record_selection(
        engine,
        backend.name,
        nodes=n,
        scenarios=count,
        depth=depth,
        jobs=jobs,
        reason=reason,
    )
    return backend.solver(structure, base, planes, count, jobs, scenario_chunk)
