"""Out-of-core forest: solve a shard store without a resident design.

:class:`StoredForest` is the drop-in counterpart of
:class:`repro.flat.FlatForest` for designs that do not fit in RAM.  Each
shard file holds the node-major planes of a contiguous run of whole
trees; a solve walks the shards, materializes one at a time (through a
bounded hot-shard LRU), hands its arrays to the ordinary
:func:`repro.parallel.solve_forest_batch` engine registry -- numpy
or contract per shard, worker threads mapping the same files
for ``jobs=N`` -- and streams the results into a memory-mapped result
file.  The resident set is O(shard + scenario_chunk) no matter how large
the design is, because every mapping is released as soon as its window
has been consumed (see :func:`repro.store.format.release_memmap`).

Incremental ECO: :meth:`replace_tree` rewrites only the owning shard and
bumps its generation; :meth:`solve` then re-runs exactly the shards whose
generation moved past the persisted result generation -- a single-net
edit on a million-instance design re-solves one shard.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from collections import OrderedDict
from concurrent.futures import wait
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import AnalysisError
from repro.flat.flattree import FlatTree, _scenario_count
from repro.flat.forest import ForestTimes
from repro.flat.scenarios import (
    PLANE_NAMES,
    PlaneInput,
    ScenarioForestTimes,
    level_buckets,
    normalize_plane,
    solve_range,
)
from repro.parallel.engine import ForestStructure, _pool, solve_forest_batch
from repro.store.format import (
    INDEX_DTYPE,
    RESULT_NODE_FIELDS,
    RESULTS_NAME,
    UNSOLVED,
    Manifest,
    ResultsRecord,
    ShardRecord,
    map_field,
    read_shard_arrays,
    release_memmap,
    result_layout,
    result_nbytes,
    shard_layout,
    write_shard_file,
)
from repro.store.writer import _validate_block, _validate_values

#: Environment override for the hot-shard LRU capacity.
HOT_SHARDS_ENV = "REPRO_STORE_HOT_SHARDS"

#: Default number of materialized shards kept hot.  Four shards at the
#: default shard size is ~25 MiB of planes -- enough that an ECO loop
#: hammering a locality cluster never re-reads, small enough to leave the
#: laptop-RAM budget to the solve temporaries.
DEFAULT_HOT_SHARDS = 4

#: A per-shard plane factory: ``(shard_index, node_lo, node_hi)`` ->
#: ``(edge_r, edge_c, node_c)`` in :func:`normalize_plane`-accepted shapes
#: over the shard's node range.  This is how scenario sweeps stay
#: out-of-core: the caller fabricates each shard's effective planes on
#: demand instead of one (S, N) matrix for the whole design.
PlaneFactory = Callable[[int, int, int], Tuple[PlaneInput, PlaneInput, PlaneInput]]

#: Replacement tree forms accepted by :meth:`StoredForest.replace_tree`.
TreeLike = Union[
    FlatTree,
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _allocate_file(path: str, nbytes: int) -> None:
    """Create (or retruncate) a sparse zero-filled file of ``nbytes``."""
    with open(path, "wb") as handle:
        handle.truncate(nbytes)


class _ScratchFile:
    """Owns a scratch result file; unlinked when the owner is collected."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._finalizer = weakref.finalize(self, _unlink_quietly, path)


class _HotShard:
    """One materialized shard: in-RAM planes plus lazy derived topology."""

    __slots__ = (
        "parent",
        "depth",
        "starts",
        "edge_r",
        "edge_c",
        "node_c",
        "_levels",
        "_structure",
    )

    def __init__(
        self,
        parent: np.ndarray,
        depth: np.ndarray,
        starts: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
    ) -> None:
        self.parent = parent
        self.depth = depth
        self.starts = starts
        self.edge_r = edge_r
        self.edge_c = edge_c
        self.node_c = node_c
        self._levels: Optional[List[np.ndarray]] = None
        self._structure: Optional[ForestStructure] = None

    @property
    def levels(self) -> List[np.ndarray]:
        if self._levels is None:
            self._levels = level_buckets(self.depth)
        return self._levels

    @property
    def structure(self) -> ForestStructure:
        if self._structure is None:
            self._structure = ForestStructure(
                parent=self.parent,
                depth=self.depth,
                offsets=self.starts,
                levels=self.levels,
            )
        return self._structure


def _load_hot_shard(path: str, record: ShardRecord) -> _HotShard:
    arrays = read_shard_arrays(path, record.nodes, record.trees)
    return _HotShard(
        arrays["parent"],
        arrays["depth"],
        arrays["starts"],
        arrays["edge_r"],
        arrays["edge_c"],
        arrays["node_c"],
    )


def _write_batch_windows(
    result_path: str,
    total_nodes: int,
    count: int,
    node_lo: int,
    times: ScenarioForestTimes,
) -> None:
    """Write one shard's node-indexed results into the scratch file.

    Only the shard's row window of each field is mapped, written and
    released, so a full sweep's peak resident set never exceeds one
    shard's result rows.
    """
    layout = result_layout(total_nodes, 0, count)
    window = slice(node_lo, node_lo + int(times.tde.shape[1]))
    maps = [
        map_field(result_path, layout[name], window, "r+")
        for name in RESULT_NODE_FIELDS
    ]
    try:
        for mapping, name in zip(maps, RESULT_NODE_FIELDS):
            mapping[...] = getattr(times, name).T
    finally:
        release_memmap(*maps)


def _solve_stored_shard(
    path: str,
    record: ShardRecord,
    node_lo: int,
    tree_lo: int,
    result_path: str,
    total_nodes: int,
    count: int,
    planes: Tuple[Optional[np.ndarray], ...],
    engine: Optional[str],
    scenario_chunk: Optional[int],
    tp: np.ndarray,
    total: np.ndarray,
) -> None:
    """One shard task of a fanned-out solve: map, solve, write back.

    Runs on a :mod:`repro.parallel` shard thread.  The task maps its own
    copy of the shard file (the hot-shard LRU is not shared across
    threads), solves it with one job -- a shard task never submits to the
    executor it runs on -- and writes its result windows and per-tree rows
    straight into the outputs.
    """
    hot = _load_hot_shard(path, record)
    times = solve_forest_batch(
        hot.structure,
        (hot.edge_r, hot.edge_c, hot.node_c),
        planes,
        count,
        engine=engine,
        jobs=1,
        scenario_chunk=scenario_chunk,
    )
    _write_batch_windows(result_path, total_nodes, count, node_lo, times)
    tree_hi = tree_lo + record.trees
    tp[tree_lo:tree_hi] = times.tp.T
    total[tree_lo:tree_hi] = times.total_capacitance.T


class StoredForest:
    """A forest whose planes live in memory-mapped shard files.

    Satisfies the solve surface of :class:`~repro.flat.FlatForest`
    (``solve``, ``solve_batch``, ``replace_tree``, ``node_count``,
    ``tree_count``, ``_offsets``) so :class:`~repro.graph.DesignDB` can
    swap it in behind ``store_dir=`` without changing any caller.
    """

    def __init__(
        self, directory: str, *, hot_shards: Optional[int] = None
    ) -> None:
        self._directory = os.fspath(directory)
        self._manifest = Manifest.load(self._directory)
        # The shard list is the authoritative layout; every mutation goes
        # through replace_tree -> _invalidate_shard (RL004 contract).
        self._shards: List[ShardRecord] = self._manifest.shards
        if hot_shards is None:
            hot_shards = int(os.environ.get(HOT_SHARDS_ENV, DEFAULT_HOT_SHARDS))
        if hot_shards < 1:
            raise AnalysisError(f"hot_shards must be >= 1, got {hot_shards}")
        self._hot_limit = hot_shards
        self._hot: "OrderedDict[int, _HotShard]" = OrderedDict()
        self._layout_cache: Optional[dict] = None

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def node_count(self) -> int:
        return self._manifest.node_count

    @property
    def tree_count(self) -> int:
        return self._manifest.tree_count

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def depth(self) -> int:
        """Maximum node depth across every shard (from the manifest)."""
        return self._manifest.depth

    def __len__(self) -> int:
        return self.tree_count

    def _layout(self) -> dict:
        if self._layout_cache is None:
            self._layout_cache = {
                "node_offsets": self._manifest.node_offsets(),
                "tree_offsets": self._manifest.tree_offsets(),
            }
        return self._layout_cache

    @property
    def shard_node_offsets(self) -> np.ndarray:
        """Global first-node index per shard (+ total sentinel)."""
        return self._layout()["node_offsets"]

    @property
    def shard_tree_offsets(self) -> np.ndarray:
        """Global first-tree index per shard (+ total sentinel)."""
        return self._layout()["tree_offsets"]

    @property
    def offsets(self) -> np.ndarray:
        """Global per-tree node offsets (``(trees + 1,)``), read lazily.

        Assembled from each shard's ``starts`` field through transient
        released mappings -- the only O(trees) array the store ever
        materializes (8 bytes/tree; 8 MB for a million instances).
        """
        layout = self._layout()
        cached = layout.get("offsets")
        if cached is None:
            node_offsets = layout["node_offsets"]
            parts: List[np.ndarray] = [np.zeros(1, dtype=INDEX_DTYPE)]
            for i, record in enumerate(self._shards):
                spec = shard_layout(record.nodes, record.trees)["starts"]
                mapping = map_field(
                    self._shard_path(i), spec, slice(0, record.trees + 1), "r"
                )
                try:
                    parts.append(
                        np.asarray(mapping[1:], dtype=INDEX_DTYPE)
                        + int(node_offsets[i])
                    )
                finally:
                    release_memmap(mapping)
                    mapping = None
            cached = np.concatenate(parts)
            layout["offsets"] = cached
        return cached

    # FlatForest spells its offsets array ``_offsets``; DesignDB reaches
    # for that name, so expose the same spelling.
    @property
    def _offsets(self) -> np.ndarray:
        return self.offsets

    def shard_of_tree(self, tree_index: int) -> int:
        """The shard holding ``tree_index``."""
        tree_offsets = self.shard_tree_offsets
        if not 0 <= tree_index < self.tree_count:
            raise AnalysisError(
                f"tree index {tree_index} out of range 0..{self.tree_count - 1}"
            )
        return int(np.searchsorted(tree_offsets, tree_index, side="right")) - 1

    def shard_bounds(self, shard: int) -> Tuple[int, int, int, int]:
        """``(node_lo, node_hi, tree_lo, tree_hi)`` of one shard."""
        node_offsets = self.shard_node_offsets
        tree_offsets = self.shard_tree_offsets
        return (
            int(node_offsets[shard]),
            int(node_offsets[shard + 1]),
            int(tree_offsets[shard]),
            int(tree_offsets[shard + 1]),
        )

    def _shard_path(self, shard: int) -> str:
        return os.path.join(self._directory, self._shards[shard].file_name)

    # ------------------------------------------------------------------
    # Hot-shard LRU
    # ------------------------------------------------------------------
    def materialize(self, shard: int) -> _HotShard:
        """The shard's in-RAM planes, served from the bounded LRU."""
        hot = self._hot.get(shard)
        if hot is not None:
            self._hot.move_to_end(shard)
            return hot
        record = self._shards[shard]
        hot = _load_hot_shard(self._shard_path(shard), record)
        self._hot[shard] = hot
        while len(self._hot) > self._hot_limit:
            self._hot.popitem(last=False)
        return hot

    @property
    def hot_shard_count(self) -> int:
        """Currently materialized shards (<= the LRU capacity)."""
        return len(self._hot)

    def structure_of(self, shard: int) -> ForestStructure:
        """The shard-local :class:`ForestStructure` (materializes it)."""
        return self.materialize(shard).structure

    # ------------------------------------------------------------------
    # Solves
    # ------------------------------------------------------------------
    def solve(self) -> ForestTimes:
        """Single-scenario times, persisted and incrementally maintained.

        Results live in ``results.bin``; only shards whose generation
        moved past their solved generation are re-run, so the cost of a
        solve after :meth:`replace_tree` is one shard, not the design.
        The returned node-indexed arrays are read-mode memmap views --
        reductions over them stream from disk.
        """
        total_nodes = self.node_count
        total_trees = self.tree_count
        path = os.path.join(self._directory, RESULTS_NAME)
        nbytes = result_nbytes(total_nodes, total_trees, 1)
        results = self._manifest.results
        stale = (
            results is None
            or len(results.solved) != len(self._shards)
            or not os.path.exists(path)
            or os.path.getsize(path) != nbytes
        )
        if stale:
            _allocate_file(path, nbytes)
            results = ResultsRecord(solved=[UNSOLVED] * len(self._shards))
            self._manifest.results = results
        assert results is not None
        layout = result_layout(total_nodes, total_trees, 1)
        dirty = [
            i
            for i, record in enumerate(self._shards)
            if results.solved[i] != record.generation
        ]
        for shard in dirty:
            hot = self.materialize(shard)
            ree, tde, tre, tp, total = solve_range(
                hot.parent,
                hot.levels,
                hot.starts[:-1],
                hot.edge_r[:, None],
                hot.edge_c[:, None],
                hot.node_c[:, None],
            )
            node_lo, node_hi, tree_lo, tree_hi = self.shard_bounds(shard)
            node_window = slice(node_lo, node_hi)
            tree_window = slice(tree_lo, tree_hi)
            maps = [
                map_field(path, layout["tde"], node_window, "r+"),
                map_field(path, layout["tre"], node_window, "r+"),
                map_field(path, layout["ree"], node_window, "r+"),
                map_field(path, layout["tp"], tree_window, "r+"),
                map_field(path, layout["total"], tree_window, "r+"),
            ]
            try:
                for mapping, values in zip(maps, (tde, tre, ree, tp, total)):
                    mapping[...] = values
            finally:
                release_memmap(*maps)
            results.solved[shard] = self._shards[shard].generation
        if dirty:
            self._manifest.save(self._directory)
        node_maps = [
            map_field(path, layout[name], slice(0, total_nodes), "r")
            for name in RESULT_NODE_FIELDS
        ]
        tree_maps = [
            map_field(path, layout[name], slice(0, total_trees), "r")
            for name in ("tp", "total")
        ]
        try:
            tp_ram = np.asarray(tree_maps[0][:, 0])
            total_ram = np.asarray(tree_maps[1][:, 0])
        finally:
            release_memmap(*tree_maps)
        times = ForestTimes(
            tp=tp_ram,
            tde=node_maps[0][:, 0],
            tre=node_maps[1][:, 0],
            ree=node_maps[2][:, 0],
            total_capacitance=total_ram,
        )
        # The views alias the mappings; the finalizer both satisfies the
        # RL008 pairing and documents who unmaps them (the times object).
        weakref.finalize(times, release_memmap, *node_maps)
        return times

    def solve_batch(
        self,
        edge_r: PlaneInput = None,
        edge_c: PlaneInput = None,
        node_c: PlaneInput = None,
        *,
        count: Optional[int] = None,
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
        scenario_chunk: Optional[int] = None,
        planes_for: Optional[PlaneFactory] = None,
    ) -> ScenarioForestTimes:
        """Scenario-batched solve, shard by shard, out of core.

        Planes follow :meth:`repro.flat.FlatForest.solve_batch` (``None``
        / ``(S,)`` / ``(S, N)``); ``planes_for`` instead fabricates each
        shard's planes on demand (see :data:`PlaneFactory`) so the sweep
        never holds an ``(S, N)`` matrix.  With ``jobs >= 2`` and
        broadcast-style planes the shards go to worker threads that each
        map their own shard file.  Node-indexed results come back as
        memmap views over a scratch file that is deleted when the result
        object is garbage collected.
        """
        total_nodes = self.node_count
        total_trees = self.tree_count
        if planes_for is not None:
            if count is None:
                raise AnalysisError("count is required when planes_for is used")
            if edge_r is not None or edge_c is not None or node_c is not None:
                raise AnalysisError("pass either global planes or planes_for, not both")
            planes: Tuple[Optional[np.ndarray], ...] = (None, None, None)
            s = int(count)
        else:
            s = _scenario_count(count, edge_r, edge_c, node_c)
            planes = tuple(
                normalize_plane(plane, total_nodes, s, name)
                for plane, name in zip((edge_r, edge_c, node_c), PLANE_NAMES)
            )
        if s < 1:
            raise AnalysisError(f"scenario count must be >= 1, got {s}")
        handle, scratch_path = tempfile.mkstemp(
            prefix=".batch-", suffix=".bin", dir=self._directory
        )
        os.close(handle)
        scratch = _ScratchFile(scratch_path)
        _allocate_file(scratch_path, result_nbytes(total_nodes, 0, s))
        tp = np.empty((total_trees, s), dtype=np.float64)
        total = np.empty((total_trees, s), dtype=np.float64)
        node_offsets = self.shard_node_offsets
        broadcast_only = planes_for is None and all(
            plane is None or plane.ndim == 1 for plane in planes
        )
        if jobs is not None and jobs >= 2 and broadcast_only:
            self._solve_batch_pool(
                scratch_path, s, planes, engine, jobs, scenario_chunk, tp, total
            )
        else:
            for shard in range(self.shard_count):
                node_lo, node_hi, tree_lo, tree_hi = self.shard_bounds(shard)
                if planes_for is not None:
                    shard_planes = planes_for(shard, node_lo, node_hi)
                else:
                    shard_planes = tuple(
                        plane if plane is None or plane.ndim == 1
                        else plane[:, node_lo:node_hi]
                        for plane in planes
                    )
                hot = self.materialize(shard)
                times = solve_forest_batch(
                    hot.structure,
                    (hot.edge_r, hot.edge_c, hot.node_c),
                    shard_planes,
                    s,
                    engine=engine,
                    jobs=jobs,
                    scenario_chunk=scenario_chunk,
                )
                _write_batch_windows(scratch_path, total_nodes, s, node_lo, times)
                tp[tree_lo:tree_hi] = times.tp.T
                total[tree_lo:tree_hi] = times.total_capacitance.T
        layout = result_layout(total_nodes, 0, s)
        node_maps = [
            map_field(scratch_path, layout[name], slice(0, total_nodes), "r")
            for name in RESULT_NODE_FIELDS
        ]
        times_out = ScenarioForestTimes(
            tp=tp.T,
            tde=node_maps[0].T,
            tre=node_maps[1].T,
            ree=node_maps[2].T,
            total_capacitance=total.T,
        )
        # Keep the scratch file alive exactly as long as the result: the
        # finalizer releases the mappings, then the _ScratchFile unlinks.
        object.__setattr__(times_out, "_store_scratch", scratch)
        weakref.finalize(times_out, release_memmap, *node_maps)
        return times_out

    def _solve_batch_pool(
        self,
        scratch_path: str,
        count: int,
        planes: Tuple[Optional[np.ndarray], ...],
        engine: Optional[str],
        jobs: int,
        scenario_chunk: Optional[int],
        tp: np.ndarray,
        total: np.ndarray,
    ) -> None:
        """Fan shards out to the shard executor's worker threads."""
        worker_engine = None if engine == "process" else engine
        task = partial(
            _solve_stored_shard,
            result_path=scratch_path,
            total_nodes=self.node_count,
            count=count,
            planes=planes,
            engine=worker_engine,
            scenario_chunk=scenario_chunk,
            tp=tp,
            total=total,
        )
        pool = _pool(jobs)
        futures = []
        for shard, record in enumerate(self._shards):
            node_lo, _, tree_lo, _ = self.shard_bounds(shard)
            futures.append(
                pool.submit(task, self._shard_path(shard), record, node_lo, tree_lo)
            )
        wait(futures)  # no shard may still write once this call is over
        for future in futures:
            future.result()

    # ------------------------------------------------------------------
    # Incremental ECO
    # ------------------------------------------------------------------
    def replace_tree(self, tree_index: int, tree: TreeLike) -> None:
        """Splice a recompiled tree in place; only its shard is rewritten.

        Mirrors :meth:`repro.flat.FlatForest.replace_tree` -- sizes may
        differ.  A same-size replacement leaves every other shard's
        persisted results valid (one-shard re-solve); a size change
        shifts the global node numbering, so the whole result file is
        invalidated (the shard files themselves stay put).
        """
        if isinstance(tree, FlatTree):
            parent = np.asarray(tree._parent, dtype=INDEX_DTYPE)
            edge_r = np.asarray(tree._edge_r, dtype=np.float64)
            edge_c = np.asarray(tree._edge_c, dtype=np.float64)
            node_c = np.asarray(tree._node_c, dtype=np.float64)
            depth = np.asarray(tree._depth, dtype=INDEX_DTYPE)
        else:
            parent, edge_r, edge_c, node_c = (np.asarray(a) for a in tree)
            parent = parent.astype(INDEX_DTYPE)
            size_arr = np.asarray([0, parent.shape[0]], dtype=INDEX_DTYPE)
            depth = _validate_block(size_arr, parent, None)
            edge_r, edge_c, node_c = _validate_values(
                size_arr, edge_r, edge_c, node_c
            )
        shard = self.shard_of_tree(tree_index)
        record = self._shards[shard]
        _, _, tree_lo, _ = self.shard_bounds(shard)
        local_tree = tree_index - tree_lo
        hot = self.materialize(shard)
        lo = int(hot.starts[local_tree])
        hi = int(hot.starts[local_tree + 1])
        size = int(parent.shape[0])
        delta = size - (hi - lo)
        new_parent = np.concatenate([hot.parent[:lo], parent, hot.parent[hi:]])
        if delta and hi < hot.parent.shape[0]:
            tail = slice(lo + size, None)
            np.add(
                new_parent[tail],
                delta,
                out=new_parent[tail],
                where=new_parent[tail] >= 0,
            )
        if size > 1:
            grafted = slice(lo + 1, lo + size)
            new_parent[grafted] += lo
        new_depth = np.concatenate([hot.depth[:lo], depth, hot.depth[hi:]])
        new_starts = hot.starts.copy()
        new_starts[local_tree + 1 :] += delta
        new_edge_r = np.concatenate([hot.edge_r[:lo], edge_r, hot.edge_r[hi:]])
        new_edge_c = np.concatenate([hot.edge_c[:lo], edge_c, hot.edge_c[hi:]])
        new_node_c = np.concatenate([hot.node_c[:lo], node_c, hot.node_c[hi:]])
        write_shard_file(
            self._shard_path(shard),
            new_parent,
            new_depth,
            new_starts,
            new_edge_r,
            new_edge_c,
            new_node_c,
        )
        level_counts = np.bincount(new_depth, minlength=1)
        self._shards[shard] = ShardRecord(
            file_name=record.file_name,
            nodes=int(new_parent.shape[0]),
            trees=record.trees,
            depth=int(new_depth.max()) if new_parent.shape[0] else 0,
            level_counts=[int(c) for c in level_counts],
            generation=record.generation + 1,
        )
        self._invalidate_shard(shard, size_changed=bool(delta))
        self._manifest.save(self._directory)

    def _invalidate_shard(self, shard: int, *, size_changed: bool) -> None:
        """Drop every cache that could reflect the shard's old contents."""
        self._hot.pop(shard, None)
        self._layout_cache = None
        results = self._manifest.results
        if results is not None and len(results.solved) == len(self._shards):
            if size_changed:
                # The global node numbering shifted: every persisted
                # result row beyond this shard sits at a stale offset.
                results.solved = [UNSOLVED] * len(self._shards)
            else:
                results.solved[shard] = UNSOLVED

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop materialized shards (mappings are released eagerly anyway)."""
        self._hot.clear()

    def __enter__(self) -> "StoredForest":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StoredForest({self._directory!r}, trees={self.tree_count},"
            f" nodes={self.node_count}, shards={self.shard_count})"
        )
