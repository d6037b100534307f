"""On-disk format of the memory-mapped shard store.

A store directory holds one small JSON manifest plus one binary file per
shard.  The shard is the :func:`repro.parallel.plan_shards` range promoted
to the persistence unit: a contiguous run of whole trees whose node-major
planes live back to back in a single file, byte-compatible with the
in-memory arrays the kernels consume (``np.int64`` topology, ``np.float64``
elements).  Because every field is eight bytes wide and laid out
sequentially, a shard file is a dumb relocatable buffer -- ``np.memmap``
windows over it *are* the kernel inputs, no deserialization step exists.

Layout of one shard file (``nodes`` = N, ``trees`` = T)::

    parent   int64[N]      shard-local parent index, roots -1
    depth    int64[N]      node depth within its tree (root 0)
    starts   int64[T + 1]  shard-local first-node index per tree (+ sentinel N)
    edge_r   float64[N]    resistance of the edge into each node
    edge_c   float64[N]    capacitance of the edge into each node
    node_c   float64[N]    grounded capacitance at each node

The manifest (``manifest.json``) records per shard the node/tree counts,
the maximum depth and the level-bucket index (``level_counts[d]`` = nodes
at depth ``d``), so a :class:`~repro.store.StoredForest` can size every
window, plan chunked solves and budget level sweeps without touching a
single shard file.  Result planes live in a separate ``results.bin``
(same dumb-buffer discipline) whose per-shard validity is tracked by a
generation counter -- the hook that makes ECO re-solves incremental.

Every ``np.memmap`` opened by this package must be paired with an
explicit :func:`release_memmap` (or ``weakref.finalize`` wiring for
mappings that outlive their creator) -- reprolint rule RL008 enforces the
discipline.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import AnalysisError

#: Format identifier written to (and demanded from) every manifest.
FORMAT_NAME = "repro-store"

#: Current format version; bumped on any incompatible layout change.
FORMAT_VERSION = 1

#: File name of the JSON manifest inside a store directory.
MANIFEST_NAME = "manifest.json"

#: File name of the persistent single-scenario result planes.
RESULTS_NAME = "results.bin"

#: Index dtype of every topology plane (parent, depth, starts).
INDEX_DTYPE = np.dtype(np.int64)

#: Value dtype of every element and result plane.
VALUE_DTYPE = np.dtype(np.float64)

#: Field order inside a shard file; the layout is derived, never stored.
SHARD_FIELDS: Tuple[str, ...] = (
    "parent",
    "depth",
    "starts",
    "edge_r",
    "edge_c",
    "node_c",
)

#: Node-indexed result fields persisted in ``results.bin``.
RESULT_NODE_FIELDS: Tuple[str, ...] = ("tde", "tre", "ree")

#: Per-tree result fields persisted in ``results.bin``.
RESULT_TREE_FIELDS: Tuple[str, ...] = ("tp", "total")

#: Generation sentinel meaning "never solved" in the results record.
UNSOLVED = -1

#: One field of a binary layout: byte offset, array shape, dtype.
FieldSpec = Tuple[int, Tuple[int, ...], np.dtype]


def shard_layout(nodes: int, trees: int) -> Dict[str, FieldSpec]:
    """Byte layout of one shard file, in :data:`SHARD_FIELDS` order."""
    layout: Dict[str, FieldSpec] = {}
    offset = 0
    for name in SHARD_FIELDS:
        if name in ("parent", "depth"):
            shape: Tuple[int, ...] = (nodes,)
            dtype = INDEX_DTYPE
        elif name == "starts":
            shape = (trees + 1,)
            dtype = INDEX_DTYPE
        else:
            shape = (nodes,)
            dtype = VALUE_DTYPE
        layout[name] = (offset, shape, dtype)
        offset += int(np.prod(shape)) * dtype.itemsize
    return layout


def shard_nbytes(nodes: int, trees: int) -> int:
    """Total size in bytes of a shard file."""
    layout = shard_layout(nodes, trees)
    offset, shape, dtype = layout[SHARD_FIELDS[-1]]
    return offset + int(np.prod(shape)) * dtype.itemsize


def result_layout(
    node_count: int, tree_count: int, count: int
) -> Dict[str, FieldSpec]:
    """Byte layout of a result file holding ``count`` scenario columns.

    Node fields are node-major ``(N, S)`` so one shard's result rows are a
    contiguous window -- the property that lets a shard solve map only its
    own slice of the file.  Tree fields are ``(T, S)``.
    """
    layout: Dict[str, FieldSpec] = {}
    offset = 0
    for name in RESULT_NODE_FIELDS:
        shape = (node_count, count)
        layout[name] = (offset, shape, VALUE_DTYPE)
        offset += int(np.prod(shape)) * VALUE_DTYPE.itemsize
    for name in RESULT_TREE_FIELDS:
        shape = (tree_count, count)
        layout[name] = (offset, shape, VALUE_DTYPE)
        offset += int(np.prod(shape)) * VALUE_DTYPE.itemsize
    return layout


def result_nbytes(node_count: int, tree_count: int, count: int) -> int:
    """Total size in bytes of a result file."""
    layout = result_layout(node_count, tree_count, count)
    offset, shape, dtype = layout[RESULT_TREE_FIELDS[-1]]
    return offset + int(np.prod(shape)) * dtype.itemsize


def release_memmap(*maps: Optional[np.ndarray]) -> None:
    """Flush writable mappings and drop this frame's reference to each.

    The explicit pairing (create -> use -> release) keeps the resident
    set bounded: an unmapped file page no longer counts against RSS, so
    a shard-by-shard sweep that releases each window touches the whole
    store while only ever holding one shard's pages.  RL008 requires
    every ``np.memmap`` creation in this package to reach this function
    (or a ``weakref.finalize`` that calls it).
    """
    for mapping in maps:
        if isinstance(mapping, np.memmap) and mapping.mode != "r":
            mapping.flush()
    # The caller drops its own name binding; CPython refcounting then
    # unmaps immediately (no GC cycle involvement for plain memmaps).


def depths_from_parent(parent: np.ndarray) -> np.ndarray:
    """Per-node depths for a block-local ``parent`` array (roots ``-1``).

    Vectorized pointer-chase: one O(N) round per tree level, so the cost
    is ``O(N * depth)`` with numpy-wide rounds -- effectively free for the
    shallow stage trees ingest streams in, and still acceptable for
    pathological chains (the writer only runs it when the producer did
    not already know the depths).
    """
    parent = np.asarray(parent, dtype=INDEX_DTYPE)
    depth = np.zeros(parent.shape[0], dtype=INDEX_DTYPE)
    pointer = parent.copy()
    while True:
        live = pointer >= 0
        if not live.any():
            break
        depth[live] += 1
        pointer[live] = parent[pointer[live]]
    return depth


def write_shard_file(
    path: str,
    parent: np.ndarray,
    depth: np.ndarray,
    starts: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
) -> None:
    """Write one complete shard file at ``path`` (created or truncated).

    The file is materialized through a single write-mode ``np.memmap``
    that is flushed and released before returning, so the writer's peak
    resident set stays O(shard) regardless of how many shards stream
    through it.
    """
    nodes = int(parent.shape[0])
    trees = int(starts.shape[0]) - 1
    layout = shard_layout(nodes, trees)
    values = {
        "parent": parent,
        "depth": depth,
        "starts": starts,
        "edge_r": edge_r,
        "edge_c": edge_c,
        "node_c": node_c,
    }
    block = np.memmap(path, dtype=np.uint8, mode="w+", shape=(shard_nbytes(nodes, trees),))
    try:
        for name in SHARD_FIELDS:
            offset, shape, dtype = layout[name]
            nbytes = int(np.prod(shape)) * dtype.itemsize
            window = block[offset : offset + nbytes].view(dtype).reshape(shape)
            window[...] = np.asarray(values[name], dtype=dtype)
    finally:
        release_memmap(block)
        block = None


def read_shard_arrays(
    path: str, nodes: int, trees: int
) -> Dict[str, np.ndarray]:
    """Materialize every field of a shard file as in-RAM copies.

    Copies (rather than long-lived mappings) are deliberate: the hot-shard
    LRU holds plain arrays whose footprint is exactly the LRU budget, and
    the transient read mapping is released before returning so the file's
    pages stop counting against the process.
    """
    layout = shard_layout(nodes, trees)
    block = np.memmap(path, dtype=np.uint8, mode="r", shape=(shard_nbytes(nodes, trees),))
    try:
        arrays: Dict[str, np.ndarray] = {}
        for name in SHARD_FIELDS:
            offset, shape, dtype = layout[name]
            nbytes = int(np.prod(shape)) * dtype.itemsize
            arrays[name] = np.array(
                block[offset : offset + nbytes].view(dtype).reshape(shape)
            )
        return arrays
    finally:
        release_memmap(block)
        block = None


def map_field(
    path: str, spec: FieldSpec, rows: slice, mode: str
) -> np.memmap:
    """Map one row-window ``rows`` of a laid-out field as ``np.memmap``.

    ``spec`` is the field's :func:`result_layout`/:func:`shard_layout`
    entry; the window covers ``rows`` of its leading axis.  The caller
    owns the mapping and must pair it with :func:`release_memmap` (or a
    finalizer) per RL008.
    """
    offset, shape, dtype = spec
    lo, hi = rows.indices(shape[0])[:2]
    row_items = int(np.prod(shape[1:])) if len(shape) > 1 else 1
    window_shape = (hi - lo,) + tuple(shape[1:])
    return np.memmap(
        path,
        dtype=dtype,
        mode=mode,  # type: ignore[arg-type]
        offset=offset + lo * row_items * dtype.itemsize,
        shape=window_shape,
    )


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
@dataclass
class ShardRecord:
    """Manifest entry for one shard file."""

    file_name: str
    nodes: int
    trees: int
    depth: int
    level_counts: List[int]
    generation: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "file": self.file_name,
            "nodes": self.nodes,
            "trees": self.trees,
            "depth": self.depth,
            "level_counts": list(self.level_counts),
            "generation": self.generation,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardRecord":
        return cls(
            file_name=str(data["file"]),
            nodes=int(data["nodes"]),  # type: ignore[arg-type]
            trees=int(data["trees"]),  # type: ignore[arg-type]
            depth=int(data["depth"]),  # type: ignore[arg-type]
            level_counts=[int(c) for c in data["level_counts"]],  # type: ignore[union-attr]
            generation=int(data.get("generation", 0)),  # type: ignore[arg-type]
        )


@dataclass
class ResultsRecord:
    """Manifest entry for the persistent single-scenario result planes.

    ``solved`` mirrors the shard list: ``solved[i]`` is the shard
    generation whose arrays are reflected in ``results.bin`` (or
    :data:`UNSOLVED`).  ``solve()`` re-runs exactly the shards whose
    manifest generation moved past their solved generation -- validity
    survives process restarts because both counters live here.
    """

    file_name: str = RESULTS_NAME
    solved: List[int] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {"file": self.file_name, "solved": list(self.solved)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ResultsRecord":
        return cls(
            file_name=str(data["file"]),
            solved=[int(g) for g in data["solved"]],  # type: ignore[union-attr]
        )


@dataclass
class Manifest:
    """The store directory's index: shard geometry without shard I/O."""

    shards: List[ShardRecord] = field(default_factory=list)
    results: Optional[ResultsRecord] = None

    @property
    def node_count(self) -> int:
        return sum(record.nodes for record in self.shards)

    @property
    def tree_count(self) -> int:
        return sum(record.trees for record in self.shards)

    @property
    def depth(self) -> int:
        return max((record.depth for record in self.shards), default=0)

    def node_offsets(self) -> np.ndarray:
        """Global first-node index per shard, plus the total sentinel."""
        sizes = np.asarray([r.nodes for r in self.shards], dtype=INDEX_DTYPE)
        return np.concatenate([[0], np.cumsum(sizes)]).astype(INDEX_DTYPE)

    def tree_offsets(self) -> np.ndarray:
        """Global first-tree index per shard, plus the total sentinel."""
        sizes = np.asarray([r.trees for r in self.shards], dtype=INDEX_DTYPE)
        return np.concatenate([[0], np.cumsum(sizes)]).astype(INDEX_DTYPE)

    def iter_shards(self) -> Iterator[Tuple[int, ShardRecord]]:
        return enumerate(self.shards)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "index_dtype": INDEX_DTYPE.name,
            "value_dtype": VALUE_DTYPE.name,
            "node_count": self.node_count,
            "tree_count": self.tree_count,
            "shards": [record.to_dict() for record in self.shards],
        }
        if self.results is not None:
            data["results"] = self.results.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Manifest":
        if data.get("format") != FORMAT_NAME:
            raise AnalysisError(
                f"not a {FORMAT_NAME} manifest (format={data.get('format')!r})"
            )
        if int(data.get("version", 0)) != FORMAT_VERSION:  # type: ignore[arg-type]
            raise AnalysisError(
                f"unsupported store format version {data.get('version')!r}"
                f" (this build reads version {FORMAT_VERSION})"
            )
        shards = [ShardRecord.from_dict(d) for d in data.get("shards", [])]  # type: ignore[union-attr]
        results = None
        if "results" in data:
            results = ResultsRecord.from_dict(data["results"])  # type: ignore[arg-type]
        return cls(shards=shards, results=results)

    def save(self, directory: str) -> None:
        """Atomically (write + rename) persist the manifest."""
        path = os.path.join(directory, MANIFEST_NAME)
        scratch = path + ".tmp"
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.write("\n")
        os.replace(scratch, path)

    @classmethod
    def load(cls, directory: str) -> "Manifest":
        path = os.path.join(directory, MANIFEST_NAME)
        if not os.path.exists(path):
            raise AnalysisError(f"no shard store at {directory!r} (missing {MANIFEST_NAME})")
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
