"""The array-backed flat-tree analysis engine.

:class:`FlatTree` compiles an :class:`~repro.core.tree.RCTree` into a handful
of numpy arrays indexed by *preorder position* (the root is index 0 and every
parent precedes its children):

* ``parent``        -- parent index per node (``-1`` for the root);
* ``edge_r``/``edge_c`` -- resistance / distributed capacitance of the edge
  *into* each node (zero for the root);
* ``node_c``        -- lumped grounded capacitance per node;
* ``extent``        -- one past the last preorder index of each node's
  subtree, so ``subtree(i) == range(i, extent[i])`` is contiguous;
* ``levels``        -- node indices grouped by depth, which is what turns the
  paper's two tree traversals into a short sequence of vectorized sweeps.

The characteristic times of *every* node are then computed by exactly the two
passes of :func:`repro.core.timeconstants.characteristic_times_all` -- a
reverse (deep-to-shallow) accumulation of downstream capacitance and a
forward (shallow-to-deep) accumulation of the path recurrences for ``T_De``
and ``T_Re R_ee``, including the closed-form distributed-URC line
contributions -- but each level is processed as one numpy gather/scatter
instead of a Python loop over dict-keyed nodes.  Those passes are the
forest kernel of :mod:`repro.flat.scenarios` run on the tree as a forest of
one, so a tree solved alone and the same tree inside a forest agree bit for
bit.  The arithmetic per node is
kept *identical* to the dict-based reference (same operations, same
association, same child order), so the two engines agree to the last ulp on
the per-output recurrences and to rounding order on the global sums; the
parity property tests pin this at a relative tolerance of 1e-12.

Incremental updates
-------------------
``update_capacitance`` / ``update_resistance`` / ``update_line`` edit element
values *in place* without recompiling.  Two aggregate caches are maintained
eagerly because their dirty regions are small and cheap to recompute
*exactly* (delta-patching would accumulate cancellation error; recomputation
keeps the caches bit-identical to a fresh compile, which the parity property
tests rely on):

* ``c_down`` (downstream capacitance) changes only along the root path of an
  edited node -- each ancestor is rebuilt from its children;
* ``rkk`` (input-to-node path resistance) changes only inside the edited
  edge's subtree -- a contiguous index range thanks to ``extent``, re-swept
  with the compile-time recurrence.

The moment arrays (``T_P``, ``T_De``, ``T_Re R_ee``) are invalidated and
recomputed lazily: a full :meth:`solve` re-runs the vectorized sweeps, while
:meth:`characteristic_times` of a *single* output recomputes just that
output's path recurrence from the cached aggregates in O(depth), plus the
O(N) vectorized ``T_P`` reduction every output shares.  An edit-and-query
loop therefore never rebuilds a tree (``benchmarks/bench_flat_engine.py``
measures it).

Complexity: compilation is one O(N) walk; a solve is O(N) work spread over
O(depth) numpy calls.  Bushy trees (clock trees, signal nets, the random
trees used in the benchmarks) have depth << N and run at numpy speed; a
pathological 10k-node *chain* degenerates to 10k tiny numpy calls and gains
much less -- see ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.elements import Resistor
from repro.core.exceptions import (
    ElementValueError,
    TopologyError,
    UnknownNodeError,
)
from repro.core.timeconstants import CharacteristicTimes
from repro.core.tree import RCTree
from repro.flat.batchbounds import delay_bounds_batch, voltage_bounds_batch
from repro.flat.scenarios import (
    PLANE_NAMES,
    PlaneInput,
    ScenarioTimes,
    chunk_matrix,
    level_buckets,
    normalize_plane,
    solve_range,
    sweep_scenarios,
    tree_sums,
)

__all__ = ["FlatTree", "FlatTimes"]

#: ``starts`` of a forest of one: the tree's only root is node 0.
_ONE_TREE = np.zeros(1, dtype=np.int64)


def _scenario_count(count: Optional[int], *planes: PlaneInput) -> int:
    """Infer the scenario count from the first non-``None`` plane."""
    if count is not None:
        return int(count)
    for plane in planes:
        if plane is not None:
            array = np.asarray(plane)
            return int(array.shape[0]) if array.ndim else 1
    return 1


@dataclass(frozen=True)
class FlatTimes:
    """Characteristic times of every node of a :class:`FlatTree`, as arrays.

    All arrays are indexed by preorder position (see ``FlatTree.index``).

    Attributes
    ----------
    tp:
        ``T_P`` (seconds) -- eq. (5); a scalar, shared by every output.
    tde:
        ``T_De`` (seconds) per node -- eq. (1), the Elmore delays.
    tre:
        ``T_Re`` (seconds) per node -- eq. (6).
    ree:
        ``R_ee`` (ohms) per node -- input-to-node path resistance.
    total_capacitance:
        ``C_T`` (farads) -- total capacitance of the network.
    """

    tp: float
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: float

    @property
    def tr_num(self) -> np.ndarray:
        """The product ``T_Re * R_ee`` carried by the paper's APL programs."""
        return self.tre * self.ree


def _require_value(name: str, value: float) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ElementValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


class FlatTree:
    """An RC tree compiled to parent-index vectors for vectorized analysis.

    Build one with :meth:`from_tree` (from an :class:`~repro.core.tree.RCTree`)
    or :meth:`from_arrays` (directly from parent/element arrays, bypassing the
    dict-based builder entirely -- the fast path for synthetic workloads).
    """

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(
        self,
        names: Sequence[str],
        parent: np.ndarray,
        edge_r: np.ndarray,
        edge_c: np.ndarray,
        node_c: np.ndarray,
        is_output: np.ndarray,
        _depth: Optional[Sequence[int]] = None,
        _trusted: bool = False,
    ) -> None:
        self._names: List[str] = list(names)
        self._index_cache: Optional[Dict[str, int]] = None
        self._extent_cache: Optional[np.ndarray] = None
        self._children_cache: Optional[List[List[int]]] = None
        if _trusted:
            # Private fast path for arrays that are valid by construction
            # (batch compilers): skip the conversion and validation passes.
            self._parent = parent
            self._edge_r = edge_r
            self._edge_c = edge_c
            self._node_c = node_c
            self._is_output = is_output
        else:
            self._parent = np.ascontiguousarray(parent, dtype=np.int64)
            self._edge_r = np.ascontiguousarray(edge_r, dtype=np.float64)
            self._edge_c = np.ascontiguousarray(edge_c, dtype=np.float64)
            self._node_c = np.ascontiguousarray(node_c, dtype=np.float64)
            self._is_output = np.ascontiguousarray(is_output, dtype=bool)
        self._n = len(self._names)
        if not _trusted:
            self._validate_topology()
        # Structure (depth, level buckets) and the aggregate caches are built
        # lazily: a tree that is only ever *batched* into a FlatForest never
        # pays for its own per-tree level buckets or aggregate sweeps -- the
        # forest runs its own global ones.
        self._depth_cache: Optional[np.ndarray] = (
            None if _depth is None else np.asarray(_depth, dtype=np.int64)
        )
        self._levels_cache: Optional[List[np.ndarray]] = None
        self._parent_list_cache: Optional[List[int]] = None
        self._rkk_cache: Optional[np.ndarray] = None
        self._c_down_cache: Optional[np.ndarray] = None
        # Lazily computed moment state.
        self._times: Optional[FlatTimes] = None

    def _validate_topology(self) -> None:
        n = self._n
        if n == 0:
            raise TopologyError("a flat tree needs at least the input node")
        for array in (self._edge_r, self._edge_c, self._node_c):
            if array.shape != (n,):
                raise TopologyError("element arrays must have one entry per node")
            if not np.all(np.isfinite(array)) or np.any(array < 0.0):
                raise ElementValueError("element values must be finite and non-negative")
        if self._parent.shape != (n,):
            raise TopologyError("parent array must have one entry per node")
        if self._parent[0] != -1:
            raise TopologyError("node 0 must be the input (parent -1)")
        if self._edge_r[0] != 0.0 or self._edge_c[0] != 0.0:
            raise TopologyError("the input node has no incoming edge")
        if n > 1:
            rest = self._parent[1:]
            if np.any(rest < 0) or np.any(rest >= np.arange(1, n)):
                raise TopologyError(
                    "nodes must be in topological order: parent[i] in [0, i) for i > 0"
                )

    @property
    def _parent_list(self) -> List[int]:
        """Parent indices as a Python list (fast scalar walks), lazy."""
        if self._parent_list_cache is None:
            self._parent_list_cache = self._parent.tolist()
        return self._parent_list_cache

    @property
    def _depth(self) -> np.ndarray:
        """Depth per node, computed on first use when not supplied."""
        if self._depth_cache is None:
            # parent[i] < i, so one forward pass fixes every depth.
            n = self._n
            parent_list = self._parent_list
            depth_list = [0] * n
            for i in range(1, n):
                depth_list[i] = depth_list[parent_list[i]] + 1
            self._depth_cache = np.asarray(depth_list, dtype=np.int64)
        return self._depth_cache

    @property
    def _levels(self) -> List[np.ndarray]:
        """Node indices bucketed by depth, lazy.

        Stable sort by depth keeps preorder (== attachment) order per level.
        """
        if self._levels_cache is None:
            self._levels_cache = level_buckets(self._depth)
        return self._levels_cache

    @property
    def _index(self) -> Dict[str, int]:
        """Name -> preorder index map, built on first name-based access."""
        if self._index_cache is None:
            self._index_cache = {name: i for i, name in enumerate(self._names)}
            if len(self._index_cache) != self._n:
                raise TopologyError("duplicate node names in flat tree")
        return self._index_cache

    @property
    def _extent(self) -> np.ndarray:
        """Subtree extents (one past the subtree's last preorder index), lazy."""
        if self._extent_cache is None:
            n = self._n
            parent_list = self._parent_list
            sizes = [1] * n
            for i in range(n - 1, 0, -1):
                sizes[parent_list[i]] += sizes[i]
            self._extent_cache = np.arange(n, dtype=np.int64) + np.asarray(
                sizes, dtype=np.int64
            )
        return self._extent_cache

    def _build_aggregates(self) -> None:
        """Cached aggregates: path resistance and downstream capacitance."""
        self._rkk_cache, self._c_down_cache, _, _ = sweep_scenarios(
            self._levels, self._parent, self._edge_r, self._edge_c, self._node_c
        )

    @property
    def _rkk(self) -> np.ndarray:
        """Input-to-node path resistance per node, built on first use."""
        if self._rkk_cache is None:
            self._build_aggregates()
        return self._rkk_cache

    @property
    def _c_down(self) -> np.ndarray:
        """Downstream capacitance per node, built on first use."""
        if self._c_down_cache is None:
            self._build_aggregates()
        return self._c_down_cache

    @classmethod
    def from_tree(cls, tree: RCTree) -> "FlatTree":
        """Compile an :class:`~repro.core.tree.RCTree` (one O(N) walk).

        Raises :class:`~repro.core.exceptions.TopologyError` when the tree has
        free-standing nodes that are not connected to the input.
        """
        n = len(tree)
        names: List[str] = []
        parent: List[int] = []
        edge_r: List[float] = []
        edge_c: List[float] = []
        node_c: List[float] = []
        is_output: List[bool] = []
        depth: List[int] = []
        # Same iterative preorder as RCTree.preorder(), inlined over the
        # internal dicts (and raw element fields) so compilation stays one
        # cheap pass even on 100k-node trees.
        children = tree._children
        parents = tree._parent
        nodes = tree._nodes
        resistor = Resistor
        append_name = names.append
        append_parent = parent.append
        append_r = edge_r.append
        append_c = edge_c.append
        append_nc = node_c.append
        append_out = is_output.append
        append_depth = depth.append
        stack = [(tree.root, -1, 0)]
        push = stack.append
        while stack:
            name, parent_index, level = stack.pop()
            index = len(names)
            node = nodes[name]
            edge = parents.get(name)
            append_name(name)
            append_parent(parent_index)
            append_depth(level)
            if edge is None:
                append_r(0.0)
                append_c(0.0)
            else:
                element = edge.element
                append_r(element.resistance)
                append_c(0.0 if element.__class__ is resistor else element.capacitance)
            append_nc(node.capacitance)
            append_out(node.is_output)
            level += 1
            for child in reversed(children[name]):
                push((child, index, level))
        if len(names) != n:
            reached = set(names)
            missing = [name for name in tree.nodes if name not in reached]
            raise TopologyError(
                f"nodes {missing!r} are not connected to the input {tree.root!r}"
            )
        # The walk emits valid preorder arrays (and RCTree validated element
        # values on construction), so the array re-validation is skipped.
        return cls(
            names,
            np.asarray(parent, dtype=np.int64),
            np.asarray(edge_r, dtype=np.float64),
            np.asarray(edge_c, dtype=np.float64),
            np.asarray(node_c, dtype=np.float64),
            np.asarray(is_output, dtype=bool),
            _depth=depth,
            _trusted=True,
        )

    @classmethod
    def from_arrays(
        cls,
        parent: Sequence[int],
        edge_r: Sequence[float],
        edge_c: Sequence[float],
        node_c: Sequence[float],
        *,
        names: Optional[Sequence[str]] = None,
        outputs: Optional[Sequence[int]] = None,
    ) -> "FlatTree":
        """Build a flat tree directly from arrays (no ``RCTree`` required).

        ``parent[i]`` must be in ``[0, i)`` for every non-root node and ``-1``
        for node 0 -- any topological order is accepted and is relabelled
        into depth-first preorder internally (the engine relies on every
        subtree occupying a contiguous index range).  ``names`` defaults to
        ``in, n1, n2, ...``; ``outputs`` is a sequence of node indices
        (in the *input* numbering) to mark, defaulting to every leaf.
        """
        parent = np.asarray(parent, dtype=np.int64)
        n = len(parent)
        if n == 0:
            raise TopologyError("a flat tree needs at least the input node")
        if parent[0] != -1 or (
            n > 1 and (np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, n)))
        ):
            raise TopologyError(
                "nodes must be in topological order: parent[0] == -1 and parent[i] in [0, i)"
            )
        if names is None:
            names = ["in"] + [f"n{i}" for i in range(1, n)]
        # Relabel into preorder so subtrees are contiguous index ranges.
        parent_list = parent.tolist()
        children: List[List[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            children[parent_list[i]].append(i)
        perm: List[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            perm.append(i)
            stack.extend(reversed(children[i]))
        inverse = [0] * n
        for new, old in enumerate(perm):
            inverse[old] = new
        identity = perm == list(range(n))
        if not identity:
            order = np.asarray(perm, dtype=np.int64)
            names = [names[old] for old in perm]
            new_parent = np.asarray(
                [-1] + [inverse[parent_list[old]] for old in perm[1:]], dtype=np.int64
            )
        else:
            order = None
            new_parent = parent
        is_output = np.zeros(n, dtype=bool)
        if outputs is None:
            leaves = np.ones(n, dtype=bool)
            leaves[new_parent[new_parent >= 0]] = False
            is_output = leaves
        else:
            marked = np.asarray([inverse[i] for i in outputs], dtype=np.int64)
            is_output[marked] = True
        edge_r = np.asarray(edge_r, dtype=np.float64)
        edge_c = np.asarray(edge_c, dtype=np.float64)
        node_c = np.asarray(node_c, dtype=np.float64)
        if order is not None:
            edge_r = edge_r[order]
            edge_c = edge_c[order]
            node_c = node_c[order]
        return cls(names, new_parent, edge_r, edge_c, node_c, is_output)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: str) -> bool:
        return name in self._index

    @property
    def names(self) -> List[str]:
        """Node names in preorder (index order)."""
        return list(self._names)

    @property
    def root(self) -> str:
        """Name of the input node (index 0)."""
        return self._names[0]

    @property
    def outputs(self) -> List[str]:
        """Names of marked output nodes, in preorder."""
        return [self._names[i] for i in np.flatnonzero(self._is_output)]

    @property
    def depth(self) -> int:
        """Maximum node depth (number of vectorized sweeps per pass)."""
        return len(self._levels) - 1

    @property
    def total_capacitance(self) -> float:
        """Total lumped plus distributed capacitance (farads)."""
        return float(self._node_c.sum() + self._edge_c.sum())

    @property
    def output_indices(self) -> np.ndarray:
        """Preorder indices of marked outputs."""
        return np.flatnonzero(self._is_output)

    def index(self, name: str) -> int:
        """Preorder index of node ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownNodeError(name) from None

    def name_of(self, index: int) -> str:
        """Node name at preorder position ``index``."""
        return self._names[index]

    def path_resistance(self, name: str) -> float:
        """``R_kk``: input-to-node path resistance (from the eager cache)."""
        return float(self._rkk[self.index(name)])

    def downstream_capacitance(self, name: str) -> float:
        """Capacitance at and below ``name``, excluding the edge into it."""
        return float(self._c_down[self.index(name)])

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    @property
    def _children(self) -> List[List[int]]:
        """Child index lists (attachment order), built on first edit."""
        if self._children_cache is None:
            children: List[List[int]] = [[] for _ in range(self._n)]
            for i in range(1, self._n):
                children[self._parent_list[i]].append(i)
            self._children_cache = children
        return self._children_cache

    def _recompute_c_down_path(self, start: int) -> None:
        """Recompute downstream capacitance along ``start`` -> root, exactly.

        Each ancestor's value is rebuilt from its children (the same
        child-order summation as the reference postorder pass), so repeated
        edits accumulate no drift: the caches always equal what a fresh
        compile would produce, bit for bit.
        """
        children = self._children
        c_down = self._c_down
        edge_c = self._edge_c
        node_c = self._node_c
        parent = self._parent_list
        j = start
        while j >= 0:
            total = node_c[j]
            for child in children[j]:
                total = total + c_down[child] + edge_c[child]
            c_down[j] = total
            j = parent[j]

    def update_capacitance(self, node: Union[str, int], capacitance: float) -> None:
        """Set the lumped grounded capacitance at ``node`` (farads).

        Recomputes the cached downstream capacitance along the node's root
        path (O(path children)) and invalidates the moment arrays.
        """
        i = node if isinstance(node, int) else self.index(node)
        capacitance = _require_value("capacitance", capacitance)
        if capacitance == self._node_c[i]:
            return
        self._node_c[i] = capacitance
        self._recompute_c_down_path(i)
        self._times = None

    def update_resistance(self, child: Union[str, int], resistance: float) -> None:
        """Set the series resistance of the edge *into* ``child`` (ohms).

        Recomputes the cached path resistance over the child's (contiguous)
        subtree range, exactly as a fresh forward sweep would.
        """
        i = child if isinstance(child, int) else self.index(child)
        if i == 0:
            raise TopologyError("the input node has no incoming edge")
        resistance = _require_value("resistance", resistance)
        if resistance == self._edge_r[i]:
            return
        self._edge_r[i] = resistance
        rkk = self._rkk
        parent = self._parent_list
        edge_r = self._edge_r
        # Within [i, extent) parents precede children, so one forward walk
        # reproduces the compile-time recurrence bit for bit.
        for j in range(i, int(self._extent[i])):
            rkk[j] = rkk[parent[j]] + edge_r[j]
        self._times = None

    def update_line(
        self, child: Union[str, int], resistance: float, capacitance: float
    ) -> None:
        """Set both totals of the (distributed) edge into ``child``.

        The edge's distributed capacitance feeds the downstream capacitance of
        every *strict* ancestor, so the c_down recomputation starts at the
        parent.
        """
        i = child if isinstance(child, int) else self.index(child)
        if i == 0:
            raise TopologyError("the input node has no incoming edge")
        self.update_resistance(i, resistance)
        capacitance = _require_value("capacitance", capacitance)
        if capacitance != self._edge_c[i]:
            self._edge_c[i] = capacitance
            self._recompute_c_down_path(self._parent_list[i])
            self._times = None

    def refresh(self) -> None:
        """Rebuild the aggregate caches from the element arrays.

        Incremental updates recompute their dirty regions exactly, so this is
        never needed for accuracy; it exists as an escape hatch (and as the
        oracle the incremental unit tests compare against).
        """
        self._build_aggregates()
        self._times = None

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def solve(self) -> FlatTimes:
        """Characteristic times of every node, recomputing only when stale.

        The forest kernel run on this tree as a forest of one, over its own
        ``(N,)`` arrays -- bitwise the same times the tree gets inside any
        forest, batch or shard store.
        """
        if self._times is None:
            ree, tde, tre, tp, total = solve_range(
                self._parent,
                self._levels,
                _ONE_TREE,
                self._edge_r,
                self._edge_c,
                self._node_c,
            )
            self._times = FlatTimes(
                tp=tp[0], tde=tde, tre=tre, ree=ree, total_capacitance=total[0]
            )
        return self._times

    def solve_batch(
        self,
        edge_r: PlaneInput = None,
        edge_c: PlaneInput = None,
        node_c: PlaneInput = None,
        *,
        count: Optional[int] = None,
    ) -> ScenarioTimes:
        """Characteristic times under ``S`` element parameterizations at once.

        Each plane is ``None`` (the tree's own values for every scenario), a
        ``(S,)`` vector of per-scenario *effective* values broadcast over the
        nodes, or a full ``(S, N)`` matrix of effective element values.  The
        forest kernel runs over ``(N, S)`` matrices -- the per-node arithmetic
        is the single-scenario :meth:`solve` verbatim -- and the result
        carries a leading scenario axis.  The single-scenario solve cache is
        untouched: batched solves neither read nor invalidate it, and
        incremental updates to the tree are reflected by the *next* batched
        solve because the base arrays are re-read per call.
        """
        s = _scenario_count(count, edge_r, edge_c, node_c)
        n = self._n
        er, ec, nc = (
            chunk_matrix(normalize_plane(plane, n, s, name), base, 0, s, n)
            for plane, base, name in zip(
                (edge_r, edge_c, node_c),
                (self._edge_r, self._edge_c, self._node_c),
                PLANE_NAMES,
            )
        )
        ree, tde, tre, tp, total = solve_range(
            self._parent, self._levels, _ONE_TREE, er, ec, nc
        )
        return ScenarioTimes(
            tp=tp[0], tde=tde.T, tre=tre.T, ree=ree.T, total_capacitance=total[0]
        )

    def solve_scenarios(self, scenarios: Any) -> ScenarioTimes:
        """Apply a scenario plane's derates to this tree and solve, batched.

        ``scenarios`` is a :class:`repro.scenarios.ParameterPlane` (fields
        ``r_scale``/``c_scale``, each ``(S,)`` or ``(S, N)``) or anything with
        a ``tree_plane()`` method producing one -- in particular a
        :class:`repro.scenarios.ScenarioSet`, whose net/driver/period knobs
        do not apply to a bare tree.
        """
        plane = scenarios.tree_plane() if hasattr(scenarios, "tree_plane") else scenarios
        r_scale = np.asarray(plane.r_scale, dtype=float)
        c_scale = np.asarray(plane.c_scale, dtype=float)
        if r_scale.ndim == 1:
            r_scale = r_scale[:, np.newaxis]
        if c_scale.ndim == 1:
            c_scale = c_scale[:, np.newaxis]
        return self.solve_batch(
            edge_r=self._edge_r * r_scale,
            edge_c=self._edge_c * c_scale,
            node_c=self._node_c * c_scale,
            count=r_scale.shape[0],
        )

    def _path_moments(self, i: int) -> tuple:
        """``(T_De, T_Re * R_ee)`` of one node from the cached aggregates.

        O(depth), bit-identical to the full forward sweep: the same recurrence
        is evaluated in root-to-node order along the single path.
        """
        chain: List[int] = []
        parent = self._parent_list
        j = i
        while parent[j] >= 0:
            chain.append(j)
            j = parent[j]
        tde = 0.0
        tr_num = 0.0
        edge_r = self._edge_r
        edge_c = self._edge_c
        c_down = self._c_down
        rkk = self._rkk
        for j in reversed(chain):
            p = parent[j]
            r = edge_r[j]
            lc = edge_c[j]
            below = c_down[j]
            rk = rkk[j]
            rp = rkk[p]
            tde = tde + r * (below + lc / 2.0)
            tr_num = tr_num + (rk * rk - rp * rp) * below + (rp * r + r * r / 3.0) * lc
        return tde, tr_num

    def characteristic_times(self, output: Union[str, int]) -> CharacteristicTimes:
        """``T_P``, ``T_De``, ``T_Re`` of one output.

        Reads the solved arrays when they are fresh; after an incremental
        update it recomputes just this output's path recurrence (O(depth))
        from the cached aggregates plus the kernel's O(N) ``T_P`` and
        ``C_T`` reductions, without a full solve.
        """
        i = output if isinstance(output, int) else self.index(output)
        if self._times is not None:
            times = self._times
            tde = float(times.tde[i])
            tre = float(times.tre[i])
            tp = times.tp
            total = times.total_capacitance
        else:
            tde, tr_num = self._path_moments(i)
            ree = self._rkk[i]
            tre = float(tr_num / ree) if ree > 0.0 else 0.0
            tde = float(tde)
            tps, totals = tree_sums(
                self._parent,
                _ONE_TREE,
                self._rkk,
                self._edge_r,
                self._edge_c,
                self._node_c,
            )
            tp = float(tps[0])
            total = float(totals[0])
        return CharacteristicTimes(
            output=self._names[i],
            tp=tp,
            tde=tde,
            tre=tre,
            ree=float(self._rkk[i]),
            total_capacitance=total,
        )

    def characteristic_times_all(
        self, outputs: Optional[Iterable[Union[str, int]]] = None
    ) -> Dict[str, CharacteristicTimes]:
        """Drop-in replacement for :func:`repro.core.timeconstants.characteristic_times_all`.

        Defaults to the marked outputs, or every node when none are marked.
        """
        indices = self._select(outputs)
        times = self.solve()
        return {
            self._names[i]: CharacteristicTimes(
                output=self._names[i],
                tp=times.tp,
                tde=float(times.tde[i]),
                tre=float(times.tre[i]),
                ree=float(times.ree[i]),
                total_capacitance=times.total_capacitance,
            )
            for i in indices
        }

    def elmore_delays(
        self, outputs: Optional[Iterable[Union[str, int]]] = None
    ) -> Dict[str, float]:
        """Elmore delay ``T_De`` of many outputs at once."""
        return {
            name: ct.tde for name, ct in self.characteristic_times_all(outputs).items()
        }

    # ------------------------------------------------------------------
    # Batched bounds, eqs. (8)-(17)
    # ------------------------------------------------------------------
    def _select(self, outputs: Optional[Iterable[Union[str, int]]]) -> np.ndarray:
        if outputs is None:
            indices = self.output_indices
            if len(indices) == 0:
                indices = np.arange(self._n)
            return indices
        return np.asarray(
            [o if isinstance(o, int) else self.index(o) for o in outputs],
            dtype=np.int64,
        )

    def delay_bounds_batch(
        self,
        thresholds: Union[Sequence[float], np.ndarray],
        outputs: Optional[Iterable[Union[str, int]]] = None,
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Eqs. (13)-(17) for a (sinks x thresholds) matrix in one numpy call.

        Returns ``(names, lower, upper)`` where the bound arrays have shape
        ``(len(names), len(thresholds))``.
        """
        indices = self._select(outputs)
        times = self.solve()
        lower, upper = delay_bounds_batch(
            times.tp,
            times.tde[indices],
            times.tre[indices],
            thresholds,
            total_capacitance=times.total_capacitance,
        )
        return [self._names[i] for i in indices], lower, upper

    def voltage_bounds_batch(
        self,
        sample_times: Union[Sequence[float], np.ndarray],
        outputs: Optional[Iterable[Union[str, int]]] = None,
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Eqs. (8)-(12) for a (sinks x times) matrix in one numpy call.

        Returns ``(names, vmin, vmax)`` with shape ``(len(names), len(times))``.
        """
        indices = self._select(outputs)
        times = self.solve()
        vmin, vmax = voltage_bounds_batch(
            times.tp,
            times.tde[indices],
            times.tre[indices],
            sample_times,
            total_capacitance=times.total_capacitance,
        )
        return [self._names[i] for i in indices], vmin, vmax

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"FlatTree(nodes={self._n}, depth={self.depth}, "
            f"outputs={int(self._is_output.sum())})"
        )
