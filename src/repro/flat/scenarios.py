"""The forest kernel: every characteristic-time solve runs through here.

The paper's two tree passes -- the reverse downstream-capacitance sweep and
the forward path sweep for ``T_De`` and ``T_Re R_ee`` -- are written once,
in :func:`sweep_scenarios`, one vectorized gather/scatter per depth level.
:func:`solve_range` adds the per-tree ``T_P`` and ``C_T`` reductions
(:func:`tree_sums`) and is the single numpy kernel behind every solve: a
tree is a forest of one (``starts=[0]``) and a single scenario is the
kernel on ``(N,)`` arrays, while ``S`` scenarios side by side ride along as
a trailing axis of ``(N, S)`` matrices -- numpy broadcasting carries it
through every gather and scatter, so a 64-corner sweep costs a handful of
slightly wider numpy calls instead of 64 re-runs of the whole pipeline.
Because every path shares the same operations in the same order, a tree's
times are bitwise identical whether it is solved alone, inside a forest,
as one scenario of a batch or out of a shard store.

Callers hand in *effective* element values per scenario -- derates and
overrides are applied by the layer that understands them
(:meth:`repro.flat.FlatTree.solve_scenarios` for bare trees,
:meth:`repro.graph.DesignDB.solve_scenarios` for whole designs,
:meth:`repro.graph.TimingGraph.whatif_resize_worst_slack` for
candidates-as-scenarios optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import AnalysisError, ElementValueError

#: Scenario element planes accepted by the batch solvers and
#: :func:`normalize_plane`: ``None`` (use the base array for every scenario),
#: a scalar, an ``(S,)`` per-scenario vector, or a full ``(S, N)`` matrix of
#: effective element values.
PlaneInput = Optional[Union[float, Sequence[float], np.ndarray]]

#: The element planes in ``(edge_r, edge_c, node_c)`` order, by name.
PLANE_NAMES = ("edge_r", "edge_c", "node_c")

#: A substitute two-pass kernel for :func:`solve_range`: ``(parent, er, ec,
#: nc)`` node-major matrices in, ``(rkk, c_down, tde, tre)`` out (the
#: contraction or compiled sweeps with their schedule baked in).
SweepFn = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
]

__all__ = [
    "PLANE_NAMES",
    "ScenarioTimes",
    "ScenarioForestTimes",
    "chunk_matrix",
    "check_elements",
    "level_buckets",
    "normalize_plane",
    "solve_range",
    "sweep_scenarios",
    "tree_sums",
]


def level_buckets(depth: np.ndarray) -> List[np.ndarray]:
    """Node indices grouped by depth, one array per level.

    The stable sort keeps preorder (== attachment) order within each level;
    every level-sweep consumer -- :class:`~repro.flat.flattree.FlatTree`,
    :class:`~repro.flat.forest.FlatForest` and the shards of
    :mod:`repro.parallel.engine` -- builds its buckets through this one
    helper, which is what keeps their per-level scatter order (and thus
    bitwise results) identical.
    """
    order = np.argsort(depth, kind="stable")
    counts = np.bincount(depth)
    return list(np.split(order, np.cumsum(counts)[:-1]))


@dataclass(frozen=True)
class ScenarioTimes:
    """Characteristic times of every node under every scenario (one tree).

    ``tde``/``tre``/``ree`` have shape ``(S, N)``; ``tp`` and
    ``total_capacitance`` carry one entry per scenario.
    """

    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: np.ndarray

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return self.tde.shape[0]


@dataclass(frozen=True)
class ScenarioForestTimes:
    """Characteristic times of every node of every tree under every scenario.

    Node-indexed arrays have shape ``(S, N)`` over the forest's concatenated
    numbering; ``tp`` and ``total_capacitance`` have shape ``(S, trees)``.
    """

    tp: np.ndarray
    tde: np.ndarray
    tre: np.ndarray
    ree: np.ndarray
    total_capacitance: np.ndarray

    @property
    def scenario_count(self) -> int:
        """Number of scenarios ``S``."""
        return self.tde.shape[0]


def check_elements(array: np.ndarray, name: str) -> np.ndarray:
    """Return ``array`` if every entry is finite and non-negative.

    The paper's bounds assume finite, non-negative R and C; a negative
    plane would return negative delays and an ``inf`` one NaNs, so every
    plane that enters a solve or a shard store passes through here and
    raises :class:`~repro.core.exceptions.ElementValueError` otherwise.
    Two reductions and no temporary: ``min`` propagates NaN, so NaN and
    negative entries fail the first test and ``+inf`` the second.
    """
    if array.size and not (array.min() >= 0.0 and np.isfinite(array.max())):
        raise ElementValueError(f"{name} values must be finite and non-negative")
    return array


def normalize_plane(
    values: PlaneInput, n: int, count: int, name: str = "scenario plane"
) -> Optional[np.ndarray]:
    """Validate one scenario plane without materializing the ``(N, S)`` matrix.

    Returns ``None`` (use base values), a ``(S,)`` per-scenario vector, or a
    ``(S, N)`` matrix, kept in that compact form so chunked execution can
    slice scenarios lazily (:func:`chunk_matrix`).  Non-finite or negative
    values raise :class:`~repro.core.exceptions.ElementValueError`, a
    vector or matrix of the wrong size
    :class:`~repro.core.exceptions.AnalysisError`.
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


def chunk_matrix(
    values: Optional[np.ndarray], base: np.ndarray, lo: int, hi: int, n: int
) -> np.ndarray:
    """The node-major ``(N, hi-lo)`` effective element matrix for [lo, hi).

    ``values`` is a :func:`normalize_plane` result; ``None`` broadcasts the
    ``base`` array over the scenario columns.  Copy-free when the caller's
    plane is already node-major underneath (an ``(S, N)`` array that is a
    transposed view of a C-contiguous ``(N, S)`` matrix, the layout
    :meth:`repro.graph.DesignDB.solve_scenarios` builds); otherwise one
    materialization.
    """
    w = hi - lo
    if values is None:
        return np.ascontiguousarray(np.broadcast_to(base[:, np.newaxis], (n, w)))
    if values.ndim == 1:
        return np.ascontiguousarray(np.broadcast_to(values[np.newaxis, lo:hi], (n, w)))
    return np.ascontiguousarray(values[lo:hi].T)


def sweep_scenarios(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
    out: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes, one numpy call per depth level.

    Element arrays are ``(N,)`` (one scenario) or node-major ``(N, S)``;
    returns ``(rkk, c_down, tde, tre)`` of the same shape.  ``out``
    optionally supplies ``(rkk, tde, tre)`` destination arrays (any views
    of that shape, e.g. one shard's rows of a preallocated result), which
    are overwritten and returned instead of fresh allocations -- same
    arithmetic, same bits.
    """
    if out is None:
        rkk = edge_r.copy()
        tde = np.zeros_like(rkk)
        tre = np.zeros_like(rkk)
    else:
        rkk, tde, tre = out
        rkk[...] = edge_r
        tde[...] = 0.0
        tre[...] = 0.0
    for level in levels[1:]:
        rkk[level] += rkk[parent[level]]
    c_down = node_c.copy()
    for level in reversed(levels[1:]):
        np.add.at(c_down, parent[level], c_down[level] + edge_c[level])
    tr_num = np.zeros_like(rkk)
    for level in levels[1:]:
        p = parent[level]
        r = edge_r[level]
        lc = edge_c[level]
        below = c_down[level]
        rk = rkk[level]
        rp = rkk[p]
        tde[level] = tde[p] + r * (below + lc / 2.0)
        tr_num[level] = tr_num[p] + (rk * rk - rp * rp) * below + (rp * r + r * r / 3.0) * lc
    np.divide(tr_num, rkk, out=tre, where=rkk > 0.0)
    return rkk, c_down, tde, tre


def tree_sums(
    parent: np.ndarray,
    starts: np.ndarray,
    rkk: np.ndarray,
    er: np.ndarray,
    ec: np.ndarray,
    nc: np.ndarray,
    out: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-tree ``T_P`` (eq. 5) and total capacitance ``C_T``.

    ``T_P = sum_k R_kk C_k`` with each distributed line contributing
    ``(R_parent + R/2) C``; ``starts`` holds each tree's first node.
    Returns ``(tp, total)`` shaped ``(trees,)`` or ``(trees, S)``, written
    into ``out`` when given.  ``np.add.reduceat`` sums each segment in node
    order for every array shape, which is what makes ``T_P`` bitwise equal
    across single-tree, forest, batched and sharded solves.
    """
    # The gathered parent path resistance, turned in place into the T_P
    # terms ``rkk * nc + (rkk_parent + er / 2) * ec`` (same operations, same
    # bits as the expression, without its temporaries).
    tp_terms = rkk[np.maximum(parent, 0)]
    # A root has no parent edge: its gathered "parent" row above is whatever
    # node sits at index 0 of the range, so zero it explicitly -- every node
    # range, sharded or not, then computes the same root contribution even
    # when a scenario plane puts elements on a root edge.
    tp_terms[parent < 0] = 0.0
    tp_terms += er / 2.0
    tp_terms *= ec
    tp_terms += rkk * nc
    tp = np.add.reduceat(tp_terms, starts, axis=0, out=None if out is None else out[0])
    total = np.add.reduceat(
        nc + ec, starts, axis=0, out=None if out is None else out[1]
    )
    return tp, total


def solve_range(
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

    ``parent`` must be range-local (roots ``-1``), ``levels`` its depth
    buckets (:func:`level_buckets`; unused when ``sweep`` is given) and
    ``starts`` the local first-node index of each member tree.  Element arrays are ``(N,)`` or node-major
    ``(N, S)``.  Returns ``(ree, tde, tre, tp, total)`` with the
    node-indexed arrays shaped like ``er`` and the per-tree reductions
    shaped ``(trees,)`` or ``(trees, S)``.

    No level sweep reads across a tree boundary, so a range's results are
    bitwise identical to the same trees' rows of a whole-forest solve.
    ``sweep`` substitutes an alternative two-pass kernel with the
    :func:`sweep_scenarios` signature minus ``levels`` (the contraction
    kernels), which keeps the documented 1e-12 parity instead.
    ``out`` optionally supplies the five result arrays (e.g. one shard's
    rows of a whole-forest result): the level sweeps and reductions then
    write into them directly, a substitute sweep's node arrays are copied
    in, and ``out`` is what is returned.
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
    tp, total = tree_sums(
        parent, starts, rkk, er, ec, nc, out=None if out is None else out[3:]
    )
    return rkk, tde, tre, tp, total
