"""Scenario-batched characteristic-time sweeps.

The single-scenario engine evaluates the paper's two tree passes over
``(N,)`` element arrays, one vectorized gather/scatter per depth level.  The
kernel here runs the *same* recurrences over ``(N, S)`` matrices -- ``S``
scenarios side by side -- so a 64-corner sweep costs a handful of slightly
wider numpy calls instead of 64 re-runs of the whole pipeline.  The per-node
arithmetic (operations, association, child order) is kept identical to the
single-scenario sweeps, which is what lets the parity tests pin the batched
axis against a per-scenario loop of the reference engine at 1e-12 relative
tolerance.

Callers hand in *effective* element values per scenario -- derates and
overrides are applied by the layer that understands them
(:meth:`repro.flat.FlatTree.solve_scenarios` for bare trees,
:meth:`repro.graph.DesignDB.solve_scenarios` for whole designs,
:meth:`repro.graph.TimingGraph.whatif_resize_worst_slack` for
candidates-as-scenarios optimization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.exceptions import AnalysisError, ElementValueError

#: Scenario element planes accepted by the batch solvers and
#: :func:`as_node_matrix`: ``None`` (use the base array for every scenario),
#: a scalar, an ``(S,)`` per-scenario vector, or a full ``(S, N)`` matrix of
#: effective element values.
PlaneInput = Optional[Union[float, Sequence[float], np.ndarray]]

__all__ = [
    "ScenarioTimes",
    "ScenarioForestTimes",
    "sweep_scenarios",
    "as_node_matrix",
    "check_elements",
    "level_buckets",
]


def level_buckets(depth: np.ndarray) -> List[np.ndarray]:
    """Node indices grouped by depth, one array per level.

    The stable sort keeps preorder (== attachment) order within each level;
    every level-sweep consumer -- :class:`~repro.flat.flattree.FlatTree`,
    :class:`~repro.flat.forest.FlatForest` and the sharded workers of
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


def as_node_matrix(
    values: PlaneInput, base: np.ndarray, count: int, name: str = "scenario plane"
) -> np.ndarray:
    """Normalize a scenario plane to a contiguous ``(N, S)`` matrix.

    ``values`` may be ``None`` (use the base array for every scenario), a
    ``(S,)`` vector of per-scenario values to broadcast over nodes, or a full
    ``(S, N)`` matrix of effective element values; non-finite or negative
    values raise :class:`~repro.core.exceptions.ElementValueError`.
    """
    n = base.shape[0]
    if values is None:
        return np.ascontiguousarray(np.broadcast_to(base[:, np.newaxis], (n, count)))
    array = check_elements(np.asarray(values, dtype=float), name)
    if array.ndim == 1:
        if array.shape[0] != count:
            raise AnalysisError(
                f"scenario vector has {array.shape[0]} entries, expected {count}"
            )
        return np.ascontiguousarray(np.broadcast_to(array[np.newaxis, :], (n, count)))
    if array.shape != (count, n):
        raise AnalysisError(
            f"scenario plane has shape {array.shape}, expected ({count}, {n})"
        )
    return np.ascontiguousarray(array.T)


def sweep_scenarios(
    levels: Sequence[np.ndarray],
    parent: np.ndarray,
    edge_r: np.ndarray,
    edge_c: np.ndarray,
    node_c: np.ndarray,
    out: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The two characteristic-time passes over ``(N, S)`` element matrices.

    Returns ``(rkk, c_down, tde, tre)``, all ``(N, S)``.  The recurrences are
    the single-scenario sweeps verbatim; numpy broadcasting carries the
    trailing scenario axis through every gather/scatter.  ``out`` optionally
    supplies ``(rkk, tde, tre)`` destination arrays (any ``(N, S)`` views,
    e.g. one shard's rows of a preallocated result), which are overwritten
    and returned instead of fresh allocations -- same arithmetic, same bits.
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
