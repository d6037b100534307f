"""Vectorized flat-tree analysis engine.

The dict-based reference implementation in :mod:`repro.core` walks Python
objects node by node; this subpackage compiles an
:class:`~repro.core.tree.RCTree` into parent-index numpy arrays and computes
the paper's characteristic times (``T_P``, ``T_De``, ``T_Re`` -- eqs. 1, 5,
6, including the closed-form distributed-line integrals) for *every* output
at once with a handful of vectorized sweeps:

* :class:`FlatTree` -- one compiled tree: batched solve, O(depth) incremental
  updates (:meth:`~FlatTree.update_capacitance`,
  :meth:`~FlatTree.update_resistance`, :meth:`~FlatTree.update_line`), and
  single-output queries that never re-traverse the whole network;
* :class:`FlatForest` -- many trees concatenated and solved together, so a
  thousand small nets cost barely more than one;
* :mod:`repro.flat.scenarios` -- the one forest kernel behind every solve
  above (a tree is a forest of one); ``solve_batch`` on both classes runs
  it over ``(S, N)`` element planes, evaluating corners, derates and
  what-if candidates side by side;
* :mod:`repro.flat.contraction` -- the pointer-jumping twin of the level
  sweeps: O(log N) contraction rounds regardless of topology, the kernel
  behind ``engine="contract"`` for chain-heavy forests;
* :mod:`repro.flat.batchbounds` -- eqs. (8)-(17) evaluated over
  (sinks x thresholds) matrices in one numpy call.

The dict engine remains the reference oracle: the property tests in
``tests/properties/test_flat_parity.py`` pin agreement to a relative
tolerance of 1e-12.  Design notes and measured speedups live in
``docs/performance.md``.
"""

from repro.flat.batchbounds import (
    delay_bounds_batch,
    delay_lower_bound_batch,
    delay_upper_bound_batch,
    voltage_bounds_batch,
    voltage_lower_bound_batch,
    voltage_upper_bound_batch,
)
from repro.flat.contraction import (
    jump_schedule,
    path_sums,
    subtree_sums,
    sweep_scenarios_contract,
)
from repro.flat.flattree import FlatTimes, FlatTree
from repro.flat.forest import FlatForest, ForestTimes
from repro.flat.scenarios import ScenarioForestTimes, ScenarioTimes

__all__ = [
    "FlatTree",
    "FlatTimes",
    "FlatForest",
    "ForestTimes",
    "ScenarioTimes",
    "ScenarioForestTimes",
    "delay_bounds_batch",
    "delay_lower_bound_batch",
    "delay_upper_bound_batch",
    "voltage_bounds_batch",
    "voltage_lower_bound_batch",
    "voltage_upper_bound_batch",
    "jump_schedule",
    "path_sums",
    "subtree_sums",
    "sweep_scenarios_contract",
]
