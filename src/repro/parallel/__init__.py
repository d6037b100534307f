"""Sharded multi-core execution for the scenario-batched solvers.

The Penfield-Rubinstein passes are linear-time and embarrassingly parallel
across trees and scenarios; this layer turns that into wall-clock speed:

* :mod:`repro.parallel.sharding` -- pure planners: contiguous, node-balanced
  tree shards and bounded scenario chunks;
* :mod:`repro.parallel.backends` -- the kernel-backend registry (``"numpy"``
  serial reference, ``"process"`` sharded workers, ``"contract"``
  pointer-jumping contraction for depth-pathological forests) and the
  size/depth auto-selection every ``engine=`` parameter funnels through,
  observable via :func:`last_selection` and ``REPRO_ENGINE_LOG=1``;
* :mod:`repro.parallel.engine` -- the execution engine itself: shards
  solved on worker threads over in-process planes, each writing its rows
  of the preallocated results, and numerically identical results
  regardless of backend (bitwise between ``"numpy"`` and ``"process"``,
  1e-12 for ``"contract"``).

Callers never import this package directly for normal use -- they pass
``engine=`` / ``jobs=`` to :meth:`repro.flat.FlatForest.solve_batch`,
:meth:`repro.graph.DesignDB.solve_scenarios`,
:meth:`repro.graph.TimingGraph.analyze_scenarios`,
:func:`repro.apps.corners.corner_sweep` or the CLI's ``timing --jobs``.
The layer map lives in ``docs/architecture.md``.
"""

from repro.parallel.backends import (
    AUTO_PROCESS_CELLS,
    CONTRACT_DEPTH_RATIO,
    KernelBackend,
    available_backends,
    default_job_count,
    get_backend,
    last_selection,
    record_selection,
    register_backend,
    resolve_engine,
    should_contract,
)
from repro.parallel.engine import (
    ForestStructure,
    shutdown_pools,
    solve_forest_batch,
)
from repro.parallel.sharding import (
    CHUNK_BYTES_ENV,
    DEFAULT_CHUNK_CELLS,
    MAX_CHUNK_CELLS,
    default_chunk_cells,
    plan_shards,
    scenario_chunks,
    shard_node_ranges,
)

__all__ = [
    "AUTO_PROCESS_CELLS",
    "CHUNK_BYTES_ENV",
    "CONTRACT_DEPTH_RATIO",
    "DEFAULT_CHUNK_CELLS",
    "MAX_CHUNK_CELLS",
    "default_chunk_cells",
    "ForestStructure",
    "KernelBackend",
    "available_backends",
    "default_job_count",
    "get_backend",
    "last_selection",
    "plan_shards",
    "record_selection",
    "register_backend",
    "resolve_engine",
    "scenario_chunks",
    "shard_node_ranges",
    "should_contract",
    "shutdown_pools",
    "solve_forest_batch",
]
