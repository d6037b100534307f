"""Kernel-backend registry: how a scenario-batched forest solve executes.

A *backend* is a strategy for running the characteristic-time level sweeps
over the ``(N, S)`` element planes of a forest:

* ``"numpy"`` -- the serial vectorized kernels, in-process.  Always
  available, always the reference; small sweeps stay here because shard
  fan-out costs more than it saves.
* ``"process"`` -- the sharded multi-core engine
  (:mod:`repro.parallel.engine`): the forest is split into contiguous,
  node-balanced shards (:func:`repro.parallel.sharding.plan_shards`) and
  solved on worker threads over in-process planes.
* ``"contract"`` -- the pointer-jumping tree-contraction kernels
  (:mod:`repro.flat.contraction`): O(log N) rounds regardless of depth, the
  cure for chain-heavy forests where the level sweeps degenerate into one
  numpy call per level.

Callers normally pass ``engine=None`` (or ``"auto"``) and let
:func:`resolve_engine` pick: depth-pathological forests
(``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO``) go to the contraction
kernels, otherwise the sharded escalation (``nodes x scenarios >=
AUTO_PROCESS_CELLS`` with more than one usable worker) picks
``"process"``, and everything else runs ``"numpy"``.  An *explicit*
``engine="process"`` / ``"contract"`` is always honoured (``"process"``
with however many workers are asked for) so parity tests exercise every
path even on one core.
Worker counts are affinity-aware: :func:`default_job_count` reads the
scheduling mask (``os.sched_getaffinity``), not the raw CPU count, so
cgroup-capped containers never auto-pay shard fan-out they cannot use.

Every solve records which backend it chose (:func:`last_selection`), and
setting ``REPRO_ENGINE_LOG=1`` additionally prints one line per solve to
stderr -- the observability knob for "why was this sweep slow?".

The registry is open: :func:`register_backend` lets an experiment register
e.g. a GPU strategy under a new name without touching the call sites,
which all go through ``engine="<name>"`` string selection.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import AnalysisError

__all__ = [
    "AUTO_PROCESS_CELLS",
    "CONTRACT_DEPTH_RATIO",
    "KernelBackend",
    "available_backends",
    "default_job_count",
    "get_backend",
    "last_selection",
    "record_selection",
    "register_backend",
    "resolve_engine",
    "should_contract",
]

#: Smallest ``nodes x scenarios`` plane for which ``engine=None`` escalates
#: to the sharded backend: below this the serial kernels finish in a few
#: milliseconds and worker dispatch would only add latency.
AUTO_PROCESS_CELLS = 1 << 19

#: Depth-pathology threshold: ``engine=None`` picks the contraction kernels
#: when ``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO``.  Bushy forests sit
#: near ratio 1-4 and stay on the level sweeps (fewer, cheaper rounds);
#: chains and URC ladders reach ratios in the hundreds where O(log N)
#: contraction rounds win outright.  The process backend's shard workers
#: apply the same test per shard.  Tunable: benchmarks may lower it, and
#: tests monkeypatch it to force either side of the decision.
CONTRACT_DEPTH_RATIO = 32.0

#: Environment variable that, when set to a non-empty value other than
#: ``"0"``, makes every solve print its engine selection to stderr.
ENGINE_LOG_ENV = "REPRO_ENGINE_LOG"


@dataclass(frozen=True)
class KernelBackend:
    """One registered execution strategy for the scenario-batched solve.

    ``solver(structure, jobs)`` plans the solve: it returns the node-range
    shards, each carrying its two-pass sweep, that
    :func:`repro.parallel.engine.solve_forest_batch` then runs chunk by
    chunk through the one forest kernel.  ``parallel`` marks backends that
    fan out to workers and therefore consume a ``jobs`` count.
    """

    name: str
    solver: Callable
    parallel: bool
    description: str = ""


_REGISTRY: Dict[str, KernelBackend] = {}


def register_backend(
    name: str,
    solver: Callable,
    *,
    parallel: bool,
    description: str = "",
) -> KernelBackend:
    """Register (or replace) a named backend and return its record."""
    if not name or name == "auto":
        raise AnalysisError(f"backend name {name!r} is reserved")
    backend = KernelBackend(
        name=name, solver=solver, parallel=parallel, description=description
    )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name; unknown names list the alternatives."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise AnalysisError(
            f"unknown engine {name!r}; available: {', '.join(available_backends())}"
        )
    return backend


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


def default_job_count() -> int:
    """Usable worker count: the CPU affinity mask when the OS exposes one."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def should_contract(depth: int, nodes: int) -> bool:
    """True when a forest is depth-pathological for the level sweeps.

    The level sweeps cost O(depth) numpy calls; the contraction kernels cost
    ``O(log2(nodes))`` rounds of slightly heavier work.  The crossover is
    where ``depth / log2(nodes)`` clears :data:`CONTRACT_DEPTH_RATIO` --
    read at call time so tuning (or monkeypatching) the threshold takes
    effect immediately.
    """
    if nodes < 2 or depth < 2:
        return False
    return depth / math.log2(nodes) >= CONTRACT_DEPTH_RATIO


#: Single-slot record of the most recent engine selection (see
#: :func:`record_selection` / :func:`last_selection`).
_LAST_SELECTION: List[Dict[str, object]] = []


def record_selection(
    requested: Optional[str],
    resolved: str,
    *,
    nodes: int = 0,
    scenarios: int = 0,
    depth: int = 0,
    jobs: int = 1,
) -> None:
    """Note which backend a solve chose; print it when the log knob is on.

    Called by :func:`repro.parallel.engine.solve_forest_batch` after every
    resolution.  The record is readable back via :func:`last_selection`; with ``REPRO_ENGINE_LOG=1`` in the environment
    a one-line report also goes to stderr, so long pipelines can show
    which engine every solve picked without any code change.
    """
    record = {
        "requested": requested if requested is not None else "auto",
        "engine": resolved,
        "nodes": int(nodes),
        "scenarios": int(scenarios),
        "depth": int(depth),
        "jobs": int(jobs),
    }
    _LAST_SELECTION[:] = [record]
    flag = os.environ.get(ENGINE_LOG_ENV, "")
    if flag and flag != "0":
        print(
            "repro.engine: engine={engine} (requested={requested}) "
            "nodes={nodes} scenarios={scenarios} depth={depth} jobs={jobs}".format(
                **record
            ),
            file=sys.stderr,
        )


def last_selection() -> Optional[Dict[str, object]]:
    """The most recent engine-selection record, or ``None`` before any solve.

    Keys: ``requested`` (the caller's ``engine=`` value, ``"auto"`` when it
    was left to the resolver), ``engine`` (the backend that actually ran),
    ``nodes``, ``scenarios``, ``depth`` and ``jobs``.  This is the
    programmatic face of the ``REPRO_ENGINE_LOG`` knob, used by the
    auto-selection tests.
    """
    return dict(_LAST_SELECTION[0]) if _LAST_SELECTION else None


def resolve_engine(
    engine: Optional[str] = None,
    *,
    cells: int = 0,
    jobs: Optional[int] = None,
    nodes: int = 0,
    depth: int = 0,
) -> Tuple[KernelBackend, int]:
    """Pick the backend and worker count for a sweep of ``cells`` elements.

    ``engine=None`` / ``"auto"`` first checks the depth pathology: a forest
    with ``depth / log2(nodes) >= CONTRACT_DEPTH_RATIO`` (see
    :func:`should_contract`) leaves the level sweeps for the ``"contract"``
    kernels, whose round count is O(log N) instead of O(depth).  Otherwise
    a sweep of at least :data:`AUTO_PROCESS_CELLS` cells with more than
    one usable worker (``jobs`` when given, else the affinity-aware
    :func:`default_job_count`) escalates to ``"process"``, and the default
    remains ``"numpy"``.  Explicit names are honoured as-is.  Returns ``(backend, jobs)`` with ``jobs`` meaningful only for
    parallel backends (every other backend reports one job).
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 1:
            raise AnalysisError(f"jobs must be >= 1, got {jobs}")
    name = engine if engine is not None else "auto"
    if name == "auto":
        workers = jobs if jobs is not None else default_job_count()
        escalate = workers >= 2 and cells >= AUTO_PROCESS_CELLS
        if "contract" in _REGISTRY and should_contract(depth, nodes):
            name = "contract"
        elif escalate and "process" in _REGISTRY:
            name = "process"
        else:
            name = "numpy"
    backend = get_backend(name)
    if not backend.parallel:
        return backend, 1
    return backend, jobs if jobs is not None else default_job_count()
