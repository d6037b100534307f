"""Helpers shared by the workloads: paths, statistics, oracles, environment.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can refuse
to run (exit 2) in a checkout that lacks the program's sources before any
import fails halfway through a workload.
"""

from __future__ import annotations

import importlib.util
import math
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch inputs, traces and result records; ignored by git.
WORK = os.path.join(ROOT, "perfbench", ".work")

#: Relative tolerance every oracle applies (the repo's parity contract).
RTOL = 1e-12


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def source_env() -> Dict[str, str]:
    """Environment for a subprocess that must import this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def adopt_orphans() -> None:
    """Become the reaper of every descendant whose parent ends first (Linux).

    A CLI flow's worker pool and resource tracker, or a timed-out flow's
    children, are then re-parented to this process, so
    :func:`stop_children` can wait for them instead of leaving them behind.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        pass


def _child_pids() -> List[int]:
    """Pids whose parent is this process, read from procfs."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started, adopted ones too, and wait for each.

    The program's cached worker pools are terminated, then multiprocessing's
    resource tracker (which the ``process`` engine's shared memory starts and
    which would otherwise outlive this process) is closed.  Every child is
    then reaped; one still alive after ``grace`` seconds is killed.  Run it
    last: anything that unlinks shared memory afterwards would start a new
    tracker.
    """
    engine = sys.modules.get("repro.parallel.engine")
    if engine is not None:
        engine.shutdown_pools()
    if "multiprocessing" in sys.modules:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        time.sleep(0.01)


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A fresh directory under :data:`WORK`, removed when the block ends."""
    os.makedirs(WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set of this process (or of its waited children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """Resident set of this process now (its high-water mark off Linux)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except OSError:  # pragma: no cover - no procfs
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / 2.0**20


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------
def mismatch(got, want, *, scale: float = 0.0, rtol: float = RTOL) -> Optional[str]:
    """``None`` when ``got`` matches ``want`` elementwise, else a description.

    Values agree when ``|got - want| <= rtol * max(|got|, |want|, scale)``;
    ``scale`` keeps quantities that cancel toward zero (slacks) compared
    against the magnitude they were computed from (the clock period).
    """
    import numpy as np

    a = np.asarray(got, dtype=np.float64)
    b = np.asarray(want, dtype=np.float64)
    if a.shape != b.shape:
        return f"shape {a.shape} != {b.shape}"
    if a.size == 0:
        return None
    same_inf = np.isinf(a) & (a == b)
    bound = rtol * np.maximum(np.maximum(np.abs(a), np.abs(b)), scale)
    with np.errstate(invalid="ignore"):
        bad = ~(same_inf | (np.abs(a - b) <= bound))
    if bad.any():
        index = int(np.argmax(bad))
        return (
            f"{int(bad.sum())} of {a.size} values differ; first at flat index "
            f"{index}: {a.flat[index]!r} vs {b.flat[index]!r}"
        )
    return None


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured, before it is printed."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric -> (value, unit, sample count)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer metric -> (value, unit, sample count); traced runs only
    layers: Dict[str, tuple] = field(default_factory=dict)
    #: this workload's headline numbers under its own names, plus
    #: ``baseline_rss_mb``: the resident set before set-up, which the
    #: in-process workloads' ``peak_rss_mb`` includes
    named: Dict[str, tuple] = field(default_factory=dict)
    #: engine name -> number of sweeps that ran on it
    engines: Dict[str, int] = field(default_factory=dict)
    #: every timed operation's latency (seconds), in completion order
    op_seconds: List[float] = field(default_factory=list)
    #: first few oracle disagreements, for the record
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def count_engine(self, name: Optional[str]) -> None:
        if name:
            self.engines[name] = self.engines.get(name, 0) + 1


def host_reference_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: a gauge of the host's speed.

    It runs none of the program.  When two runs' figures move together with
    this gauge, the machine changed speed between them, not the program.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value
        times.append(time.perf_counter() - start)
    return median(times) * 1e3


def environment(seed: int) -> Dict[str, object]:
    """Cores, interpreter, numpy, Numba presence, the seed and the host gauge."""
    import numpy as np

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return {
        "cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "seed": seed,
        "host_ref_ms": round(host_reference_ms(), 3),
    }
