"""Backend registry and engine auto-selection."""

import pytest

from repro.core.exceptions import AnalysisError
from repro.parallel import (
    AUTO_PROCESS_CELLS,
    available_backends,
    get_backend,
    register_backend,
    resolve_engine,
)
from repro.parallel import backends as backends_module


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("numpy", "process", "contract")

    def test_get_backend_flags(self):
        assert get_backend("numpy").parallel is False
        assert get_backend("process").parallel is True

    def test_unknown_backend_lists_alternatives(self):
        # "native" (the deleted Numba backend) is unknown like any other name.
        for name in ("cuda", "native"):
            with pytest.raises(
                AnalysisError, match="available: numpy, process, contract$"
            ):
                get_backend(name)

    def test_register_and_resolve_custom_backend(self):
        def never_called(*args):  # pragma: no cover - registry plumbing only
            raise AssertionError

        try:
            backend = register_backend(
                "unit-test", never_called, parallel=False, description="x"
            )
            assert get_backend("unit-test") is backend
            resolved, jobs = resolve_engine("unit-test", cells=10)
            assert resolved is backend and jobs == 1
        finally:
            backends_module._REGISTRY.pop("unit-test", None)

    def test_reserved_names_rejected(self):
        with pytest.raises(AnalysisError):
            register_backend("auto", lambda: None, parallel=False)
        with pytest.raises(AnalysisError):
            register_backend("", lambda: None, parallel=False)


class TestResolveEngine:
    def test_small_sweep_stays_serial(self):
        backend, jobs = resolve_engine(None, cells=100, jobs=8)
        assert backend.name == "numpy" and jobs == 1

    def test_big_sweep_escalates_with_workers(self):
        backend, jobs = resolve_engine(None, cells=AUTO_PROCESS_CELLS, jobs=4)
        assert backend.name == "process" and jobs == 4

    def test_jobs_one_forces_serial_even_when_big(self):
        backend, jobs = resolve_engine(None, cells=AUTO_PROCESS_CELLS * 8, jobs=1)
        assert backend.name == "numpy" and jobs == 1

    def test_auto_alias_matches_none(self):
        for cells in (10, AUTO_PROCESS_CELLS * 2):
            assert (
                resolve_engine(None, cells=cells, jobs=3)[0].name
                == resolve_engine("auto", cells=cells, jobs=3)[0].name
            )

    def test_explicit_process_honoured_regardless_of_size(self):
        backend, jobs = resolve_engine("process", cells=1, jobs=2)
        assert backend.name == "process" and jobs == 2

    def test_process_defaults_jobs_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr(backends_module, "default_job_count", lambda: 6)
        backend, jobs = resolve_engine("process", cells=1)
        assert backend.name == "process" and jobs == 6

    def test_auto_uses_default_job_count(self, monkeypatch):
        monkeypatch.setattr(backends_module, "default_job_count", lambda: 1)
        backend, _ = resolve_engine(None, cells=AUTO_PROCESS_CELLS * 8)
        assert backend.name == "numpy"
        monkeypatch.setattr(backends_module, "default_job_count", lambda: 4)
        backend, jobs = resolve_engine(None, cells=AUTO_PROCESS_CELLS * 8)
        assert backend.name == "process" and jobs == 4

    def test_rejects_bad_jobs(self):
        with pytest.raises(AnalysisError):
            resolve_engine(None, cells=10, jobs=0)

    def test_depth_pathology_picks_contract(self):
        backend, jobs = resolve_engine(None, cells=4000, nodes=4000, depth=3999)
        assert backend.name == "contract" and jobs == 1

    def test_contract_beats_process_escalation(self, monkeypatch):
        # A huge *and* deep sweep: the depth pathology wins the auto pick.
        monkeypatch.setattr(backends_module, "default_job_count", lambda: 4)
        backend, _ = resolve_engine(
            None, cells=AUTO_PROCESS_CELLS * 8, nodes=100_000, depth=99_999
        )
        assert backend.name == "contract"

    def test_shallow_forest_never_contracts(self):
        backend, _ = resolve_engine(None, cells=4000, nodes=4000, depth=20)
        assert backend.name == "numpy"

    def test_explicit_contract_honoured(self):
        backend, jobs = resolve_engine("contract", cells=1, nodes=4, depth=1)
        assert backend.name == "contract" and jobs == 1


class TestAffinityAwareJobs:
    """default_job_count() must follow the scheduling mask, not cpu_count.

    A cgroup-capped container advertises every host core through
    ``os.cpu_count()`` but only the granted ones through
    ``os.sched_getaffinity(0)``; auto-selection keying off the former made
    1-core containers pay process fan-out for nothing (ROADMAP item 1).
    """

    def test_default_job_count_reads_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            backends_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(backends_module.os, "cpu_count", lambda: 64)
        assert backends_module.default_job_count() == 1

    def test_one_core_mask_never_auto_escalates(self, monkeypatch):
        monkeypatch.setattr(
            backends_module.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(backends_module.os, "cpu_count", lambda: 64)
        backend, jobs = resolve_engine(None, cells=AUTO_PROCESS_CELLS * 8)
        assert backend.name == "numpy" and jobs == 1

    def test_four_core_mask_escalates(self, monkeypatch):
        monkeypatch.setattr(
            backends_module.os,
            "sched_getaffinity",
            lambda pid: {0, 1, 2, 3},
            raising=False,
        )
        backend, jobs = resolve_engine(None, cells=AUTO_PROCESS_CELLS * 8)
        assert backend.name == "process" and jobs == 4
