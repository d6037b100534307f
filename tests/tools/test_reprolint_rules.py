"""Per-rule fixture tests: each rule fires on a seeded violation and stays
silent on a compliant twin of the same shape.

Fixtures are written under ``tmp_path`` at repo-like relative paths
(``repro/flat/flattree.py`` etc.) so the suffix-based module matching in
:class:`tools.reprolint.core.LintConfig` applies exactly as it does on
the real tree.
"""

import ast
import textwrap

import pytest

from tools.reprolint.core import (
    CacheContract,
    Finding,
    LintConfig,
    make_config,
    run_paths,
)


def lint(tmp_path, rel, source, config=None):
    """Write ``source`` at ``tmp_path/rel`` and lint the tmp tree."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_paths([tmp_path], config=config or make_config(repo_root=tmp_path))


def rules_fired(result):
    """The set of rule ids among new findings."""
    return {finding.rule for finding in result.findings}


# ----------------------------------------------------------------------
# RL001 kernel purity
# ----------------------------------------------------------------------
class TestKernelPurity:
    def test_fires_on_node_loop_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def solve(parent, n):
                total = 0.0
                for i in range(n):
                    total += parent[i]
                return total
            """,
        )
        assert "RL001" in rules_fired(result)

    def test_fires_on_while_loop_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/parallel/engine.py",
            """
            def _solve_chunks(levels):
                i = 0
                while i < 10:
                    i += 1
            """,
        )
        assert "RL001" in rules_fired(result)

    def test_silent_on_level_sweep_loop(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/scenarios.py",
            """
            def sweep_scenarios(levels, parent):
                for level in levels[1:]:
                    parent[level] = 0
            """,
        )
        assert "RL001" not in rules_fired(result)

    def test_silent_on_loop_in_compile_path(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def from_tree(nodes):
                for node in nodes:
                    node.visit()
            """,
        )
        assert "RL001" not in rules_fired(result)

    def test_silent_outside_kernel_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/graph/designdb.py",
            """
            def solve(items):
                for item in items:
                    item.run()
            """,
        )
        assert "RL001" not in rules_fired(result)


    def test_every_kernel_function_is_defined_in_a_kernel_module(self):
        # RL001/RL002 match kernel functions by name, so a renamed or moved
        # kernel would silently drop out of their scope.
        config = LintConfig()
        defined = set()
        for suffix in config.kernel_modules:
            source = (config.repo_root / "src" / suffix).read_text(encoding="utf-8")
            defined.update(
                node.name
                for node in ast.walk(ast.parse(source))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        assert sorted(set(config.kernel_functions) - defined) == []


# ----------------------------------------------------------------------
# RL002 dtype discipline
# ----------------------------------------------------------------------
class TestDtypeDiscipline:
    def test_fires_on_dtypeless_allocation(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            import numpy as np

            def build(n):
                return np.empty(n)
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_fires_on_tolist_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/parallel/engine.py",
            """
            def _solve_shard(plane):
                return plane.tolist()
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_fires_on_float_scalarization_in_kernel_function(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/flattree.py",
            """
            def solve(plane):
                return float(plane[0])
            """,
        )
        assert "RL002" in rules_fired(result)

    def test_silent_with_explicit_dtype_and_like_allocators(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            import numpy as np

            def build(n, template):
                a = np.zeros(n, dtype=np.float64)
                b = np.zeros_like(template)
                return a, b
            """,
        )
        assert "RL002" not in rules_fired(result)

    def test_silent_on_tolist_outside_kernel_functions(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/forest.py",
            """
            def summarize(plane):
                return plane.tolist()
            """,
        )
        assert "RL002" not in rules_fired(result)

    def test_silent_outside_kernel_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/graph/timinggraph.py",
            """
            import numpy as np

            def build(n):
                return np.empty(n)
            """,
        )
        assert "RL002" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL004 cache invalidation
# ----------------------------------------------------------------------
CONTRACT = CacheContract(
    module_suffix="repro/flat/cachy.py",
    class_name="Cachy",
    attrs=("_plane",),
    caches=("_times",),
    invalidators=("_rebucket",),
    exempt_methods=("_builder",),
)


def lint_contract(tmp_path, source):
    config = make_config(repo_root=tmp_path, contracts=(CONTRACT,))
    return lint(tmp_path, "repro/flat/cachy.py", source, config=config)


class TestCacheInvalidation:
    def test_fires_on_plain_assignment_without_invalidation(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, value):
                    self._plane = value
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_fires_on_subscript_assignment_without_invalidation(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, i, value):
                    self._plane[i] = value
            """,
        )
        assert "RL004" in rules_fired(result)

    def test_silent_when_cache_cleared(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, value):
                    self._plane = value
                    self._times = None
            """,
        )
        assert "RL004" not in rules_fired(result)

    def test_silent_when_invalidator_called(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def mutate(self, i, value):
                    self._plane[i] = value
                    self._rebucket()
            """,
        )
        assert "RL004" not in rules_fired(result)

    def test_init_and_exempt_methods_are_skipped(self, tmp_path):
        result = lint_contract(
            tmp_path,
            """
            class Cachy:
                def __init__(self):
                    self._plane = None
                    self._times = None

                def _builder(self, value):
                    self._plane = value

                def _rebucket(self):
                    self._plane = self._plane
            """,
        )
        assert "RL004" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL005 registry sync
# ----------------------------------------------------------------------
REGISTRY_SOURCE = """
def register_backend(name, fn):
    pass

register_backend("numpy", None)
register_backend("native", None)
"""

CLI_IN_SYNC = """
def build(parser):
    parser.add_argument("--engine", choices=["auto", "numpy", "native"])
"""

CLI_DRIFTED = """
def build(parser):
    parser.add_argument("--engine", choices=["auto", "numpy"])
"""

DOCS_IN_SYNC = '| `"numpy"` | one process |\n| `"native"` | compiled |\n'
DOCS_DRIFTED = '| `"numpy"` | one process |\n'

MATRIX_IN_SYNC = 'ARMS = ("numpy", "native")\n'
MATRIX_DRIFTED = 'ARMS = ("numpy",)\n'


def build_repo(tmp_path, cli, docs, matrix):
    """A miniature repo with a registry module and its three mirrors."""
    (tmp_path / "src/repro/parallel").mkdir(parents=True)
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests/properties").mkdir(parents=True)
    (tmp_path / "src/repro/parallel/engine.py").write_text(REGISTRY_SOURCE)
    if cli is not None:
        (tmp_path / "src/repro/cli.py").write_text(cli)
    if docs is not None:
        (tmp_path / "docs/architecture.md").write_text(docs)
    if matrix is not None:
        (tmp_path / "tests/properties/test_engine_matrix.py").write_text(matrix)
    return run_paths(
        [tmp_path / "src/repro/parallel"],
        config=make_config(repo_root=tmp_path),
    )


class TestRegistrySync:
    def test_fires_on_drift_in_every_mirror(self, tmp_path):
        result = build_repo(tmp_path, CLI_DRIFTED, DOCS_DRIFTED, MATRIX_DRIFTED)
        messages = [f.message for f in result.findings if f.rule == "RL005"]
        assert len(messages) == 3
        assert all("native" in message for message in messages)

    def test_fires_on_missing_mirror_file(self, tmp_path):
        result = build_repo(tmp_path, None, DOCS_IN_SYNC, MATRIX_IN_SYNC)
        assert "RL005" in rules_fired(result)

    def test_silent_when_mirrors_in_sync(self, tmp_path):
        result = build_repo(tmp_path, CLI_IN_SYNC, DOCS_IN_SYNC, MATRIX_IN_SYNC)
        assert "RL005" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL006 oracle pinning
# ----------------------------------------------------------------------
class TestBenchOracle:
    def test_fires_on_measuring_test_without_assert(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            def test_speed(benchmark):
                benchmark(lambda: 1 + 1)
            """,
        )
        assert "RL006" in rules_fired(result)

    def test_fires_when_measurement_hides_in_helper(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            import time

            def _best(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start

            def test_speed(report):
                report["t"] = _best(lambda: 1 + 1)
            """,
        )
        assert "RL006" in rules_fired(result)

    def test_silent_when_parity_asserted_via_helper(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            import time

            def _best(fn):
                start = time.perf_counter()
                out = fn()
                return time.perf_counter() - start, out

            def _check(result, oracle):
                assert abs(result - oracle) < 1e-12

            def test_speed(report):
                elapsed, out = _best(lambda: 1 + 1)
                _check(out, 2)
            """,
        )
        assert "RL006" not in rules_fired(result)

    def test_silent_on_non_measuring_test(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/bench_demo.py",
            """
            def test_shapes():
                data = [1, 2, 3]
                total = sum(data)
                return total
            """,
        )
        assert "RL006" not in rules_fired(result)

    def test_ignores_non_bench_modules(self, tmp_path):
        result = lint(
            tmp_path,
            "benchmarks/conftest.py",
            """
            def test_speed(benchmark):
                benchmark(lambda: 1 + 1)
            """,
        )
        assert "RL006" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL008 memmap lifetime
# ----------------------------------------------------------------------
class TestMemmapLifetime:
    def test_fires_on_raw_memmap_outside_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/loader.py",
            """
            import numpy as np
            from repro.store.format import release_memmap

            def load(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                total = float(block.sum())
                release_memmap(block)
                return total
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_fires_on_unreleased_memmap_in_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/leaky.py",
            """
            import numpy as np

            def read_plane(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                return float(block.sum())
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_fires_on_unreleased_factory_mapping(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/consumer.py",
            """
            from repro.store.format import map_field

            def peek(path, spec, rows):
                window = map_field(path, spec, rows, "r")
                return float(window[0])
            """,
        )
        assert "RL008" in rules_fired(result)

    def test_silent_on_released_memmap_in_store_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/format.py",
            """
            import numpy as np

            def release_memmap(*maps):
                for mapping in maps:
                    if isinstance(mapping, np.memmap) and mapping.mode != "r":
                        mapping.flush()

            def read_plane(path, n):
                block = np.memmap(path, dtype=np.float64, mode="r", shape=(n,))
                total = float(block.sum())
                release_memmap(block)
                return total
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_finalize_paired_factory_mapping(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/views.py",
            """
            import weakref

            from repro.store.format import map_field, release_memmap

            def view(owner, path, spec, rows):
                window = map_field(path, spec, rows, "r")
                weakref.finalize(owner, release_memmap, window)
                return window
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_factory_itself(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/store/format.py",
            """
            import numpy as np

            def map_field(path, spec, rows, mode):
                return np.memmap(path, dtype=np.float64, mode=mode, shape=(rows,))
            """,
        )
        assert "RL008" not in rules_fired(result)

    def test_silent_on_memmap_free_module(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/flat/clean.py",
            """
            import numpy as np

            def load(path):
                return np.load(path)
            """,
        )
        assert "RL008" not in rules_fired(result)


# ----------------------------------------------------------------------
# RL009 serve handler discipline
# ----------------------------------------------------------------------
class TestServeHandlers:
    def test_fires_on_direct_kernel_call_in_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query_slack(session, model):
                return session.graph.worst_slack(model)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_on_direct_eco_call_in_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def eco(session, net, parasitics):
                async with session.lock:
                    return session.graph.update_net(net, parasitics)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_on_bare_name_call(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/batching.py",
            """
            from repro.graph import analyze_scenarios

            async def corners(scenarios):
                return analyze_scenarios(scenarios)
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_fires_in_nested_coroutine(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def outer(session):
                async def inner():
                    return session.graph.endpoint_slacks()
                return await inner()
            """,
        )
        assert "RL009" in rules_fired(result)

    def test_silent_on_executor_reference(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query_slack(loop, executor, session, model):
                async with session.lock:
                    return await loop.run_in_executor(
                        executor, session.graph.worst_slack, model
                    )
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_on_lambda_and_nested_def_thunks(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/handlers.py",
            """
            async def query(loop, executor, session, swaps):
                def thunk():
                    return session.graph.whatif_resize_worst_slack(swaps)

                deferred = lambda: session.graph.certify()
                return await loop.run_in_executor(executor, thunk)
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_on_sync_functions_in_serve_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/serve/session.py",
            """
            def whatif_scores(graph, swaps, model):
                return graph.whatif_resize_worst_slack(swaps, model)
            """,
        )
        assert "RL009" not in rules_fired(result)

    def test_silent_outside_serve_package(self, tmp_path):
        result = lint(
            tmp_path,
            "repro/apps/tuner.py",
            """
            async def sweep(graph, scenarios):
                return graph.analyze_scenarios(scenarios)
            """,
        )
        assert "RL009" not in rules_fired(result)
