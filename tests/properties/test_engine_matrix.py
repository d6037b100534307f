"""The cross-engine parity matrix: every backend, every shape, every chunking.

One parametrized sweep asserting that ``numpy`` x ``process`` x ``contract``
(x worker counts x the scenario-chunk edge cases S=1, chunk=1, chunk>S)
agree at 1e-12 relative tolerance on every topology class of
``tests.properties.topologies`` -- and keep agreeing after forest-level
``replace_tree`` splices.  (The design-level ECO axis -- ``update_net`` /
``resize_instance`` between parity checks -- is covered by
``test_parallel_parity.test_every_engine_agrees_on_pathological_topologies``.)

The ``numpy`` level sweeps are the reference; disagreement anywhere in the
matrix means a backend changed *semantics*, which the engine contract
forbids regardless of how it schedules the arithmetic.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flat import FlatForest

from tests.properties.topologies import (
    TOPOLOGY_KINDS,
    topology_flat_tree,
    topology_forests,
)

FIELDS = ("tp", "tde", "tre", "ree", "total_capacitance")

#: The engine x jobs arms compared against the ``numpy`` reference.
ENGINE_ARMS = (
    ("contract", None),
    ("process", 2),
    ("process", 3),
)


def _planes(forest, count, rng):
    """Random (S, N) effective element planes around the forest's base values."""
    n = forest.node_count
    npr = np.random.default_rng(rng.randrange(2**32))

    def plane(base):
        return base[np.newaxis, :] * npr.uniform(0.5, 2.0, size=(count, n))

    return plane(forest._edge_r), plane(forest._edge_c), plane(forest._node_c)


def _chunk_cases(count):
    """The scenario-chunk edge cases: default, chunk=1, chunk>S, and S itself."""
    return (None, 1, count + 3, count)


def _assert_matrix(forest, count, rng):
    er, ec, nc = _planes(forest, count, rng)
    want = forest.solve_batch(er, ec, nc, engine="numpy")
    for engine, jobs in ENGINE_ARMS:
        for chunk in _chunk_cases(count):
            got = forest.solve_batch(
                er, ec, nc, engine=engine, jobs=jobs, scenario_chunk=chunk
            )
            for name in FIELDS:
                a = getattr(want, name)
                b = getattr(got, name)
                assert a.shape == b.shape, (engine, chunk, name)
                scale = np.maximum(np.abs(a), 1e-30)
                assert np.all(np.abs(b - a) <= 1e-12 * scale), (
                    engine,
                    jobs,
                    chunk,
                    name,
                    float(np.max(np.abs(b - a) / scale)),
                )


@settings(max_examples=8, deadline=None)
@given(
    forest=topology_forests(min_trees=2, max_trees=4, max_nodes=60),
    count=st.sampled_from((1, 3, 7)),
    seed=st.integers(0, 2**20),
)
def test_engine_matrix_agrees_on_every_topology(forest, count, seed):
    """All engine/jobs/chunk arms equal the level sweeps on mixed-shape forests.

    ``count=1`` pins the S=1 edge, and ``_chunk_cases`` sweeps chunk=1 /
    chunk>S / chunk=S for every arm, so the bounded-memory chunking loop is
    exercised on both its degenerate and its no-op configurations.
    """
    _assert_matrix(forest, count, random.Random(seed))


@settings(max_examples=6, deadline=None)
@given(
    forest=topology_forests(min_trees=2, max_trees=3, max_nodes=40),
    seed=st.integers(0, 2**20),
)
def test_engine_matrix_survives_replace_tree(forest, seed):
    """Parity holds after splicing a member tree to a different shape class.

    ``replace_tree`` changes node counts, depths and level buckets in place;
    every backend reads the forest's *current* arrays at solve time, so the
    matrix must agree both before and after the splice.
    """
    rng = random.Random(seed)
    _assert_matrix(forest, 3, rng)
    index = rng.randrange(len(forest))
    replacement = topology_flat_tree(
        rng.choice(TOPOLOGY_KINDS), rng.randint(2, 80), seed=rng.randrange(2**20)
    )
    forest.replace_tree(index, replacement)
    _assert_matrix(forest, 3, rng)


# ----------------------------------------------------------------------
# Server arms: the same parity matrix through repro.serve
# ----------------------------------------------------------------------
#
# The service tier must be engine-transparent: a session pinned to any
# registered backend answers byte-for-byte like a direct in-process graph
# using that backend, whether the session is in-RAM or store-backed.
# These arms are deterministic (no hypothesis): the interesting axis is
# the engine x storage product, not the topology distribution, and each
# arm spins up a real server.

SERVER_ENGINE_ARMS = ("numpy", "contract")


def _serve_workload():
    from repro.generators.random_designs import random_design

    return random_design(90, seed=11)


def _serve_session_payload(design, parasitics, name, **overrides):
    from repro.serve.schema import parasitics_to_payload
    from repro.sta.netlist import design_to_dict

    payload = {
        "name": name,
        "netlist": design_to_dict(design),
        "parasitics": [parasitics_to_payload(p) for p in parasitics.values()],
    }
    payload.update(overrides)
    return payload


def _run_server_arm(engine, store_dir, hang_guard):
    import asyncio

    from repro.serve import ServeClient, TimingServer

    design, parasitics = _serve_workload()
    spec = [{"name": "typ"}, {"name": "slow", "r_derate": 1.2, "c_derate": 1.1}]
    overrides = {"engine": engine}
    if store_dir is not None:
        overrides["store_dir"] = store_dir

    async def main():
        server = TimingServer(port=0, tick=0.001)
        await server.start()
        client = ServeClient("127.0.0.1", server.port)
        try:
            await client.connect()
            await client.create_session(
                _serve_session_payload(design, parasitics, "m", **overrides)
            )
            slack = await client.slack("m")
            corners = await client.corners("m", spec, paths=True)
            whatif = None
            if store_dir is None:
                from repro.sta.cells import standard_cell_library

                library = standard_cell_library()
                instance = next(
                    name
                    for name, inst in sorted(design.instances.items())
                    if inst.cell.name == "INV_X1"
                )
                whatif = (
                    instance,
                    await client.whatif("m", [[instance, "INV_X2"]]),
                )
            return slack, corners, whatif
        finally:
            await client.close()
            await server.stop()

    return asyncio.run(asyncio.wait_for(main(), 120.0)), design, parasitics, spec


def _assert_server_arm(engine, store_dir, hang_guard):
    import json

    from repro.graph import DesignDB, TimingGraph
    from repro.scenarios import ScenarioSet
    from repro.sta.cells import standard_cell_library
    from repro.sta.delaycalc import DelayModel

    (slack, corners, whatif), design, parasitics, spec = _run_server_arm(
        engine, store_dir, hang_guard
    )
    direct = TimingGraph(DesignDB(design, parasitics))
    want = direct.worst_slack(DelayModel.UPPER_BOUND)
    assert abs(slack["worst_slack"] - want) <= 1e-12 * abs(want), engine

    expected_report = json.loads(
        json.dumps(
            direct.analyze_scenarios(
                ScenarioSet.from_dict(spec),
                path_model=DelayModel.UPPER_BOUND,
                engine=engine,
            ).to_dict()
        )
    )
    assert corners["report"] == expected_report, engine

    if whatif is not None:
        instance, response = whatif
        library = standard_cell_library()
        expected = direct.whatif_resize_worst_slack(
            [(instance, library["INV_X2"])], engine=engine
        )
        got = response["scores"][0]
        assert abs(got - expected[0]) <= 1e-12 * abs(expected[0]), engine


def test_server_arms_match_direct_calls_in_ram(hang_guard):
    """Sessions pinned to each engine answer like direct graphs (in-RAM)."""
    for engine in SERVER_ENGINE_ARMS:
        _assert_server_arm(engine, None, hang_guard)


def test_server_arms_match_direct_calls_store_backed(hang_guard, tmp_path):
    """Store-backed sessions agree with in-RAM direct graphs per engine."""
    for engine in SERVER_ENGINE_ARMS:
        _assert_server_arm(engine, str(tmp_path / engine), hang_guard)
