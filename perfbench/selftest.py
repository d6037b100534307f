"""Self-tests of the benchmark: ``python3 -m pytest perfbench/selftest.py -q``.

They check that the inputs are seed-stable byte for byte, that every
oracle flags a 1e-9 relative perturbation, that every metric is validly
named and declared in ``BENCHMARK.json``, that a tiny run of each
workload completes with correct results, and that the exit path reaps the
processes a child leaves orphaned.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import run  # noqa: E402
from perfbench.common import ROOT, Outcome, mismatch, use_source_tree  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

use_source_tree()

from perfbench.workloads import corners, serve_mixed, signoff, store_eco  # noqa: E402

PERTURB = 1.0 + 1e-9

TINY = {
    "signoff": signoff.Sizes(instances=200, scenarios=4, setup_repeats=1, sampled_trees=8),
    "corners": corners.Sizes(instances=300, scenarios=4, candidates=8, setup_repeats=1),
    "serve-mixed": serve_mixed.Sizes(instances=200, setup_repeats=1),
    "store-eco": store_eco.Sizes(nets=3000, splices=5, setup_repeats=1, shard_nodes=4096),
}


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def stream_digest(seed: int) -> str:
    h = hashlib.sha256()
    for block in store_eco.stream(TINY["store-eco"], seed):
        for name in ("starts", "parent", "edge_r", "edge_c", "node_c"):
            h.update(np.ascontiguousarray(getattr(block, name)).tobytes())
    return h.hexdigest()


# -- inputs -------------------------------------------------------------------

def test_same_seed_gives_identical_inputs(tmp_path):
    sizes = TINY["signoff"]
    hashes = []
    for run_dir in ("a", "b", "c"):
        directory = tmp_path / run_dir
        directory.mkdir()
        seed = 11 if run_dir != "c" else 12
        paths = signoff.write_inputs(seed, sizes, str(directory))
        hashes.append(tuple(digest(paths[k]) for k in ("netlist", "spef", "corners")))
    assert hashes[0] == hashes[1]
    assert hashes[0] != hashes[2]
    assert stream_digest(11) == stream_digest(11)
    assert stream_digest(11) != stream_digest(12)


# -- oracles ------------------------------------------------------------------

def test_mismatch_tolerance():
    assert mismatch([1.0, 2.0], [1.0, 2.0 * (1 + 1e-13)]) is None
    assert mismatch([1.0, 2.0], [1.0, 2.0 * PERTURB]) is not None
    assert mismatch([float("inf")], [float("inf")]) is None
    assert mismatch([1.0], [1.0, 2.0]) is not None


@pytest.fixture(scope="module")
def signoff_reference(tmp_path_factory):
    directory = tmp_path_factory.mktemp("signoff")
    paths = signoff.write_inputs(3, TINY["signoff"], str(directory))
    report, graph, scenarios = signoff.flow_in_process(paths, Tracer(False), engine="numpy")
    return report, graph, scenarios


def test_signoff_oracle_flags_perturbation(signoff_reference):
    reference, graph, _ = signoff_reference
    assert signoff.check_report(copy.deepcopy(reference), reference) is None
    for perturb in (
        lambda r: r["worst_slack"].__setitem__("upper_bound", r["worst_slack"]["upper_bound"] * PERTURB),
        lambda r: r["scenarios"][-1]["worst_slack"].__setitem__(
            "lower_bound", r["scenarios"][-1]["worst_slack"]["lower_bound"] * PERTURB),
    ):
        report = copy.deepcopy(reference)
        perturb(report)
        assert signoff.check_report(report, reference) is not None
    # The dict-engine check of the reference's stage trees.
    assert signoff.check_dict_engine(graph.db, 0, 8) is None
    net = graph.db.timed_nets()[0]
    got, want = signoff.dict_engine_rows(graph.db, net)
    assert got and mismatch(got, want) is None
    assert mismatch(np.array(got) * PERTURB, want) is not None


def test_corners_oracle_flags_perturbation():
    slack = np.array([[1e-10, -2e-10, 3e-10]] * 4)
    reference = (slack, ["PASS"] * 4, np.array([1e-10, 2e-10]))
    assert corners.check_cycle(copy.deepcopy(reference), reference) is None
    assert corners.check_cycle((slack * PERTURB, reference[1], reference[2]), reference) is not None
    assert corners.check_cycle((slack, reference[1], reference[2] * PERTURB), reference) is not None


def test_serve_oracle_flags_perturbation():
    expected = {"worst_slack": 3e-10, "endpoint_slacks": {"a": 3e-10, "b": 5e-10}}
    record = serve_mixed.slack_record(expected, {})
    read = serve_mixed.Request("slack", (), version=2, response=record)
    assert serve_mixed.check_read(read, expected) is None
    record["endpoint_slacks"][1] *= PERTURB
    assert serve_mixed.check_read(read, expected) is not None
    missing = serve_mixed.slack_record({"worst_slack": 3e-10, "endpoint_slacks": {"a": 3e-10}}, {})
    assert serve_mixed.check_read(serve_mixed.Request("slack", (), response=missing), expected)
    whatif = serve_mixed.Request("whatif", (), version=1, response={"scores": [1e-10 * PERTURB]})
    assert serve_mixed.check_read(whatif, {"scores": [1e-10]}) is not None


def test_serve_replay_flags_a_wrong_read():
    from repro.generators import random_design

    design, parasitics = random_design(60, seed=4)
    graph = serve_mixed.reference_graph(design, parasitics, Tracer(False))
    from repro.sta.delaycalc import DelayModel

    truth = graph.worst_slack(DelayModel.UPPER_BOUND)
    slacks = graph.endpoint_slacks(DelayModel.UPPER_BOUND)
    good = serve_mixed.Request("slack", (), version=0, response=serve_mixed.slack_record(
        {"worst_slack": truth, "endpoint_slacks": slacks}, {}))
    bad = serve_mixed.Request("slack", (), version=0, response=serve_mixed.slack_record(
        {"worst_slack": truth * PERTURB, "endpoint_slacks": slacks}, {}))
    out = Outcome()
    serve_mixed.replay([good, bad], serve_mixed.reference_graph(design, parasitics, Tracer(False)),
                       Tracer(False), out)
    assert out.failed == 1


def test_serve_counts_only_whatif_batches():
    assert serve_mixed.whatif_engine(None) is None
    assert serve_mixed.whatif_engine({"engine": "numpy", "scenarios": 1}) is None
    batch = {"engine": "numpy", "scenarios": 2 * serve_mixed.SWAPS}
    assert serve_mixed.whatif_engine(batch) == "numpy"


def test_store_oracle_flags_perturbation():
    sizes = TINY["store-eco"]
    mirror = store_eco.concatenated(sizes, 5)
    offsets = mirror[0]
    trees = 40
    bounds = (0, int(offsets[trees]), 0, trees)
    rng = np.random.default_rng(0)
    splice = (3, store_eco.random_tree(rng, int(offsets[4] - offsets[3])))
    expected = store_eco.shard_reference(mirror, bounds, [splice])
    assert store_eco.check_shard(expected, expected) is None
    unspliced = store_eco.shard_reference(mirror, bounds, [])
    assert store_eco.check_shard(unspliced, expected) is not None
    tp, tde, tre = (np.array(a) for a in expected)
    tde[-1] *= PERTURB
    assert store_eco.check_shard((tp, tde, tre), expected) is not None


# -- metric names ---------------------------------------------------------------

def test_metric_names_valid_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    others = [m["bound"] for m in spec["end_to_end"] if m["name"] != "setup_s"]
    assert max(others) < setup[0]["bound"] <= 0.25
    out = Outcome()
    out.metrics["not_declared"] = (1.0, "s", 1)
    with pytest.raises(RuntimeError):
        run.result_line(out, trace=False)


# -- smoke runs -----------------------------------------------------------------

@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_completes(workload, trace):
    tracer = Tracer(trace)
    out = run.run_workload(workload, 2, 0.5, tracer, TINY[workload])
    line = run.result_line(out, trace)
    assert line["correct"], out.errors
    assert line["attempted"] >= 1 and line["failed"] == 0
    end_to_end, per_layer = run.declared_metrics()
    assert set(line["metrics"]) == set(per_layer if trace else end_to_end)
    if trace:
        assert tracer.spans
        assert any(v["value"] != 0 for k, v in line["metrics"].items() if k.startswith("parallel.")) \
            or workload == "store-eco"
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "signoff", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


ORPHANING_CHILD = """
import multiprocessing, os
from multiprocessing import shared_memory
block = shared_memory.SharedMemory(create=True, size=64)
pool = multiprocessing.Pool(2)
pool.map(abs, [1, 2])
block.close()
block.unlink()
os._exit(0)
"""

REAPER = """
import subprocess, sys
from perfbench.common import _child_pids, adopt_orphans, stop_children
adopt_orphans()
subprocess.run([sys.executable, "-c", sys.argv[1]], check=True)
# Ours: the orphaned pool workers, and the resource tracker the shared
# memory started, both re-parented here when the child exited.
assert _child_pids(), "nothing was adopted"
stop_children(grace=2.0)
assert not _child_pids(), _child_pids()
"""


def test_stop_children_reaps_what_a_child_orphans():
    proc = subprocess.run(
        [sys.executable, "-c", REAPER, ORPHANING_CHILD],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
