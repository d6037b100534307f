"""``store-eco``: ECO splices on an out-of-core shard store 5x its hot cache.

Set-up streams ``stream_random_nets(200000, seed)`` through
``ingest_blocks`` into 20 shard files (about 2.6M nodes) and solves it
once.  One operation is one ECO round: 20 ``StoredForest.replace_tree``
splices of same-size random trees on random nets, then
``StoredForest.solve()``, which re-solves only the stale shards.  The
working set is five times the 4-shard hot LRU, so shards are re-read from
disk.  It is the only workload that runs through :mod:`repro.store`; the
cost of durable shard writes (temp file, fsync, checksum) lands here.

The oracle rebuilds sampled shards in RAM from the same seeded stream plus
the splices applied so far, solves them with ``solve_forest_batch`` on the
``numpy`` engine, and compares them with the store's persisted results
copied right after each round.

Each set-up repeat and the timed loop start after an ``os.sync()``, outside
the timed region: otherwise the kernel writes back earlier stores' pages
while they run, and a run's figures depend on how much of that is pending.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from perfbench.common import Outcome, current_rss_mb, median, mismatch, peak_rss_mb, scratch_dir
from perfbench.trace import Tracer

Tree = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: Consecutive trees whose results each sampled shard keeps for the oracle.
SAMPLED_TREES = 200


@dataclass(frozen=True)
class Sizes:
    nets: int = 200000
    splices: int = 20
    setup_repeats: int = 3
    shard_nodes: int = 1 << 17


def random_tree(rng: np.random.Generator, size: int) -> Tree:
    """A random-attachment tree of ``size`` nodes, valued like the stream's nets."""
    local = np.arange(size, dtype=np.int64)
    parent = np.where(local == 0, -1, (rng.random(size) * local).astype(np.int64))
    edge_r = rng.uniform(20.0, 400.0, size)
    edge_c = np.where(rng.random(size) < 0.4, rng.uniform(1e-15, 1.2e-14, size), 0.0)
    node_c = rng.uniform(1e-15, 1.2e-14, size)
    edge_r[0] = 0.0
    edge_c[0] = 0.0
    return parent, edge_r, edge_c, node_c


def stream(sizes: Sizes, seed: int):
    from repro.generators import stream_random_nets

    return stream_random_nets(sizes.nets, seed=seed)


def concatenated(sizes: Sizes, seed: int):
    """The whole seeded stream as global arrays: (offsets, parent, r, c, node_c)."""
    offsets, parents, planes = [], [], ([], [], [])
    base = 0
    for block in stream(sizes, seed):
        offsets.append(block.starts[:-1] + base)
        parents.append(np.where(block.parent < 0, -1, block.parent + base))
        for part, name in zip(planes, ("edge_r", "edge_c", "node_c")):
            part.append(getattr(block, name))
        base += block.node_count
    offsets.append(np.asarray([base]))
    return (np.concatenate(offsets), np.concatenate(parents),
            *(np.concatenate(p) for p in planes))


def shard_reference(mirror, bounds, splices: List[Tuple[int, Tree]]):
    """(tp, tde, tre) of one shard, solved in RAM on the numpy engine."""
    from repro.parallel import ForestStructure, solve_forest_batch
    from repro.store.format import depths_from_parent

    offsets, parent, edge_r, edge_c, node_c = mirror
    node_lo, node_hi, tree_lo, tree_hi = bounds
    window = slice(node_lo, node_hi)
    local_parent = np.where(parent[window] < 0, -1, parent[window] - node_lo)
    r, c, nc = edge_r[window].copy(), edge_c[window].copy(), node_c[window].copy()
    local_offsets = offsets[tree_lo:tree_hi + 1] - node_lo
    for tree, (t_parent, t_r, t_c, t_nc) in splices:
        if not tree_lo <= tree < tree_hi:
            continue
        lo = int(local_offsets[tree - tree_lo])
        span = slice(lo, lo + len(t_parent))
        local_parent[span] = np.where(t_parent < 0, -1, t_parent + lo)
        r[span], c[span], nc[span] = t_r, t_c, t_nc
    structure = ForestStructure(
        parent=local_parent, depth=depths_from_parent(local_parent), offsets=local_offsets
    )
    times = solve_forest_batch(structure, (r, c, nc), (None, None, None), 1, engine="numpy")
    return times.tp[0], times.tde[0], times.tre[0]


def check_shard(observed, expected) -> Optional[str]:
    for label, got, want in zip(("tp", "tde", "tre"), observed, expected):
        problem = mismatch(got, want)
        if problem:
            return f"{label}: {problem}"
    return None


def ingest(sizes: Sizes, seed: int, directory: str, tracer: Tracer):
    from repro.store import StoredForest, ingest_blocks

    t0 = time.perf_counter()
    with tracer.span("store.ingest"):
        ingest_blocks(stream(sizes, seed), directory, shard_nodes=sizes.shard_nodes)
    t1 = time.perf_counter()
    forest = StoredForest(directory)
    with tracer.span("store.solve"):
        forest.solve()
    return forest, t1 - t0, time.perf_counter() - t1


def shard_bytes(forest, shards) -> int:
    from repro.store.format import Manifest

    manifest = Manifest.load(forest.directory)
    return sum(
        os.path.getsize(os.path.join(forest.directory, manifest.shards[s].file_name))
        for s in shards
    )


def run(seed: int, seconds: float, tracer: Tracer, sizes: Sizes = Sizes()) -> Outcome:
    from repro.parallel import last_selection

    out = Outcome()
    out.named["baseline_rss_mb"] = (current_rss_mb(), "MB", 1)
    rng = np.random.default_rng(seed + 1)
    with scratch_dir("store-") as root:
        # Set-up: ingest plus the first solve, repeated into fresh stores.
        setups, ingests, solves = [], [], []
        forest = None
        for index in range(sizes.setup_repeats):
            if forest is not None:
                forest.close()
                shutil.rmtree(directory)
            directory = os.path.join(root, f"store{index}")
            os.sync()
            forest, ingest_s, solve_s = ingest(sizes, seed, directory, tracer)
            ingests.append(ingest_s)
            solves.append(solve_s)
            setups.append(ingest_s + solve_s)
        out.metrics["setup_s"] = (median(setups), "s", len(setups))
        offsets = np.asarray(forest.offsets)

        rounds, replaces, resolves, written = [], [], [], []
        samples = []  # (splices applied, shard, trees, nodes, (tp, tde, tre))
        history: List[Tuple[int, Tree]] = []
        traced_rounds, plain_rounds = [], []
        # Write back set-up's dirty pages now, so the rounds do not wait on them.
        os.sync()
        start = time.perf_counter()
        while (not rounds or time.perf_counter() - start < seconds
               or (tracer.enabled and not traced_rounds)):
            traced = tracer.enabled and bool(plain_rounds) and (
                time.perf_counter() - start >= seconds / 2.0)
            trees = rng.integers(0, forest.tree_count, size=sizes.splices)
            edits = [(int(t), random_tree(rng, int(offsets[t + 1] - offsets[t]))) for t in trees]
            active = tracer if traced else Tracer(False)
            t0 = time.perf_counter()
            try:
                with active.span("store.round"):
                    for tree, arrays in edits:
                        r0 = time.perf_counter()
                        with active.span("store.replace_tree"):
                            forest.replace_tree(tree, arrays)
                        replaces.append(time.perf_counter() - r0)
                    r0 = time.perf_counter()
                    with active.span("store.resolve"):
                        times = forest.solve()
                    resolves.append(time.perf_counter() - r0)
            except Exception as error:  # noqa: BLE001 - the store state is unknown now
                out.fail(f"round {len(rounds)} raised {error!r}")
                rounds.append(time.perf_counter() - t0)
                break
            elapsed = time.perf_counter() - t0
            rounds.append(elapsed)
            (traced_rounds if traced else plain_rounds).append(elapsed)
            out.count_engine((last_selection() or {}).get("engine"))
            history.extend(edits)
            touched = sorted({forest.shard_of_tree(t) for t, _ in edits})
            written.append(shard_bytes(forest, touched))
            for shard in (touched[0], int(rng.integers(0, forest.shard_count))):
                # The round's splices in the shard plus a run of consecutive
                # trees: small copies that touch few result pages, so the
                # oracle barely moves the measured peak RSS.
                _, _, tree_lo, tree_hi = forest.shard_bounds(shard)
                first = int(rng.integers(tree_lo, max(tree_lo + 1, tree_hi - SAMPLED_TREES)))
                picked = np.unique(np.concatenate([
                    [t for t, _ in edits if tree_lo <= t < tree_hi],
                    np.arange(first, min(first + SAMPLED_TREES, tree_hi)),
                ]).astype(np.int64))
                nodes = np.concatenate([np.arange(offsets[t], offsets[t + 1]) for t in picked])
                observed = (times.tp[picked], times.tde[nodes], times.tre[nodes])
                samples.append((len(history), shard, picked, nodes, observed))
            del times
        rss = peak_rss_mb()

        out.attempted = len(rounds)
        out.metrics["peak_rss_mb"] = (rss, "MB", len(rounds))
        out.op_seconds = list(rounds)
        out.metrics["op_p50_ms"] = (median(rounds) * 1e3, "ms", len(rounds))
        out.metrics["ops_per_s"] = (len(rounds) / sum(rounds), "1/s", len(rounds))
        out.named["eco_round_s"] = (median(rounds), "s", len(rounds))

        # Oracle, outside the timed region.
        mirror = concatenated(sizes, seed)
        failed_rounds = set()
        for index, (applied, shard, picked, nodes, observed) in enumerate(samples):
            bounds = forest.shard_bounds(shard)
            tp, tde, tre = shard_reference(mirror, bounds, history[:applied])
            node_lo, _, tree_lo, _ = bounds
            expected = (tp[picked - tree_lo], tde[nodes - node_lo], tre[nodes - node_lo])
            problem = check_shard(observed, expected)
            if problem:
                failed_rounds.add(index // 2)
                out.errors.append(f"round {index // 2} shard {shard}: {problem}")
        out.failed += len(failed_rounds)
        forest.close()

    if tracer.enabled:
        out.layers.update({
            "store.ingest_s": (median(ingests), "s", len(ingests)),
            "store.solve_s": (median(solves), "s", len(solves)),
            "store.replace_tree_ms": (median(replaces) * 1e3, "ms", len(replaces)),
            "store.resolve_s": (median(resolves), "s", len(resolves)),
            "store.bytes_written": (median(written), "bytes", len(written)),
            # Both are empty only when a round raised before tracing began.
            "trace.overhead_frac": (
                median(traced_rounds) / median(plain_rounds) - 1.0 if traced_rounds else 0.0,
                "frac", len(traced_rounds)),
            "trace.unaccounted_frac": (
                median(tracer.self_share("store.round")) if traced_rounds else 0.0,
                "frac", len(traced_rounds)),
        })
    return out
