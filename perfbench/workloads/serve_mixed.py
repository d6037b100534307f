"""``serve-mixed``: two closed-loop clients sharing one served 5k-instance session.

A :class:`repro.serve.TimingServer` listens on loopback in this process;
two :class:`repro.serve.ServeClient` connections each send their next
request as soon as the previous answer arrives.  The mix is 60% ``slack``
queries, 25% ``whatif`` queries of 4 swaps and 15% ``resize_instance``
ECOs.  Compute per request is a few milliseconds, so HTTP parsing, the JSON
schema, the session lock and the what-if batcher dominate, and ECO writes
run beside the reads.  Coalesced batches stay below ``AUTO_PROCESS_CELLS``,
so the what-if solves land on the ``numpy`` side of auto-selection.

One session means one lock serializing every solve: the cross-session
``process``-engine race (ROADMAP item 1) cannot occur here, and this
workload is not a regression test for it.

The oracle replays the ECO history serially, in version order, on a fresh
in-process graph, and checks every read against that graph at the version
the read observed.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench.common import Outcome, current_rss_mb, median, mismatch, peak_rss_mb, percentile
from perfbench.trace import Tracer

PERIOD = 2e-9
SESSION = "bench"
DEADLINE_SLACK = 60.0
CLIENTS = 2
SWAPS = 4


@dataclass(frozen=True)
class Sizes:
    instances: int = 5000
    setup_repeats: int = 3


@dataclass
class Request:
    kind: str
    args: tuple
    latency: float = 0.0
    version: int = -1
    response: dict = field(default_factory=dict)
    engine: Optional[str] = None
    traced: bool = False
    direct: Optional[float] = None
    error: Optional[str] = None


def session_payload(design, parasitics) -> dict:
    from repro.serve.schema import parasitics_to_payload
    from repro.sta.netlist import design_to_dict

    return {
        "name": SESSION,
        "netlist": design_to_dict(design),
        "parasitics": [parasitics_to_payload(p) for p in parasitics.values()],
        "clock_period": PERIOD,
    }


def sizing_pool(design) -> Dict[str, List[str]]:
    """Combinational instance -> the library sizes of its cell family."""
    families = {"X1", "X2", "X4"}
    pool = {}
    for name, inst in sorted(design.instances.items()):
        cell = inst.cell
        if cell.is_sequential:
            continue
        stem, _, size = cell.name.rpartition("_")
        if size in families:
            pool[name] = [f"{stem}_{s}" for s in ("X1", "X2", "X4")]
    return pool


def next_request(rng: random.Random, pool: Dict[str, List[str]], names: List[str]) -> Request:
    draw = rng.random()
    if draw < 0.60:
        return Request("slack", ())
    if draw < 0.85:
        chosen = rng.sample(names, SWAPS)
        return Request("whatif", tuple((n, rng.choice(pool[n])) for n in chosen))
    name = rng.choice(names)
    return Request("resize", (name, rng.choice(pool[name])))


def slack_record(response: dict, interned: Dict[tuple, tuple]) -> dict:
    """A slack answer kept compactly until the replay checks it.

    Endpoint names are shared between answers and values held as an array,
    so the benchmark's own memory does not grow with the request count and
    inflate ``peak_rss_mb``.
    """
    slacks = response["endpoint_slacks"]
    names = tuple(slacks)
    return {
        "worst_slack": response["worst_slack"],
        "endpoints": interned.setdefault(names, names),
        "endpoint_slacks": np.fromiter(slacks.values(), dtype=np.float64, count=len(names)),
    }


def whatif_engine(record: Optional[dict]) -> Optional[str]:
    """The engine of the what-if solve behind a response, best effort.

    The selection record is one process-wide slot, read after the response
    arrives: the other client's requests may have overwritten it.  Solves
    of fewer scenarios than one request's swaps (the session's build, ECO
    re-solves) are not what-if batches and are not counted; the record of
    another what-if batch is, and every request of a coalesced batch counts
    that batch once.
    """
    if record is None or int(record.get("scenarios", 0)) < SWAPS:
        return None
    return record.get("engine")


async def send(client, request: Request, interned: Dict[tuple, tuple]) -> None:
    from repro.parallel import last_selection

    t0 = time.perf_counter()
    if request.kind == "slack":
        response = await client.slack(SESSION)
        request.response = slack_record(response, interned)
    elif request.kind == "whatif":
        response = await client.whatif(SESSION, [list(s) for s in request.args])
        request.response = {"scores": response["scores"]}
        request.engine = whatif_engine(last_selection())
    else:
        response = await client.resize_instance(SESSION, *request.args)
        request.response = {"cone_vertices": response["cone_vertices"]}
    request.latency = time.perf_counter() - t0
    request.version = int(response["version"])


async def drive(payload, pool, seed, seconds, tracer: Tracer, sizes: Sizes, out: Outcome):
    from repro.serve import ServeClient, TimingServer
    from repro.serve.schema import ServeError

    # Set-up: server start plus the create_session round trip, repeated;
    # the last server stays up for the timed loop.  This frame holds the
    # only reference to the payload, dropped once the session exists.
    setups = []
    server = admin = None
    for index in range(sizes.setup_repeats):
        start = time.perf_counter()
        server = TimingServer(port=0)
        await server.start()
        admin = ServeClient("127.0.0.1", server.port)
        await admin.connect()
        await admin.create_session(payload)
        setups.append(time.perf_counter() - start)
        if index + 1 < sizes.setup_repeats:
            await admin.close()
            await server.stop()
    out.metrics["setup_s"] = (median(setups), "s", len(setups))
    del payload

    clients = [await ServeClient("127.0.0.1", server.port).connect() for _ in range(CLIENTS)]
    requests: List[Request] = []
    interned: Dict[tuple, tuple] = {}
    names = sorted(pool)
    traced_from = seconds / 2.0 if tracer.enabled else seconds
    untraced = Tracer(False)
    try:
        start = time.perf_counter()

        async def loop(worker: int, client) -> None:
            rng = random.Random(seed * 1000 + worker)
            while True:
                now = time.perf_counter() - start
                if now >= seconds:
                    return
                request = next_request(rng, pool, names)
                request.traced = now >= traced_from
                t0 = time.perf_counter()
                active = tracer if request.traced else untraced
                try:
                    with active.span("serve.request", route=request.kind):
                        await send(client, request, interned)
                except (ServeError, ConnectionError, asyncio.IncompleteReadError) as error:
                    request.error = repr(error)
                    request.latency = time.perf_counter() - t0
                requests.append(request)

        await asyncio.wait_for(
            asyncio.gather(*(loop(i, c) for i, c in enumerate(clients))),
            seconds + DEADLINE_SLACK,
        )
        elapsed = time.perf_counter() - start
        info = await admin.session_info(SESSION)
    finally:
        for client in clients:
            await client.close()
        await admin.close()
        await server.stop()
    return requests, elapsed, info


def reference_graph(design, parasitics, tracer: Tracer):
    """A fresh graph built from the design as the server received it."""
    from repro.graph import DesignDB, TimingGraph
    from repro.sta.netlist import design_from_dict, design_to_dict

    design = design_from_dict(design_to_dict(design))
    with tracer.span("designdb.build"):
        db = DesignDB(design, parasitics)
    with tracer.span("timinggraph.build"):
        graph = TimingGraph(db, clock_period=PERIOD, threshold=0.5)
    return graph


def check_read(request: Request, expected: dict) -> Optional[str]:
    if request.kind == "slack":
        problem = mismatch(request.response["worst_slack"], expected["worst_slack"], scale=PERIOD)
        if problem:
            return f"slack@v{request.version} worst: {problem}"
        names, want = request.response["endpoints"], expected["endpoint_slacks"]
        if len(names) != len(want) or any(name not in want for name in names):
            return f"slack@v{request.version}: endpoint sets differ"
        problem = mismatch(request.response["endpoint_slacks"], [want[k] for k in names],
                           scale=PERIOD)
        return f"slack@v{request.version} endpoints: {problem}" if problem else None
    if request.kind == "whatif":
        problem = mismatch(request.response["scores"], expected["scores"], scale=PERIOD)
        return f"whatif@v{request.version}: {problem}" if problem else None
    if request.response["cone_vertices"] != expected["cone_vertices"]:
        return (f"resize@v{request.version}: cone {request.response['cone_vertices']} "
                f"!= {expected['cone_vertices']}")
    return None


def replay(requests: List[Request], graph, tracer: Tracer, out: Outcome) -> None:
    """Apply the ECOs serially by version; check each read at its version.

    Also times the direct :class:`TimingGraph` call behind every request, the
    baseline ``serve.overhead_ms`` subtracts.
    """
    from repro.sta.cells import standard_cell_library
    from repro.sta.delaycalc import DelayModel

    library = standard_cell_library()
    model = DelayModel.UPPER_BOUND
    ecos = sorted((r for r in requests if r.kind == "resize"), key=lambda r: r.version)
    versions = [r.version for r in ecos]
    if versions != list(range(1, len(ecos) + 1)):
        out.fail(f"ECO versions are not dense 1..{len(ecos)}: {versions[:10]}")
        return
    reads: Dict[int, List[Request]] = {}
    for request in requests:
        if request.kind != "resize":
            reads.setdefault(request.version, []).append(request)
    for version in range(len(ecos) + 1):
        for request in reads.pop(version, []):
            t0 = time.perf_counter()
            if request.kind == "slack":
                with tracer.span("timinggraph.slack"):
                    expected = {
                        "worst_slack": graph.worst_slack(model),
                        "endpoint_slacks": graph.endpoint_slacks(model),
                    }
            else:
                swaps = [(n, library[c]) for n, c in request.args]
                with tracer.span("timinggraph.whatif"):
                    scores = graph.whatif_resize_worst_slack(swaps, model, engine="numpy")
                expected = {"scores": [float(s) for s in scores]}
            request.direct = time.perf_counter() - t0
            problem = check_read(request, expected)
            if problem:
                out.fail(problem)
        if version < len(ecos):
            eco = ecos[version]
            instance, cell = eco.args
            t0 = time.perf_counter()
            with tracer.span("timinggraph.resize"):
                cone = graph.resize_instance(instance, library[cell])
            eco.direct = time.perf_counter() - t0
            problem = check_read(eco, {"cone_vertices": cone})
            if problem:
                out.fail(problem)
    for version, stranded in reads.items():
        for request in stranded:
            out.fail(f"{request.kind} observed version {version}, beyond the last ECO")


def run(seed: int, seconds: float, tracer: Tracer, sizes: Sizes = Sizes()) -> Outcome:
    from repro.generators import random_design

    out = Outcome()
    design, parasitics = random_design(sizes.instances, seed=seed)
    pool = sizing_pool(design)
    # Only the session payload outlives this point until the session exists;
    # the oracle regenerates the design from the seed afterwards.
    main = drive(session_payload(design, parasitics), pool, seed, seconds, tracer, sizes, out)
    del design, parasitics
    out.named["baseline_rss_mb"] = (current_rss_mb(), "MB", 1)

    requests, elapsed, info = asyncio.run(main)
    rss = peak_rss_mb()
    latencies = [r.latency for r in requests]
    out.attempted = len(requests)
    for request in requests:
        out.count_engine(request.engine)
        if request.error:
            out.fail(f"{request.kind} raised {request.error}")
    out.metrics["peak_rss_mb"] = (rss, "MB", len(requests))
    out.op_seconds = list(latencies)
    out.metrics["op_p50_ms"] = (median(latencies) * 1e3, "ms", len(latencies))
    out.metrics["ops_per_s"] = (len(requests) / elapsed, "1/s", len(requests))
    out.named["serve_rps"] = out.metrics["ops_per_s"]
    out.named["serve_p50_ms"] = out.metrics["op_p50_ms"]
    out.named["serve_p99_ms"] = (percentile(latencies, 99) * 1e3, "ms", len(latencies))

    # Oracle, outside the timed region; a failed request has no answer to check.
    answered = [r for r in requests if r.error is None]
    design, parasitics = random_design(sizes.instances, seed=seed)
    replay(answered, reference_graph(design, parasitics, tracer), tracer, out)

    if tracer.enabled:
        def median_or_zero(values):
            # A replay cut short by an oracle failure leaves no direct timings.
            return median(values) if values else 0.0

        def route_ms(kind):
            values = [r.latency for r in requests if r.kind == kind]
            return (median_or_zero(values) * 1e3, "ms", len(values))

        plain = [r.latency for r in requests if not r.traced]
        traced = [r.latency for r in requests if r.traced]
        timed = [r for r in requests if r.direct is not None]
        resizes = [r for r in timed if r.kind == "resize"]
        out.layers.update({
            "serve.slack_ms": route_ms("slack"),
            "serve.whatif_ms": route_ms("whatif"),
            "serve.resize_ms": route_ms("resize"),
            "serve.p99_ms": out.named["serve_p99_ms"],
            "serve.overhead_ms": (
                median_or_zero([r.latency - r.direct for r in timed]) * 1e3, "ms", len(timed)),
            "serve.batch_width": (
                float(info["batching"]["mean_batch_requests"]), "count", len(requests)),
            "timinggraph.resize_ms": (
                median_or_zero([r.direct for r in resizes]) * 1e3, "ms", len(resizes)),
            "timinggraph.cone_vertices": (
                median_or_zero([r.response["cone_vertices"] for r in resizes]),
                "count", len(resizes)),
            "designdb.build_s": (median(tracer.durations("designdb.build")), "s", 1),
            "timinggraph.build_s": (median(tracer.durations("timinggraph.build")), "s", 1),
            "trace.overhead_frac": (median(traced) / median(plain) - 1.0, "frac", len(traced)),
            # Spans cannot enter the server: the share of a request not spent
            # in the TimingGraph call behind it is what the spans leave
            # unaccounted (HTTP, JSON, lock, batcher, executor hops).
            "trace.unaccounted_frac": (
                median_or_zero([1.0 - r.direct / r.latency for r in timed]), "frac", len(timed)),
        })
    return out
