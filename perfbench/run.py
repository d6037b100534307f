"""Run one benchmark workload and print its metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload signoff --seed 7 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it show every metric with its unit and
sample count, the environment and the engine-selection counts; the same
record (plus the span tree of a traced run) is written under
``perfbench/.work/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import re
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    ROOT, WORK, Outcome, adopt_orphans, environment, program_present, stop_children,
    use_source_tree,
)
from perfbench.trace import Tracer  # noqa: E402

WORKLOADS = ("signoff", "corners", "serve-mixed", "store-eco")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def declared_metrics():
    """(end-to-end, per-layer) metric name -> unit, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer, sizes=None) -> Outcome:
    """Dispatch to one workload module (``sizes`` shrinks it for self-tests)."""
    use_source_tree()
    if name == "signoff":
        from perfbench.workloads import signoff as module
    elif name == "corners":
        from perfbench.workloads import corners as module
    elif name == "serve-mixed":
        from perfbench.workloads import serve_mixed as module
    elif name == "store-eco":
        from perfbench.workloads import store_eco as module
    else:
        raise ValueError(f"unknown workload {name!r}")
    if sizes is None:
        return module.run(seed, seconds, tracer)
    return module.run(seed, seconds, tracer, sizes)


def result_line(out: Outcome, trace: bool) -> dict:
    """The final JSON object, holding exactly the declared metric set.

    A traced run reports every per-layer metric; a layer the workload never
    calls did no work in it and reads 0.
    """
    end_to_end, per_layer = declared_metrics()
    if trace:
        declared, measured = per_layer, dict(out.layers)
        for engine, count in out.engines.items():
            measured[f"parallel.engine.{engine}"] = (count, "count", count)
    else:
        declared, measured = end_to_end, out.metrics
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in declared.items():
        value = measured.get(name, (0, unit, 0))[0]
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": out.failed == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }


def print_table(workload: str, out: Outcome, env: dict, trace: bool) -> None:
    print(f"workload {workload}  (trace={int(trace)})")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"engine selections: {json.dumps(out.engines, sort_keys=True)}")
    rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"error_rate: {rate:.4g}  ({out.failed} failed of {out.attempted} attempted)")
    rows = list(out.metrics.items()) + list(out.named.items())
    if trace:
        rows += list(out.layers.items())
    print(f"{'metric':34s} {'value':>14s} {'unit':8s} {'samples':>7s}")
    for name, (value, unit, count) in rows:
        print(f"{name:34s} {value:14.6g} {unit:8s} {count:7d}")
    for error in out.errors:
        print(f"oracle: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program sources under {ROOT}/src; nothing to measure",
              file=sys.stderr)
        return 2
    # Registered before the program is imported, so it runs after the
    # program's own exit handlers (pool shutdown, shared-memory unlinks).
    adopt_orphans()
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    tracer = Tracer(trace)
    started = time.time()
    out = run_workload(args.workload, args.seed, args.seconds, tracer)
    env = environment(args.seed)
    line = result_line(out, trace)
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{int(trace)}")
    record = {
        "workload": args.workload, "seconds": args.seconds, "started": started,
        "environment": env, "engines": out.engines, "errors": out.errors,
        "metrics": {k: list(v) for k, v in out.metrics.items()},
        "named": {k: list(v) for k, v in out.named.items()},
        "layers": {k: list(v) for k, v in out.layers.items()},
        "op_seconds": out.op_seconds,
        "result": line,
    }
    with open(stem + ".result.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if trace:
        tracer.write(stem + ".spans.json", {"workload": args.workload, "environment": env})
    print_table(args.workload, out, env, trace)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
