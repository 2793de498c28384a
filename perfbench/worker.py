"""One repeat of one workload, in a fresh interpreter.

Usage: ``python perfbench/worker.py SPEC_JSON`` where the spec holds
``workload``, ``seed``, ``trace``, ``root`` (the checkout), ``workdir``
(scratch space inside it), ``spawned`` (``time.monotonic()`` just before
this process was started; the clock is shared by all processes) and,
optionally, ``setup_only`` (stop after the set-up and report its time).

The worker imports grade3, builds its inputs from the seed, then runs the
timed part while probing the machine's speed (``calibrate.py``).  Afterwards it checks
every output and prints one JSON line: set-up and timed seconds (scaled to
reference speed, and as measured), per-item latencies, peak RSS, the
per-item output digests, the number of failed items and, when traced, the
per-layer counters.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

import calibrate
import workloads as W

PINNED_PATH = os.path.join(W.HERE, "pinned.json")


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_repeat(spec: dict, pinned: dict) -> dict:
    name = spec["workload"]
    workload = W.WORKLOADS[name]
    ctx = W.Context(spec["seed"], spec["workdir"], spec["root"], bool(spec["trace"]), pinned)
    # Every set-up imports grade3, the queries' too (each query process then imports it again).
    start = time.perf_counter()
    import grade3.cli  # noqa: F401

    import_s = time.perf_counter() - start
    inputs = workload.inputs(ctx)
    sampler = calibrate.Sampler()
    tracer = None
    if ctx.trace and name != "queries":  # query processes trace themselves
        from tracer import Tracer

        tracer = Tracer(sampler.clock)  # spans leave out the speed probes
        tracer.install()

    ready = time.monotonic()
    raw_setup = ready - spec["spawned"] if "spawned" in spec else 0.0
    setup = raw_setup / calibrate.measure()  # set-up is scaled by a probe of its own
    if spec.get("setup_only"):
        return {"setup_s": setup, "raw_setup_s": raw_setup}
    if name == "queries":  # probes the speed between queries itself
        result = workload.run(inputs, ctx)
        raw_wall = sum(result["raw_latencies_ms"]) / 1000.0
        wall = sum(result["latencies_ms"]) / 1000.0
    else:
        with sampler:
            start = sampler.clock()
            result = workload.run(inputs, dataclasses.replace(ctx, clock=sampler.clock))
            raw_wall = sampler.clock() - start
        wall = raw_wall * sampler.scale()
        if "raw_latencies_ms" in result:
            result["latencies_ms"] = [x * sampler.scale() for x in result["raw_latencies_ms"]]
    stats = [tracer.snapshot()] if tracer else result.get("stats", [])

    lines, failed = workload.outputs(inputs, result)
    digests = [W.digest(line) for line in lines]
    expected = W.expected_items(name, ctx, inputs)
    if expected is not None:
        failed += sum(a != b for a, b in zip(digests, expected)) + abs(len(digests) - len(expected))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "queries":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = result.get("report")
    return {
        "setup_s": setup,
        "wall_s": wall,
        "raw_setup_s": raw_setup,
        "raw_wall_s": raw_wall,
        "speed_scale": wall / raw_wall,
        "items": result["items"],
        "failed": min(failed, result["items"]),
        "latencies_ms": result.get("latencies_ms"),
        "peak_rss_mb": rss_kb / 1024.0,
        "import_s": import_s,
        "item_digests": digests,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "pinned": expected is not None,
        "inputs": inputs["describe"],
        "stats": stats,
        "realized": sum(e.status.value == "realized" for e in report.entries) if name == "coverage" else None,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    print(json.dumps(run_repeat(spec, load_pinned())))


if __name__ == "__main__":
    main()
