"""grade3 benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a grade3 checkout::

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 20 --trace 0

Workloads: ``coverage``, ``theorem_replay``, ``large_tables``, ``queries``
(see ``workloads.py`` for what each runs and why).  The benchmark is a closed
loop with one client: it starts one fresh worker process per repeat, waits
for it, and starts the next.  The number of repeats follows from
``--seconds`` and a fixed nominal repeat length per workload, so every run
of a workload does the same work.

Times are seconds at reference speed: each stretch of timed work is scaled
by speed probes taken while it runs or on either side of it
(``calibrate.py``), because the speed of a shared machine drifts by half or
more from minute to minute.  The times as measured are printed in the
details line.

``--trace 0`` prints the end-to-end metrics, medians over repeats:
``setup_s`` (interpreter, import of grade3 and input generation, over at
least nine set-ups: workloads with fewer repeats add set-up-only runs),
``wall_s`` (the timed part), ``items_per_s``, ``latency_p50_ms`` and ``latency_tail_ms``,
and ``peak_rss_mb``.  A request is one table (``large_tables``), one query
(``queries``), or one whole sweep in a fresh process, start to finish
(``coverage``, ``theorem_replay``); its latency is the median over the
repeats, and p50 and tail are taken over the distinct requests.  The tail
is the highest percentile with at least ten requests beyond it (the maximum
when there are too few); the details line records the percentile and the
count.  ``failed_share`` is printed too, as the share of items whose output
failed a check.

``--trace 1`` alternates untraced and traced repeats and prints the
per-layer metrics (``tracer.py``; medians over the traced repeats, times as
measured with the probes left out), the tracing overhead (traced minus
untraced ``wall_s``) and the result of the self-checks on the traced counts.

Every output is checked: against the answers the inputs imply, and against
the digests in ``pinned.json``.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
1 when any check fails, and 2 when the checkout holds no grade3 sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads as W

WORKER = os.path.join(W.HERE, "worker.py")
# About the seconds one repeat takes, probes included, on a 2-core machine
# with Python 3.11; sets the repeat count.
NOMINAL_REPEAT_S = {"coverage": 3.0, "theorem_replay": 3.0, "large_tables": 2.2, "queries": 7.0}
MIN_REPEATS = 3
# Set-up is short and noisy; workloads with few repeats add set-up-only runs.
MIN_SETUPS = 9
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exact.rank_calls": "count",
    "exact.rank_s": "s",
    "exact.cells": "count",
    "presentation.classify_calls": "count",
    "presentation.classify_s": "s",
    "presentation.classify_self_s": "s",
    "presentation.build_s": "s",
    "presentation.validate_s": "s",
    "presentation.doc_s": "s",
    "cone.runs": "count",
    "cone.run_s": "s",
    "cone.verify_self_s": "s",
    "permissible.calls": "count",
    "permissible.s": "s",
    "permissible.cache_hit_ratio": "ratio",
    "permissible.atlas_s": "s",
    "linkrules.apply_calls": "count",
    "linkrules.apply_s": "s",
    "linkrules.rule_calls": "count",
    "linkrules.rule_s": "s",
    "planner.realize_calls": "count",
    "planner.realize_s": "s",
    "planner.search_self_s": "s",
    "planner.verify_calls": "count",
    "planner.verify_s": "s",
    "planner.bounds_built": "count",
    "planner.states_discovered": "count",
    "planner.states_per_target": "count",
    "cli.python_floor_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_s": "s",
}


def fail(message: str, code: int) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def run_worker(spec: dict, env: dict, root: str) -> dict:
    spec = dict(spec, spawned=time.monotonic())
    # A session of its own, so a worker that hangs is stopped with every query it started.
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec)],
        cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{spec['workload']} repeat exceeded {WORKER_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        fail(f"{spec['workload']} worker exited with code {proc.returncode}", 1)
    return json.loads(out.decode().strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(workload: str, reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Medians over repeats of reference-speed timings (see ``calibrate.py``).

    Every repeat runs the same inputs, so each distinct request (a table, a
    query, or a whole sweep) has one latency per repeat; its latency is the
    median of those.  p50 and tail are taken over the distinct requests.
    """
    if workload in ("large_tables", "queries"):
        latencies = [statistics.median(item) for item in zip(*(r["latencies_ms"] for r in reps))]
    else:  # one request is one whole sweep in a fresh process
        latencies = [statistics.median((r["setup_s"] + r["wall_s"]) * 1000.0 for r in reps)]
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in reps),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "request_latencies_ms": latencies,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "setup_samples": len(setups),
    }
    return metrics, notes


def layer_totals(stats: list[dict]) -> dict:
    """Per-layer metrics of one repeat, summed over the grade3 processes it ran."""

    def calls(key):
        return sum(s["calls"].get(key, 0) for s in stats)

    def total(key):
        return sum(s["total"].get(key, 0.0) for s in stats)

    def self_time(key):
        return sum(s["self"].get(key, 0.0) for s in stats)

    hits = sum(s["cache_hits"] for s in stats)
    lookups = hits + sum(s["cache_misses"] for s in stats)
    states = sum(s["states_discovered"] for s in stats)
    realize_calls = calls("planner.realize")
    main_ms = [s["total"]["cli.main"] * 1000.0 for s in stats if "cli.main" in s["total"]]
    return {
        "exact.rank_calls": calls("exact.rank"),
        "exact.rank_s": total("exact.rank"),
        "exact.cells": sum(s["cells"] for s in stats),
        "presentation.classify_calls": calls("presentation.classify"),
        "presentation.classify_s": total("presentation.classify"),
        "presentation.classify_self_s": self_time("presentation.classify"),
        "presentation.build_s": total("presentation.build"),
        "presentation.validate_s": total("presentation.validate"),
        "presentation.doc_s": total("presentation.doc"),
        "cone.runs": calls("cone.run"),
        "cone.run_s": total("cone.run"),
        "cone.verify_self_s": self_time("cone.verify"),
        "permissible.calls": calls("permissible.is_permissible"),
        "permissible.s": total("permissible.is_permissible"),
        "permissible.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "permissible.atlas_s": total("permissible.atlas"),
        "linkrules.apply_calls": calls("linkrules.apply"),
        "linkrules.apply_s": total("linkrules.apply"),
        "linkrules.rule_calls": calls("linkrules.rule"),
        "linkrules.rule_s": total("linkrules.rule"),
        "planner.realize_calls": realize_calls,
        "planner.realize_s": total("planner.realize"),
        "planner.search_self_s": self_time("planner.realize"),
        "planner.verify_calls": calls("planner.verify"),
        "planner.verify_s": total("planner.verify"),
        "planner.bounds_built": sum(s["bounds_built"] for s in stats),
        "planner.states_discovered": states,
        "planner.states_per_target": states / realize_calls if realize_calls else 0.0,
        "cli.main_ms": statistics.median(main_ms) if main_ms else 0.0,
        "cli.main_calls": calls("cli.main"),
    }


def self_check(workload: str, rep: dict, layers: dict) -> list[str]:
    """The traced counts must land where each workload says its work is."""
    want: list[tuple[str, float]] = []
    if workload == "coverage":
        want = [
            ("exact.rank_calls", 0),
            ("cone.runs", 0),
            ("planner.bounds_built", W.COVERAGE_M - 3),  # bounds 10 .. M+6
            ("planner.realize_calls", rep["items"]),
            ("planner.verify_calls", rep["realized"]),
        ]
    elif workload == "theorem_replay":
        want = [("cone.runs", rep["items"]), ("planner.realize_calls", 0)]
    elif workload == "large_tables":
        links = sum(1 for d in rep["inputs"] if not d.startswith("classify"))
        want = [
            ("cone.runs", links),
            ("presentation.classify_calls", rep["items"] + links),
            ("planner.realize_calls", 0),
        ]
    elif workload == "queries":
        want = [("cli.main_calls", rep["items"])]
    return [f"{key} = {layers[key]}, expected {value}" for key, value in want if layers[key] != value]


def python_floor_ms(env: dict, root: str, runs: int = 10) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description="grade3 benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_REPEAT_S))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "grade3", "__init__.py")):
        fail("no grade3 sources under src/grade3; run from the root of a grade3 checkout", 2)
    if not os.path.isfile(os.path.join(W.HERE, "pinned.json")):
        fail("perfbench/pinned.json is missing; record it with perfbench/pin.py", 2)

    env = W.cli_env(root)
    workbase = os.path.join(root, ".perfbench_work")
    os.makedirs(workbase, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=workbase)
    nominal = NOMINAL_REPEAT_S[args.workload]
    spec = {"workload": args.workload, "seed": args.seed, "root": root, "workdir": workdir}
    try:
        if args.trace:
            pairs = max(2, round(args.seconds / nominal / 2))
            plain, traced = [], []
            for _ in range(pairs):
                plain.append(run_worker(dict(spec, trace=0), env, root))
                traced.append(run_worker(dict(spec, trace=1), env, root))
            reps = plain + traced
        else:
            reps = [run_worker(dict(spec, trace=0), env, root) for _ in range(max(MIN_REPEATS, round(args.seconds / nominal)))]
            setups = [r["setup_s"] for r in reps] + [
                run_worker(dict(spec, trace=0, setup_only=True), env, root)["setup_s"]
                for _ in range(MIN_SETUPS - len(reps))
            ]
        floor = python_floor_ms(env, root) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["items"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = []
    if len({r["digest"] for r in reps}) != 1:
        problems.append("outputs differ between repeats of the same inputs")
    if not all(r["pinned"] for r in reps):
        print("note: no pinned digests for this seed; outputs checked against their construction only")

    if args.trace:
        layer_runs = []
        for rep in traced:
            layers = layer_totals(rep["stats"])
            imports = [s["import_s"] for s in rep["stats"] if "import_s" in s] or [rep["import_s"]]
            layers["cli.import_ms"] = statistics.median(imports) * 1000.0
            layer_runs.append(layers)
            problems.extend(self_check(args.workload, rep, layers))
        metrics = {key: statistics.median(layers[key] for layers in layer_runs) for key in PER_LAYER if key in layer_runs[0]}
        metrics["cli.python_floor_ms"] = floor
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain
        )
        units, notes = PER_LAYER, {"traced_repeats": len(traced), "untraced_repeats": len(plain)}
    else:
        metrics, notes = end_to_end(args.workload, reps, setups)
        units = END_TO_END

    for problem in problems:
        print(f"self-check failed: {problem}")
    failed = min(attempted, failed + len(problems))
    correct = failed == 0
    for key, value in metrics.items():
        print(f"{args.workload} {key}: {value:.6g} {units[key]}")
    print(f"{args.workload} failed_share: {failed / attempted:.6g} ({failed} of {attempted} items)")
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeats": len(reps),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "pinned": all(r["pinned"] for r in reps),
        "output_digest": reps[0]["digest"],
        "wall_s_repeats": [r["wall_s"] for r in reps],
        "raw_wall_s_repeats": [r["raw_wall_s"] for r in reps],
        "raw_setup_s_repeats": [r["raw_setup_s"] for r in reps],
        "speed_scale_repeats": [r["speed_scale"] for r in reps],
        "inputs": reps[0]["inputs"],
        **notes,
    }
    print("details: " + json.dumps(details))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
