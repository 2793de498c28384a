"""Measure every workload on ten seeds and write ``perfbench/baseline.json``.

Usage, from the root of a grade3 checkout::

    python3 perfbench/baseline.py

For each workload it runs ``run.py`` once per seed (1 to 10) untraced and
once traced, each for ``BENCHMARK.json``'s ``run_seconds``, and records each
end-to-end metric's median, quartiles and spread (the distance between the
quartiles as a share of the median), every per-layer metric of the traced
run, and the machine (processor count, Python version).  It prints every
end-to-end metric of every workload with its unit, and each workload's
``failed_share``; it exits non-zero if any run fails its checks.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coverage", "theorem_replay", "large_tables", "queries")
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        seconds = json.load(handle)["run_seconds"]
    out: dict = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "seeds": list(SEEDS),
        "seconds": seconds,
        "workloads": {},
    }
    units: dict[str, str] = {}
    for workload in WORKLOADS:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in SEEDS:
            result = run(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
                units[key] = metric["unit"]
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        summary = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[key] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": vals}
        traced = run(workload, SEEDS[0], seconds, 1)["metrics"]
        out["workloads"][workload] = {
            "failed_share": failed / attempted,
            "end_to_end": summary,
            "per_layer": {key: m["value"] for key, m in traced.items()},
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    for workload, data in out["workloads"].items():
        for key, s in data["end_to_end"].items():
            print(f"{workload:15s} {key:16s} median {s['median']:.6g} {units[key]}  spread {s['spread']:.4f}")
        print(f"{workload:15s} failed_share     {data['failed_share']:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
