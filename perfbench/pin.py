"""Record the outputs the benchmark checks against, into ``perfbench/pinned.json``.

Run from the root of a checkout, once, on the commit whose outputs are the
reference: ``python3 perfbench/pin.py``.  It records

* ``coverage`` and ``theorem_replay``: one digest per item of the fixed sweep;
* ``large_tables``: per-item digests for seeds 1-20 (other seeds are checked
  against the answers their construction implies, see ``workloads.py``);
* ``queries``: exit code and stdout digest of every query in the pool, and
  the certificate files the ``verify-cert`` queries read.

It refuses to pin an input on which grade3 fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import workloads as W
from worker import PINNED_PATH, run_repeat

LARGE_SEEDS = range(1, 21)


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    workbase = os.path.join(root, ".perfbench_work")
    os.makedirs(workbase, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=workbase)
    try:
        pinned: dict = {}

        def repeat(workload: str, seed: int) -> dict:
            spec = {"workload": workload, "seed": seed, "trace": 0, "root": root, "workdir": workdir}
            out = run_repeat(spec, {})
            if out["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {out['failed']} items fail their checks")
            return out

        cov = repeat("coverage", 0)
        pinned["coverage"] = {"m": W.COVERAGE_M, "count": cov["items"], "digest": cov["digest"], "items": cov["item_digests"]}
        thm = repeat("theorem_replay", 0)
        pinned["theorem_replay"] = {
            "m_max": W.THEOREM_M, "n_max": W.THEOREM_N, "count": thm["items"],
            "digest": thm["digest"], "items": thm["item_digests"],
        }
        seeds = {}
        for seed in LARGE_SEEDS:
            out = repeat("large_tables", seed)
            seeds[str(seed)] = {"count": out["items"], "digest": out["digest"], "items": out["item_digests"]}
        pinned["large_tables"] = {"seeds": seeds}

        env = W.cli_env(root)

        def cli(argv: tuple) -> subprocess.CompletedProcess:
            return subprocess.run(
                W.cli_command(None) + list(argv), cwd=workdir, env=env,
                stdin=subprocess.DEVNULL, capture_output=True, timeout=300,
            )

        certificates = {}
        for k, (label, fmt) in enumerate(W.CERT_TARGETS):
            proc = cli(("realize", label, fmt))
            if proc.returncode != 0:
                raise SystemExit(f"realize {label} {fmt} exited {proc.returncode}")
            certificates[f"cert-{k}.json"] = proc.stdout.decode()
        pool = {}
        # Exit 0 for every kind but these; permissible answers 0, 1 or 2 by verdict.
        expected_exit = {"realize-not-found": 2, "permissible": None}
        for kind, entries in W.query_pool().items():
            for argv, name, text in entries:
                if name is not None:
                    with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
                        handle.write(text if text is not None else certificates[name])
                proc = cli(argv)
                want = expected_exit.get(kind, 0)
                if proc.returncode == 3 or want not in (None, proc.returncode):
                    raise SystemExit(f"{W.query_key(argv)} exited {proc.returncode}: {proc.stderr.decode()}")
                pool[W.query_key(argv)] = f"{proc.returncode}|{W.sha(proc.stdout)}"
        pinned["queries"] = {"pool": pool, "certificates": certificates}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
