#!/usr/bin/env python3
"""Exact counts are exact: runs the per-layer probe twice per workload at a
short budget and asserts that every simulated ("exact") per-layer metric
repeats bit for bit, and that neither run fails an output check.

Run from the repository root:

    python3 perfbench/test_exact.py

Exits 0 when every exact metric repeats, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Budgets small enough for seconds per run; the sweep budget must still
# split into more intervals than representatives so every job shards.
SHORT = {"suite_full": 20_000, "sweep_sampled": 200_000}
SEED = 7


def probe(wl, work, extra):
    out = subprocess.run(
        [run.binary("tk-perfbench-probe"), "--workload", wl.name, "--seed", str(SEED),
         "--budget", str(SHORT[wl.name]), "--work", work] + extra,
        capture_output=True, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def main():
    run.cargo_build()
    base = os.path.join(run.ROOT, ".bench_work", f"test-exact-{os.getpid()}")
    os.makedirs(base)
    bad = []
    try:
        for name, cls in sorted(run.WORKLOADS.items()):
            work = os.path.join(base, name)
            os.makedirs(work)
            wl = cls(run.Runner(work, run.Checks()), SEED, work)
            wl.inputs()
            extra = []
            if name == "suite_full":
                extra = ["--trace-file", wl.trace]
            elif name == "sweep_sampled":
                extra = ["--sample", run.SWEEP_SAMPLE]
            first, second = (probe(wl, work, extra) for _ in range(2))
            for r in (first, second):
                bad += [f"{name}: {f}" for f in r["failures"]]
            for m in run.EXACT_METRICS:
                a, b = first["metrics"][m], second["metrics"][m]
                status = "ok" if a == b else "DIFFERS"
                print(f"{name:14s} {m:34s} {a!r:>24} {b!r:>24} {status}")
                if a != b:
                    bad.append(f"{name}: {m} {a!r} != {b!r}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for b in bad:
        print("FAIL:", b)
    print("exact metrics repeat bit for bit" if not bad else f"{len(bad)} failures")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
