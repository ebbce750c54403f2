#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the timekeeping simulator.

Run from the repository root:

    python3 perfbench/run.py --workload suite_full --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
  suite_full     the `report` binary's job set, full detail, plus one
                 gzip'd ChampSim trace generated from the seed
  sweep_sampled  dram_compare's 26 workloads x 9 configs under --sample,
                 through the on-disk checkpoint tier

With --trace 0 the benchmark drives the shipped CLI binaries and reports
the end-to-end metrics: repeated (cold pass, warm pass) iterations for
--seconds, medians over iterations. With --trace 1 it runs one untraced
iteration and then the per-layer probe (perfbench/probe), which times
calls into each crate's public functions from outside.

Iteration i runs the programs with seed --seed + i * SEED_STRIDE, so a
run's medians span several seeds. Every output is checked: cold and warm
passes must be byte-identical, and for the recorded seed the first
iteration's reports and RunResult files must match perfbench/digests.json. The last
stdout line is one JSON object {correct, attempted, failed, metrics}.

`--bless` records the digests of the given workload and seed into
perfbench/digests.json instead of checking them.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

JOBS = 2  # worker threads per process: the 2-core host
SUITE_BUDGET = 100_000  # instructions per suite_full job
SWEEP_BUDGET = 1_000_000  # instructions per sweep_sampled job (full budget)
SWEEP_SAMPLE = "10000,8"  # interval,k: 100 intervals, 8 representatives
CAPTURE_BUDGET = 50_000  # instructions of the run the suite trace is captured from
CAPTURE_BENCH = "twolf"
MIN_ITERATIONS = 3
SEED_STRIDE = 7919  # between the program seeds of a run's iterations
SETUP_REPS = 9
RUN_CAP_S = 150  # never start an iteration expected to end past this

BINARIES = ["report", "dram_compare", "quickcheck", "tk_trace_export"]
# Per-layer metrics that are simulated quantities or call counts: for a
# given seed and budget they repeat bit for bit (test_exact.py).
EXACT_METRICS = [
    "hierarchy.access_calls",
    "hierarchy.advance_calls",
    "hierarchy.l1_refs",
    "hierarchy.l1_miss_frac",
    "hierarchy.l2_miss_frac",
    "pf.issued",
    "pf.useful_frac",
    "victim.admit_frac",
    "dram.row_hit_frac",
    "dram.avg_read_latency_cyc",
    "ckpt.builds",
    "ckpt.disk_mib",
    "sample.shards",
    "sample.timed_frac",
    "sample.l1_err_pp",
    "sample.ipc_err_pct",
    "mesi.bus_txns",
    "mesi.c2c_frac",
    "mesi.inval_death_frac",
    "engine.jobs",
    "engine.memo_hit_frac",
]


class Fatal(Exception):
    """The benchmark cannot run at all (no result is printed)."""


class Proc:
    def __init__(self, code, wall, rss_mib, out, err):
        self.code, self.wall, self.rss_mib, self.out, self.err = code, wall, rss_mib, out, err


class Checks:
    """Counts checked outputs and keeps the failing ones."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same(self, a, b, what):
        if a == b:
            return self.check(True, what)
        return self.check(False, f"{what}: {first_diff(a, b)}")


def first_diff(a, b):
    al = a.decode(errors="replace").splitlines()
    bl = b.decode(errors="replace").splitlines()
    for i, (x, y) in enumerate(zip(al, bl)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"lengths differ ({len(al)} vs {len(bl)} lines)"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    # Absolute: processes run with the work directory as their cwd.
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def cargo_build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    bins = [a for b in BINARIES for a in ("--bin", b)]
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--locked", "-p", "tk-bench"] + bins,
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(BENCH_DIR, "probe", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL)
        if r.returncode != 0:
            raise Fatal(f"build failed: {' '.join(cmd)}")


def binary(name):
    return os.path.join(target_dir(), "release", name)


class Runner:
    """Runs program processes inside the work directory, one at a time."""

    def __init__(self, work, checks):
        self.work, self.checks, self.n = work, checks, 0

    def run(self, args, what):
        self.n += 1
        out_path = os.path.join(self.work, f"proc{self.n:04d}.out")
        err_path = os.path.join(self.work, f"proc{self.n:04d}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(args, cwd=self.work, stdout=out, stderr=err,
                                 stdin=subprocess.DEVNULL)
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - t0
        p.returncode = code = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, "rb") as f:
            stderr = f.read().decode(errors="replace")
        os.remove(out_path)
        os.remove(err_path)
        if not self.checks.check(code == 0, f"{what}: exit code {code}: {tail(stderr)}"):
            log(stderr)
        return Proc(code, wall, ru.ru_maxrss / 1024.0, stdout, stderr)


def tail(text, n=3):
    return " | ".join(text.strip().splitlines()[-n:])


def read_texts(d, suffix=".txt"):
    out = {}
    for p in sorted(glob.glob(os.path.join(d, "*" + suffix))):
        with open(p, "rb") as f:
            out[os.path.basename(p)[: -len(suffix)]] = f.read()
    return out


def sha(b):
    return hashlib.sha256(b).hexdigest()[:16]


class Pass:
    """One timed pass: wall seconds (summed over its processes), peak RSS
    (max over them), its rendered outputs and simulated instructions."""

    def __init__(self):
        self.wall, self.rss, self.outputs, self.instrs = 0.0, 0.0, {}, 0
        self.info = {}

    def add(self, proc):
        self.wall += proc.wall
        self.rss = max(self.rss, proc.rss_mib)


def sims_line(err):
    m = re.search(r"\((\d+) simulations run, (\d+) memo hits, (\d+) disk hits\)", err)
    return tuple(int(x) for x in m.groups()) if m else (-1, -1, -1)


class SuiteFull:
    name = "suite_full"
    budget = SUITE_BUDGET

    def __init__(self, rn, seed, work):
        self.rn, self.seed, self.work = rn, seed, work

    def inputs(self):
        """Captures a reference stream with --trace=ref and exports it as a
        gzip'd ChampSim trace: the suite's seed-derived external trace."""
        cap = os.path.join(self.work, "capture")
        self.rn.run([binary("quickcheck"), "--instructions", str(CAPTURE_BUDGET),
                     "--seed", str(self.seed), "--jobs", "1", "--no-cache",
                     "--trace=ref", "--obs-out", cap, CAPTURE_BENCH], "trace capture")
        bins = sorted(glob.glob(os.path.join(cap, "trace-*.bin")))
        if not bins:
            raise Fatal("trace capture produced no trace-*.bin")
        path = os.path.join(self.work, "inputs", "seedtrace.champsim.gz")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        p = self.rn.run([binary("tk_trace_export"), bins[0], path, "--format", "champsim",
                         "--gzip"], "trace export")
        if p.code != 0:
            raise Fatal("trace export failed")
        shutil.rmtree(cap)
        self.trace = path + ":champsim"

    def args(self, budget, out, cache):
        return [binary("report"), "--instructions", str(budget), "--jobs", str(JOBS),
                "--seed", str(self.seed), cache, "--trace-file=" + self.trace, out]

    def setup(self, i):
        out = os.path.join(self.work, f"setup{i}")
        p = self.rn.run(self.args(0, out, "--no-cache"), "zero-budget report")
        shutil.rmtree(out, ignore_errors=True)
        return p.wall

    def cold(self, i):
        ps = Pass()
        self.cache = os.path.join(self.work, f"rc{i}")
        out = os.path.join(self.work, f"cold{i}")
        p = self.rn.run(self.args(self.budget, out, "--cache=" + self.cache), "cold report")
        ps.add(p)
        ps.outputs = read_texts(out)
        sims, _, disk = sims_line(p.err)
        self.rn.checks.check(sims > 0 and disk == 0, f"cold pass: {sims} sims, {disk} disk hits")
        ps.info["sims"] = sims
        ps.instrs = sims * self.budget
        shutil.rmtree(out)
        return ps

    def warm(self, i, cold):
        ps = Pass()
        out = os.path.join(self.work, f"warm{i}")
        p = self.rn.run(self.args(self.budget, out, "--cache=" + self.cache), "warm report")
        ps.add(p)
        ps.outputs = read_texts(out)
        sims, _, disk = sims_line(p.err)
        self.rn.checks.check(sims == 0 and disk == cold.info["sims"],
                             f"warm pass: {sims} sims, {disk} disk hits "
                             f"(cold ran {cold.info['sims']})")
        ps.info["disk_hits"] = disk
        shutil.rmtree(out)
        return ps

    def results(self):
        """The first cold pass's RunResult files, keyed by file name."""
        return {k: sha(v) for k, v in read_texts(os.path.join(self.work, "rc0"), ".json").items()}

    def finish_iteration(self, i):
        if i > 0:
            shutil.rmtree(self.cache, ignore_errors=True)

    def probe_args(self):
        return ["--trace-file", self.trace, "--cli-cache", os.path.join(self.work, "rc0")]


class SweepSampled:
    name = "sweep_sampled"
    budget = SWEEP_BUDGET

    def __init__(self, rn, seed, work):
        self.rn, self.seed, self.work = rn, seed, work

    def inputs(self):
        pass

    def args(self, budget, *flags):
        return [binary("dram_compare"), "--instructions", str(budget), "--jobs", str(JOBS),
                "--seed", str(self.seed), "--sample=" + SWEEP_SAMPLE, *flags]

    def setup(self, i):
        return self.rn.run(self.args(0, "--no-cache", "--no-ckpt"), "zero-budget sweep").wall

    def manifest(self, obs):
        try:
            with open(os.path.join(obs, "dram_compare.manifest.json")) as f:
                return json.load(f)
        except (OSError, ValueError):
            return {}

    def cold(self, i):
        ps = Pass()
        self.ckpt = os.path.join(self.work, f"ck{i}")
        self.cache = os.path.join(self.work, f"rc{i}")
        obs = os.path.join(self.work, f"obs_cold{i}")
        p = self.rn.run(self.args(self.budget, "--ckpt=" + self.ckpt, "--cache=" + self.cache,
                                  "--obs-out", obs), "cold sweep")
        ps.add(p)
        ps.outputs = {"dram_compare": p.out}
        m = self.manifest(obs)
        ck = m.get("checkpoints", {})
        sims = m.get("provenance", {}).get("simulations_run", -1)
        self.rn.checks.check(ck.get("builds", 0) > 0 and ck.get("disk_hits") == 0,
                             f"cold sweep checkpoints: {ck.get('builds')} builds, "
                             f"{ck.get('disk_hits')} disk hits")
        ps.info["builds"] = ck.get("builds", -1)
        ps.instrs = sims * self.budget
        shutil.rmtree(obs, ignore_errors=True)
        return ps

    def warm(self, i, cold):
        ps = Pass()
        obs = os.path.join(self.work, f"obs_warm{i}")
        p = self.rn.run(self.args(self.budget, "--ckpt=" + self.ckpt, "--no-cache",
                                  "--obs-out", obs), "warm sweep")
        ps.add(p)
        ps.outputs = {"dram_compare": p.out}
        ck = self.manifest(obs).get("checkpoints", {})
        self.rn.checks.check(ck.get("builds") == 0 and ck.get("disk_hits") == cold.info["builds"],
                             f"warm sweep checkpoints: {ck.get('builds')} builds, "
                             f"{ck.get('disk_hits')} disk hits (cold built {cold.info['builds']})")
        ps.info["disk_hits"] = ck.get("disk_hits", 0)
        shutil.rmtree(obs, ignore_errors=True)
        return ps

    results = SuiteFull.results

    def finish_iteration(self, i):
        shutil.rmtree(self.ckpt, ignore_errors=True)
        if i > 0:
            shutil.rmtree(self.cache, ignore_errors=True)

    def no_ckpt_check(self, cold):
        """The checkpoint store must not change a bit of the sweep."""
        p = self.rn.run(self.args(self.budget, "--no-ckpt", "--no-cache"), "no-ckpt sweep")
        self.rn.checks.same(cold.outputs["dram_compare"], p.out,
                            "dram_compare --no-ckpt vs checkpointed output")

    def probe_args(self):
        return ["--sample", SWEEP_SAMPLE, "--cli-cache", os.path.join(self.work, "rc0")]


WORKLOADS = {w.name: w for w in (SuiteFull, SweepSampled)}


def provenance(args, wl):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        h = hashlib.sha256()
        for p in sorted(glob.glob(os.path.join(ROOT, "crates", "**", "*"), recursive=True)
                        + [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]):
            if os.path.isfile(p):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": wl.name,
        "budget": wl.budget,
        "sample": SWEEP_SAMPLE if wl.name == "sweep_sampled" else None,
        "jobs": JOBS,
        "seed": args.seed,
        "seconds": args.seconds,
        "calibration_ns": calibration_ns(),
    }


def calibration_ns():
    """ns per iteration of a fixed integer loop, best of five: the host's
    speed, recorded beside every run (shared hosts drift by tens of
    percent over minutes)."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter_ns()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, (time.perf_counter_ns() - t) / 200_000)
    return round(best, 3)


def check_digests(checks, wl, seed, cold, bless):
    """Reports and RunResult files against the digests stored for the
    recorded seed (or records them with --bless)."""
    current = {
        "seed": seed,
        "budget": wl.budget,
        "reports": {k: sha(v) for k, v in sorted(cold.outputs.items())},
        "results": wl.results(),
    }
    try:
        with open(DIGESTS) as f:
            stored = json.load(f)
    except (OSError, ValueError):
        stored = {}
    if bless:
        stored[wl.name] = current
        with open(DIGESTS, "w") as f:
            json.dump(stored, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"recorded {len(current['reports'])} report and {len(current['results'])} "
            f"result digests for {wl.name} seed {seed}")
        return
    ref = stored.get(wl.name)
    if not ref or ref["seed"] != seed or ref["budget"] != wl.budget:
        return
    for kind in ("reports", "results"):
        want, got = ref[kind], current[kind]
        checks.check(set(want) == set(got),
                     f"{kind}: digest set differs ({len(want)} stored, {len(got)} produced)")
        for k in sorted(want):
            if k in got:
                checks.check(want[k] == got[k], f"{kind} digest of {k}: {got[k]} != {want[k]}")


def iteration_seed(seed, i):
    """The program seed of iteration i: the run's seed first, then seeds
    derived from it. The synthetic streams' host cost differs by up to
    20% between seeds, so a run's median spans several of them."""
    return seed + i * SEED_STRIDE


def iterate(wl, checks, seconds, min_iters):
    """Repeated (cold, warm) iterations, each on its own derived seed. The
    two passes of an iteration must render identical outputs."""
    started = time.perf_counter()
    base = wl.seed
    iters = []
    while True:
        i = len(iters)
        wl.seed = iteration_seed(base, i)
        cold = wl.cold(i)
        warm = wl.warm(i, cold)
        for k in sorted(set(cold.outputs) | set(warm.outputs)):
            checks.same(cold.outputs.get(k, b""), warm.outputs.get(k, b""),
                        f"iteration {i} (seed {wl.seed}): cold vs warm {k}")
        iters.append((cold, warm))
        wl.finish_iteration(i)
        elapsed = time.perf_counter() - started
        # Start another iteration only if it should end within --seconds.
        next_end = elapsed * (len(iters) + 1) / len(iters)
        if len(iters) >= min_iters and (next_end > seconds or next_end > RUN_CAP_S):
            wl.seed = base
            return iters


def e2e_metrics(wl, setup_s, iters):
    colds = [c for c, _ in iters]
    warms = [w for _, w in iters]
    med = statistics.median
    return {
        "setup_s": (med(setup_s), "s"),
        "cold_s": (med(c.wall for c in colds), "s"),
        "warm_s": (med(w.wall for w in warms), "s"),
        "minstr_per_s": (med(c.instrs / c.wall / 1e6 for c in colds), "Minstr/s"),
        "peak_rss_mib": (med(c.rss for c in colds), "MiB"),
    }


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def traced(wl, checks, args, work):
    """One untraced iteration, then the probe; the per-layer metrics."""
    iters = iterate(wl, checks, 0, 1)
    cold, warm = iters[0]
    if isinstance(wl, SweepSampled):
        wl.no_ckpt_check(cold)
    cmd = [binary("tk-perfbench-probe"), "--workload", wl.name, "--seed", str(args.seed),
           "--budget", str(wl.budget), "--work", work] + wl.probe_args()
    p = wl.rn.run(cmd, "probe")
    try:
        probe = json.loads(p.out.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Fatal(f"probe printed no result: {tail(p.err)}")
    checks.attempted += probe["checks"]
    checks.failures += probe["failures"]
    # In-process figure texts must equal the CLI's.
    probe_texts = read_texts(os.path.join(work, "probe_reports"))
    for k, v in probe_texts.items():
        checks.same(cold.outputs.get(k, b""), v, f"in-process {k} vs CLI")
    metrics = dict(probe["metrics"])
    metrics["trace.overhead_frac"] = probe["traced_wall_s"] / cold.wall - 1.0
    hits = warm.info.get("disk_hits", 0)
    metrics["engine.disk_load_us_per_job"] = warm.wall / hits * 1e6 if hits else 0.0
    print(f"trace: traced wall {probe['traced_wall_s']:.3f} s vs untraced cold pass "
          f"{cold.wall:.3f} s; coverage {metrics['trace.coverage_frac']:.3f}")
    if metrics["trace.coverage_frac"] < 0.9:
        for layer in probe["uncovered"] or ["unspanned time between the probe's phases"]:
            print(f"trace: not covered: {layer}")
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bless", action="store_true",
                    help="record digests for this workload and seed instead of checking")
    args = ap.parse_args()

    e2e_units, layer_units = load_units()
    cargo_build()
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    try:
        rn = Runner(work, checks)
        wl = WORKLOADS[args.workload](rn, args.seed, work)
        print("# provenance " + json.dumps(provenance(args, wl), sort_keys=True))
        wl.inputs()
        if args.trace:
            values = traced(wl, checks, args, work)
            units = layer_units
        else:
            setup_s = [wl.setup(i) for i in range(SETUP_REPS)]
            iters = iterate(wl, checks, args.seconds, MIN_ITERATIONS)
            check_digests(checks, wl, args.seed, iters[0][0], args.bless)
            measured = e2e_metrics(wl, setup_s, iters)
            values = {k: v for k, (v, _) in measured.items()}
            units = e2e_units
            print(f"iterations: {len(iters)} (cold, warm) pairs; "
                  f"simulated instructions per cold pass: {iters[0][0].instrs}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it

    missing = sorted(set(units) - set(values))
    if missing:
        raise Fatal(f"metrics not measured: {missing}")
    metrics = {k: {"value": float(values[k]), "unit": units[k]} for k in units}
    for k, m in metrics.items():
        exact = " (exact)" if k in EXACT_METRICS else ""
        print(f"{k:36s} {m['value']:.6g} {m['unit']}{exact}")
    failed = len(checks.failures)
    print(f"fail_frac {failed / max(checks.attempted, 1):.6g} "
          f"({failed} of {checks.attempted} checked outputs failed)")
    for f in checks.failures:
        print(f"FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except Fatal as e:
        log(f"perfbench: {e}")
        sys.exit(1)
