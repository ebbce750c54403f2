//! Per-layer probe of the perfbench harness.
//!
//! Runs one benchmark workload's job set in-process and times calls
//! into each crate's public functions from outside — no span lives
//! inside the simulator. Prints one JSON object on stdout:
//! `{"metrics": {name: value}, "checks": N, "failures": [..],
//! "traced_wall_s": T, "covered_s": C, "uncovered": [..]}`, where `C`
//! is the part of the traced wall `T` spent inside timed calls (worker
//! time divided by the worker count in the parallel phases).
//!
//! ```text
//! tk-perfbench-probe --workload suite_full|sweep_sampled
//!     --seed S --budget B --work DIR [--trace-file SPEC]
//!     [--sample I,K] [--cli-cache DIR]
//! ```
//!
//! Every job is configured through `SystemConfig::builder()` and `Job`
//! fields; the process-wide `set_default_*` setters are never called.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use timekeeping::snapshot::{Json, Snapshot};
use timekeeping::{CorrelationConfig, Cycle};
use tk_bench::engine::{self, Job};
use tk_bench::{golden, FigureOpts, WorkloadId};
use tk_sim::trace::Workload;
use tk_sim::{
    BankedDramConfig, Instr, MemBackendConfig, MemorySystem, PrefetchMode, RunResult,
    SampleCheckpoint, SampleConfig, SystemConfig, VictimMode,
};
use tk_workloads::{ConcurrentMix, SpecBenchmark};

/// Worker threads of every parallel phase (the CLI runs use `--jobs 2`).
const WORKERS: usize = 2;
/// Instructions drained per generator for `workloads.gen_ns_per_instr`.
const GEN_INSTRS: u64 = 200_000;
/// Memory references replayed for the `hierarchy.*` call timings.
const REPLAY_REFS: usize = 300_000;
/// Streams run under the stage profiler for `core.driver_self_ns_per_instr`.
const PROFILED_STREAMS: usize = 6;
/// Per-core instructions of each `mesi.*` simulation.
const MESI_BUDGET: u64 = 60_000;

/// Every metric the probe reports. All start at 0 so a layer a workload
/// never exercises still appears, as 0.
const METRICS: &[&str] = &[
    "workloads.gen_ns_per_instr",
    "workloads.trace_decode_ms",
    "core.run_ns_per_instr.base",
    "core.run_ns_per_instr.victim",
    "core.run_ns_per_instr.tk_pf",
    "core.run_ns_per_instr.dbcp",
    "core.run_ns_per_instr.decay",
    "core.driver_self_ns_per_instr",
    "hierarchy.access_ns",
    "hierarchy.access_calls",
    "hierarchy.advance_ns",
    "hierarchy.advance_calls",
    "hierarchy.l1_refs",
    "hierarchy.l1_miss_frac",
    "hierarchy.l2_miss_frac",
    "pf.issued",
    "pf.useful_frac",
    "victim.admit_frac",
    "dram.banked_extra_ns_per_instr",
    "dram.row_hit_frac",
    "dram.avg_read_latency_cyc",
    "ckpt.probe_ms",
    "ckpt.build_s",
    "ckpt.builds",
    "ckpt.disk_load_s",
    "ckpt.disk_mib",
    "sample.shard_s",
    "sample.shards",
    "sample.shard_ns_per_timed_instr",
    "sample.assemble_ms",
    "sample.timed_frac",
    "sample.l1_err_pp",
    "sample.ipc_err_pct",
    "mesi.run_ns_per_instr.c2",
    "mesi.run_ns_per_instr.c4",
    "mesi.bus_txns",
    "mesi.c2c_frac",
    "mesi.inval_death_frac",
    "engine.busy_frac",
    "engine.job_p50_ms",
    "engine.job_p90_ms",
    "engine.jobs",
    "engine.memo_hit_frac",
    "figures.render_ms",
    "trace.coverage_frac",
];

struct Args {
    workload: String,
    seed: u64,
    budget: u64,
    work: PathBuf,
    trace_file: Option<String>,
    sample: SampleConfig,
    cli_cache: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut budget = None;
    let mut work = None;
    let mut trace_file = None;
    let mut sample = SampleConfig {
        interval: 10_000,
        k: 8,
    };
    let mut cli_cache = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--budget" => budget = Some(value()?.parse().map_err(|_| "--budget: not a number")?),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--trace-file" => trace_file = Some(value()?),
            "--sample" => sample = tk_sim::parse_sample_arg(&value()?)?,
            "--cli-cache" => cli_cache = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        budget: budget.ok_or("--budget is required")?,
        work: work.ok_or("--work is required")?,
        trace_file,
        sample,
        cli_cache,
    })
}

/// What the probe measured, plus the outcome of its output checks.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, f64>,
    checks: u64,
    failures: Vec<String>,
    traced_wall_s: f64,
    covered_s: f64,
    uncovered: Vec<String>,
}

impl Report {
    fn new() -> Self {
        let mut r = Report::default();
        for m in METRICS {
            r.metrics.insert((*m).to_owned(), 0.0);
        }
        r
    }

    fn set(&mut self, name: &str, value: f64) {
        assert!(self.metrics.contains_key(name), "unlisted metric {name}");
        self.metrics.insert(name.to_owned(), value);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", num(*v)))
            .collect::<Vec<_>>()
            .join(", ");
        let strings = |v: &[String]| {
            v.iter()
                .map(|s| Json::Str(s.clone()).render())
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"metrics\": {{{metrics}}}, \"checks\": {}, \"failures\": [{}], \
             \"traced_wall_s\": {}, \"covered_s\": {}, \"uncovered\": [{}]}}",
            self.checks,
            strings(&self.failures),
            num(self.traced_wall_s),
            num(self.covered_s),
            strings(&self.uncovered),
        )
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "0".to_owned()
    }
}

/// Runs `f` over `items` on `workers` threads. Returns each item's
/// result with its own duration (seconds), in item order, and the wall
/// time of the whole phase.
fn pool<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> (Vec<(R, f64)>, f64) {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<(R, f64)>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let t = Instant::now();
                let r = f(item);
                let d = t.elapsed().as_secs_f64();
                out.lock().expect("pool results")[i] = Some((r, d));
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let results = out
        .into_inner()
        .expect("pool results")
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect();
    (results, wall)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The timing bucket a single-core, fixed-latency full-detail config
/// falls in (`None` for the others).
fn bucket(cfg: &SystemConfig) -> Option<&'static str> {
    if cfg.cores > 1 || cfg.memory != MemBackendConfig::Fixed || cfg.sample.is_some() {
        return None;
    }
    if cfg.decay_interval.is_some() {
        return Some("decay");
    }
    match (cfg.prefetch, cfg.victim) {
        (PrefetchMode::Dbcp(_), _) => Some("dbcp"),
        (PrefetchMode::Timekeeping(_), _) => Some("tk_pf"),
        (PrefetchMode::None, VictimMode::None) => Some("base"),
        (PrefetchMode::None, _) => Some("victim"),
        _ => None,
    }
}

/// One timed full-detail simulation.
struct Sim {
    cfg: SystemConfig,
    /// Instructions simulated.
    instrs: u64,
    secs: f64,
    result: RunResult,
}

/// Per-bucket ns/instruction, exact simulated counts and engine job
/// statistics over a set of timed simulations.
fn summarize_sims(rep: &mut Report, sims: &[Sim]) {
    let mut buckets: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for s in sims {
        if let Some(k) = bucket(&s.cfg) {
            let e = buckets.entry(k).or_default();
            e.0 += s.secs;
            e.1 += s.instrs;
        }
    }
    for (k, (secs, instrs)) in &buckets {
        rep.set(
            &format!("core.run_ns_per_instr.{k}"),
            secs * 1e9 / *instrs as f64,
        );
    }

    let (mut l1, mut l1_miss, mut l2, mut l2_miss, mut pf) = (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut pf_ok, mut pf_all, mut offered, mut admitted) = (0u64, 0u64, 0u64, 0u64);
    let (mut reads, mut row_hits, mut read_lat) = (0u64, 0u64, 0u64);
    for s in sims {
        let h = &s.result.hierarchy;
        l1 += h.l1_accesses;
        l1_miss += h.l1_misses();
        l2 += h.l2_accesses;
        l2_miss += h.l2_accesses - h.l2_hits;
        pf += h.pf_issued;
        pf_ok += s.result.timeliness.total(true);
        pf_all += s.result.timeliness.total(true) + s.result.timeliness.total(false);
        if let Some(v) = s.result.victim {
            offered += v.offered;
            admitted += v.admitted;
        }
        if let Some(d) = s.result.dram {
            reads += d.reads;
            row_hits += d.row_hits;
            read_lat += d.read_latency_cycles;
        }
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.set("hierarchy.l1_refs", l1 as f64);
    rep.set("hierarchy.l1_miss_frac", frac(l1_miss, l1));
    rep.set("hierarchy.l2_miss_frac", frac(l2_miss, l2));
    rep.set("pf.issued", pf as f64);
    rep.set("pf.useful_frac", frac(pf_ok, pf_all));
    rep.set("victim.admit_frac", frac(admitted, offered));
    rep.set("dram.row_hit_frac", frac(row_hits, reads));
    rep.set("dram.avg_read_latency_cyc", frac(read_lat, reads));

    // DDR4 minus fixed latency on jobs identical but for the backend.
    let ddr4 = MemBackendConfig::Banked(BankedDramConfig::DDR4);
    let mut fixed: BTreeMap<String, f64> = BTreeMap::new();
    for s in sims
        .iter()
        .filter(|s| s.cfg.memory == MemBackendConfig::Fixed)
    {
        fixed.insert(
            format!("{}|{}", s.result.workload, s.cfg.cache_key()),
            s.secs,
        );
    }
    let (mut extra, mut instrs) = (0.0, 0u64);
    for s in sims.iter().filter(|s| s.cfg.memory == ddr4) {
        let mut twin = s.cfg;
        twin.memory = MemBackendConfig::Fixed;
        if let Some(f) = fixed.get(&format!("{}|{}", s.result.workload, twin.cache_key())) {
            extra += s.secs - f;
            instrs += s.instrs;
        }
    }
    if instrs > 0 {
        rep.set(
            "dram.banked_extra_ns_per_instr",
            extra * 1e9 / instrs as f64,
        );
    }

    let mut times: Vec<f64> = sims.iter().map(|s| s.secs * 1e3).collect();
    times.sort_by(f64::total_cmp);
    rep.set("engine.jobs", times.len() as f64);
    rep.set("engine.job_p50_ms", quantile(&times, 0.5));
    rep.set("engine.job_p90_ms", quantile(&times, 0.9));
}

/// `workloads.gen_ns_per_instr`: drains each stream standalone.
fn gen_cost(rep: &mut Report, streams: &[WorkloadId], seed: u64) {
    let mut secs = 0.0;
    for id in streams {
        let mut w = id.build(seed);
        let ((), d) = timed(|| {
            for _ in 0..GEN_INSTRS {
                black_box(w.next_instr());
            }
        });
        secs += d;
    }
    let ns = secs * 1e9 / (GEN_INSTRS * streams.len() as u64) as f64;
    rep.set("workloads.gen_ns_per_instr", ns);
}

/// `hierarchy.*`: a dependent-stream replay into `MemorySystem` on the
/// base machine, each call timed from outside (timer cost subtracted).
fn hierarchy_cost(rep: &mut Report, streams: &[WorkloadId], seed: u64) {
    let mut refs = Vec::with_capacity(REPLAY_REFS);
    let mut sources: Vec<_> = streams.iter().map(|id| id.build(seed)).collect();
    'fill: loop {
        for w in &mut sources {
            loop {
                let r = match w.next_instr() {
                    Instr::Op => continue,
                    Instr::Store(m) => (m, true),
                    Instr::Load(m) | Instr::ChainedLoad(m) | Instr::SwPrefetch(m) => (m, false),
                };
                refs.push(r);
                break;
            }
            if refs.len() >= REPLAY_REFS {
                break 'fill;
            }
        }
    }
    // Gap between two back-to-back `Instant::now()` calls: the timer's
    // own share of every call timed below, subtracted from each.
    let mut samples: Vec<f64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            (t1 - t0).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    let timer = samples[500];

    let mut sys = MemorySystem::new(SystemConfig::base());
    let (mut access, mut advance) = (0.0, 0.0);
    let mut now = 0u64;
    for (m, store) in &refs {
        let t = Instant::now();
        sys.advance(Cycle::new(now));
        let t1 = Instant::now();
        let out = sys.access(m, *store, Cycle::new(now));
        let t2 = Instant::now();
        advance += (t1 - t).as_nanos() as f64 - timer;
        access += (t2 - t1).as_nanos() as f64 - timer;
        now = out.ready_at.get().max(now + 1);
    }
    let t = Instant::now();
    sys.finish(Cycle::new(now));
    advance += t.elapsed().as_nanos() as f64;
    let n = refs.len() as f64;
    rep.set("hierarchy.access_ns", access / n);
    rep.set("hierarchy.access_calls", n);
    rep.set("hierarchy.advance_ns", advance / (n + 1.0));
    rep.set("hierarchy.advance_calls", n + 1.0);
}

/// `core.driver_self_ns_per_instr`: base-machine run time left after
/// generation and hierarchy time. The hierarchy share is read from the
/// simulator's own `--profile` stage profiler (access, advance and
/// finish), because the dependent-stream replay above overstates the
/// per-call cost of the overlapped accesses of a real run.
fn driver_self(rep: &mut Report, streams: &[WorkloadId], seed: u64, budget: u64) {
    tk_sim::set_profile(true);
    let (mut run_ns, mut hier_ns, mut instrs) = (0.0, 0.0, 0u64);
    for id in streams.iter().take(PROFILED_STREAMS) {
        let mut w = id.build(seed);
        let mut sys = tk_sim::SimSystem::new(SystemConfig::base());
        let (r, secs) = timed(|| sys.run(&mut w, budget));
        let prof = sys.memory().profile_report().expect("profiling is on");
        hier_ns += prof
            .stages
            .iter()
            .filter(|s| matches!(s.name.as_str(), "access" | "advance" | "finish"))
            .map(|s| s.ns as f64)
            .sum::<f64>();
        run_ns += secs * 1e9;
        instrs += r.core.instructions;
    }
    tk_sim::set_profile(false);
    let gen = rep.metrics["workloads.gen_ns_per_instr"];
    let per_instr = |ns: f64| ns / instrs.max(1) as f64;
    rep.set(
        "core.driver_self_ns_per_instr",
        per_instr(run_ns) - gen - per_instr(hier_ns),
    );
}

fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compares an in-process result with the CLI's result-cache entry for
/// the same job.
fn check_against_cli(rep: &mut Report, cli_cache: Option<&Path>, job: &Job, r: &RunResult) {
    let Some(dir) = cli_cache else { return };
    let key = job.cache_key();
    let path = dir.join(format!("{:016x}.json", fnv1a64(&key)));
    let cli = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .and_then(|v| RunResult::from_json(v.get("result").ok()?).ok());
    rep.check(cli.as_ref() == Some(r), || {
        format!("in-process result differs from the CLI result cache: {key}")
    });
}

fn write_text(dir: &Path, name: &str, text: &str) {
    std::fs::create_dir_all(dir).expect("create probe output directory");
    std::fs::write(dir.join(format!("{name}.txt")), text).expect("write probe report");
}

/// The `report` binary's job set: every figure, table1 and dram_compare
/// over the suite (plus any registered trace), full detail, one core.
fn suite_full(rep: &mut Report, a: &Args) {
    let mut setup_s = 0.0;
    if let Some(spec) = &a.trace_file {
        let (handle, d) = timed(|| tk_bench::register_trace(spec));
        if let Err(e) = handle {
            rep.check(false, || format!("trace registration failed: {e}"));
            return;
        }
        rep.set("workloads.trace_decode_ms", d * 1e3);
        setup_s = d;
    }
    let figures: Vec<_> = golden::figure_manifest()
        .into_iter()
        .filter(|(n, _)| !matches!(*n, "fig22_mp" | "mesi_compare"))
        .collect();
    let mut opts = FigureOpts::new();
    opts.instructions = a.budget;
    opts.instructions_explicit = true;
    opts.seed = a.seed;
    opts.jobs = WORKERS;

    // The engine path, as `report` drives it.
    engine::reset_stats();
    engine::record_jobs(true);
    let (texts, engine_wall) = timed(|| {
        figures
            .iter()
            .map(|(n, f)| (*n, f(opts)))
            .collect::<Vec<_>>()
    });
    let jobs = engine::take_recorded_jobs();
    engine::record_jobs(false);
    let (memo, disk, sims) = engine::memo_stats();
    rep.set(
        "engine.memo_hit_frac",
        memo as f64 / (memo + disk + sims).max(1) as f64,
    );
    let out = a.work.join("probe_reports");
    for (n, t) in &texts {
        write_text(&out, n, t);
    }

    // Figures re-rendered over the now fully memoized engine.
    let (rerender, render_s) = timed(|| figures.iter().map(|(_, f)| f(opts)).collect::<Vec<_>>());
    rep.set("figures.render_ms", render_s * 1e3);
    for ((n, t), again) in texts.iter().zip(&rerender) {
        rep.check(t == again, || format!("{n}: memoized re-render differs"));
    }

    // The traced phase: every distinct job, each timed alone.
    let (timed_jobs, wall) = pool(&jobs, WORKERS, |job| {
        let mut w = job.bench.build(job.seed);
        tk_sim::run_workload(&mut w, job.cfg, job.instructions)
    });
    let memoized = engine::run_jobs(&jobs, 1);
    let mut list = Vec::with_capacity(jobs.len());
    for ((job, (r, secs)), m) in jobs.iter().zip(timed_jobs).zip(&memoized) {
        rep.check(&r == m.as_ref(), || {
            format!("direct run differs from engine: {}", job.cache_key())
        });
        check_against_cli(rep, a.cli_cache.as_deref(), job, &r);
        list.push(Sim {
            cfg: job.cfg,
            instrs: job.instructions,
            secs,
            result: r,
        });
    }
    summarize_sims(rep, &list);
    let busy: f64 = list.iter().map(|s| s.secs).sum();
    rep.set("engine.busy_frac", busy / (WORKERS as f64 * engine_wall));
    eprintln!("engine wall {engine_wall:.3} s, spanned wall {wall:.3} s, job time {busy:.3} s");

    rep.traced_wall_s = setup_s + wall + render_s;
    rep.covered_s = setup_s + busy / WORKERS as f64 + render_s;
    if busy / (WORKERS as f64 * wall) < 0.9 {
        rep.uncovered
            .push("engine: idle worker time behind straggler jobs".to_owned());
    }

    let streams: Vec<WorkloadId> = tk_bench::suite_workloads();
    gen_cost(rep, &streams, a.seed);
    hierarchy_cost(rep, &streams, a.seed);
    driver_self(rep, &streams, a.seed, a.budget);
    mesi_layer(rep, a.seed);
}

/// The sampled sweep's configs: dram_compare's backends × mechanisms.
fn sweep_configs(sample: Option<SampleConfig>) -> Vec<SystemConfig> {
    let backends = [
        MemBackendConfig::Fixed,
        MemBackendConfig::Banked(BankedDramConfig::DDR2),
        MemBackendConfig::Banked(BankedDramConfig::DDR4),
    ];
    let tk = PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB);
    backends
        .iter()
        .flat_map(|&mem| {
            let b = || {
                let b = SystemConfig::builder().memory(mem);
                match sample {
                    Some(sc) => b.sample(sc),
                    None => b.no_sample(),
                }
            };
            [
                b().build(),
                b().victim(VictimMode::paper_dead_time()).build(),
                b().prefetch(tk).build(),
            ]
        })
        .map(|c| c.expect("sweep configs are valid"))
        .collect()
}

fn geomean_err(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        return 0.0;
    }
    let s: f64 = errs.iter().map(|e| (1.0 + e).ln()).sum();
    (s / errs.len() as f64).exp() - 1.0
}

/// dram_compare's 26 workloads × 9 configs under `--sample`, through
/// the checkpoint store, then the same jobs at full detail as the
/// accuracy reference.
fn sweep_sampled(rep: &mut Report, a: &Args) {
    let suite: Vec<WorkloadId> = SpecBenchmark::ALL.iter().map(|&b| b.into()).collect();
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|&b| {
            sweep_configs(Some(a.sample))
                .into_iter()
                .map(move |c| Job::new(b, c, a.seed, a.budget))
        })
        .collect();
    // Builds must start from an empty store: no disk tier left over
    // from an earlier probe over the same work directory.
    let ckpt_dir = a.work.join("probe_ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    tk_sim::set_checkpoint_dir(Some(ckpt_dir.clone()));
    tk_sim::reset_checkpoint_store();

    // Functional fingerprints: stream probe + job key.
    let ((fps, groups), probe_s) = timed(|| {
        let mut groups: BTreeMap<String, usize> = BTreeMap::new();
        let fps: Vec<String> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                let w = j.bench.build(j.seed);
                let probe = tk_sim::stream_probe(&w).expect("synthetic streams fork");
                let fp = tk_sim::job_fingerprint(probe, &j.bench.name(), &j.cfg, j.instructions)
                    .expect("sweep jobs are checkpointable");
                groups.entry(fp.clone()).or_insert(i);
                fp
            })
            .collect();
        (fps, groups)
    });
    rep.set("ckpt.probe_ms", probe_s * 1e3);

    // Builds on an empty store (which also writes the disk tier).
    let firsts: Vec<(String, usize)> = groups.into_iter().collect();
    let (built, build_wall) = pool(&firsts, WORKERS, |(fp, i)| {
        let j = &jobs[*i];
        let w = j.bench.build(j.seed);
        tk_sim::obtain_keyed(&w, &j.cfg, j.instructions, fp).expect("checkpoint builds")
    });
    let build_s: f64 = built.iter().map(|(_, d)| d).sum();
    rep.set("ckpt.build_s", build_s);
    rep.set("ckpt.builds", tk_sim::checkpoint_stats().builds as f64);
    let by_fp: BTreeMap<&str, Arc<SampleCheckpoint>> = firsts
        .iter()
        .zip(&built)
        .map(|((fp, _), (c, _))| (fp.as_str(), Arc::clone(c)))
        .collect();

    // Timing shards, then assembly in the checkpoint's fixed order.
    let units: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| (0..by_fp[fps[i].as_str()].shard_count()).map(move |s| (i, s)))
        .collect();
    let (shards, shard_wall) = pool(&units, WORKERS, |&(i, s)| {
        tk_sim::run_shard(&by_fp[fps[i].as_str()], jobs[i].cfg, s, false)
    });
    let shard_s: f64 = shards.iter().map(|(_, d)| d).sum();
    rep.set("sample.shard_s", shard_s);
    rep.set("sample.shards", units.len() as f64);
    let mut per_job: Vec<Vec<RunResult>> = vec![Vec::new(); jobs.len()];
    let mut job_secs = vec![0.0; jobs.len()];
    for (&(i, _), (r, d)) in units.iter().zip(shards) {
        per_job[i].push(r);
        job_secs[i] += d;
    }
    let (sampled, assemble_s) = timed(|| {
        per_job
            .iter()
            .enumerate()
            .map(|(i, rs)| tk_sim::assemble_shards(&by_fp[fps[i].as_str()], rs))
            .collect::<Vec<_>>()
    });
    rep.set("sample.assemble_ms", assemble_s * 1e3);
    let timed_instrs: u64 = sampled
        .iter()
        .map(|r| r.sampled.map_or(0, |s| s.timed_instructions))
        .sum();
    rep.set(
        "sample.timed_frac",
        timed_instrs as f64 / (a.budget * jobs.len() as u64) as f64,
    );
    rep.set(
        "sample.shard_ns_per_timed_instr",
        shard_s * 1e9 / timed_instrs.max(1) as f64,
    );
    for (j, r) in jobs.iter().zip(&sampled) {
        rep.check(r.sampled.is_some(), || {
            format!("sweep job fell back to full detail: {}", j.cache_key())
        });
        check_against_cli(rep, a.cli_cache.as_deref(), j, r);
    }

    // Disk tier: a cleared in-process store loads every checkpoint back.
    tk_sim::reset_checkpoint_store();
    let (_, load_s) = timed(|| {
        for (fp, i) in &firsts {
            let j = &jobs[*i];
            let w = j.bench.build(j.seed);
            black_box(tk_sim::obtain_keyed(&w, &j.cfg, j.instructions, fp));
        }
    });
    let st = tk_sim::checkpoint_stats();
    rep.check(
        st.builds == 0 && st.disk_hits == firsts.len() as u64,
        || format!("disk tier reload: {st:?} for {} fingerprints", firsts.len()),
    );
    rep.set("ckpt.disk_load_s", load_s);
    let bytes: u64 = std::fs::read_dir(&ckpt_dir)
        .map(|d| {
            d.filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    rep.set("ckpt.disk_mib", bytes as f64 / (1 << 20) as f64);

    // The engine's own sharded path over the same jobs, cold.
    tk_sim::set_checkpoint_dir(None);
    tk_sim::reset_checkpoint_store();
    engine::reset_stats();
    let (via_engine, engine_wall) = timed(|| engine::run_jobs(&jobs, WORKERS));
    for ((j, r), e) in jobs.iter().zip(&sampled).zip(&via_engine) {
        rep.check(r == e.as_ref(), || {
            format!("sharded run differs from engine: {}", j.cache_key())
        });
    }
    let (memo, disk, sims) = engine::memo_stats();
    rep.set(
        "engine.memo_hit_frac",
        memo as f64 / (memo + disk + sims).max(1) as f64,
    );
    let busy = probe_s + build_s + shard_s + assemble_s;
    rep.set("engine.busy_frac", busy / (WORKERS as f64 * engine_wall));

    rep.traced_wall_s = probe_s + build_wall + shard_wall + assemble_s;
    rep.covered_s = probe_s + (build_s + shard_s) / WORKERS as f64 + assemble_s;
    if build_s / (WORKERS as f64 * build_wall) < 0.9 {
        rep.uncovered
            .push("ckpt: idle worker time behind straggler checkpoint builds".to_owned());
    }
    if shard_s / (WORKERS as f64 * shard_wall) < 0.9 {
        rep.uncovered
            .push("sample: idle worker time behind straggler shards".to_owned());
    }

    // Full-detail reference for the sampling error and the per-config
    // timing buckets.
    let full_cfgs = sweep_configs(None);
    let full_jobs: Vec<Job> = suite
        .iter()
        .flat_map(|&b| {
            full_cfgs
                .iter()
                .map(move |&c| Job::new(b, c, a.seed, a.budget))
        })
        .collect();
    let (full, _) = pool(&full_jobs, WORKERS, |j| {
        let mut w = j.bench.build(j.seed);
        tk_sim::run_workload(&mut w, j.cfg, j.instructions)
    });
    let (mut miss_errs, mut ipc_errs) = (Vec::new(), Vec::new());
    let mut sims = Vec::with_capacity(full.len());
    for ((j, (f, secs)), s) in full_jobs.iter().zip(full).zip(&sampled) {
        miss_errs.push((s.hierarchy.l1_miss_rate() - f.hierarchy.l1_miss_rate()).abs() * 100.0);
        ipc_errs.push((s.ipc() / f.ipc() - 1.0).abs() * 100.0);
        sims.push(Sim {
            cfg: j.cfg,
            instrs: j.instructions,
            secs,
            result: f,
        });
    }
    rep.set("sample.l1_err_pp", geomean_err(&miss_errs));
    rep.set("sample.ipc_err_pct", geomean_err(&ipc_errs));
    summarize_sims(rep, &sims);
    let mut times: Vec<f64> = job_secs.iter().map(|s| s * 1e3).collect();
    times.sort_by(f64::total_cmp);
    rep.set("engine.jobs", times.len() as f64);
    rep.set("engine.job_p50_ms", quantile(&times, 0.5));
    rep.set("engine.job_p90_ms", quantile(&times, 0.9));

    gen_cost(rep, &suite, a.seed);
    hierarchy_cost(rep, &suite, a.seed);
    driver_self(rep, &suite, a.seed, a.budget);
}

/// The 2-program concurrent mixes of fig22_mp and mesi_compare.
fn mixes(seed: u64) -> Vec<ConcurrentMix> {
    use SpecBenchmark::*;
    [(Gzip, Swim), (Twolf, Art), (Mcf, Gzip)]
        .iter()
        .map(|&(x, y)| ConcurrentMix::new(vec![Box::new(x.build(seed)), Box::new(y.build(seed))]))
        .collect()
}

/// `mesi.*`: the simulations of fig22_mp and mesi_compare on fixed
/// latency (2-program mixes at 1, 2 and 4 cores), run serially as the
/// figures run them, multi-core ones through `run_multicore`.
fn mesi_layer(rep: &mut Report, seed: u64) {
    let tk = PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB);
    let cfg = |cores, victim: bool, pf: bool| {
        let mut b = SystemConfig::builder().cores(cores);
        if victim {
            b = b.victim(VictimMode::paper_dead_time());
        }
        if pf {
            b = b.prefetch(tk).predict_only();
        }
        b.build().expect("multi-core figure configs are valid")
    };
    let mixes = mixes(seed);
    // fig22_mp runs (base, victim), mesi_compare (victim, predictor).
    let mut runs: Vec<(usize, SystemConfig)> = Vec::new();
    for pair in [
        [(false, false), (true, false)],
        [(true, false), (false, true)],
    ] {
        for m in 0..mixes.len() {
            for cores in [1, 2, 4] {
                for (v, p) in pair {
                    runs.push((m, cfg(cores, v, p)));
                }
            }
        }
    }
    let mut seen: BTreeMap<String, RunResult> = BTreeMap::new();
    let mut per_cores: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    let (mut txns, mut c2c, mut inval, mut deaths) = (0u64, 0u64, 0u64, 0u64);
    for &(m, c) in &runs {
        let mut w = mixes[m].fork().expect("spec mixes fork");
        let (r, secs) = timed(|| {
            if c.cores > 1 {
                tk_sim::run_multicore(&mut *w, c, MESI_BUDGET, false)
            } else {
                tk_sim::run_workload(&mut *w, c, MESI_BUDGET)
            }
        });
        let e = per_cores.entry(c.cores).or_default();
        e.0 += secs;
        e.1 += MESI_BUDGET * u64::from(c.cores);
        if let Some(k) = r.coherence {
            txns += k.transactions();
            c2c += k.c2c_transfers;
            inval += k.inval_deaths;
            deaths += k.inval_deaths + k.evict_deaths;
        }
        // The victim config runs in both figures: the two must agree.
        let key = format!("{m}|{}", c.cache_key());
        match seen.get(&key) {
            Some(prev) => rep.check(*prev == r, || {
                format!("repeated simulation differs: mix {m} {}", c.cache_key())
            }),
            None => {
                seen.insert(key, r);
            }
        }
    }
    for (cores, (secs, instrs)) in per_cores.iter().filter(|(c, _)| **c > 1) {
        rep.set(
            &format!("mesi.run_ns_per_instr.c{cores}"),
            secs * 1e9 / *instrs as f64,
        );
    }
    let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.set("mesi.bus_txns", txns as f64);
    rep.set("mesi.c2c_frac", frac(c2c, txns));
    rep.set("mesi.inval_death_frac", frac(inval, deaths));
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::new();
    match a.workload.as_str() {
        "suite_full" => suite_full(&mut rep, &a),
        "sweep_sampled" => sweep_sampled(&mut rep, &a),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    if rep.traced_wall_s > 0.0 {
        let coverage = rep.covered_s / rep.traced_wall_s;
        rep.set("trace.coverage_frac", coverage);
    }
    println!("{}", rep.render());
}
