//! End-to-end core-loop throughput benchmark.
//!
//! Drives the full simulator front door — `OooCore::run` over a
//! miss-heavy pointer-chase workload (or the mcf SPEC model via
//! `--workload mcf`) — and reports nanoseconds per retired instruction and
//! simulated cycles per wall-clock second, once with the default
//! event-driven hopping clock and once in the `step_every_cycle`
//! per-cycle reference mode. The speedup column is the whole point of the
//! hopping clock: memory-bound runs spend most of their cycles provably
//! idle, and the hopping loop skips them wholesale while producing
//! bit-identical statistics (proven by `tests/step_equivalence.rs`).
//!
//! This is the wall-clock complement to `pipeline_bench` (access-path
//! only, no core in front) and backs the numbers recorded in
//! `BENCH_coreskip.json`.
//!
//! ```text
//! cargo run --release -p tk-bench --bin core_bench [-- [--quick] [--instructions N] [--json]
//!                                                      [--dram=fixed|banked[:preset]]
//!                                                      [--trace[=CATS]] [--profile] [--obs-out DIR]]
//! ```

use std::time::Instant;

use timekeeping::{CorrelationConfig, DbcpConfig, Snapshot};
use tk_sim::{MemBackendConfig, MemorySystem, OooCore, PrefetchMode, SystemConfig, VictimMode};
use tk_workloads::patterns::PointerChasePattern;
use tk_workloads::{SpecBenchmark, SyntheticWorkload};

/// The benchmark's miss-heavy workload: a pure pointer chase over a
/// 32 MB footprint (512 Ki nodes x 64 B), far beyond every cache and
/// correlation table in the machine, with 10% random pointer noise so no
/// history predictor can fully hide it. Every access is a chained load
/// that misses to DRAM, which is exactly the window-full / chain-stalled
/// regime the hopping clock targets — and the regime the paper's own
/// pointer-chasers (mcf, health-like codes) live in once their working
/// sets exceed the hierarchy.
fn miss_chase(seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::builder("miss_chase", seed)
        .compute_per_mem(1, 0)
        .pattern(
            1,
            Box::new(
                PointerChasePattern::new(0x4000_0000, 512 * 1024, 64, 0x400, seed, 1)
                    .with_noise_pct(10),
            ),
        )
        .build()
}

/// Wall-clock result of one (config, clock-mode) run.
struct Timing {
    ns_per_instr: f64,
    sim_cycles_per_sec: f64,
    cycles: u64,
}

/// Which workload drives the configs.
#[derive(Clone, Copy, PartialEq)]
enum Driver {
    /// The miss-heavy chase above (default; backs BENCH_coreskip.json).
    Chase,
    /// The mcf SPEC model — mostly cache-resident once warm, so it bounds
    /// the *smallest* win hopping delivers rather than the largest.
    Mcf,
}

impl Driver {
    fn build(self, seed: u64) -> SyntheticWorkload {
        match self {
            Driver::Chase => miss_chase(seed),
            Driver::Mcf => SpecBenchmark::Mcf.build(seed),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            Driver::Chase => "miss_chase (32 MB pointer chase, all chained loads miss to DRAM)",
            Driver::Mcf => "mcf (SPEC model, mostly cache-resident once warm)",
        }
    }
}

/// Runs `driver` under `cfg` for `instructions` and times the whole
/// `OooCore::run` call. For timekeeping-prefetcher configs, asserts the
/// global-tick scratch buffer never grew (no per-tick allocation).
fn run_one(driver: Driver, cfg: SystemConfig, instructions: u64) -> Timing {
    let mut w = driver.build(1);
    let mut core = OooCore::new(&cfg);
    let mut mem = MemorySystem::new(cfg);
    let scratch_cap = mem.tick_scratch_capacity();
    let obs_cap = mem.obs_trace_capacity();
    if !tk_sim::trace_enabled() {
        // The disabled observability path must be provably free: no ring
        // buffer exists at all (same discipline as the tick scratch
        // assert below).
        assert_eq!(obs_cap, 0, "disabled tracing must allocate nothing");
    }
    let t0 = Instant::now();
    let stats = core.run(&mut w, &mut mem, instructions);
    let elapsed = t0.elapsed();
    assert_eq!(
        mem.tick_scratch_capacity(),
        scratch_cap,
        "global-tick scratch buffer must not reallocate"
    );
    assert_eq!(
        mem.obs_trace_capacity(),
        obs_cap,
        "trace ring buffer must stay bounded (and absent when tracing is off)"
    );
    assert_eq!(stats.instructions, instructions);
    if let Some(report) = mem.profile_report() {
        eprintln!("profile: {}", report.to_json().render());
    }
    let ns = elapsed.as_nanos() as f64;
    Timing {
        ns_per_instr: ns / stats.instructions as f64,
        sim_cycles_per_sec: stats.cycles as f64 * 1e9 / ns,
        cycles: stats.cycles,
    }
}

fn main() {
    let mut instructions: u64 = 2_000_000;
    let mut emit_json = false;
    let mut memory = MemBackendConfig::Fixed;
    let mut driver = Driver::Chase;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (a.as_str(), None),
        };
        match flag {
            "--quick" => instructions = 100_000,
            "--instructions" => {
                instructions = inline
                    .map(str::to_owned)
                    .or_else(|| args.next())
                    .and_then(|v| v.parse().ok())
                    .expect("--instructions takes an unsigned integer");
            }
            "--json" => emit_json = true,
            "--dram" => {
                // The shared memory-backend flag: every config below
                // runs on the chosen backend.
                let v = inline
                    .map(str::to_owned)
                    .or_else(|| args.next())
                    .expect("--dram takes fixed|banked[:preset]");
                match tk_sim::parse_backend_arg(&v) {
                    Ok(backend) => memory = backend,
                    Err(e) => panic!("{e}"),
                }
            }
            "--workload" => {
                let v = inline.map(str::to_owned).or_else(|| args.next());
                driver = match v.as_deref() {
                    Some("chase") => Driver::Chase,
                    Some("mcf") => Driver::Mcf,
                    other => panic!("--workload takes chase|mcf, got {other:?}"),
                };
            }
            other => {
                // The shared observability flags (--trace/--trace-sample/
                // --profile/--obs-out) parse identically here and in the
                // figure binaries.
                let mut next = || args.next();
                match tk_sim::obs::apply_cli_flag(other, inline, &mut next) {
                    Ok(true) => {}
                    Ok(false) => panic!("unknown argument {other:?}"),
                    Err(e) => panic!("{e}"),
                }
            }
        }
    }

    let cases: [(&str, SystemConfig); 5] = [
        ("base", SystemConfig::base()),
        (
            "victim_deadtime",
            SystemConfig::with_victim(VictimMode::paper_dead_time()),
        ),
        (
            "tk_prefetch",
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        ),
        (
            "dbcp_prefetch",
            SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        ),
        ("decay", SystemConfig::with_decay(8_192)),
    ];

    println!(
        "core-loop throughput ({}, {instructions} instructions per config)",
        driver.describe()
    );
    println!(
        "{:<16} {:>12} {:>14} {:>12} {:>14} {:>9}",
        "config", "hop ns/inst", "hop Mcyc/s", "step ns/inst", "step Mcyc/s", "speedup"
    );
    let mut rows = Vec::new();
    for (name, cfg) in cases {
        let cfg = cfg
            .to_builder()
            .memory(memory)
            .build()
            .expect("core_bench configs are valid");
        let hop = run_one(driver, cfg, instructions);
        let mut step_cfg = cfg;
        step_cfg.step_every_cycle = true;
        let step = run_one(driver, step_cfg, instructions);
        assert_eq!(
            hop.cycles, step.cycles,
            "{name}: hopping must be cycle-identical to stepping"
        );
        let speedup = step.ns_per_instr / hop.ns_per_instr;
        println!(
            "{name:<16} {:>12.1} {:>14.2} {:>12.1} {:>14.2} {:>8.2}x",
            hop.ns_per_instr,
            hop.sim_cycles_per_sec / 1e6,
            step.ns_per_instr,
            step.sim_cycles_per_sec / 1e6,
            speedup,
        );
        rows.push((name, hop, step, speedup));
    }

    if emit_json {
        // Hand-rendered so the recorded file keeps the same shape as
        // BENCH_pipeline.json (floats, grouped before/after sections).
        type Row = (&'static str, Timing, Timing, f64);
        let field = |f: &dyn Fn(&Row) -> f64| {
            rows.iter()
                .map(|r| format!("    \"{}\": {:.1}", r.0, f(r)))
                .collect::<Vec<_>>()
                .join(",\n")
        };
        println!("--- BENCH_coreskip.json ---");
        println!(
            "{{\n  \"benchmark\": \"end-to-end OooCore::run throughput, hopping vs per-cycle clock\",\n  \
               \"harness\": \"cargo run --release -p tk-bench --bin core_bench -- --instructions {instructions} --json\",\n  \
               \"workload\": \"{} — {instructions} retired instructions per config\",\n  \
               \"unit\": \"ns/retired-instruction\",\n  \
               \"step_every_cycle\": {{\n{}\n  }},\n  \
               \"hopping\": {{\n{}\n  }},\n  \
               \"speedup\": {{\n{}\n  }},\n  \
               \"simulated_mcycles_per_sec_hopping\": {{\n{}\n  }}\n}}",
            driver.describe(),
            field(&|r| r.2.ns_per_instr),
            field(&|r| r.1.ns_per_instr),
            field(&|r| ((r.3 * 100.0).round()) / 100.0),
            field(&|r| r.1.sim_cycles_per_sec / 1e6),
        );
    }
}
