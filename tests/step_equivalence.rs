//! Differential proof that event-driven clock hopping is bit-identical
//! to per-cycle stepping.
//!
//! Every workload runs twice from identical state: once with the default
//! hopping clock (`OooCore::run` jumps over provably dead cycles and
//! `MemorySystem::advance` replays intermediate events at their true
//! timestamps) and once in the `step_every_cycle` reference mode (the
//! original cycle-by-cycle loop). The *entire* [`RunResult`] snapshot —
//! core stats, hierarchy counters, miss breakdown, metric distributions,
//! victim/prefetch/timeliness/correlation/DBCP statistics — must compare
//! bit-equal. Any divergence means a skipped cycle was not actually dead.

use timekeeping::snapshot::Snapshot;
use tk_bench::FigureOpts;
use tk_sim::{
    run_workload, BankedDramConfig, MemBackendConfig, PrefetchMode, SystemConfig, VictimMode,
};
use tk_workloads::patterns::PointerChasePattern;
use tk_workloads::{SpecBenchmark, SyntheticWorkload};

/// Runs `bench` under `cfg` with both clocks and asserts bit-equality.
fn assert_equivalent(bench: SpecBenchmark, cfg: SystemConfig, instructions: u64) {
    assert_workload_equivalent(bench.name(), || bench.build(1), cfg, instructions);
}

/// Runs the workload `build` makes under `cfg` with both clocks and
/// asserts bit-equality.
fn assert_workload_equivalent(
    name: &str,
    build: impl Fn() -> SyntheticWorkload,
    cfg: SystemConfig,
    instructions: u64,
) {
    assert!(
        !cfg.step_every_cycle,
        "pass the hopping config; the reference is derived here"
    );
    let mut step_cfg = cfg;
    step_cfg.step_every_cycle = true;

    let hop = run_workload(&mut build(), cfg, instructions);
    let step = run_workload(&mut build(), step_cfg, instructions);

    // The load-bearing snapshots first, for readable failures...
    assert_eq!(
        hop.core,
        step.core,
        "CoreStats diverged on {name} under {}",
        cfg.cache_key()
    );
    assert_eq!(
        hop.hierarchy,
        step.hierarchy,
        "HierarchyStats diverged on {name} under {}",
        cfg.cache_key()
    );
    // ...then the full result (breakdown, metrics, victim, timeliness,
    // correlation, DBCP, queue discards): everything observable must match.
    assert_eq!(
        hop.to_json(),
        step.to_json(),
        "RunResult snapshot diverged on {name} under {}",
        cfg.cache_key()
    );
}

/// All 26 workloads under the base machine: window-full stalls and MSHR /
/// bus contention are the dominant hop sources here.
#[test]
fn all_workloads_base_config() {
    for &b in &SpecBenchmark::ALL {
        assert_equivalent(b, SystemConfig::base(), FigureOpts::QUICK_INSTRUCTIONS);
    }
}

/// Prefetcher configurations: global ticks, queued/issued prefetch
/// arrivals, and issue-gate openings are all events the hopping clock
/// must replay at exact timestamps.
#[test]
fn prefetch_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    let tk = PrefetchMode::Timekeeping(timekeeping::CorrelationConfig::PAPER_8KB);
    let modes = [
        SystemConfig::with_prefetch(tk),
        SystemConfig::builder()
            .prefetch(tk)
            .slack_prefetch()
            .build()
            .expect("slack config is valid"),
        SystemConfig::with_prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB)),
        SystemConfig::with_prefetch(PrefetchMode::Stride(timekeeping::StrideConfig::default())),
    ];
    for cfg in modes {
        for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim, SpecBenchmark::Gcc] {
            assert_equivalent(b, cfg, budget);
        }
    }
}

/// Victim-cache and decay configurations: lazily evaluated mechanisms
/// (admission filters, decay switch-off) must be insensitive to which
/// cycles the clock actually visits.
#[test]
fn victim_and_decay_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    for cfg in [
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        SystemConfig::with_victim(VictimMode::Collins),
        SystemConfig::with_decay(8_192),
    ] {
        for b in [SpecBenchmark::Mcf, SpecBenchmark::Gzip, SpecBenchmark::Art] {
            assert_equivalent(b, cfg, budget);
        }
    }
}

/// All 26 workloads under the banked DDR2 backend: DRAM completions now
/// depend on row-buffer state and bank/channel busy times. The backend
/// is not a wake-up source (its state changes only when a request
/// reaches it), so the hopping clock must still present it the
/// identical (request, timestamp) sequence under both clocks.
#[test]
fn all_workloads_banked_ddr2() {
    let cfg = SystemConfig::builder()
        .memory(MemBackendConfig::Banked(BankedDramConfig::DDR2))
        .build()
        .expect("banked config is valid");
    for &b in &SpecBenchmark::ALL {
        assert_equivalent(b, cfg, FigureOpts::QUICK_INSTRUCTIONS);
    }
}

/// Banked DDR4 combined with the paper's mechanisms: prefetch arrivals
/// and victim swaps layered on top of variable DRAM completions is the
/// densest event interleaving the clock faces.
#[test]
fn banked_ddr4_with_mechanisms() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    let mem = MemBackendConfig::Banked(BankedDramConfig::DDR4);
    let configs = [
        SystemConfig::builder()
            .memory(mem)
            .prefetch(PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ))
            .build()
            .expect("banked prefetch config is valid"),
        SystemConfig::builder()
            .memory(mem)
            .victim(VictimMode::paper_dead_time())
            .build()
            .expect("banked victim config is valid"),
    ];
    for cfg in configs {
        for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim, SpecBenchmark::Gcc] {
            assert_equivalent(b, cfg, budget);
        }
    }
}

/// Banked DDR2 and DDR4 under the mechanisms whose prefetch-issue gates
/// or lazily evaluated state meet variable DRAM completions: slack
/// timekeeping prefetch (urgency and bus-idle gates), DBCP, and decay.
/// No gate may depend on a bank or bus release the hopping clock does
/// not visit.
#[test]
fn banked_dram_with_gated_mechanisms() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    let tk = PrefetchMode::Timekeeping(timekeeping::CorrelationConfig::PAPER_8KB);
    for dram in [BankedDramConfig::DDR2, BankedDramConfig::DDR4] {
        let mem = MemBackendConfig::Banked(dram);
        let configs = [
            SystemConfig::builder()
                .memory(mem)
                .prefetch(tk)
                .slack_prefetch()
                .build()
                .expect("banked slack config is valid"),
            SystemConfig::builder()
                .memory(mem)
                .prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB))
                .build()
                .expect("banked DBCP config is valid"),
            SystemConfig::builder()
                .memory(mem)
                .decay(8_192)
                .build()
                .expect("banked decay config is valid"),
        ];
        for cfg in configs {
            for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim, SpecBenchmark::Gcc] {
                assert_equivalent(b, cfg, budget);
            }
        }
    }
}

/// A pure pointer chase over 32 MB (512 Ki nodes x 64 B) with 10%
/// pointer noise: every access is a chained load that misses to DRAM,
/// the window-full, chain-stalled regime where the hopping clock skips
/// the most cycles and no history predictor can hide the misses. Runs
/// the base machine and the four mechanisms on fixed and banked DDR4
/// memory.
#[test]
fn miss_chase_under_every_mechanism() {
    let chase = || {
        SyntheticWorkload::builder("miss_chase", 1)
            .compute_per_mem(1, 0)
            .pattern(
                1,
                Box::new(
                    PointerChasePattern::new(0x4000_0000, 512 * 1024, 64, 0x400, 1, 1)
                        .with_noise_pct(10),
                ),
            )
            .build()
    };
    let mechanisms = [
        SystemConfig::base(),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(
            timekeeping::CorrelationConfig::PAPER_8KB,
        )),
        SystemConfig::with_prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB)),
        SystemConfig::with_decay(8_192),
    ];
    for memory in [
        MemBackendConfig::Fixed,
        MemBackendConfig::Banked(BankedDramConfig::DDR4),
    ] {
        for cfg in mechanisms {
            let cfg = cfg
                .to_builder()
                .memory(memory)
                .build()
                .expect("miss-chase config is valid");
            assert_workload_equivalent("miss_chase", chase, cfg, 20_000);
        }
    }
}

/// Builds the multi-core config matrix for one core count: base, victim
/// cache (coherent swap path), predict-only timekeeping (the only
/// prefetcher form legal past one core) and the banked-DDR4 + victim
/// composition, which layers variable DRAM completions under snoop
/// traffic.
fn multicore_cfgs(cores: u32) -> Vec<SystemConfig> {
    vec![
        SystemConfig::builder()
            .cores(cores)
            .build()
            .expect("multi-core base config is valid"),
        SystemConfig::builder()
            .cores(cores)
            .victim(VictimMode::paper_dead_time())
            .build()
            .expect("multi-core victim config is valid"),
        SystemConfig::builder()
            .cores(cores)
            .prefetch(PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ))
            .predict_only()
            .build()
            .expect("multi-core predict-only config is valid"),
        SystemConfig::builder()
            .cores(cores)
            .prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB))
            .predict_only()
            .build()
            .expect("multi-core predict-only DBCP config is valid"),
        SystemConfig::builder()
            .cores(cores)
            .memory(MemBackendConfig::Banked(BankedDramConfig::DDR4))
            .victim(VictimMode::paper_dead_time())
            .build()
            .expect("multi-core banked config is valid"),
    ]
}

/// Multi-core rate mode: every core runs a fork of the same benchmark,
/// so all sharing comes from identical reference streams hitting the
/// shared L2. The hopping clock's wake rule (minimum over unfinished
/// cores of window-front retirement and chain-ready stalls) must visit
/// every cycle a snoop, invalidation or cache-to-cache transfer lands
/// on.
#[test]
fn multicore_rate_mode() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 4;
    for cores in [2, 4] {
        for cfg in multicore_cfgs(cores) {
            for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim] {
                assert_equivalent(b, cfg, budget);
            }
        }
    }
}

/// Multi-core heterogeneous mixes: distinct benchmarks per core produce
/// asymmetric finish times, so late-running cores hop across cycles
/// where finished cores no longer pin the clock. The full `RunResult`
/// (including the coherence block) must still compare bit-equal.
#[test]
fn multicore_heterogeneous_mixes() {
    use tk_workloads::ConcurrentMix;
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 4;
    let mix = |seed: u64| {
        ConcurrentMix::new(vec![
            Box::new(SpecBenchmark::Gzip.build(seed)),
            Box::new(SpecBenchmark::Swim.build(seed)),
            Box::new(SpecBenchmark::Mcf.build(seed)),
            Box::new(SpecBenchmark::Art.build(seed)),
        ])
    };
    for cores in [2, 4] {
        for cfg in multicore_cfgs(cores) {
            let mut step_cfg = cfg;
            step_cfg.step_every_cycle = true;
            let hop = run_workload(&mut mix(1), cfg, budget);
            let step = run_workload(&mut mix(1), step_cfg, budget);
            assert_eq!(
                hop.to_json(),
                step.to_json(),
                "mix RunResult diverged at {cores} cores under {}",
                cfg.cache_key()
            );
        }
    }
}
