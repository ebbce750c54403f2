//! Oracle lockstep sweep: the cycle simulator agrees with the
//! timing-free `FunctionalOracle` on every access of every workload.
//!
//! Each run here executes with the lockstep checker installed
//! ([`tk_sim::run_workload_checked`]): any disagreement on hit/miss
//! classification, level serviced, evicted-line identity or generation
//! boundaries panics with a divergence report, so these tests pass only
//! if the two models track each other exactly.

use tk_bench::FigureOpts;
use tk_sim::{run_workload_checked, PrefetchMode, SystemConfig, VictimMode};
use tk_workloads::SpecBenchmark;

fn checked(bench: SpecBenchmark, cfg: SystemConfig, instructions: u64) {
    let mut w = bench.build(1);
    let r = run_workload_checked(&mut w, cfg, instructions);
    assert_eq!(r.core.instructions, instructions, "{}", bench.name());
}

/// All 26 workloads under the base machine at the quick budget.
#[test]
fn all_workloads_base_config() {
    for &b in &SpecBenchmark::ALL {
        checked(b, SystemConfig::base(), FigureOpts::QUICK_INSTRUCTIONS);
    }
}

/// Victim-cache configurations (swap path, filters, admission mirror).
#[test]
fn victim_cache_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    for victim in [
        VictimMode::Unfiltered,
        VictimMode::Collins,
        VictimMode::paper_dead_time(),
        VictimMode::AdaptiveDeadTime,
        VictimMode::ReloadInterval { threshold: 4096 },
    ] {
        for b in [SpecBenchmark::Mcf, SpecBenchmark::Gzip, SpecBenchmark::Art] {
            checked(b, SystemConfig::with_victim(victim), budget);
        }
    }
}

/// Prefetcher configurations (prefetch fills and prefetch L2 touches).
#[test]
fn prefetch_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    let modes = [
        PrefetchMode::Timekeeping(timekeeping::CorrelationConfig::PAPER_8KB),
        PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB),
        PrefetchMode::Stride(timekeeping::StrideConfig::default()),
    ];
    for mode in modes {
        for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim, SpecBenchmark::Gcc] {
            checked(b, SystemConfig::with_prefetch(mode), budget);
        }
    }
}

/// Cache decay (generation close at switch-off, refetch without evict).
#[test]
fn decay_config() {
    for b in [SpecBenchmark::Mcf, SpecBenchmark::Gzip] {
        checked(
            b,
            SystemConfig::with_decay(8_192),
            FigureOpts::QUICK_INSTRUCTIONS / 2,
        );
    }
}

/// The banked DRAM backend changes *when* lines arrive, never *which*
/// lines hit or miss — the oracle is timing-free, so lockstep must hold
/// under it bit-for-bit, mechanisms included.
#[test]
fn banked_dram_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 2;
    for mem in [
        tk_sim::MemBackendConfig::Banked(tk_sim::BankedDramConfig::DDR2),
        tk_sim::MemBackendConfig::Banked(tk_sim::BankedDramConfig::DDR4),
    ] {
        let cfgs = [
            SystemConfig::builder()
                .memory(mem)
                .build()
                .expect("banked config is valid"),
            SystemConfig::builder()
                .memory(mem)
                .victim(VictimMode::paper_dead_time())
                .prefetch(PrefetchMode::Timekeeping(
                    timekeeping::CorrelationConfig::PAPER_8KB,
                ))
                .build()
                .expect("banked mechanism config is valid"),
        ];
        for cfg in cfgs {
            for b in [SpecBenchmark::Mcf, SpecBenchmark::Swim] {
                checked(b, cfg, budget);
            }
        }
    }
}

/// The cold-miss-only study mode has no tag array to mirror: the oracle
/// declines it rather than diverging.
#[test]
fn cold_only_mode_runs_unchecked() {
    let mut w = SpecBenchmark::Gzip.build(1);
    let r = run_workload_checked(&mut w, SystemConfig::ideal(), 50_000);
    assert_eq!(r.core.instructions, 50_000);
}

/// Multi-core configs run under the same lockstep oracle as one core,
/// mirroring every core: it independently derives the service level
/// (L1, victim cache, cache-to-cache, L2, memory), the L1 and L2
/// victims, the generation boundary and the invalidation set of every
/// access. Rate mode (N forks of one benchmark) maximizes sharing; the
/// banked backend changes completion times but never the coherent state
/// the mirror tracks.
#[test]
fn multicore_configs() {
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 4;
    for cores in [2u32, 4] {
        let cfgs = [
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
                .memory(tk_sim::MemBackendConfig::Banked(
                    tk_sim::BankedDramConfig::DDR4,
                ))
                .victim(VictimMode::paper_dead_time())
                .prefetch(PrefetchMode::Timekeeping(
                    timekeeping::CorrelationConfig::PAPER_8KB,
                ))
                .predict_only()
                .build()
                .expect("multi-core banked config is valid"),
            SystemConfig::builder()
                .cores(cores)
                .prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB))
                .predict_only()
                .build()
                .expect("multi-core predict-only DBCP config is valid"),
        ];
        for cfg in cfgs {
            for b in [SpecBenchmark::Mcf, SpecBenchmark::Gzip] {
                // The budget is per core; the result aggregates over cores.
                let r = run_workload_checked(&mut b.build(1), cfg, budget);
                assert_eq!(
                    r.core.instructions,
                    budget * u64::from(cores),
                    "{} at {cores} cores",
                    b.name()
                );
            }
        }
    }
}

/// Heterogeneous concurrent mixes under the checker: distinct per-core
/// streams exercise asymmetric sharing (one core's upgrades invalidate
/// another's read-only copies) that rate mode cannot produce.
#[test]
fn multicore_mix_checked() {
    use tk_sim::run_workload_checked;
    use tk_workloads::ConcurrentMix;
    let budget = FigureOpts::QUICK_INSTRUCTIONS / 4;
    for cores in [2u32, 4] {
        let mut mix = ConcurrentMix::new(vec![
            Box::new(SpecBenchmark::Twolf.build(1)),
            Box::new(SpecBenchmark::Art.build(1)),
        ]);
        let cfg = SystemConfig::builder()
            .cores(cores)
            .victim(VictimMode::paper_dead_time())
            .build()
            .expect("multi-core mix config is valid");
        let r = run_workload_checked(&mut mix, cfg, budget);
        assert_eq!(r.core.instructions, budget * u64::from(cores));
    }
}
