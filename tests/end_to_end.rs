//! End-to-end integration tests spanning all crates: workloads drive the
//! simulator, the simulator drives the timekeeping machinery, and the
//! aggregate behavior must be self-consistent.

use timekeeping::{CorrelationConfig, DbcpConfig};
use tk_sim::{
    run_workload, BankedDramConfig, MemBackendConfig, PrefetchMode, SystemConfig, VictimMode,
};
use tk_workloads::SpecBenchmark;

const INSTS: u64 = 400_000;

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut w = SpecBenchmark::Gcc.build(7);
        run_workload(&mut w, SystemConfig::base(), INSTS)
    };
    let a = run();
    let b = run();
    assert_eq!(a.core, b.core);
    assert_eq!(a.hierarchy.l1_accesses, b.hierarchy.l1_accesses);
    assert_eq!(a.hierarchy.l1_hits, b.hierarchy.l1_hits);
    assert_eq!(a.breakdown, b.breakdown);
    assert_eq!(a.metrics.generations(), b.metrics.generations());
}

#[test]
fn seeds_change_the_stream_but_not_the_character() {
    let mut w1 = SpecBenchmark::Swim.build(1);
    let mut w2 = SpecBenchmark::Swim.build(2);
    let a = run_workload(&mut w1, SystemConfig::base(), INSTS);
    let b = run_workload(&mut w2, SystemConfig::base(), INSTS);
    assert_ne!(
        a.hierarchy.l1_hits, b.hierarchy.l1_hits,
        "seeds must differ"
    );
    // Same qualitative behavior: within 3x miss rate of each other.
    let (ma, mb) = (a.hierarchy.l1_miss_rate(), b.hierarchy.l1_miss_rate());
    assert!(ma < 3.0 * mb && mb < 3.0 * ma, "{ma} vs {mb}");
}

#[test]
fn ideal_cache_never_slower_than_base() {
    for b in [
        SpecBenchmark::Twolf,
        SpecBenchmark::Ammp,
        SpecBenchmark::Eon,
    ] {
        let base = run_workload(&mut b.build(1), SystemConfig::base(), INSTS);
        let ideal = run_workload(&mut b.build(1), SystemConfig::ideal(), INSTS);
        assert!(
            ideal.ipc() >= base.ipc() * 0.999,
            "{b}: ideal {} < base {}",
            ideal.ipc(),
            base.ipc()
        );
    }
}

#[test]
fn miss_classification_accounts_for_every_miss() {
    let r = run_workload(
        &mut SpecBenchmark::Parser.build(1),
        SystemConfig::base(),
        INSTS,
    );
    // Every classified miss corresponds to an L1 miss that was not served
    // by the victim cache (none here) and vice versa.
    assert_eq!(r.breakdown.total(), r.hierarchy.l1_misses());
}

#[test]
fn generations_match_eviction_plus_flush_accounting() {
    let r = run_workload(
        &mut SpecBenchmark::Gzip.build(1),
        SystemConfig::base(),
        INSTS,
    );
    // Each generation starts with a miss; generations (closed at eviction
    // or final flush) can never exceed misses.
    assert!(r.metrics.generations() <= r.hierarchy.l1_misses());
    // And with ~1024 frames, at most 1024 generations remain open at the
    // flush, so the two counts are close.
    assert!(r.metrics.generations() + 2048 >= r.hierarchy.l1_misses());
}

#[test]
fn victim_cache_helps_conflict_bound_workload() {
    // Pattern phases are ~64 K accesses; give twolf enough instructions to
    // sample several conflict phases.
    let insts = 2_000_000;
    let base = run_workload(
        &mut SpecBenchmark::Twolf.build(1),
        SystemConfig::base(),
        insts,
    );
    let vc = run_workload(
        &mut SpecBenchmark::Twolf.build(1),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        insts,
    );
    assert!(
        vc.speedup_over(&base) > 0.02,
        "dead-time victim filter must speed up twolf: {:.3} vs {:.3}",
        vc.ipc(),
        base.ipc()
    );
    let stats = vc.victim.expect("configured");
    assert!(stats.hits > 0, "victim cache must hit");
    assert!(
        stats.admitted < stats.offered,
        "the filter must actually filter ({} of {})",
        stats.admitted,
        stats.offered
    );
}

#[test]
fn timekeeping_prefetch_helps_streaming_workload() {
    let insts = 2_000_000; // streams need laps to train
    let base = run_workload(
        &mut SpecBenchmark::Swim.build(1),
        SystemConfig::base(),
        insts,
    );
    let tk = run_workload(
        &mut SpecBenchmark::Swim.build(1),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        insts,
    );
    assert!(
        tk.speedup_over(&base) > 0.05,
        "timekeeping prefetch must speed up swim: {:.3} vs {:.3}",
        tk.ipc(),
        base.ipc()
    );
    assert!(tk.hierarchy.pf_fills > 0);
}

#[test]
fn dbcp_baseline_also_runs_and_prefetches() {
    let insts = 2_000_000;
    let r = run_workload(
        &mut SpecBenchmark::Ammp.build(1),
        SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        insts,
    );
    let d = r.dbcp.expect("dbcp configured");
    assert!(d.predictions > 0, "DBCP must match signatures");
    assert!(r.hierarchy.pf_fills > 0, "DBCP must fill prefetches");
}

#[test]
fn few_stall_benchmarks_run_near_peak_ipc() {
    for b in [
        SpecBenchmark::Eon,
        SpecBenchmark::Galgel,
        SpecBenchmark::Sixtrack,
    ] {
        let r = run_workload(&mut b.build(1), SystemConfig::base(), INSTS);
        assert!(
            r.ipc() > 7.0,
            "{b} must be compute-bound, got {:.2}",
            r.ipc()
        );
    }
}

#[test]
fn memory_bound_benchmarks_are_memory_bound() {
    let r = run_workload(
        &mut SpecBenchmark::Mcf.build(1),
        SystemConfig::base(),
        INSTS,
    );
    assert!(r.ipc() < 1.0, "mcf must crawl, got {:.2}", r.ipc());
    assert!(r.hierarchy.mem_accesses > 0, "mcf must reach main memory");
}

/// Banked DDR2 tells apart two memory personalities that a
/// fixed-latency backend charges alike. swim's dense sweeps walk
/// consecutive blocks of open rows; mcf's pointer chase lands in
/// unrelated rows of the same banks. Row hits still do not make swim's
/// reads cheaper: its sweeps keep many misses in flight and they queue,
/// while mcf's chase issues one dependent miss at a time.
#[test]
fn banked_dram_separates_row_locality_from_row_conflicts() {
    let cfg = SystemConfig::builder()
        .memory(MemBackendConfig::Banked(BankedDramConfig::DDR2))
        .build()
        .expect("banked config is valid");
    let dram = |b: SpecBenchmark| {
        run_workload(&mut b.build(1), cfg, 100_000)
            .dram
            .expect("banked runs report DRAM stats")
    };
    let (swim, mcf) = (dram(SpecBenchmark::Swim), dram(SpecBenchmark::Mcf));
    assert!(
        swim.row_hit_rate() >= 0.5,
        "swim row-hit rate {:.3}",
        swim.row_hit_rate()
    );
    assert!(
        mcf.row_hit_rate() <= 0.05,
        "mcf row-hit rate {:.3}",
        mcf.row_hit_rate()
    );
    assert!(
        swim.avg_read_latency() > mcf.avg_read_latency(),
        "swim {:.1} vs mcf {:.1} cycles per read",
        swim.avg_read_latency(),
        mcf.avg_read_latency()
    );
}

#[test]
fn ignoring_software_prefetch_changes_fp_behavior() {
    let insts = 1_000_000;
    let with = run_workload(
        &mut SpecBenchmark::Swim.build(1),
        SystemConfig::base(),
        insts,
    );
    let mut cfg = SystemConfig::base();
    cfg.ignore_sw_prefetch = true;
    let without = run_workload(&mut SpecBenchmark::Swim.build(1), cfg, insts);
    assert!(with.core.sw_prefetches > 0);
    assert_eq!(without.core.sw_prefetches, 0);
    assert!(
        with.hierarchy.l1_accesses > without.hierarchy.l1_accesses,
        "software prefetches are extra references"
    );
}

#[test]
fn predict_only_mode_issues_no_prefetches() {
    let mut cfg =
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
    cfg.predict_only = true;
    let r = run_workload(&mut SpecBenchmark::Swim.build(1), cfg, INSTS);
    assert_eq!(r.hierarchy.pf_issued, 0);
    assert_eq!(r.hierarchy.pf_fills, 0);
    assert!(
        r.hierarchy.addr_predictions > 0,
        "predictions must still be scored"
    );
}

#[test]
fn markov_and_stride_baselines_prefetch() {
    use timekeeping::{MarkovConfig, StrideConfig};
    let insts = 1_500_000;
    // Markov thrives on the repeatable chase. On a serialized miss chain
    // its prefetches are overtaken by the demand misses they accelerate
    // (demand takes ownership of the in-flight line), so the win shows up
    // as latency overlap, not completed fills.
    let ammp_base = run_workload(
        &mut SpecBenchmark::Ammp.build(1),
        SystemConfig::base(),
        insts,
    );
    let mk = run_workload(
        &mut SpecBenchmark::Ammp.build(1),
        SystemConfig::with_prefetch(PrefetchMode::Markov(MarkovConfig::LARGE_1MB)),
        insts,
    );
    assert!(mk.hierarchy.pf_issued > 0, "Markov must issue prefetches");
    assert!(
        mk.speedup_over(&ammp_base) > 0.05,
        "Markov must overlap ammp's chain: {:.3} vs {:.3}",
        mk.ipc(),
        ammp_base.ipc()
    );
    // Stride thrives on streaming sweeps.
    let base = run_workload(
        &mut SpecBenchmark::Swim.build(1),
        SystemConfig::base(),
        insts,
    );
    let st = run_workload(
        &mut SpecBenchmark::Swim.build(1),
        SystemConfig::with_prefetch(PrefetchMode::Stride(StrideConfig::CLASSIC)),
        insts,
    );
    assert!(st.hierarchy.pf_fills > 0, "stride must fill prefetches");
    assert!(
        st.speedup_over(&base) > 0.0,
        "stride must help a pure stream: {:.3} vs {:.3}",
        st.ipc(),
        base.ipc()
    );
}

#[test]
fn adaptive_filter_matches_static_with_fewer_admissions() {
    let insts = 2_000_000;
    let b = SpecBenchmark::Twolf;
    let static_f = run_workload(
        &mut b.build(1),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        insts,
    );
    let adaptive = run_workload(
        &mut b.build(1),
        SystemConfig::with_victim(VictimMode::AdaptiveDeadTime),
        insts,
    );
    assert!(
        adaptive.ipc() >= static_f.ipc() * 0.97,
        "adaptive filter must keep the static filter's IPC: {:.3} vs {:.3}",
        adaptive.ipc(),
        static_f.ipc()
    );
    let (sa, aa) = (
        static_f.victim.expect("vc").admitted,
        adaptive.victim.expect("vc").admitted,
    );
    assert!(
        aa <= sa,
        "the §4.2 adaptive control must not admit more: {aa} vs {sa}"
    );
}
