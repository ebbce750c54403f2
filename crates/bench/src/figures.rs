//! One report generator per table/figure of the paper's evaluation.
//!
//! Each function runs the simulations it needs and renders a plain-text
//! report mirroring the corresponding figure. Binaries under `src/bin/`
//! are thin wrappers; integration tests call these functions at reduced
//! instruction budgets.

use timekeeping::{CorrelationConfig, DbcpConfig, MissKind, Timeliness};
use tk_sim::trace::Workload as _;
use tk_sim::{
    BankedDramConfig, MachineConfig, MemBackendConfig, PrefetchMode, SystemConfig, VictimMode,
};
use tk_workloads::SpecBenchmark;

use crate::engine::{self, Job};
use crate::fmt::{bar, geomean_improvement, histogram_chart, pct, pct_opt, TextTable};
use crate::runner::{
    best_workloads, run_bench, run_suite, suite_metrics, suite_workloads, FigureOpts,
};
use crate::workload::WorkloadId;

/// Fans the cross product `benches × cfgs` across the worker pool,
/// populating the engine's memo so the figure's (deterministic, serial)
/// rendering loop below runs entirely on cache hits.
fn warm(benches: &[WorkloadId], cfgs: &[SystemConfig], opts: FigureOpts) {
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|&b| cfgs.iter().map(move |&c| opts.job(b, c)))
        .collect();
    let _ = engine::run_jobs(&jobs, opts.jobs);
}

/// Table 1: the simulated machine configuration.
pub fn table1() -> String {
    let m = MachineConfig::paper_default();
    let mut t = TextTable::new(vec!["parameter", "value"]);
    t.row(vec![
        "issue width".to_owned(),
        format!("{} instructions/cycle", m.issue_width),
    ]);
    t.row(vec![
        "instruction window".to_owned(),
        format!("{}-entry RUU", m.window_size),
    ]);
    t.row(vec![
        "L1 dcache".to_owned(),
        format!(
            "{} KB, {}-way, {} B blocks",
            m.l1d.size_bytes() / 1024,
            m.l1d.assoc(),
            m.l1d.block_bytes()
        ),
    ]);
    t.row(vec![
        "L2 cache".to_owned(),
        format!(
            "{} MB, {}-way, {} B blocks, {}-cycle latency",
            m.l2.size_bytes() / (1024 * 1024),
            m.l2.assoc(),
            m.l2.block_bytes(),
            m.l2_latency
        ),
    ]);
    t.row(vec![
        "L1/L2 bus".to_owned(),
        format!("{}-cycle occupancy per block", m.l1l2_bus_occupancy),
    ]);
    t.row(vec![
        "L2/memory bus".to_owned(),
        format!("{}-cycle occupancy per block", m.l2mem_bus_occupancy),
    ]);
    // Table 1 reports the Fixed backend's latency alias.
    #[allow(deprecated)]
    let mem_latency = m.mem_latency;
    t.row(vec![
        "memory latency".to_owned(),
        format!("{mem_latency} cycles"),
    ]);
    t.row(vec!["demand MSHRs".to_owned(), m.demand_mshrs.to_string()]);
    t.row(vec![
        "prefetch MSHRs".to_owned(),
        m.prefetch_mshrs.to_string(),
    ]);
    t.row(vec![
        "prefetch queue".to_owned(),
        format!("{} entries", m.prefetch_queue),
    ]);
    t.row(vec![
        "global tick".to_owned(),
        format!("{} cycles", m.tick_period),
    ]);
    t.row(vec![
        "victim cache".to_owned(),
        format!("{} entries", m.victim_entries),
    ]);
    format!(
        "Table 1: simulated processor configuration\n\n{}",
        t.render()
    )
}

/// Figure 1: potential IPC improvement if all L1D conflict and capacity
/// misses were eliminated, per benchmark, sorted ascending.
pub fn fig01(opts: FigureOpts) -> String {
    let suite = suite_workloads();
    warm(&suite, &[SystemConfig::base(), SystemConfig::ideal()], opts);
    let mut rows: Vec<(WorkloadId, f64)> = suite
        .iter()
        .map(|&b| {
            let base = run_bench(b, SystemConfig::base(), opts);
            let ideal = run_bench(b, SystemConfig::ideal(), opts);
            (b, ideal.speedup_over(&base))
        })
        .collect();
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    let max = rows.last().map(|r| r.1).unwrap_or(1.0).max(1e-9);
    let mut t = TextTable::new(vec!["benchmark", "potential", "chart"]);
    for (b, imp) in &rows {
        t.row(vec![b.name(), pct(*imp), bar(imp / max, 40)]);
    }
    format!(
        "Figure 1: potential IPC improvement with all conflict+capacity misses removed\n\
         ({} instructions per run; sorted ascending as in the paper)\n\n{}",
        opts.instructions,
        t.render()
    )
}

/// Figure 2: L1D miss breakdown (conflict / cold / capacity) per
/// benchmark.
pub fn fig02(opts: FigureOpts) -> String {
    let results = run_suite(SystemConfig::base(), opts);
    let mut t = TextTable::new(vec![
        "benchmark",
        "%conflict",
        "%cold",
        "%capacity",
        "misses",
    ]);
    for (b, r) in &results {
        let bd = r.breakdown;
        t.row(vec![
            b.name(),
            pct(bd.fraction(MissKind::Conflict)),
            pct(bd.fraction(MissKind::Cold)),
            pct(bd.fraction(MissKind::Capacity)),
            bd.total().to_string(),
        ]);
    }
    format!(
        "Figure 2: breakdown of L1 data-cache misses\n\n{}",
        t.render()
    )
}

/// Figure 4: distributions of live times and dead times (×100-cycle
/// buckets), SPEC aggregate.
pub fn fig04(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    format!(
        "Figure 4: live-time and dead-time distributions (all generations)\n\n\
         Live time (x100 cycles): {} of live times are <= 100 cycles (paper: 58%)\n{}\n\
         Dead time (x100 cycles): {} of dead times are <= 100 cycles (paper: 31%)\n{}",
        pct(m.live.fraction_below(100)),
        histogram_chart(&m.live, 16, ""),
        pct(m.dead.fraction_below(100)),
        histogram_chart(&m.dead, 16, ""),
    )
}

/// Figure 5: distributions of access intervals (×100) and reload
/// intervals (×1000), SPEC aggregate.
pub fn fig05(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    format!(
        "Figure 5: access-interval and reload-interval distributions\n\n\
         Access interval (x100 cycles): {} below 1000 cycles (paper: 91%)\n{}\n\
         Reload interval (x1000 cycles): {} below 1000 cycles (paper: 24%)\n{}",
        pct(m.access_interval.fraction_below(1000)),
        histogram_chart(&m.access_interval, 16, ""),
        pct(m.reload.fraction_below(1000)),
        histogram_chart(&m.reload, 16, "k"),
    )
}

/// Figure 7: reload-interval distribution split by miss type.
pub fn fig07(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    let conflict = m.reload_for(MissKind::Conflict);
    let capacity = m.reload_for(MissKind::Capacity);
    format!(
        "Figure 7: reload intervals of conflict vs capacity misses\n\n\
         Conflict misses (mean {:.0} cycles; paper: ~8000):\n{}\n\
         Capacity misses (mean {:.0} cycles; paper: 1-2 orders larger):\n{}",
        conflict.mean().unwrap_or(0.0),
        histogram_chart(conflict, 12, ""),
        capacity.mean().unwrap_or(0.0),
        histogram_chart(capacity, 12, ""),
    )
}

/// Figure 8: accuracy and coverage of the reload-interval conflict
/// predictor across thresholds.
pub fn fig08(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    let thresholds: Vec<u64> = (0..10).map(|i| 1000u64 << i).collect();
    let mut t = TextTable::new(vec!["threshold", "accuracy", "coverage"]);
    for p in m.conflict_sweep_reload(&thresholds) {
        t.row(vec![
            format!("{}k", p.threshold / 1000),
            pct_opt(p.accuracy),
            pct_opt(p.coverage),
        ]);
    }
    format!(
        "Figure 8: conflict prediction by reload interval < threshold\n\
         (paper: accuracy ~1.0 out to 16k, coverage rising to ~85%)\n\n{}",
        t.render()
    )
}

/// Figure 9: dead-time distribution split by miss type.
pub fn fig09(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    let conflict = m.dead_for(MissKind::Conflict);
    let capacity = m.dead_for(MissKind::Capacity);
    format!(
        "Figure 9: dead times of conflict vs capacity misses\n\n\
         Conflict misses (mean {:.0} cycles):\n{}\n\
         Capacity misses (mean {:.0} cycles):\n{}",
        conflict.mean().unwrap_or(0.0),
        histogram_chart(conflict, 12, ""),
        capacity.mean().unwrap_or(0.0),
        histogram_chart(capacity, 12, ""),
    )
}

/// Figure 10: accuracy and coverage of the dead-time conflict predictor.
pub fn fig10(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    let thresholds: Vec<u64> = (0..10).map(|i| 100u64 << i).collect();
    let mut t = TextTable::new(vec!["threshold", "accuracy", "coverage"]);
    for p in m.conflict_sweep_dead(&thresholds) {
        t.row(vec![
            p.threshold.to_string(),
            pct_opt(p.accuracy),
            pct_opt(p.coverage),
        ]);
    }
    format!(
        "Figure 10: conflict prediction by dead time < threshold\n\
         (paper: >90% accuracy at 100 cycles with ~40% coverage)\n\n{}",
        t.render()
    )
}

/// Figure 11: zero-live-time conflict predictor, per benchmark.
pub fn fig11(opts: FigureOpts) -> String {
    let results = run_suite(SystemConfig::base(), opts);
    let mut t = TextTable::new(vec!["benchmark", "accuracy", "coverage"]);
    let mut accs = Vec::new();
    let mut covs = Vec::new();
    for (b, r) in &results {
        let s = &r.metrics.zero_live_score;
        if let (Some(a), Some(c)) = (s.accuracy(), s.coverage_of_positives()) {
            accs.push(a.max(1e-3));
            covs.push(c.max(1e-3));
            t.row(vec![b.name(), pct(a), pct(c)]);
        } else {
            t.row(vec![b.name(), "n/a".to_owned(), "n/a".to_owned()]);
        }
    }
    let geo = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
        }
    };
    t.row(vec![
        "[geomean]".to_owned(),
        pct(geo(&accs)),
        pct(geo(&covs)),
    ]);
    format!(
        "Figure 11: conflict prediction by zero live time\n\
         (paper: geometric means ~68% accuracy, ~30% coverage)\n\n{}",
        t.render()
    )
}

/// Figure 13: victim-cache IPC improvement and fill traffic for the three
/// admission policies.
pub fn fig13(opts: FigureOpts) -> String {
    let suite = suite_workloads();
    warm(
        &suite,
        &[
            SystemConfig::base(),
            SystemConfig::with_victim(VictimMode::Unfiltered),
            SystemConfig::with_victim(VictimMode::Collins),
            SystemConfig::with_victim(VictimMode::paper_dead_time()),
        ],
        opts,
    );
    let mut t = TextTable::new(vec![
        "benchmark",
        "unfiltered",
        "collins",
        "timekeeping",
        "fill/kcyc(unf)",
        "fill/kcyc(col)",
        "fill/kcyc(tk)",
    ]);
    let mut imps: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut traffic_sums = [0.0f64; 3];
    let mut traffic_n = 0usize;
    for &b in &suite {
        let base = run_bench(b, SystemConfig::base(), opts);
        let modes = [
            VictimMode::Unfiltered,
            VictimMode::Collins,
            VictimMode::paper_dead_time(),
        ];
        let runs: Vec<_> = modes
            .iter()
            .map(|&m| run_bench(b, SystemConfig::with_victim(m), opts))
            .collect();
        let imp: Vec<f64> = runs.iter().map(|r| r.speedup_over(&base)).collect();
        let traffic: Vec<f64> = runs
            .iter()
            .map(|r| {
                let admitted = r.victim.map(|v| v.admitted).unwrap_or(0);
                admitted as f64 / (r.core.cycles.max(1) as f64 / 1000.0)
            })
            .collect();
        for i in 0..3 {
            imps[i].push(imp[i]);
            traffic_sums[i] += traffic[i];
        }
        traffic_n += 1;
        t.row(vec![
            b.name(),
            pct(imp[0]),
            pct(imp[1]),
            pct(imp[2]),
            format!("{:.2}", traffic[0]),
            format!("{:.2}", traffic[1]),
            format!("{:.2}", traffic[2]),
        ]);
    }
    t.row(vec![
        "[geomean]".to_owned(),
        pct(geomean_improvement(&imps[0])),
        pct(geomean_improvement(&imps[1])),
        pct(geomean_improvement(&imps[2])),
        format!("{:.2}", traffic_sums[0] / traffic_n as f64),
        format!("{:.2}", traffic_sums[1] / traffic_n as f64),
        format!("{:.2}", traffic_sums[2] / traffic_n as f64),
    ]);
    let reduction = 1.0 - traffic_sums[2] / traffic_sums[0].max(1e-12);
    format!(
        "Figure 13: victim-cache filters — IPC improvement over base and fill traffic\n\
         (paper: timekeeping filter cuts fill traffic ~87% at equal or better IPC)\n\n{}\n\
         Timekeeping filter traffic reduction vs unfiltered: {}\n",
        t.render(),
        pct(reduction)
    )
}

/// Figure 14: decay-style dead-block prediction accuracy/coverage.
pub fn fig14(opts: FigureOpts) -> String {
    let (_, m) = suite_metrics(opts);
    let mut t = TextTable::new(vec!["idle threshold", "accuracy", "coverage"]);
    for p in m.decay_sweep.points() {
        t.row(vec![
            format!(">{}", p.threshold),
            pct_opt(p.accuracy),
            pct_opt(p.coverage),
        ]);
    }
    format!(
        "Figure 14: dead-block prediction by idle-time threshold (decay)\n\
         (paper: accuracy needs thresholds >5120 cycles; coverage ~50% there)\n\n{}",
        t.render()
    )
}

/// Figure 15: live-time variability for the eight best performers.
pub fn fig15(opts: FigureOpts) -> String {
    let best = best_workloads();
    warm(&best, &[SystemConfig::base()], opts);
    let mut t = TextTable::new(vec![
        "benchmark",
        "|diff| < 16 cyc",
        "lt < 2x prev",
        "pairs",
    ]);
    for &b in &best {
        let r = run_bench(b, SystemConfig::base(), opts);
        let v = &r.metrics.variability;
        t.row(vec![
            b.name(),
            pct(v.fraction_diff_below(16)),
            pct(v.fraction_within_2x()),
            v.pairs().to_string(),
        ]);
    }
    format!(
        "Figure 15: variability of consecutive live times (best performers)\n\
         (paper: >20% of differences below 16 cycles; ~80% of live times\n\
         less than twice the previous live time)\n\n{}",
        t.render()
    )
}

/// Figure 16: live-time dead-block predictor accuracy/coverage per
/// benchmark.
pub fn fig16(opts: FigureOpts) -> String {
    let results = run_suite(SystemConfig::base(), opts);
    let mut t = TextTable::new(vec!["benchmark", "accuracy", "coverage"]);
    let mut merged = timekeeping::LiveTimeDeadBlockPredictor::paper_default();
    for (b, r) in &results {
        let p = &r.metrics.live_time_predictor;
        t.row(vec![b.name(), pct_opt(p.accuracy()), pct_opt(p.coverage())]);
        merged.merge(p);
    }
    t.row(vec![
        "[all]".to_owned(),
        pct_opt(merged.accuracy()),
        pct_opt(merged.coverage()),
    ]);
    format!(
        "Figure 16: dead-block prediction at 2x previous live time\n\
         (paper: ~75% accuracy, ~70% coverage on average)\n\n{}",
        t.render()
    )
}

/// Figure 19: IPC improvement of timekeeping prefetch (8 KB) vs DBCP
/// (2 MB).
pub fn fig19(opts: FigureOpts) -> String {
    let suite = suite_workloads();
    warm(
        &suite,
        &[
            SystemConfig::base(),
            SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        ],
        opts,
    );
    let mut t = TextTable::new(vec!["benchmark", "dbcp 2MB", "timekeeping 8KB"]);
    let mut tk_imps = Vec::new();
    let mut dbcp_imps = Vec::new();
    for &b in &suite {
        let base = run_bench(b, SystemConfig::base(), opts);
        let dbcp = run_bench(
            b,
            SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
            opts,
        );
        let tk = run_bench(
            b,
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
            opts,
        );
        let di = dbcp.speedup_over(&base);
        let ti = tk.speedup_over(&base);
        dbcp_imps.push(di);
        tk_imps.push(ti);
        t.row(vec![b.name(), pct(di), pct(ti)]);
    }
    t.row(vec![
        "[geomean]".to_owned(),
        pct(geomean_improvement(&dbcp_imps)),
        pct(geomean_improvement(&tk_imps)),
    ]);
    format!(
        "Figure 19: prefetch IPC improvement — timekeeping (8 KB table) vs DBCP (2 MB)\n\
         (paper: timekeeping ~11% average vs DBCP ~7%; DBCP wins only on mcf and ammp)\n\n{}",
        t.render()
    )
}

/// Figure 20: address-prediction accuracy and coverage of the 8 KB table
/// for the eight best performers (predict-only runs).
pub fn fig20(opts: FigureOpts) -> String {
    let cfg = SystemConfig::builder()
        .prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))
        .predict_only()
        .build()
        .expect("predict-only with a prefetcher is valid");
    let best = best_workloads();
    warm(&best, &[cfg], opts);
    let mut t = TextTable::new(vec!["benchmark", "accuracy", "coverage"]);
    for &b in &best {
        let r = run_bench(b, cfg, opts);
        let acc = r.hierarchy.addr_accuracy();
        let cov = r.correlation.and_then(|c| c.hit_rate());
        t.row(vec![b.name(), pct_opt(acc), pct_opt(cov)]);
    }
    format!(
        "Figure 20: address accuracy and coverage of the 8 KB correlation table\n\
         (coverage = predictor hit rate, as in the paper)\n\n{}",
        t.render()
    )
}

/// Figure 21: timeliness breakdown of prefetches for correct and wrong
/// address predictions.
pub fn fig21(opts: FigureOpts) -> String {
    let mut out =
        String::from("Figure 21: timeliness of timekeeping prefetches (best performers)\n\n");
    let best = best_workloads();
    warm(
        &best,
        &[SystemConfig::with_prefetch(PrefetchMode::Timekeeping(
            CorrelationConfig::PAPER_8KB,
        ))],
        opts,
    );
    for correct in [true, false] {
        let mut t = TextTable::new(vec![
            "benchmark",
            "early",
            "discarded",
            "timely",
            "late",
            "not_started",
        ]);
        for &b in &best {
            let r = run_bench(
                b,
                SystemConfig::with_prefetch(PrefetchMode::Timekeeping(
                    CorrelationConfig::PAPER_8KB,
                )),
                opts,
            );
            let s = &r.timeliness;
            t.row(vec![
                b.name(),
                pct(s.fraction(correct, Timeliness::Early)),
                pct(s.fraction(correct, Timeliness::Discarded)),
                pct(s.fraction(correct, Timeliness::Timely)),
                pct(s.fraction(correct, Timeliness::StartedNotTimely)),
                pct(s.fraction(correct, Timeliness::NotStarted)),
            ]);
        }
        out.push_str(if correct {
            "Correct address predictions:\n"
        } else {
            "Wrong address predictions:\n"
        });
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Figure 22: Venn-style summary of which mechanism helps each benchmark.
pub fn fig22(opts: FigureOpts) -> String {
    let suite = suite_workloads();
    warm(
        &suite,
        &[
            SystemConfig::base(),
            SystemConfig::ideal(),
            SystemConfig::with_victim(VictimMode::paper_dead_time()),
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        ],
        opts,
    );
    let mut few_stalls = Vec::new();
    let mut victim_helped = Vec::new();
    let mut prefetch_helped = Vec::new();
    let mut both = Vec::new();
    let mut neither = Vec::new();
    for &b in &suite {
        let base = run_bench(b, SystemConfig::base(), opts);
        let ideal = run_bench(b, SystemConfig::ideal(), opts);
        let vc = run_bench(
            b,
            SystemConfig::with_victim(VictimMode::paper_dead_time()),
            opts,
        );
        let tk = run_bench(
            b,
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
            opts,
        );
        let potential = ideal.speedup_over(&base);
        let v = vc.speedup_over(&base);
        let p = tk.speedup_over(&base);
        let entry = format!("{} [{}|{}]", b.name(), pct(v), pct(p));
        if potential < 0.02 {
            few_stalls.push(b.name());
        } else if v > 0.02 && p > 0.02 {
            both.push(entry);
        } else if v > 0.02 {
            victim_helped.push(entry);
        } else if p > 0.02 {
            prefetch_helped.push(entry);
        } else {
            neither.push(entry);
        }
    }
    format!(
        "Figure 22: effect of the timekeeping victim filter and prefetcher\n\
         (entries show [victim-filter gain | prefetch gain])\n\n\
         few memory stalls:      {}\n\
         helped by victim cache: {}\n\
         helped by both:         {}\n\
         helped by prefetch:     {}\n\
         helped by neither:      {}\n",
        few_stalls.join(", "),
        victim_helped.join(", "),
        both.join(", "),
        prefetch_helped.join(", "),
        neither.join(", "),
    )
}

/// DRAM-backend comparison (ROADMAP item 4): the paper's two headline
/// mechanisms — the timekeeping victim filter (Figure 13) and the
/// timekeeping prefetcher (Figure 19) — re-measured under variable
/// memory latency from the banked DRAM backends, next to the constant
/// 70-cycle model they were validated against.
pub fn dram_compare(opts: FigureOpts) -> String {
    let backends: [(&str, MemBackendConfig); 3] = [
        ("fixed", MemBackendConfig::Fixed),
        ("ddr2", MemBackendConfig::Banked(BankedDramConfig::DDR2)),
        ("ddr4", MemBackendConfig::Banked(BankedDramConfig::DDR4)),
    ];
    // The figure sweeps the backend itself: each column runs under a
    // copy of `opts` with its own `dram`, whatever `--dram` said.
    let on = |dram: MemBackendConfig| FigureOpts { dram, ..opts };
    let tk_pf = PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB);
    let base_cfg = SystemConfig::base();
    let vc_cfg = SystemConfig::with_victim(VictimMode::paper_dead_time());
    let pf_cfg = SystemConfig::with_prefetch(tk_pf);
    let suite = suite_workloads();
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|&b| {
            backends
                .iter()
                .flat_map(move |&(_, mem)| [base_cfg, vc_cfg, pf_cfg].map(|c| on(mem).job(b, c)))
        })
        .collect();
    let _ = engine::run_jobs(&jobs, opts.jobs);

    let mut t = TextTable::new(vec![
        "benchmark",
        "vc(fixed)",
        "vc(ddr2)",
        "vc(ddr4)",
        "pf(fixed)",
        "pf(ddr2)",
        "pf(ddr4)",
    ]);
    // Geomean accumulators: [victim, prefetch] × backend.
    let mut vc_imps: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut pf_imps: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    // Suite-aggregate DRAM behavior of the *base* runs per banked backend.
    let mut dram_totals = [tk_sim::DramStats::default(); 3];
    for &b in &suite {
        let mut row = vec![b.name()];
        let mut pf_cells = Vec::new();
        for (i, &(_, mem)) in backends.iter().enumerate() {
            let base = run_bench(b, base_cfg, on(mem));
            if let Some(d) = base.dram {
                let tot = &mut dram_totals[i];
                tot.reads += d.reads;
                tot.writes += d.writes;
                tot.row_hits += d.row_hits;
                tot.row_closed += d.row_closed;
                tot.row_conflicts += d.row_conflicts;
                tot.bank_wait_cycles += d.bank_wait_cycles;
                tot.bus_wait_cycles += d.bus_wait_cycles;
                tot.read_latency_cycles += d.read_latency_cycles;
            }
            let vc = run_bench(b, vc_cfg, on(mem));
            let pf = run_bench(b, pf_cfg, on(mem));
            let vi = vc.speedup_over(&base);
            let pi = pf.speedup_over(&base);
            vc_imps[i].push(vi);
            pf_imps[i].push(pi);
            row.push(pct(vi));
            pf_cells.push(pct(pi));
        }
        row.extend(pf_cells);
        t.row(row);
    }
    let mut geo = vec!["[geomean]".to_owned()];
    geo.extend(vc_imps.iter().map(|v| pct(geomean_improvement(v))));
    geo.extend(pf_imps.iter().map(|v| pct(geomean_improvement(v))));
    t.row(geo);

    let mut d = TextTable::new(vec![
        "backend",
        "reads",
        "row-hit",
        "row-closed",
        "row-conflict",
        "avg read lat",
    ]);
    for (i, &(name, _)) in backends.iter().enumerate().skip(1) {
        let s = &dram_totals[i];
        let total = (s.row_hits + s.row_closed + s.row_conflicts).max(1);
        d.row(vec![
            name.to_owned(),
            s.reads.to_string(),
            pct(s.row_hits as f64 / total as f64),
            pct(s.row_closed as f64 / total as f64),
            pct(s.row_conflicts as f64 / total as f64),
            format!("{:.1}", s.avg_read_latency()),
        ]);
    }
    format!(
        "DRAM backends: timekeeping victim filter (vc) and prefetcher (pf) IPC\n\
         improvement over each backend's own base, under constant-latency\n\
         memory vs banked DRAM (row-buffer hits/conflicts, bank and channel\n\
         contention)\n\n{}\n\
         Base-run DRAM behavior (suite aggregate):\n\n{}",
        t.render(),
        d.render()
    )
}

// ---------------------------------------------------------------------------
// Multi-core figures (tk_sim::multicore)
// ---------------------------------------------------------------------------

/// The concurrent mixes of the multi-core figures: a streaming pair, a
/// conflict-heavy pair, and a latency-bound pair. Each mix is rebuilt
/// per run (workload state is consumed by simulation).
fn mp_mixes(seed: u64) -> Vec<tk_workloads::ConcurrentMix> {
    use tk_workloads::ConcurrentMix;
    vec![
        ConcurrentMix::new(vec![
            Box::new(SpecBenchmark::Gzip.build(seed)),
            Box::new(SpecBenchmark::Swim.build(seed)),
        ]),
        ConcurrentMix::new(vec![
            Box::new(SpecBenchmark::Twolf.build(seed)),
            Box::new(SpecBenchmark::Art.build(seed)),
        ]),
        ConcurrentMix::new(vec![
            Box::new(SpecBenchmark::Mcf.build(seed)),
            Box::new(SpecBenchmark::Gzip.build(seed)),
        ]),
    ]
}

/// The core counts every multi-core figure sweeps.
const MP_CORES: [u32; 3] = [1, 2, 4];

/// A multi-core figure's machine; the core count comes from the
/// [`FigureOpts`] copy the figure runs it under.
fn mp_cfg(victim: Option<VictimMode>, tk: bool) -> SystemConfig {
    let mut b = SystemConfig::builder();
    if let Some(v) = victim {
        b = b.victim(v);
    }
    if tk {
        // Predict-only: the only prefetcher form legal at every core
        // count, so the comparison is like-for-like across the sweep.
        b = b
            .prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))
            .predict_only();
    }
    b.build().expect("multi-core figure configs are valid")
}

/// Figure 22-MP: the timekeeping mechanisms on the MESI-coherent
/// multi-core hierarchy — Figure 22's question (which mechanism helps?)
/// re-asked when the victim cache and predictor compete with coherence
/// invalidations for the same generations.
///
/// The budget is per core; IPC is the aggregate over cores. These runs
/// bypass the engine memo (concurrent mixes are not `SpecBenchmark`
/// jobs), so the figure is serial and bit-deterministic.
pub fn fig22_mp(opts: FigureOpts) -> String {
    let mut t = TextTable::new(vec![
        "mix",
        "cores",
        "base IPC",
        "vc gain",
        "miss rate",
        "c2c/tx",
        "inval deaths",
    ]);
    for mix in mp_mixes(opts.seed) {
        for &cores in &MP_CORES {
            let o = FigureOpts { cores, ..opts };
            let base = o.simulate(
                &mut mix.fork().expect("spec mixes fork"),
                mp_cfg(None, false),
            );
            let vc = o.simulate(
                &mut mix.fork().expect("spec mixes fork"),
                mp_cfg(Some(VictimMode::paper_dead_time()), false),
            );
            let coh = base.coherence;
            t.row(vec![
                mix.name().to_owned(),
                cores.to_string(),
                format!("{:.3}", base.ipc()),
                pct(vc.speedup_over(&base)),
                pct(base.hierarchy.l1_miss_rate()),
                coh.map_or("n/a".to_owned(), |c| {
                    format!(
                        "{:.3}",
                        c.c2c_transfers as f64 / c.transactions().max(1) as f64
                    )
                }),
                coh.map_or("n/a".to_owned(), |c| {
                    pct_opt(c.invalidation_death_fraction())
                }),
            ]);
        }
    }
    format!(
        "Figure 22-MP: timekeeping mechanisms under MESI coherence\n\
         (per-core budget {}; victim = dead-time filter; cores=1 is the\n\
         single-core machine, where coherence columns do not apply)\n\n{}",
        opts.instructions,
        t.render()
    )
}

/// MESI compare: victim-filter and timekeeping-predictor quality at 1, 2
/// and 4 cores, with the live/dead-time breakdown split by how each
/// generation died — replacement (the paper's single-core subject) vs
/// coherence/inclusion invalidation (new at `cores > 1`).
pub fn mesi_compare(opts: FigureOpts) -> String {
    let mut quality = TextTable::new(vec![
        "mix",
        "cores",
        "vc admit",
        "vc hit rate",
        "tk addr acc",
        "tk coverage",
    ]);
    let mut deaths = TextTable::new(vec![
        "mix",
        "cores",
        "evict deaths",
        "inval deaths",
        "mean live(ev)",
        "mean dead(ev)",
        "mean live(inv)",
        "mean dead(inv)",
    ]);
    for mix in mp_mixes(opts.seed) {
        for &cores in &MP_CORES {
            let o = FigureOpts { cores, ..opts };
            let vc = o.simulate(
                &mut mix.fork().expect("spec mixes fork"),
                mp_cfg(Some(VictimMode::paper_dead_time()), false),
            );
            let tk = o.simulate(
                &mut mix.fork().expect("spec mixes fork"),
                mp_cfg(None, true),
            );
            quality.row(vec![
                mix.name().to_owned(),
                cores.to_string(),
                vc.victim
                    .and_then(|v| v.admission_rate())
                    .map_or("n/a".to_owned(), pct),
                vc.victim
                    .and_then(|v| v.hit_rate())
                    .map_or("n/a".to_owned(), pct),
                pct_opt(tk.hierarchy.addr_accuracy()),
                tk.correlation
                    .and_then(|c| c.hit_rate())
                    .map_or("n/a".to_owned(), pct),
            ]);
            // The death breakdown comes from the victim-cache run: that
            // is the configuration whose filter the dead times feed.
            let row = match vc.coherence {
                Some(c) => vec![
                    mix.name().to_owned(),
                    cores.to_string(),
                    c.evict_deaths.to_string(),
                    c.inval_deaths.to_string(),
                    format!(
                        "{:.0}",
                        c.evict_live_time as f64 / c.evict_deaths.max(1) as f64
                    ),
                    c.mean_evict_dead_time()
                        .map_or("n/a".to_owned(), |m| format!("{m:.0}")),
                    c.mean_inval_live_time()
                        .map_or("n/a".to_owned(), |m| format!("{m:.0}")),
                    c.mean_inval_dead_time()
                        .map_or("n/a".to_owned(), |m| format!("{m:.0}")),
                ],
                None => vec![
                    mix.name().to_owned(),
                    cores.to_string(),
                    "n/a".to_owned(),
                    "n/a".to_owned(),
                    "n/a".to_owned(),
                    "n/a".to_owned(),
                    "n/a".to_owned(),
                    "n/a".to_owned(),
                ],
            };
            deaths.row(row);
        }
    }
    format!(
        "MESI compare: timekeeping quality across core counts\n\
         (per-core budget {}; victim = dead-time filter, predictor = 8 KB\n\
         correlation table, predict-only)\n\n\
         Victim-filter and predictor quality:\n{}\n\
         Generation deaths — replacement vs invalidation (victim-cache runs;\n\
         invalidation ends a generation from outside, so its dead time is\n\
         the coherence tax the single-core timekeeping model never sees):\n{}",
        opts.instructions,
        quality.render(),
        deaths.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_parameters() {
        let t = table1();
        for key in [
            "issue width",
            "L1 dcache",
            "L2 cache",
            "memory latency",
            "victim cache",
        ] {
            assert!(t.contains(key), "missing {key}");
        }
    }
}
