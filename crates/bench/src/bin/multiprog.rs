//! Multiprogramming experiment in the spirit of Mendelson, Thiébaut &
//! Pradhan's live/dead-line model (citation \[11\] in the paper): how co-scheduling
//! reshapes generational behavior, and whether the timekeeping victim
//! filter still holds up under context switching.
//!
//! Usage: `multiprog [instructions] [--jobs J] ...` (default 4,000,000).

use tk_bench::fmt::{pct, TextTable};
use tk_bench::runner::FigureOpts;
use tk_sim::{SystemConfig, VictimMode};
use tk_workloads::{Multiprogrammed, SpecBenchmark};

fn pair(a: SpecBenchmark, b: SpecBenchmark, quantum: u64) -> Multiprogrammed {
    Multiprogrammed::new(vec![Box::new(a.build(1)), Box::new(b.build(1))], quantum)
}

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(4_000_000);

    println!("Multiprogramming and generational behavior (Mendelson [11])\n");

    // 1. Quantum sweep: shorter quanta end more generations prematurely.
    let mut t = TextTable::new(vec![
        "schedule",
        "IPC",
        "miss rate",
        "mean live",
        "mean dead",
        "zero-live gens",
    ]);
    let solo = opts.simulate(&mut SpecBenchmark::Gzip.build(1), SystemConfig::base());
    let row = |name: &str, r: &tk_sim::RunResult| {
        vec![
            name.to_owned(),
            format!("{:.3}", r.ipc()),
            pct(r.hierarchy.l1_miss_rate()),
            format!("{:.0}", r.metrics.live.mean().unwrap_or(0.0)),
            format!("{:.0}", r.metrics.dead.mean().unwrap_or(0.0)),
            pct(r.metrics.zero_live_generations() as f64 / r.metrics.generations().max(1) as f64),
        ]
    };
    t.row(row("gzip alone", &solo));
    for quantum in [200_000u64, 50_000, 10_000] {
        let mut mp = pair(SpecBenchmark::Gzip, SpecBenchmark::Art, quantum);
        let r = opts.simulate(&mut mp, SystemConfig::base());
        t.row(row(&format!("gzip+art, q={quantum}"), &r));
    }
    println!("{}", t.render());
    println!(
        "(Sharing with a cache-flooding partner shortens gzip's generations:\n\
         the partner's sweeps evict gzip's lines wholesale each quantum.)\n"
    );

    // 2. Does the dead-time victim filter survive multiprogramming?
    let mut t = TextTable::new(vec!["schedule", "base IPC", "vc(tk) speedup", "admit rate"]);
    for (name, a, b) in [
        ("twolf+eon", SpecBenchmark::Twolf, SpecBenchmark::Eon),
        ("twolf+art", SpecBenchmark::Twolf, SpecBenchmark::Art),
    ] {
        let mut base_w = pair(a, b, 50_000);
        let base = opts.simulate(&mut base_w, SystemConfig::base());
        let mut vc_w = pair(a, b, 50_000);
        let vc = opts.simulate(
            &mut vc_w,
            SystemConfig::with_victim(VictimMode::paper_dead_time()),
        );
        t.row(vec![
            name.to_owned(),
            format!("{:.3}", base.ipc()),
            pct(vc.speedup_over(&base)),
            vc.victim
                .and_then(|v| v.admission_rate())
                .map_or("n/a".into(), pct),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(Conflict evictions keep their short-dead-time signature under\n\
         co-scheduling, so the filter still selects the right victims.)"
    );
}
