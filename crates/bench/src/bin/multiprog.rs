//! Multiprogramming experiment in the spirit of Mendelson, Thiébaut &
//! Pradhan's live/dead-line model (citation \[11\] in the paper): how co-scheduling
//! reshapes generational behavior, and whether the timekeeping victim
//! filter still holds up under context switching.
//!
//! Usage: `multiprog [instructions] [--seed S] [--jobs J] ...` (default
//! 4,000,000); the co-schedules are time-sliced [`WorkloadId::Mix`] jobs.

use tk_bench::engine::run_jobs;
use tk_bench::fmt::{pct, TextTable};
use tk_bench::runner::{run_bench, FigureOpts};
use tk_bench::workload::{Schedule, WorkloadId};
use tk_sim::{SystemConfig, VictimMode};
use tk_workloads::SpecBenchmark::{Art, Eon, Gzip, Twolf};

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(4_000_000);
    let mix = |members, quantum| WorkloadId::Mix {
        members,
        schedule: Schedule::TimeSliced { quantum },
    };

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
    let solo = run_bench(Gzip, SystemConfig::base(), opts);
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
    let quanta = [200_000u64, 50_000, 10_000];
    let jobs = quanta.map(|q| opts.job(mix([Gzip, Art], q), SystemConfig::base()));
    for (quantum, r) in quanta.iter().zip(run_jobs(&jobs, opts.jobs)) {
        t.row(row(&format!("gzip+art, q={quantum}"), &r));
    }
    println!("{}", t.render());
    println!(
        "(Sharing with a cache-flooding partner shortens gzip's generations:\n\
         the partner's sweeps evict gzip's lines wholesale each quantum.)\n"
    );

    // 2. Does the dead-time victim filter survive multiprogramming?
    let mut t = TextTable::new(vec!["schedule", "base IPC", "vc(tk) speedup", "admit rate"]);
    let pairs = [("twolf+eon", [Twolf, Eon]), ("twolf+art", [Twolf, Art])];
    let cfgs = [
        SystemConfig::base(),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
    ];
    let jobs: Vec<_> = pairs
        .iter()
        .flat_map(|&(_, members)| cfgs.map(|cfg| opts.job(mix(members, 50_000), cfg)))
        .collect();
    for (&(name, _), rs) in pairs.iter().zip(run_jobs(&jobs, opts.jobs).chunks(2)) {
        let (base, vc) = (&rs[0], &rs[1]);
        t.row(vec![
            name.to_owned(),
            format!("{:.3}", base.ipc()),
            pct(vc.speedup_over(base)),
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
