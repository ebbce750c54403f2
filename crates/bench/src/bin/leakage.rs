//! Cache-decay leakage sweep: the application the paper's prior work
//! (Kaxiras, Hu & Martonosi 2001) builds on the same per-line idle
//! counters, cited throughout §1 and §5.1.1.
//!
//! For a range of decay intervals, reports the fraction of frame-cycles
//! the L1 spends switched off (the leakage saving), the decay-induced
//! misses, and the IPC cost — the classic decay trade-off curve.
//!
//! Usage: `leakage [instructions] [--jobs J] ...` (default 4,000,000).

use tk_bench::engine::{run_jobs, Job};
use tk_bench::fmt::{pct, TextTable};
use tk_bench::runner::{run_bench, FigureOpts};
use tk_sim::SystemConfig;
use tk_workloads::SpecBenchmark;

const BENCHES: [SpecBenchmark; 3] = [SpecBenchmark::Gcc, SpecBenchmark::Eon, SpecBenchmark::Ammp];
const INTERVALS: [u64; 5] = [1_024, 4_096, 16_384, 65_536, 262_144];

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(4_000_000);
    let frames = 1024u64;

    // Fan the whole bench x interval grid across the pool; the loop below
    // then reads everything out of the memo.
    let grid: Vec<Job> = BENCHES
        .iter()
        .flat_map(|&b| {
            std::iter::once(SystemConfig::base())
                .chain(INTERVALS.iter().map(|&i| SystemConfig::with_decay(i)))
                .map(move |c| opts.job(b, c))
        })
        .collect();
    let _ = run_jobs(&grid, opts.jobs);

    for bench in BENCHES {
        let base = run_bench(bench, SystemConfig::base(), opts);
        println!(
            "== cache decay on `{bench}` (base IPC {:.3}; Wood dead-fraction estimate {}) ==\n",
            base.ipc(),
            base.metrics
                .dead_fraction()
                .map_or("n/a".to_owned(), tk_bench::fmt::pct)
        );
        let mut t = TextTable::new(vec![
            "decay interval",
            "off fraction",
            "decay misses",
            "IPC cost",
        ]);
        for interval in INTERVALS {
            let r = run_bench(bench, SystemConfig::with_decay(interval), opts);
            let off_fraction =
                r.hierarchy.decay_off_cycles as f64 / (frames * r.core.cycles.max(1)) as f64;
            let ipc_cost = 1.0 - r.ipc() / base.ipc();
            t.row(vec![
                interval.to_string(),
                pct(off_fraction),
                r.hierarchy.decay_misses.to_string(),
                pct(ipc_cost),
            ]);
        }
        println!("{}", t.render());
    }
    println!(
        "Short intervals switch lines off during what §5.1.1 calls their dead\n\
         time — large savings, few extra misses — until the interval undercuts\n\
         live access intervals and decay misses (and IPC cost) spike. As the\n\
         interval shrinks, the off fraction approaches the Wood dead-fraction\n\
         estimate above: the same quantity measured two ways."
    );
}
