//! Four-way prefetcher comparison: the timekeeping prefetcher against the
//! three families of prior work the paper's introduction surveys —
//! dead-block correlating (DBCP, citation \[10\]), Markov address correlation
//! (citations \[2\], \[7\]) and classic PC-stride tables (citations \[15\], \[16\]).
//!
//! Usage: `prefetchers [instructions]` (default 8,000,000).

use timekeeping::{CorrelationConfig, DbcpConfig, MarkovConfig, StrideConfig};
use tk_bench::engine::{run_jobs, Job};
use tk_bench::fmt::{geomean_improvement, pct, TextTable};
use tk_bench::runner::{run_bench, FigureOpts};
use tk_sim::{PrefetchMode, SystemConfig};
use tk_workloads::SpecBenchmark;

fn main() {
    let opts = FigureOpts::from_args();
    let modes: [(&str, PrefetchMode); 4] = [
        (
            "tk 8KB",
            PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB),
        ),
        ("dbcp 2MB", PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        ("markov 1MB", PrefetchMode::Markov(MarkovConfig::LARGE_1MB)),
        ("stride 256e", PrefetchMode::Stride(StrideConfig::CLASSIC)),
    ];
    let mut t = TextTable::new(vec![
        "benchmark",
        "tk 8KB",
        "dbcp 2MB",
        "markov 1MB",
        "stride",
    ]);
    // Fan the whole base + four-mode grid across the worker pool up front;
    // the per-cell run_bench calls below then hit the memo.
    let grid: Vec<Job> = SpecBenchmark::ALL
        .iter()
        .flat_map(|&b| {
            std::iter::once(SystemConfig::base())
                .chain(modes.iter().map(|(_, m)| SystemConfig::with_prefetch(*m)))
                .map(move |c| opts.job(b, c))
        })
        .collect();
    let _ = run_jobs(&grid, opts.jobs);
    let mut sums: Vec<Vec<f64>> = vec![Vec::new(); 4];
    for &b in &SpecBenchmark::ALL {
        let base = run_bench(b, SystemConfig::base(), opts);
        let mut cells = vec![b.name().to_owned()];
        for (i, (_, mode)) in modes.iter().enumerate() {
            let r = run_bench(b, SystemConfig::with_prefetch(*mode), opts);
            let imp = r.speedup_over(&base);
            sums[i].push(imp);
            cells.push(pct(imp));
        }
        t.row(cells);
    }
    t.row(vec![
        "[geomean]".to_owned(),
        pct(geomean_improvement(&sums[0])),
        pct(geomean_improvement(&sums[1])),
        pct(geomean_improvement(&sums[2])),
        pct(geomean_improvement(&sums[3])),
    ]);
    println!(
        "Prefetcher comparison: IPC improvement over the base machine\n\
         (timekeeping's edge comes from *when*: the others predict the same\n\
         addresses but fire without a model of the block's remaining live time)\n\n{}",
        t.render()
    );
}
