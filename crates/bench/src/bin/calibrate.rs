//! Calibration sweep: base vs ideal vs mechanisms for every benchmark.
//!
//! Usage: `calibrate [instructions] [--jobs J] ...` (default 2,000,000).
use timekeeping::{CorrelationConfig, DbcpConfig, MissKind};
use tk_bench::engine::{run_jobs, Job};
use tk_bench::runner::{run_bench, FigureOpts};
use tk_sim::{PrefetchMode, SystemConfig, VictimMode};
use tk_workloads::SpecBenchmark;

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(2_000_000);
    let configs = [
        SystemConfig::base(),
        SystemConfig::ideal(),
        SystemConfig::with_victim(VictimMode::Unfiltered),
        SystemConfig::with_victim(VictimMode::Collins),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        SystemConfig::with_prefetch(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
    ];
    let jobs: Vec<Job> = SpecBenchmark::ALL
        .iter()
        .flat_map(|&b| configs.iter().map(move |&c| opts.job(b, c)))
        .collect();
    let _ = run_jobs(&jobs, opts.jobs);
    println!(
        "{:10} {:>6} {:>6} {:>7} {:>6} {:>6} {:>6} | {:>5} {:>5} {:>5} | miss%  conf% cold% cap%",
        "bench", "base", "ideal", "pot%", "vcU%", "vcC%", "vcD%", "tk%", "dbcp%", ""
    );
    for b in SpecBenchmark::ALL {
        let run = |cfg: SystemConfig| run_bench(b, cfg, opts);
        let base = run(configs[0]);
        let ideal = run(configs[1]);
        let vc_u = run(configs[2]);
        let vc_c = run(configs[3]);
        let vc_d = run(configs[4]);
        let tk = run(configs[5]);
        let dbcp = run(configs[6]);
        let bd = base.breakdown;
        println!("{:10} {:6.3} {:6.3} {:6.1}% {:5.1}% {:5.1}% {:5.1}% | {:4.1}% {:4.1}% | {:5.2}% {:4.0}/{:.0}/{:.0}",
            b.name(), base.ipc(), ideal.ipc(), ideal.speedup_over(&base)*100.0,
            vc_u.speedup_over(&base)*100.0, vc_c.speedup_over(&base)*100.0, vc_d.speedup_over(&base)*100.0,
            tk.speedup_over(&base)*100.0, dbcp.speedup_over(&base)*100.0,
            base.hierarchy.l1_miss_rate()*100.0,
            bd.fraction(MissKind::Conflict)*100.0, bd.fraction(MissKind::Cold)*100.0, bd.fraction(MissKind::Capacity)*100.0);
    }
}
