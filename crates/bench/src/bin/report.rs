//! Regenerates every figure report into `reports/` in one run — the
//! portable equivalent of `gen_reports.sh` for the table/figure set.
//!
//! Usage: `report [instructions] [output-dir] [--jobs J] [--cache] ...`
//! (defaults: 8,000,000 and `reports/`). The engine memoizes per job
//! tuple, so the many figures sharing the base configuration each cost
//! one simulation per benchmark for the whole invocation.
//!
//! Every report is written with a `<name>.manifest.json` beside it,
//! pinning the simulations, seed, budget, crate versions, wall time and
//! cache-hit provenance that produced it (see `tk_bench::manifest`).

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use tk_bench::{engine, figures, manifest, FigureOpts};

fn main() {
    let (opts, positionals) = FigureOpts::from_args_with_positionals();
    let mut positionals = positionals.into_iter();
    let dir: PathBuf = positionals
        .next()
        .unwrap_or_else(|| "reports".into())
        .into();
    if let Some(extra) = positionals.next() {
        eprintln!("error: unexpected argument `{extra}`");
        std::process::exit(2);
    }
    fs::create_dir_all(&dir).expect("create output directory");

    type Job = Box<dyn Fn(FigureOpts) -> String>;
    let jobs: Vec<(&str, Job)> = vec![
        ("table1", Box::new(|_| figures::table1())),
        ("fig01", Box::new(figures::fig01)),
        ("fig02", Box::new(figures::fig02)),
        ("fig04", Box::new(figures::fig04)),
        ("fig05", Box::new(figures::fig05)),
        ("fig07", Box::new(figures::fig07)),
        ("fig08", Box::new(figures::fig08)),
        ("fig09", Box::new(figures::fig09)),
        ("fig10", Box::new(figures::fig10)),
        ("fig11", Box::new(figures::fig11)),
        ("fig13", Box::new(figures::fig13)),
        ("fig14", Box::new(figures::fig14)),
        ("fig15", Box::new(figures::fig15)),
        ("fig16", Box::new(figures::fig16)),
        ("fig19", Box::new(figures::fig19)),
        ("fig20", Box::new(figures::fig20)),
        ("fig21", Box::new(figures::fig21)),
        ("fig22", Box::new(figures::fig22)),
        ("dram_compare", Box::new(figures::dram_compare)),
    ];

    engine::record_jobs(true);
    tk_sim::record_checkpoints(true);
    for (name, job) in jobs {
        eprintln!(
            "generating {name} ({} instructions/run, {} workers)...",
            opts.instructions, opts.jobs
        );
        let before = manifest::Provenance::now();
        let ckpt_before = manifest::ckpt_snapshot();
        let started = Instant::now();
        let text = job(opts);
        let wall = started.elapsed();
        let path = dir.join(format!("{name}.txt"));
        fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let ran = engine::take_recorded_jobs();
        let delta = manifest::Provenance::since(before);
        let ckpt = manifest::CkptDelta::since(ckpt_before);
        manifest::write_manifest(&dir, name, &opts, wall, &ran, delta, &ckpt)
            .unwrap_or_else(|e| panic!("write manifest for {name}: {e}"));
    }
    engine::record_jobs(false);
    tk_sim::record_checkpoints(false);
    let (memo_hits, disk_hits, sims) = engine::memo_stats();
    eprintln!(
        "done: reports in {} ({sims} simulations run, {memo_hits} memo hits, {disk_hits} disk hits)",
        dir.display()
    );
}
