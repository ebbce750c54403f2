//! Sampling calibration: full runs vs `--sample` runs, per benchmark.
//!
//! For every workload in the suite this binary times a golden full
//! simulation and a statistically sampled one (same budget, same seed),
//! then reports the wall-clock speedup and the stat error the sampling
//! introduced: L1 miss-rate error in percentage points and relative IPC
//! error in percent, with suite geomeans. The document is also written
//! to `BENCH_sample.json` at the repository root.
//!
//! Usage: `sample_calibrate [instructions] [--quick] [--sample=I,K] ...`
//! (default 4,000,000 instructions). Without an explicit `--sample`, the
//! interval adapts to the budget (`max(1_000, budget/400)` with k = 8)
//! so that `--quick` still exercises real clustering instead of the
//! degenerate full-run path.
//!
//! Exits 1 when the geomean absolute miss-rate error exceeds 2 % — CI
//! runs `sample_calibrate --quick` as a smoke gate on exactly this
//! bound.
//!
//! After the suite table, a **per-figure** calibration runs: every
//! golden figure's engine job set is replayed under a small grid of
//! `interval,k` operating points (coarsest first) and the figure-level
//! error band is reported. Each figure is assigned the coarsest point
//! that stays inside the suite gate, so figures with benign workload
//! mixes can sample far more aggressively than the suite-wide default
//! while sensitive figures fall back to finer points or to full runs.
//! The multi-core figures' jobs at `cores > 1` never sample; they count
//! as full-run fallbacks in their figure's bands.
//!
//! Suite runs bypass the engine memo on purpose: the point is honest
//! wall-clock, not cached results. The per-figure section *uses* the
//! memo: it measures error, not speed, and memoization keeps the grid
//! affordable.

use std::collections::HashMap;
use std::time::Instant;

use timekeeping::snapshot::Json;
use tk_bench::runner::FigureOpts;
use tk_bench::{engine, golden};
use tk_sim::{RunResult, SampleConfig, SystemConfig};
use tk_workloads::SpecBenchmark;

/// The CI gate: geomean absolute miss-rate error, percentage points.
const MISS_RATE_GATE_PP: f64 = 2.0;

fn main() {
    let opts = FigureOpts::from_args().or_default_budget(4_000_000);
    let budget = opts.instructions;
    let sc = opts.sample.unwrap_or(SampleConfig {
        interval: (budget / 400).max(1_000),
        k: 8,
    });

    // The suite section sweeps sampling itself: full and sampled runs
    // each take their own copy of `opts`.
    let full_opts = FigureOpts {
        sample: None,
        ..opts
    };
    let sampled_opts = FigureOpts {
        sample: Some(sc),
        ..opts
    };

    println!(
        "sampling calibration: {budget} instructions, interval={}, k={}",
        sc.interval, sc.k
    );
    println!(
        "{:10} {:>7} {:>7} {:>7} | {:>6} {:>6} {:>6} | {:>8} {:>8} {:>6}",
        "bench", "miss%", "smp%", "err_pp", "ipc", "smp", "err%", "full_ms", "smp_ms", "spd"
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut miss_errs = Vec::new();
    let mut ipc_errs = Vec::new();
    let (mut wall_full, mut wall_sampled) = (0.0_f64, 0.0_f64);

    for b in SpecBenchmark::ALL {
        let (full, t_full) = timed_run(b, full_opts);
        let (sampled, t_samp) = timed_run(b, sampled_opts);

        let mr_f = full.hierarchy.l1_miss_rate() * 100.0;
        let mr_s = sampled.hierarchy.l1_miss_rate() * 100.0;
        let miss_err = (mr_s - mr_f).abs();
        let ipc_err = if full.ipc() == 0.0 {
            0.0
        } else {
            ((sampled.ipc() - full.ipc()) / full.ipc()).abs() * 100.0
        };
        let note = if sampled.sampled.is_none() {
            " (full fallback)"
        } else {
            ""
        };
        println!(
            "{:10} {:7.3} {:7.3} {:7.3} | {:6.3} {:6.3} {:6.2} | {:8.1} {:8.1} {:5.1}x{}",
            b.name(),
            mr_f,
            mr_s,
            miss_err,
            full.ipc(),
            sampled.ipc(),
            ipc_err,
            t_full * 1e3,
            t_samp * 1e3,
            t_full / t_samp.max(1e-9),
            note,
        );

        miss_errs.push(miss_err);
        ipc_errs.push(ipc_err);
        wall_full += t_full;
        wall_sampled += t_samp;
        rows.push(Json::obj([
            ("bench", Json::Str(b.name().to_owned())),
            ("miss_rate_full_pct", fjson(mr_f)),
            ("miss_rate_sampled_pct", fjson(mr_s)),
            ("miss_rate_err_pp", fjson(miss_err)),
            ("ipc_full", fjson(full.ipc())),
            ("ipc_sampled", fjson(sampled.ipc())),
            ("ipc_err_pct", fjson(ipc_err)),
            ("wall_full_ms", fjson(t_full * 1e3)),
            ("wall_sampled_ms", fjson(t_samp * 1e3)),
            (
                "timed_instructions",
                Json::U64(sampled.sampled.map_or(budget, |s| s.timed_instructions)),
            ),
        ]));
    }

    let gm_miss = geomean_err(&miss_errs);
    let gm_ipc = geomean_err(&ipc_errs);
    let max_miss = miss_errs.iter().copied().fold(0.0_f64, f64::max);
    let max_ipc = ipc_errs.iter().copied().fold(0.0_f64, f64::max);
    let speedup = wall_full / wall_sampled.max(1e-9);
    println!(
        "\nsuite: speedup {speedup:.1}x  |  miss-rate err geomean {gm_miss:.3} pp (max {max_miss:.3})  \
         |  IPC err geomean {gm_ipc:.2}% (max {max_ipc:.2}%)"
    );

    let figure_rows = figure_bands(&opts);

    let doc = Json::obj([
        ("instructions", Json::U64(budget)),
        ("seed", Json::U64(opts.seed)),
        ("interval", Json::U64(sc.interval)),
        ("k", Json::U64(u64::from(sc.k))),
        ("speedup", fjson(speedup)),
        ("miss_rate_err_geomean_pp", fjson(gm_miss)),
        ("miss_rate_err_max_pp", fjson(max_miss)),
        ("ipc_err_geomean_pct", fjson(gm_ipc)),
        ("ipc_err_max_pct", fjson(max_ipc)),
        ("workloads", Json::Arr(rows)),
        ("figures", Json::Arr(figure_rows)),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sample.json");
    match std::fs::write(&path, doc.render()) {
        Ok(()) => println!("report written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }

    if gm_miss > MISS_RATE_GATE_PP {
        eprintln!(
            "FAIL: geomean miss-rate error {gm_miss:.3} pp exceeds the {MISS_RATE_GATE_PP} pp gate"
        );
        std::process::exit(1);
    }
    println!("PASS: geomean miss-rate error {gm_miss:.3} pp <= {MISS_RATE_GATE_PP} pp");
}

/// The `interval,k` grid each figure is calibrated over, coarsest
/// (cheapest, largest interval, fewest clusters) first. The finest point
/// is the suite default, so every figure has at least one point no
/// worse than the suite-wide setting.
fn candidate_points(budget: u64) -> Vec<(&'static str, SampleConfig)> {
    vec![
        (
            "coarse",
            SampleConfig {
                interval: (budget / 50).max(5_000),
                k: 4,
            },
        ),
        (
            "medium",
            SampleConfig {
                interval: (budget / 160).max(2_000),
                k: 6,
            },
        ),
        (
            "fine",
            SampleConfig {
                interval: (budget / 400).max(1_000),
                k: 8,
            },
        ),
    ]
}

/// Error band of one figure's job set at one operating point: geomean
/// miss-rate error (pp), geomean relative IPC error (%), and how many
/// jobs fell back to full simulation (configs sampling declines).
#[derive(Clone)]
struct Band {
    gm_miss_pp: f64,
    gm_ipc_pct: f64,
    fallbacks: usize,
}

/// Replays `jobs` full vs sampled-at-`sc` through the engine memo and
/// aggregates the figure-level error band.
fn band_at(jobs: &[engine::Job], sc: SampleConfig, workers: usize) -> Band {
    let full_jobs: Vec<engine::Job> = jobs
        .iter()
        .map(|j| {
            let mut j = *j;
            j.cfg.sample = None;
            j
        })
        .collect();
    let sampled_jobs: Vec<engine::Job> = jobs
        .iter()
        .map(|j| {
            let mut j = *j;
            j.cfg.sample = Some(sc);
            j
        })
        .collect();
    let fulls = engine::run_jobs(&full_jobs, workers);
    let sampleds = engine::run_jobs(&sampled_jobs, workers);

    let mut miss_errs = Vec::new();
    let mut ipc_errs = Vec::new();
    let mut fallbacks = 0;
    for (full, sampled) in fulls.iter().zip(&sampleds) {
        if sampled.sampled.is_none() {
            fallbacks += 1;
            continue;
        }
        let mr_f = full.hierarchy.l1_miss_rate() * 100.0;
        let mr_s = sampled.hierarchy.l1_miss_rate() * 100.0;
        miss_errs.push((mr_s - mr_f).abs());
        if full.ipc() > 0.0 {
            ipc_errs.push(((sampled.ipc() - full.ipc()) / full.ipc()).abs() * 100.0);
        }
    }
    Band {
        gm_miss_pp: geomean_err(&miss_errs),
        gm_ipc_pct: geomean_err(&ipc_errs),
        fallbacks,
    }
}

/// Per-figure calibration: captures each golden figure's engine job set,
/// measures its error band at every candidate operating point, and
/// assigns the coarsest point inside the suite gate. Returns the JSON
/// rows for the report document.
fn figure_bands(opts: &FigureOpts) -> Vec<Json> {
    let candidates = candidate_points(opts.instructions);
    println!(
        "\nper-figure operating points ({} instructions):",
        opts.instructions
    );
    print!("{:14} {:>5}", "figure", "jobs");
    for (label, sc) in &candidates {
        print!(" | {label} i={} k={}", sc.interval, sc.k);
    }
    println!(" | chosen");

    // Figures sharing one job set (the base machine across benchmarks,
    // mostly) have identical bands by construction: evaluate each
    // distinct set once and reuse the result, keyed by the sorted job
    // cache keys.
    let mut evaluated: HashMap<String, (String, Vec<Band>, String)> = HashMap::new();
    let mut rows = Vec::new();
    for (name, generate) in golden::figure_manifest() {
        // Capture the figure's distinct jobs by running it with the
        // engine's job log on (memoized: repeat figures cost nothing).
        engine::record_jobs(true);
        let _ = engine::take_recorded_jobs();
        let _ = generate(*opts);
        let jobs = engine::take_recorded_jobs();
        engine::record_jobs(false);
        if jobs.is_empty() {
            println!("{name:14} {:>5}  (no engine jobs; skipped)", 0);
            continue;
        }

        let mut signature: Vec<String> = jobs.iter().map(engine::Job::cache_key).collect();
        signature.sort();
        let signature = signature.join(";");
        let shared_with = evaluated.get(&signature).map(|(first, ..)| first.clone());
        if shared_with.is_none() {
            let bands: Vec<Band> = candidates
                .iter()
                .map(|&(_, sc)| band_at(&jobs, sc, opts.jobs))
                .collect();
            // Coarsest point inside the suite gate wins; a figure where
            // even the finest point misses the gate must run unsampled.
            let chosen = bands
                .iter()
                .position(|b| b.gm_miss_pp <= MISS_RATE_GATE_PP)
                .map_or("full".to_owned(), |i| {
                    let (label, sc) = &candidates[i];
                    format!("{label} ({},{})", sc.interval, sc.k)
                });
            evaluated.insert(signature.clone(), (name.to_owned(), bands, chosen));
        }
        let (_, bands, chosen) = &evaluated[&signature];

        print!("{name:14} {:>5}", jobs.len());
        for b in bands {
            print!(" | {:6.3}pp {:5.2}%", b.gm_miss_pp, b.gm_ipc_pct);
            if b.fallbacks > 0 {
                print!(" ({} full)", b.fallbacks);
            }
        }
        print!(" | {chosen}");
        match &shared_with {
            Some(first) => println!("  (job set = {first}; bands reused)"),
            None => println!(),
        }

        let band_rows: Vec<Json> = candidates
            .iter()
            .zip(bands)
            .map(|((label, sc), b)| {
                Json::obj([
                    ("point", Json::Str((*label).to_owned())),
                    ("interval", Json::U64(sc.interval)),
                    ("k", Json::U64(u64::from(sc.k))),
                    ("miss_rate_err_geomean_pp", fjson(b.gm_miss_pp)),
                    ("ipc_err_geomean_pct", fjson(b.gm_ipc_pct)),
                    ("fallback_jobs", Json::U64(b.fallbacks as u64)),
                ])
            })
            .collect();
        let mut row = vec![
            ("figure", Json::Str(name.to_owned())),
            ("jobs", Json::U64(jobs.len() as u64)),
            ("bands", Json::Arr(band_rows)),
            ("chosen", Json::Str(chosen.clone())),
        ];
        if let Some(first) = shared_with {
            row.push(("bands_shared_with", Json::Str(first)));
        }
        rows.push(Json::Obj(
            row.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        ));
    }
    rows
}

/// Runs the base machine on `b` outside the memo and times it.
fn timed_run(b: SpecBenchmark, opts: FigureOpts) -> (RunResult, f64) {
    let job = opts.job(b, SystemConfig::base());
    let start = Instant::now();
    let r = job.simulate();
    (r, start.elapsed().as_secs_f64())
}

/// The snapshot `Json` keeps integers exact and has no float variant;
/// report floats render as fixed-precision strings.
fn fjson(x: f64) -> Json {
    Json::Str(format!("{x:.6}"))
}

/// Geomean of nonnegative errors via `exp(mean(ln(1+e))) - 1`, which
/// tolerates exact zeros.
fn geomean_err(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        return 0.0;
    }
    let s: f64 = errs.iter().map(|e| (1.0 + e).ln()).sum();
    (s / errs.len() as f64).exp() - 1.0
}
