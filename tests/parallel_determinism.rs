//! The contract of the parallel experiment engine: fanning jobs across a
//! worker pool must be invisible in the results. `--jobs 1` and `--jobs N`
//! produce bit-identical `RunResult`s, each distinct job tuple simulates at
//! most once per process, and the JSON snapshot round-trips exactly.

use std::collections::BTreeMap;
use std::sync::Mutex;

use timekeeping::{CorrelationConfig, Snapshot};
use tk_bench::engine::{self, Job};
use tk_bench::runner::{run_bench, run_suite, FigureOpts};
use tk_bench::workload::WorkloadId;
use tk_sim::{
    run_workload, ConfigError, PrefetchMode, RunResult, SampleConfig, SystemConfig, VictimMode,
};
use tk_workloads::SpecBenchmark;

/// The engine's memo, stat counters, and disk-cache directory are global to
/// the process; tests that assert on them must not interleave.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

const INSTS: u64 = 250_000;

fn serial_reference(bench: WorkloadId, cfg: SystemConfig, seed: u64, insts: u64) -> RunResult {
    run_workload(&mut bench.build(seed), cfg, insts)
}

#[test]
fn parallel_results_bit_identical_to_serial() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    engine::reset_stats();

    let cfgs = [
        SystemConfig::base(),
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
    ];
    let jobs: Vec<Job> = cfgs
        .iter()
        .map(|&c| Job::new(SpecBenchmark::Gzip, c, 1, INSTS))
        .collect();

    // Ground truth: the plain serial path, no engine involved.
    let reference: Vec<RunResult> = jobs
        .iter()
        .map(|j| serial_reference(j.bench, j.cfg, j.seed, j.instructions))
        .collect();

    // One worker...
    let serial = engine::run_jobs(&jobs, 1);
    // ...and a pool wider than the batch. The memo would mask a
    // nondeterministic pool, so clear it between runs.
    engine::reset_stats();
    let parallel = engine::run_jobs(&jobs, 8);

    for ((r, s), p) in reference.iter().zip(&serial).zip(&parallel) {
        // Full structural equality first: every counter, histogram bucket,
        // and nested stat block.
        assert_eq!(r, &**s, "jobs=1 diverged from the serial path");
        assert_eq!(r, &**p, "jobs=8 diverged from the serial path");
        // Spell out the headline stats the figures consume, so a failure
        // names the field instead of dumping two structs.
        assert_eq!(r.core.cycles, p.core.cycles);
        assert_eq!(r.core.instructions, p.core.instructions);
        assert_eq!(r.breakdown, p.breakdown);
        assert_eq!(r.hierarchy, p.hierarchy);
        assert_eq!(r.metrics, p.metrics);
    }
}

/// Sampling inherits the engine contract: a sampled job produces the
/// same bits whether it runs on one worker, on a wide pool, or again in
/// a later invocation. Clustering, warmup and reconstruction are all
/// deterministic — worker scheduling must stay invisible through them.
#[test]
fn sampled_results_bit_identical_to_serial() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    engine::reset_stats();

    let cfg = SystemConfig::builder()
        .sample(SampleConfig {
            interval: 25_000,
            k: 3,
        })
        .build()
        .expect("sampled base config");
    let jobs: Vec<Job> = [SpecBenchmark::Gzip, SpecBenchmark::Mcf, SpecBenchmark::Art]
        .iter()
        .map(|&b| Job::new(b, cfg, 1, INSTS))
        .collect();

    // Ground truth: the plain serial path, no engine involved.
    let reference: Vec<RunResult> = jobs
        .iter()
        .map(|j| serial_reference(j.bench, j.cfg, j.seed, j.instructions))
        .collect();

    let serial = engine::run_jobs(&jobs, 1);
    engine::reset_stats();
    let parallel = engine::run_jobs(&jobs, 8);
    engine::reset_stats();
    let repeat = engine::run_jobs(&jobs, 8);

    for (((r, s), p), q) in reference.iter().zip(&serial).zip(&parallel).zip(&repeat) {
        assert!(r.sampled.is_some(), "sampled config must tag its results");
        assert_eq!(r, &**s, "sampled jobs=1 diverged from the serial path");
        assert_eq!(r, &**p, "sampled jobs=8 diverged from the serial path");
        assert_eq!(r, &**q, "sampled repeat invocation diverged");
    }
}

#[test]
fn result_order_follows_submission_order() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    engine::reset_stats();

    let jobs: Vec<Job> = SpecBenchmark::ALL
        .iter()
        .map(|&b| Job::new(b, SystemConfig::base(), 1, 60_000))
        .collect();
    let results = engine::run_jobs(&jobs, 6);
    assert_eq!(results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(&results) {
        let expected = serial_reference(job.bench, job.cfg, job.seed, job.instructions);
        assert_eq!(
            &expected,
            &**result,
            "slot for {} out of order",
            job.bench.name()
        );
    }
}

#[test]
fn memo_simulates_each_distinct_tuple_once() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    engine::reset_stats();

    let base = Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 1, 90_000);
    let vc = Job::new(
        SpecBenchmark::Gzip,
        SystemConfig::with_victim(VictimMode::paper_dead_time()),
        1,
        90_000,
    );
    // Duplicates both within a batch and across calls.
    let batch = [base, vc, base, vc, base];
    let first = engine::run_jobs(&batch, 4);
    let (memo_hits, disk_hits, sims) = engine::memo_stats();
    assert_eq!(sims, 2, "two distinct tuples -> exactly two simulations");
    assert_eq!(memo_hits, 3, "three within-batch duplicates must memo-hit");
    assert_eq!(disk_hits, 0);

    // A later call over the same tuples costs zero additional simulations.
    let again = engine::run_jobs(&[vc, base], 4);
    let (memo_hits, _, sims) = engine::memo_stats();
    assert_eq!(sims, 2, "repeat invocation must not re-simulate");
    assert_eq!(memo_hits, 5);
    assert_eq!(&*again[0], &*first[1]);
    assert_eq!(&*again[1], &*first[0]);

    // The figure-facing wrappers ride the same memo: a second run_suite and
    // a run_bench over a suite member add no simulations.
    engine::reset_stats();
    let mut opts = FigureOpts::quick();
    opts.instructions = 70_000;
    opts.jobs = 4;
    let suite = run_suite(SystemConfig::base(), opts);
    let (_, _, sims_after_suite) = engine::memo_stats();
    assert_eq!(sims_after_suite, SpecBenchmark::ALL.len() as u64);
    let suite2 = run_suite(SystemConfig::base(), opts);
    let one = run_bench(SpecBenchmark::Mcf, SystemConfig::base(), opts);
    let (memo_hits, _, sims) = engine::memo_stats();
    assert_eq!(
        sims,
        SpecBenchmark::ALL.len() as u64,
        "suite re-run must be free"
    );
    assert_eq!(memo_hits, SpecBenchmark::ALL.len() as u64 + 1);
    assert_eq!(suite, suite2);
    let mcf = suite
        .iter()
        .find(|(b, _)| *b == SpecBenchmark::Mcf)
        .map(|(_, r)| r)
        .expect("mcf in suite");
    assert_eq!(&**mcf, &*one);
}

#[test]
fn disk_cache_round_trips_results_across_memo_resets() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let dir = std::env::temp_dir().join(format!("tk-engine-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    engine::reset_stats();
    engine::set_disk_cache(Some(dir.clone()));

    let job = Job::new(SpecBenchmark::Twolf, SystemConfig::base(), 3, 80_000);
    let fresh = engine::run_jobs(&[job], 1);
    let (_, disk_hits, sims) = engine::memo_stats();
    assert_eq!((disk_hits, sims), (0, 1));

    // Dropping the memo (a new process, in effect) must recover the result
    // from disk instead of re-simulating.
    engine::reset_stats();
    let cached = engine::run_jobs(&[job], 1);
    let (_, disk_hits, sims) = engine::memo_stats();
    assert_eq!(sims, 0, "disk cache must satisfy the re-run");
    assert_eq!(disk_hits, 1);
    assert_eq!(&*fresh[0], &*cached[0]);

    engine::set_disk_cache(None);
    engine::reset_stats();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A small mixed batch for the result-cache tests: unsampled and
/// sampled jobs, plus one duplicate.
fn cache_batch() -> Vec<Job> {
    let sampled = SystemConfig::builder()
        .sample(SampleConfig {
            interval: 10_000,
            k: 2,
        })
        .build()
        .expect("sampled base config");
    let tk = SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
    let mut jobs = vec![
        Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 1, 60_000),
        Job::new(SpecBenchmark::Mcf, tk, 1, 60_000),
        Job::new(SpecBenchmark::Swim, SystemConfig::base(), 2, 60_000),
        Job::new(SpecBenchmark::Art, sampled, 1, 60_000),
    ];
    jobs.push(jobs[1]);
    jobs
}

/// Every cache file by name, in bytes.
fn cache_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("cache directory")
        .map(|e| {
            let path = e.expect("cache entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("cache file"))
        })
        .collect()
}

/// Runs `jobs` on `workers` threads against the cache in `dir` from an
/// empty memo; returns the results and `memo_stats()`.
fn run_cached(
    jobs: &[Job],
    workers: usize,
    dir: &std::path::Path,
) -> (Vec<RunResult>, (u64, u64, u64)) {
    engine::reset_stats();
    engine::set_disk_cache(Some(dir.to_path_buf()));
    let results = engine::run_jobs(jobs, workers)
        .iter()
        .map(|r| RunResult::clone(r))
        .collect();
    (results, engine::memo_stats())
}

/// Result-cache loads and stores run on the worker pool, so the pool
/// size must not show in the files written, the counts, or the results.
#[test]
fn disk_cache_is_independent_of_pool_size() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let jobs = cache_batch();
    let distinct = jobs.len() as u64 - 1;
    let root = std::env::temp_dir().join(format!("tk-engine-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let checkpoint_uses = || {
        let s = tk_sim::checkpoint_stats();
        s.mem_hits + s.disk_hits + s.builds
    };

    let mut cold = Vec::new();
    for workers in [1, 4] {
        let dir = root.join(format!("w{workers}"));
        let uses = checkpoint_uses();
        let (results, stats) = run_cached(&jobs, workers, &dir);
        assert_eq!(stats, (1, 0, distinct), "cold batch at {workers} workers");
        assert!(checkpoint_uses() > uses, "the sampled job runs sharded");
        cold.push((results, cache_files(&dir)));
    }
    assert_eq!(
        cold[0].1.len() as u64,
        distinct,
        "one file per distinct job"
    );
    assert_eq!(
        cold[0].1, cold[1].1,
        "cache files differ between pool sizes"
    );
    assert_eq!(cold[0].0, cold[1].0);

    let dir = root.join("w1");
    for workers in [1, 4] {
        let uses = checkpoint_uses();
        let (results, stats) = run_cached(&jobs, workers, &dir);
        assert_eq!(stats, (1, distinct, 0), "warm batch at {workers} workers");
        assert_eq!(
            checkpoint_uses(),
            uses,
            "a cached sampled job planned a checkpoint"
        );
        assert_eq!(results, cold[0].0, "warm results at {workers} workers");
    }
    assert_eq!(
        cache_files(&dir),
        cold[0].1,
        "a warm batch rewrote the cache"
    );

    engine::set_disk_cache(None);
    engine::reset_stats();
    let _ = std::fs::remove_dir_all(&root);
}

/// A damaged entry costs exactly its own job: that one re-simulates and
/// its file is rewritten byte for byte; every other job still loads.
#[test]
fn truncated_cache_entry_resimulates_only_its_job() {
    let _guard = ENGINE_LOCK.lock().unwrap();
    let jobs = cache_batch();
    let distinct = jobs.len() as u64 - 1;
    let dir = std::env::temp_dir().join(format!("tk-engine-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, _) = run_cached(&jobs, 4, &dir);
    let files = cache_files(&dir);

    for victim in [jobs[1], jobs[3]] {
        let key = victim.cache_key();
        let (name, bytes) = files
            .iter()
            .find(|(_, b)| {
                let doc = timekeeping::Json::parse(std::str::from_utf8(b).unwrap()).unwrap();
                doc.get("key").unwrap().as_str().unwrap() == key
            })
            .expect("the job's cache file");
        std::fs::write(dir.join(name), &bytes[..bytes.len() / 2]).unwrap();

        let (results, stats) = run_cached(&jobs, 4, &dir);
        assert_eq!(stats, (1, distinct - 1, 1), "only {key} re-simulates");
        assert_eq!(results, cold);
        assert_eq!(cache_files(&dir), files, "{key} was not rewritten intact");
    }

    engine::set_disk_cache(None);
    engine::reset_stats();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_round_trip_is_exact_on_a_real_run() {
    let r = serial_reference(
        WorkloadId::Spec(SpecBenchmark::Swim),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        1,
        INSTS,
    );
    let json = r.to_json();
    let text = json.render();
    let reparsed = timekeeping::Json::parse(&text).expect("rendered JSON must parse");
    let back = RunResult::from_json(&reparsed).expect("snapshot must deserialize");
    assert_eq!(r, back, "JSON round-trip must be bit-exact");
}

#[test]
fn builder_matches_constructors_and_rejects_bad_combos() {
    assert_eq!(
        SystemConfig::builder().build().unwrap(),
        SystemConfig::base()
    );
    assert_eq!(
        SystemConfig::builder()
            .victim(VictimMode::paper_dead_time())
            .build()
            .unwrap(),
        SystemConfig::with_victim(VictimMode::paper_dead_time())
    );
    assert_eq!(
        SystemConfig::builder()
            .prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))
            .build()
            .unwrap(),
        SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB))
    );
    assert_eq!(
        SystemConfig::builder().oracle_l1().build().unwrap(),
        SystemConfig::ideal()
    );

    assert_eq!(
        SystemConfig::builder().predict_only().build(),
        Err(ConfigError::PredictOnlyWithoutPrefetcher)
    );
    assert_eq!(
        SystemConfig::builder().slack_prefetch().build(),
        Err(ConfigError::SlackWithoutPrefetcher)
    );
    assert_eq!(
        SystemConfig::builder()
            .oracle_l1()
            .victim(VictimMode::Unfiltered)
            .build(),
        Err(ConfigError::OracleWithMechanism)
    );
    assert_eq!(
        SystemConfig::builder()
            .victim(VictimMode::DeadTime { threshold: 0 })
            .build(),
        Err(ConfigError::ZeroVictimThreshold)
    );
    assert_eq!(
        SystemConfig::builder().decay(0).build(),
        Err(ConfigError::ZeroDecayInterval)
    );
}
