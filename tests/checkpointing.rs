//! Sweep-level checkpoint plane: bit-identity and fault tolerance.
//!
//! The checkpoint store is a pure amortization layer — profile,
//! clustering and functional warmup computed once per distinct stream
//! and shared across timing configurations. Nothing it does may change
//! a single bit of any result: these tests pin warm / cold / disabled
//! equality across workloads from every regime, composed with the
//! banked-DRAM backend (a timing knob that *shares* checkpoints) and
//! with multi-core configs (which bypass the plane entirely), plus
//! silent recompute when the on-disk tier is corrupted or stale.
//!
//! The checkpoint flags are process-global, so every test serializes on
//! one mutex and restores the flags it found.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use timekeeping::{CorrelationConfig, DbcpConfig};
use tk_bench::engine::{self, Job};
use tk_sim::{
    BankedDramConfig, MemBackendConfig, PrefetchMode, SampleConfig, SystemConfig, VictimMode,
};
use tk_workloads::SpecBenchmark;

/// Serializes tests that toggle the process-global checkpoint flags.
static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    GLOBAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the global checkpoint flags on drop, even if a test panics.
struct RestoreFlags {
    enabled: bool,
    dir: Option<PathBuf>,
}

impl RestoreFlags {
    fn capture() -> Self {
        Self {
            enabled: tk_sim::checkpoints_enabled(),
            dir: tk_sim::checkpoint_dir(),
        }
    }
}

impl Drop for RestoreFlags {
    fn drop(&mut self) {
        tk_sim::set_checkpoints_enabled(self.enabled);
        tk_sim::set_checkpoint_dir(self.dir.take());
    }
}

const BUDGET: u64 = 200_000;
const SAMPLE: SampleConfig = SampleConfig {
    interval: 2_000,
    k: 4,
};

/// Eight workloads spanning the conflict-, capacity- and compute-bound
/// regimes (same spread the sampling soundness tests use).
const BENCHES: [SpecBenchmark; 8] = [
    SpecBenchmark::Gzip,
    SpecBenchmark::Twolf,
    SpecBenchmark::Mcf,
    SpecBenchmark::Swim,
    SpecBenchmark::Mgrid,
    SpecBenchmark::Art,
    SpecBenchmark::Eon,
    SpecBenchmark::Equake,
];

fn sampled_base() -> SystemConfig {
    SystemConfig::builder()
        .sample(SAMPLE)
        .build()
        .expect("base sampled config is valid")
}

fn sampled_banked() -> SystemConfig {
    SystemConfig::builder()
        .memory(MemBackendConfig::Banked(BankedDramConfig::DDR2))
        .sample(SAMPLE)
        .build()
        .expect("banked sampled config is valid")
}

/// Sampled banked DDR4 under `prefetch`: a second backend and each
/// issuing prefetcher are timing knobs too, so these jobs share the
/// base machine's checkpoints.
fn sampled_ddr4(prefetch: PrefetchMode) -> SystemConfig {
    SystemConfig::builder()
        .memory(MemBackendConfig::Banked(BankedDramConfig::DDR4))
        .prefetch(prefetch)
        .sample(SAMPLE)
        .build()
        .expect("banked prefetch sampled config is valid")
}

fn dual_core() -> SystemConfig {
    SystemConfig::builder()
        .cores(2)
        .sample(SAMPLE)
        .build()
        .expect("dual-core config is valid")
}

/// Runs `jobs` on a cold engine memo and returns the plain results.
/// Every job must really run, so pass-to-pass comparisons never compare
/// a memo entry with itself.
fn run_pass(jobs: &[Job]) -> Vec<tk_sim::RunResult> {
    run_pass_on(jobs, 2)
}

/// [`run_pass`] on a pool of `workers` threads.
fn run_pass_on(jobs: &[Job], workers: usize) -> Vec<tk_sim::RunResult> {
    engine::reset_stats();
    let results = engine::run_jobs(jobs, workers);
    let (_, _, sims) = engine::memo_stats();
    assert_eq!(sims, jobs.len() as u64, "a pass must simulate every job");
    results.iter().map(|r| (**r).clone()).collect()
}

/// Warm, cold and disabled runs of one sweep must agree bit-for-bit.
///
/// The sweep composes the base machine, the banked-DDR2 backend and
/// banked DDR4 under DBCP and under timekeeping prefetch — every timing
/// axis of a backend × prefetcher design sweep, all with one functional
/// fingerprint, so each stream's checkpoint is shared across the four —
/// with a dual-core config that the plane must leave untouched
/// (multi-core runs bypass sampling checkpoints).
#[test]
fn warm_cold_and_disabled_runs_are_bit_identical() {
    let _g = lock();
    let _restore = RestoreFlags::capture();
    tk_sim::set_checkpoint_dir(None);

    let jobs: Vec<Job> = [
        sampled_base(),
        sampled_banked(),
        sampled_ddr4(PrefetchMode::Dbcp(DbcpConfig::PAPER_2MB)),
        sampled_ddr4(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
        dual_core(),
    ]
    .iter()
    .flat_map(|cfg| BENCHES.iter().map(|&b| Job::new(b, *cfg, 1, BUDGET)))
    .collect();

    // Per-job sampling: the pre-checkpoint behavior.
    tk_sim::set_checkpoints_enabled(false);
    let disabled = run_pass(&jobs);

    // Cold store: one checkpoint per distinct stream, shared across the
    // four single-core variants; dual-core jobs are gated out.
    tk_sim::set_checkpoints_enabled(true);
    tk_sim::reset_checkpoint_store();
    let cold = run_pass(&jobs);
    let stats = tk_sim::checkpoint_stats();
    assert_eq!(
        stats.builds,
        BENCHES.len() as u64,
        "one checkpoint per distinct stream, shared by every timing variant"
    );

    // Warm store: only the timing shards run.
    let cold_stats = stats;
    let warm = run_pass(&jobs);
    let warm_stats = tk_sim::checkpoint_stats();
    assert_eq!(
        warm_stats.builds, cold_stats.builds,
        "a warm store must not rebuild anything"
    );
    assert!(
        warm_stats.mem_hits > cold_stats.mem_hits,
        "the warm pass must hit the in-process tier"
    );

    for (i, job) in jobs.iter().enumerate() {
        assert_eq!(
            disabled[i],
            cold[i],
            "{} / {}: cold-store result differs from per-job sampling",
            job.bench.name(),
            job.cfg.cache_key()
        );
        assert_eq!(
            cold[i],
            warm[i],
            "{} / {}: warm-store result differs from cold",
            job.bench.name(),
            job.cfg.cache_key()
        );
    }
}

/// A sweep batch is timed one checkpoint shard at a time, over every job
/// of the shard's group, and the worker that delivers a job's last shard
/// assembles and stores it. None of that may show: results, checkpoint
/// builds and result-cache files are the same at every pool size, and
/// the same as with checkpoints disabled.
#[test]
fn sweep_batches_do_not_depend_on_pool_size() {
    let _g = lock();
    let _restore = RestoreFlags::capture();
    tk_sim::set_checkpoint_dir(None);
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("ckpt-pool-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);

    let dead_time_ddr4 = SystemConfig::builder()
        .memory(MemBackendConfig::Banked(BankedDramConfig::DDR4))
        .victim(VictimMode::paper_dead_time())
        .sample(SAMPLE)
        .build()
        .expect("banked victim sampled config is valid");
    let configs = [
        (sampled_base(), false),
        (sampled_banked(), false),
        (
            sampled_ddr4(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB)),
            true,
        ),
        (dead_time_ddr4, false),
    ];
    let benches = [SpecBenchmark::Gzip, SpecBenchmark::Mcf, SpecBenchmark::Swim];
    let jobs: Vec<Job> = configs
        .iter()
        .flat_map(|&(cfg, check)| {
            benches.iter().map(move |&b| Job {
                check,
                ..Job::new(b, cfg, 1, BUDGET)
            })
        })
        .collect();

    tk_sim::set_checkpoints_enabled(false);
    let disabled = run_pass_on(&jobs, 1);
    tk_sim::set_checkpoints_enabled(true);

    let mut files = Vec::new();
    for workers in [1, 2, 4] {
        let dir = root.join(format!("w{workers}"));
        engine::set_disk_cache(Some(dir.clone()));
        tk_sim::reset_checkpoint_store();
        let cold = run_pass_on(&jobs, workers);
        assert_eq!(
            tk_sim::checkpoint_stats().builds,
            2 * benches.len() as u64,
            "{workers} workers: one checkpoint per stream with and without a victim buffer"
        );
        engine::set_disk_cache(None);
        let warm = run_pass_on(&jobs, workers);
        assert_eq!(
            tk_sim::checkpoint_stats().builds,
            2 * benches.len() as u64,
            "{workers} workers: a warm pass builds nothing"
        );
        for (i, job) in jobs.iter().enumerate() {
            let what = format!("{} / {}", job.bench.name(), job.cfg.cache_key());
            assert_eq!(cold[i], disabled[i], "{workers} workers, cold: {what}");
            assert_eq!(warm[i], disabled[i], "{workers} workers, warm: {what}");
        }
        files.push(cache_files(&dir));
    }
    assert_eq!(files[0].len(), jobs.len(), "one cache file per job");
    assert_eq!(files[0], files[1], "cache files differ at 1 and 2 workers");
    assert_eq!(files[0], files[2], "cache files differ at 1 and 4 workers");
    let _ = fs::remove_dir_all(&root);
}

/// Every result-cache file under `dir` by name, in bytes.
fn cache_files(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .expect("result-cache dir readable")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), fs::read(&path).expect("cache file"))
        })
        .collect()
}

/// Lists the checkpoint files the disk tier wrote under `dir`.
fn ckpt_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("checkpoint dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ck_") && n.ends_with(".bin"))
        })
        .collect();
    files.sort();
    files
}

/// The disk tier round-trips; corrupted or version-stale files are
/// silently recomputed — identical results, no error surfaced.
#[test]
fn corrupted_or_stale_disk_checkpoints_fall_back_silently() {
    let _g = lock();
    let _restore = RestoreFlags::capture();

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(format!("ckpt-fault-test-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch checkpoint dir");

    tk_sim::set_checkpoints_enabled(true);
    tk_sim::set_checkpoint_dir(Some(dir.clone()));

    let jobs: Vec<Job> = BENCHES[..2]
        .iter()
        .map(|&b| Job::new(b, sampled_base(), 1, BUDGET))
        .collect();

    // Cold build populates the disk tier.
    tk_sim::reset_checkpoint_store();
    let reference = run_pass(&jobs);
    assert_eq!(tk_sim::checkpoint_stats().builds, 2);
    let files = ckpt_files(&dir);
    assert_eq!(files.len(), 2, "one checkpoint file per distinct stream");

    // Fresh process store + intact disk: served from the disk tier.
    tk_sim::reset_checkpoint_store();
    let from_disk = run_pass(&jobs);
    let s = tk_sim::checkpoint_stats();
    assert_eq!(s.disk_hits, 2, "intact files must be loaded, not rebuilt");
    assert_eq!(s.builds, 0);
    assert_eq!(reference, from_disk);

    // Bit-flip the payload of every file: checksum mismatch must mean
    // silent recompute, not an error and not a wrong result.
    for f in &files {
        let mut bytes = fs::read(f).expect("read checkpoint file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(f, &bytes).expect("write corrupted checkpoint");
    }
    tk_sim::reset_checkpoint_store();
    let after_corruption = run_pass(&jobs);
    let s = tk_sim::checkpoint_stats();
    assert_eq!(s.disk_hits, 0, "corrupted files must not be trusted");
    assert_eq!(s.builds, 2, "corrupted files are rebuilt");
    assert_eq!(reference, after_corruption);

    // Stale format version: rewrite the magic of every (now rebuilt)
    // file; same silent recompute.
    for f in &ckpt_files(&dir) {
        let mut bytes = fs::read(f).expect("read checkpoint file");
        bytes[..8].copy_from_slice(b"TKCKPT00");
        fs::write(f, &bytes).expect("write stale checkpoint");
    }
    tk_sim::reset_checkpoint_store();
    let after_stale = run_pass(&jobs);
    let s = tk_sim::checkpoint_stats();
    assert_eq!(s.disk_hits, 0, "stale-version files must not be trusted");
    assert_eq!(s.builds, 2);
    assert_eq!(reference, after_stale);

    // Truncated file (shorter than the header): same story.
    for f in &ckpt_files(&dir) {
        fs::write(f, b"TK").expect("truncate checkpoint");
    }
    tk_sim::reset_checkpoint_store();
    let after_truncation = run_pass(&jobs);
    assert_eq!(tk_sim::checkpoint_stats().disk_hits, 0);
    assert_eq!(reference, after_truncation);

    let _ = fs::remove_dir_all(&dir);
}
