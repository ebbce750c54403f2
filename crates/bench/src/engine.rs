//! The parallel experiment engine.
//!
//! Every figure of the paper's evaluation is a pile of *independent*
//! simulations — `(benchmark, configuration, seed, instruction budget)`
//! tuples whose results are pure functions of the tuple. The engine
//! exploits that three ways:
//!
//! * **Fan-out** — [`run_jobs`] spreads a batch of [`Job`]s across a
//!   fixed-size pool of worker threads (`--jobs N`), returning results in
//!   the order the jobs were submitted. Because each simulation is
//!   deterministic and shares nothing, `--jobs 1` and `--jobs N` produce
//!   bit-identical results.
//! * **Memoization** — a process-wide cache keyed by the job tuple. The
//!   `report` binary regenerates a dozen figures, most of which re-run
//!   `SystemConfig::base()` over the whole suite; with the memo each
//!   distinct tuple is simulated at most once per invocation.
//!   [`memo_stats`] exposes the hit/run counters.
//! * **Disk cache** (optional, [`set_disk_cache`]) — completed
//!   [`RunResult`]s are persisted as JSON snapshots (default under
//!   `reports/.cache/`), so re-running a report binary with the same
//!   budgets skips straight to rendering. Each file is one
//!   `{"key":…,"result":…}` envelope, written and read through the
//!   streaming snapshot pair (`timekeeping::snapshot`): a store formats
//!   the stats structs straight into the file's bytes and a load reads
//!   the bytes straight into a `RunResult`, with no JSON tree between.
//!   Loads and stores run on the worker pool: the worker that owns a job
//!   tries its file first and simulates and stores only on a miss.
//!   (Sampled jobs try their files before checkpoint planning, so a hit
//!   never builds a checkpoint; sharded jobs are stored by the worker
//!   that assembles them.) Files carry the full job key and are ignored
//!   (and rewritten) on any mismatch or damage. Delete the directory to
//!   invalidate.
//! * **Checkpoint sharding** — sampled jobs that share a functional
//!   fingerprint (same instruction stream, geometry and sampling
//!   parameters; timing knobs free) reuse one profiled/clustered/warmed
//!   [`SampleCheckpoint`] from `tk_sim`'s two-tier store. The unit of
//!   work is a (checkpoint, shard) pair over all of the group's jobs: it
//!   injects the shard's warm state once and times it under each job's
//!   configuration ([`tk_sim::run_shard_group`]). The worker that
//!   delivers a group's last shard assembles each of its jobs in the
//!   checkpoint's fixed shard order, stores it and frees the shard
//!   results, so the schedule cannot affect the output: a sharded run is
//!   bit-identical to `Job::simulate`.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use timekeeping::snapshot::{JsonReader, JsonWriter, SnapshotError};
use tk_sim::{run_workload, run_workload_checked, RunResult, SampleCheckpoint, SystemConfig};

use crate::workload::WorkloadId;

/// One independent simulation: the result is a pure function of this
/// tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// The workload to run: a synthetic benchmark or a registered
    /// external trace ([`WorkloadId`]).
    pub bench: WorkloadId,
    /// The system configuration.
    pub cfg: SystemConfig,
    /// Workload seed.
    pub seed: u64,
    /// Instruction budget.
    pub instructions: u64,
    /// Run in lockstep with the functional oracle (`--check`). Checking
    /// panics on a divergence and otherwise returns the bit-identical
    /// result, so it is not part of [`cache_key`](Self::cache_key).
    pub check: bool,
}

impl Job {
    /// Creates an unchecked job. Accepts a bare
    /// [`SpecBenchmark`](tk_workloads::SpecBenchmark) or any
    /// [`WorkloadId`].
    pub fn new(
        bench: impl Into<WorkloadId>,
        cfg: SystemConfig,
        seed: u64,
        instructions: u64,
    ) -> Self {
        Job {
            bench: bench.into(),
            cfg,
            seed,
            instructions,
            check: false,
        }
    }

    /// A canonical, process-independent description of the tuple — the
    /// disk-cache key. (The in-process memo hashes the tuple directly;
    /// `std`'s hasher is randomized per process, so filenames use an FNV
    /// hash of this string instead.) Synthetic jobs keep the historical
    /// `bench={name};…` format; trace jobs lead with
    /// `trace={digest:016x}` so entries can never alias across traces
    /// or against a benchmark.
    pub fn cache_key(&self) -> String {
        format!(
            "{};{};seed={};instructions={}",
            self.bench.key_fragment(),
            self.cfg.cache_key(),
            self.seed,
            self.instructions,
        )
    }

    /// The simulation itself (no caching).
    fn simulate(&self) -> RunResult {
        let mut w = self.bench.build(self.seed);
        if self.check {
            run_workload_checked(&mut w, self.cfg, self.instructions)
        } else {
            run_workload(&mut w, self.cfg, self.instructions)
        }
    }
}

/// 64-bit FNV-1a — a stable, dependency-free hash for cache filenames
/// and golden-digest fingerprints.
pub(crate) fn fnv1a64(data: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in data.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Engine {
    memo: Mutex<HashMap<Job, Arc<RunResult>>>,
    disk_dir: Mutex<Option<PathBuf>>,
    memo_hits: AtomicU64,
    disk_hits: AtomicU64,
    sims_run: AtomicU64,
    direct_runs: AtomicU64,
}

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine {
        memo: Mutex::new(HashMap::new()),
        disk_dir: Mutex::new(None),
        memo_hits: AtomicU64::new(0),
        disk_hits: AtomicU64::new(0),
        sims_run: AtomicU64::new(0),
        direct_runs: AtomicU64::new(0),
    })
}

/// Enables (`Some(dir)`) or disables (`None`) the on-disk result cache.
///
/// Results are written as one JSON file per job under `dir`, which is
/// created on first write. Clear the cache by deleting the directory
/// (e.g. `rm -rf reports/.cache`).
pub fn set_disk_cache(dir: Option<PathBuf>) {
    *engine().disk_dir.lock().expect("cache poisoned") = dir;
}

/// The current disk-cache directory, if enabled.
pub fn disk_cache_dir() -> Option<PathBuf> {
    engine().disk_dir.lock().expect("cache poisoned").clone()
}

thread_local! {
    /// The calling thread's job log (see [`record_jobs`]).
    static RECORDED: RefCell<Option<Vec<Job>>> = const { RefCell::new(None) };
}

/// Turns the calling thread's job log on or off. While on, every
/// *distinct* job this thread submits to [`run_jobs`] is appended (in
/// submission order, including memo and disk hits) so a caller can
/// discover exactly which simulations back a figure — the golden-figure
/// harness uses this to build its digests. Jobs submitted by other
/// threads never enter the log.
pub fn record_jobs(enable: bool) {
    RECORDED.with_borrow_mut(|rec| *rec = enable.then(Vec::new));
}

/// Drains the calling thread's job log accumulated since
/// [`record_jobs`]`(true)` (or the previous drain), leaving recording
/// on. Empty when recording is off.
pub fn take_recorded_jobs() -> Vec<Job> {
    RECORDED.with_borrow_mut(|rec| rec.as_mut().map(std::mem::take).unwrap_or_default())
}

/// Engine counters since process start (or the last [`reset_stats`]):
/// `(memo_hits, disk_hits, simulations_run)`.
///
/// Every job submitted to [`run_jobs`] lands in exactly one bucket, so
/// `memo_hits + disk_hits + simulations_run` equals the total number of
/// jobs submitted — and `simulations_run` equals the number of *distinct*
/// job tuples that had to be simulated.
pub fn memo_stats() -> (u64, u64, u64) {
    let e = engine();
    (
        e.memo_hits.load(Ordering::Relaxed),
        e.disk_hits.load(Ordering::Relaxed),
        e.sims_run.load(Ordering::Relaxed),
    )
}

/// Simulations run outside the engine since process start (or the last
/// [`reset_stats`]): the workloads a [`Job`] cannot name, like
/// concurrent mixes, run by [`FigureOpts::simulate`](crate::FigureOpts::simulate).
/// [`memo_stats`] does not count them.
pub fn direct_runs() -> u64 {
    engine().direct_runs.load(Ordering::Relaxed)
}

/// Counts one simulation run outside the engine.
pub(crate) fn count_direct_run() {
    engine().direct_runs.fetch_add(1, Ordering::Relaxed);
}

/// Clears the in-process memo and zeroes the counters (test hook; the
/// disk cache is left untouched).
pub fn reset_stats() {
    let e = engine();
    e.memo.lock().expect("memo poisoned").clear();
    e.memo_hits.store(0, Ordering::Relaxed);
    e.disk_hits.store(0, Ordering::Relaxed);
    e.sims_run.store(0, Ordering::Relaxed);
    e.direct_runs.store(0, Ordering::Relaxed);
}

/// The default worker-pool size: one worker per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn disk_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv1a64(key)))
}

/// Loads a result from the disk cache, verifying the embedded key.
fn disk_load(dir: &Path, key: &str) -> Option<RunResult> {
    let text = std::fs::read_to_string(disk_path(dir, key)).ok()?;
    read_entry(&text, key).ok().flatten()
}

/// Reads a cache file's `{"key":…,"result":…}` envelope straight into
/// a [`RunResult`]; `None` when the file holds another key (an FNV
/// collision or a stale format: re-simulate).
fn read_entry(text: &str, want: &str) -> Result<Option<RunResult>, SnapshotError> {
    let mut r = JsonReader::new(text);
    timekeeping::read_fields!(r, {
        key: String,
        result: RunResult,
    });
    r.finish()?;
    Ok((key == want).then_some(result))
}

/// Persists a result to the disk cache (best-effort: I/O errors only
/// cost future cache hits).
fn disk_store(dir: &Path, key: &str, result: &RunResult) {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("key").str(key);
        w.field("result", result);
    });
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(disk_path(dir, key), w.finish());
    }
}

/// Resolves one unsharded job on the calling worker: a disk-cache hit if
/// the cache holds it, otherwise a simulation whose result is then
/// stored. Bumps the matching engine counter.
fn load_or_simulate(job: &Job, disk_dir: Option<&Path>) -> RunResult {
    let e = engine();
    let entry = disk_dir.map(|dir| (dir, job.cache_key()));
    if let Some(r) = entry.as_ref().and_then(|(dir, key)| disk_load(dir, key)) {
        e.disk_hits.fetch_add(1, Ordering::Relaxed);
        return r;
    }
    let r = job.simulate();
    e.sims_run.fetch_add(1, Ordering::Relaxed);
    if let Some((dir, key)) = &entry {
        disk_store(dir, key, &r);
    }
    r
}

/// Runs a batch of jobs on a pool of `workers` threads, returning the
/// results in submission order.
///
/// Duplicate tuples within the batch — and tuples already resolved
/// earlier in the process — are simulated once and shared. `workers` is
/// clamped to at least 1; `workers == 1` runs the batch serially on the
/// calling thread and produces bit-identical results to any other pool
/// size.
pub fn run_jobs(jobs: &[Job], workers: usize) -> Vec<Arc<RunResult>> {
    let e = engine();
    let disk_dir = e.disk_dir.lock().expect("cache poisoned").clone();
    let disk_dir = disk_dir.as_deref();
    RECORDED.with_borrow_mut(|rec| {
        if let Some(rec) = rec.as_mut() {
            for job in jobs {
                if !rec.contains(job) {
                    rec.push(*job);
                }
            }
        }
    });

    // Answer what the memo already holds; collect the distinct tuples
    // that still need a disk load or a simulation.
    let mut pending: Vec<Job> = Vec::new();
    {
        let memo = e.memo.lock().expect("memo poisoned");
        let mut seen: HashSet<&Job> = HashSet::new();
        for job in jobs {
            if memo.contains_key(job) || !seen.insert(job) {
                // Resolved earlier, or a duplicate within this batch: one
                // load or simulation covers it.
                e.memo_hits.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            pending.push(*job);
        }
    }

    // Sampled jobs may share a checkpoint build, so they try the disk
    // before planning: a cached result must never trigger a build. Every
    // other job tries it on the worker that would simulate it.
    let mut resolved: Vec<(Job, RunResult)> = Vec::new();
    if let Some(dir) = disk_dir.filter(|_| tk_sim::checkpoints_enabled()) {
        pending.retain(|job| {
            if job.cfg.sample.is_none() {
                return true;
            }
            let Some(r) = disk_load(dir, &job.cache_key()) else {
                return true;
            };
            e.disk_hits.fetch_add(1, Ordering::Relaxed);
            resolved.push((*job, r));
            false
        });
    }

    // Plan the batch's checkpoint plane: group sampled jobs by
    // functional fingerprint, materialize each distinct checkpoint once,
    // and split each group into per-shard units over all its jobs.
    let workers = workers.max(1);
    let plan = plan_checkpoints(&pending, workers);
    let units = plan.units(&pending);

    // Fan the work units across the pool. A whole job's slot is written
    // by the worker that resolves it. A shard unit times every job of
    // its group, and the worker that delivers a group's last shard
    // assembles and stores those jobs. Assembly always follows the
    // checkpoint's fixed shard order, so the pool size cannot affect the
    // output.
    let finished: Vec<Mutex<Option<RunResult>>> =
        pending.iter().map(|_| Mutex::new(None)).collect();
    let gathers: Vec<Mutex<Gather>> = plan
        .ckpts
        .iter()
        .map(|c| Mutex::new(Gather::new(c.shard_count())))
        .collect();
    let run_unit = |u: &Unit| match *u {
        Unit::Whole(j) => {
            let r = load_or_simulate(&pending[j], disk_dir);
            *finished[j].lock().expect("slot poisoned") = Some(r);
        }
        Unit::Shard { ckpt, shard } => {
            let ck = &plan.ckpts[ckpt];
            let members = &plan.members[ckpt];
            let cfgs: Vec<(SystemConfig, bool)> = members
                .iter()
                .map(|&j| (pending[j].cfg, pending[j].check))
                .collect();
            let rs = tk_sim::run_shard_group(ck, shard, &cfgs);
            let Some(per_shard) = gathers[ckpt]
                .lock()
                .expect("gather poisoned")
                .deliver(shard, rs)
            else {
                return;
            };
            let mut per_shard: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
            for &j in members {
                let rs: Vec<RunResult> = per_shard
                    .iter_mut()
                    .map(|it| it.next().expect("one result per member"))
                    .collect();
                let r = tk_sim::assemble_shards(ck, &rs);
                e.sims_run.fetch_add(1, Ordering::Relaxed);
                if let Some(dir) = disk_dir {
                    disk_store(dir, &pending[j].cache_key(), &r);
                }
                *finished[j].lock().expect("slot poisoned") = Some(r);
            }
        }
    };
    let pool = workers.min(units.len().max(1));
    if pool <= 1 {
        units.iter().for_each(run_unit);
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(u) = units.get(i) else { break };
                    run_unit(u);
                });
            }
        });
    }
    resolved.extend(pending.iter().zip(finished).map(|(job, slot)| {
        let r = slot
            .into_inner()
            .expect("slot poisoned")
            .expect("every job resolved");
        (*job, r)
    }));

    // Publish the new results, then answer the batch in order.
    let mut memo = e.memo.lock().expect("memo poisoned");
    for (job, r) in resolved {
        memo.insert(job, Arc::new(r));
    }
    jobs.iter()
        .map(|job| Arc::clone(memo.get(job).expect("job resolved")))
        .collect()
}

/// One schedulable piece of a batch: a whole simulation, or one timed
/// shard of a checkpoint, run for every job of its group.
enum Unit {
    Whole(usize),
    Shard { ckpt: usize, shard: usize },
}

/// One checkpoint group's shard results, held until its last shard
/// arrives.
struct Gather {
    /// Per shard: one result per group member, in member order.
    shards: Vec<Option<Vec<RunResult>>>,
    arrived: usize,
}

impl Gather {
    fn new(shards: usize) -> Self {
        Gather {
            shards: (0..shards).map(|_| None).collect(),
            arrived: 0,
        }
    }

    /// Records shard `index`'s results; once every shard has arrived,
    /// hands them all back in shard order.
    fn deliver(&mut self, index: usize, rs: Vec<RunResult>) -> Option<Vec<Vec<RunResult>>> {
        debug_assert!(
            self.shards[index].is_none(),
            "shard {index} delivered twice"
        );
        self.shards[index] = Some(rs);
        self.arrived += 1;
        (self.arrived == self.shards.len()).then(|| {
            std::mem::take(&mut self.shards)
                .into_iter()
                .map(|s| s.expect("every shard arrived"))
                .collect()
        })
    }
}

/// The checkpoint plan for one batch of pending jobs.
struct SweepPlan {
    /// Per pending job: index into `ckpts`, or `None` to simulate whole.
    assignment: Vec<Option<usize>>,
    /// The batch's distinct checkpoints, materialized once each.
    ckpts: Vec<Arc<SampleCheckpoint>>,
    /// Per checkpoint: the pending jobs assigned to it, in batch order.
    members: Vec<Vec<usize>>,
}

impl SweepPlan {
    /// Expands the plan into the batch's work units in batch order: a
    /// whole job in its place, and a checkpoint's shards, in shard
    /// order, in the place of its first job. A group's shards are thus
    /// adjacent in the queue, so its jobs finish (and free their shard
    /// results) soon after they start.
    fn units(&self, pending: &[Job]) -> Vec<Unit> {
        let mut units = Vec::with_capacity(pending.len());
        for j in 0..pending.len() {
            match self.assignment[j] {
                Some(c) if self.members[c][0] == j => {
                    units.extend(
                        (0..self.ckpts[c].shard_count()).map(|s| Unit::Shard { ckpt: c, shard: s }),
                    );
                }
                Some(_) => {}
                None => units.push(Unit::Whole(j)),
            }
        }
        units
    }
}

/// Groups the pending jobs by functional fingerprint and materializes
/// each distinct checkpoint once, fanning the builds across the pool
/// (profiling, clustering and warmup dominate a sampled job's cost, so
/// a sweep of F distinct streams warms F ways wide). Jobs whose
/// fingerprint is `None` — unsampled, multi-core, unsupported L1 mode,
/// degenerate or over-cap budgets — simulate whole, as do jobs whose
/// build overflows the compact stream encoding (`Job::simulate` then
/// takes the identical streaming fallback).
fn plan_checkpoints(pending: &[Job], workers: usize) -> SweepPlan {
    let mut assignment: Vec<Option<usize>> = vec![None; pending.len()];
    if !tk_sim::checkpoints_enabled() || pending.is_empty() {
        // `--no-ckpt`: every job still *builds* its checkpoint
        // transiently inside `run_sampled`, so results are identical —
        // only the sharing and the shard-level parallelism are lost.
        return SweepPlan {
            assignment,
            ckpts: Vec::new(),
            members: Vec::new(),
        };
    }
    // The stream probe forks and hashes the head of the workload, so
    // memoize it per distinct stream, not per job.
    let mut probes: HashMap<(WorkloadId, u64), Option<u64>> = HashMap::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut groups: Vec<(String, usize)> = Vec::new(); // (fingerprint, exemplar job)
    for (i, job) in pending.iter().enumerate() {
        if job.cfg.sample.is_none() {
            continue;
        }
        let probe = *probes
            .entry((job.bench, job.seed))
            .or_insert_with(|| tk_sim::stream_probe(&job.bench.build(job.seed)));
        let Some(probe) = probe else { continue };
        let Some(fp) =
            tk_sim::job_fingerprint(probe, &job.bench.name(), &job.cfg, job.instructions)
        else {
            continue;
        };
        let g = *group_of.entry(fp.clone()).or_insert_with(|| {
            groups.push((fp, i));
            groups.len() - 1
        });
        assignment[i] = Some(g);
    }

    let built: Vec<Mutex<Option<Arc<SampleCheckpoint>>>> =
        groups.iter().map(|_| Mutex::new(None)).collect();
    let build = |g: &(String, usize)| {
        let job = &pending[g.1];
        tk_sim::obtain_keyed(&job.bench.build(job.seed), &job.cfg, job.instructions, &g.0)
    };
    let pool = workers.max(1).min(groups.len().max(1));
    if pool <= 1 {
        for (g, slot) in groups.iter().zip(&built) {
            *slot.lock().expect("slot poisoned") = build(g);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(g) = groups.get(i) else { break };
                    let r = build(g);
                    *built[i].lock().expect("slot poisoned") = r;
                });
            }
        });
    }

    // Compact to the successful builds and remap the assignments.
    let mut ckpts = Vec::new();
    let mut remap: Vec<Option<usize>> = Vec::with_capacity(groups.len());
    for slot in built {
        match slot.into_inner().expect("slot poisoned") {
            Some(c) => {
                remap.push(Some(ckpts.len()));
                ckpts.push(c);
            }
            None => remap.push(None),
        }
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ckpts.len()];
    for (j, a) in assignment.iter_mut().enumerate() {
        *a = a.and_then(|g| remap[g]);
        if let Some(c) = *a {
            members[c].push(j);
        }
    }
    SweepPlan {
        assignment,
        ckpts,
        members,
    }
}

#[cfg(test)]
#[path = "../../../tests/support/cases.rs"]
mod cases;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::FigureOpts;
    use timekeeping::snapshot::{Json, Snapshot};
    use tk_workloads::SpecBenchmark;

    fn quick_job(cfg: SystemConfig) -> Job {
        Job::new(
            SpecBenchmark::Gzip,
            cfg,
            1,
            FigureOpts::quick().instructions,
        )
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn cache_key_distinguishes_tuples() {
        let a = quick_job(SystemConfig::base());
        let mut b = a;
        b.seed = 2;
        let mut c = a;
        c.instructions += 1;
        let d = quick_job(SystemConfig::ideal());
        let keys = [a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()];
        for (i, k) in keys.iter().enumerate() {
            for other in &keys[i + 1..] {
                assert_ne!(k, other);
            }
        }
    }

    #[test]
    fn job_log_records_only_the_arming_thread() {
        let mine = Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 1, 2_000);
        let theirs = Job::new(SpecBenchmark::Mcf, SystemConfig::base(), 1, 2_000);
        let barrier = std::sync::Barrier::new(2);
        let log = std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                record_jobs(true);
                let _ = run_jobs(&[mine], 1);
                barrier.wait();
                // Thread B submits its job here.
                barrier.wait();
                let log = take_recorded_jobs();
                record_jobs(false);
                log
            });
            scope.spawn(|| {
                barrier.wait();
                let _ = run_jobs(&[theirs], 1);
                barrier.wait();
            });
            a.join().expect("thread A")
        });
        assert_eq!(log, vec![mine]);
    }

    /// A damaged cache file never panics the reader. Every truncation is
    /// refused, and a byte flip either fails `parse`, fails `from_json`,
    /// fails the key check, or loads exactly what those three accept.
    #[test]
    fn damaged_cache_files_are_refused_without_panicking() {
        let dir = std::env::temp_dir().join(format!("tk-engine-fuzz-{}", std::process::id()));
        let cfg = SystemConfig::builder()
            .memory(tk_sim::MemBackendConfig::Banked(
                tk_sim::BankedDramConfig::DDR2,
            ))
            .prefetch(tk_sim::PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ))
            .build()
            .expect("banked prefetch config is valid");
        let job = Job::new(SpecBenchmark::Mcf, cfg, 1, 50_000);
        let key = job.cache_key();
        disk_store(&dir, &key, &job.simulate());
        let path = disk_path(&dir, &key);
        let doc = std::fs::read(&path).expect("stored document");

        // What the three layers accept, called one by one.
        let accepted = |bytes: &[u8]| -> Option<RunResult> {
            let v = Json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
            if v.get("key").ok()?.as_str().ok()? != key {
                return None;
            }
            RunResult::from_json(v.get("result").ok()?).ok()
        };
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).expect("rewrite cache file");
            let loaded = disk_load(&dir, &key);
            assert_eq!(loaded, accepted(bytes));
            loaded
        };

        let mut rng = cases::Gen::new(0x7e57_ca5e);
        for _ in 0..128 {
            let cut = (rng.next_u64() % doc.len() as u64) as usize;
            assert_eq!(load(&doc[..cut]), None, "truncated at byte {cut}");
        }
        let mut refused = 0;
        for _ in 0..256 {
            let mut bytes = doc.clone();
            let at = (rng.next_u64() % doc.len() as u64) as usize;
            bytes[at] ^= 1 << (rng.next_u64() % 8);
            if load(&bytes).is_none() {
                refused += 1;
            }
        }
        assert!(refused > 0, "no byte flip was refused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cache files' bytes are pinned: one full-detail job (victim
    /// cache and timekeeping prefetcher, so the optional blocks are
    /// present) and one sampled job on banked DRAM (so the `dram` and
    /// `sampled` keys are). The constants are the FNV-1a of each file as
    /// written by the tree codec the streaming writer replaced.
    #[test]
    fn cache_files_keep_their_bytes() {
        let dir = std::env::temp_dir().join(format!("tk-engine-pin-{}", std::process::id()));
        let full = quick_job(
            SystemConfig::builder()
                .victim(tk_sim::VictimMode::paper_dead_time())
                .prefetch(tk_sim::PrefetchMode::Timekeeping(
                    timekeeping::CorrelationConfig::PAPER_8KB,
                ))
                .build()
                .expect("victim + prefetch config is valid"),
        );
        let sampled = quick_job(
            SystemConfig::builder()
                .memory(tk_sim::MemBackendConfig::Banked(
                    tk_sim::BankedDramConfig::DDR2,
                ))
                .sample(tk_sim::SampleConfig {
                    interval: 10_000,
                    k: 4,
                })
                .build()
                .expect("sampled banked config is valid"),
        );
        for (job, want) in [
            (full, 0x31af_c0ac_1177_57fc),
            (sampled, 0x4e87_e26a_cc92_5008),
        ] {
            let key = job.cache_key();
            let r = job.simulate();
            assert_eq!(r.sampled.is_some(), job.cfg.sample.is_some(), "{key}");
            disk_store(&dir, &key, &r);
            let text = std::fs::read_to_string(disk_path(&dir, &key)).expect("stored file");
            assert_eq!(fnv1a64(&text), want, "cache file bytes changed for {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_round_trips_and_rejects_mismatches() {
        let dir = std::env::temp_dir().join(format!("tk-engine-test-{}", std::process::id()));
        let job = quick_job(SystemConfig::base());
        let r = job.simulate();
        disk_store(&dir, &job.cache_key(), &r);
        assert_eq!(disk_load(&dir, &job.cache_key()), Some(r.clone()));
        // A different key must not read another key's file, even if we
        // force the same path by writing it there.
        std::fs::write(disk_path(&dir, "other-key"), {
            Json::obj([("key", Json::Str(job.cache_key())), ("result", r.to_json())]).render()
        })
        .unwrap();
        assert_eq!(disk_load(&dir, "other-key"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
