//! The sweep-level checkpoint store.
//!
//! A sampled run factors into a *functional* half — profile pass,
//! interval signatures, k-means clustering, and per-representative
//! functional warm states — and a *timed* half that replays only the
//! elected representatives under the full timing model. The functional
//! half depends on the workload stream and the cache geometry, **not**
//! on the timing configuration being swept: DRAM backend and timings,
//! bus and memory latencies, MSHR counts, prefetch and victim-filter
//! policies, decay — none of them can move a tag in the warm pass. So a
//! figure sweeping nine timing variants of one stream recomputes the
//! expensive half nine times for one answer.
//!
//! This module deduplicates that work. The functional half is captured
//! once per distinct *functional fingerprint* into an immutable
//! [`SampleCheckpoint`] and shared through a two-tier store:
//!
//! * an **in-process tier** — `Arc`-shared across every job of a
//!   `run_jobs` sweep (and across sweeps in one process), LRU-evicted
//!   under a byte budget (`TK_CKPT_BYTES`, default 1.5 GiB);
//! * an optional **on-disk tier** (the `--ckpt[=DIR]` flag, default
//!   `reports/.ckpt`) holding versioned binary snapshots that survive
//!   invocations. Corruption, truncation, version or fingerprint
//!   mismatch are all detected (magic + trailing checksum + embedded
//!   key) and fall back to a silent recompute — a damaged cache can
//!   slow a run down but never change its output.
//!
//! ## The fingerprint
//!
//! The key is the subset of the job that can change functional
//! behavior: workload identity (name plus a hash probe of the stream's
//! first instructions), instruction budget, sampling interval and `k`,
//! L1 and L2 geometry, victim-buffer presence and capacity (warmup
//! models victim movement but not its timing-based admission filter),
//! and the software-prefetch-ignore flag. Everything else is timing-only
//! and deliberately excluded, so all timing variants of one stream share
//! one checkpoint. Checkpoints never alias across fingerprints, and the
//! engine's memo/disk cache keys are untouched — a checkpoint is an
//! implementation detail below the result cache.
//!
//! Reused checkpoints are **bit-identical** to cold builds by
//! construction: the checkpoint is the complete input of the timed
//! half, so where it came from cannot be observed in any result.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use timekeeping::LineMap;

use crate::config::{SampleConfig, SystemConfig, VictimMode};
use crate::oracle::FunctionalOracle;
use crate::sample::{build_checkpoint, checkpointable, BufInstr, RepShard, SampleCheckpoint};
use crate::trace::{Instr, Workload};

// ---------------------------------------------------------------------------
// Process-wide switches and counters
// ---------------------------------------------------------------------------

/// In-process tier enabled? On by default: sharing is invisible in
/// results and strictly saves work. `--no-ckpt` turns it off.
static ENABLED: AtomicBool = AtomicBool::new(true);
static MEM_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// Enables or disables the checkpoint store (the `--no-ckpt` flag).
/// When disabled, sampled runs build their checkpoint transiently —
/// same code path, nothing shared or counted — so results are identical
/// either way.
pub fn set_checkpoints_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether the checkpoint store is enabled.
pub fn checkpoints_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Sets the on-disk checkpoint tier directory (the `--ckpt[=DIR]`
/// flag). `None` (the default) keeps checkpoints in-process only.
pub fn set_checkpoint_dir(dir: Option<PathBuf>) {
    *disk_dir().lock().expect("ckpt dir lock") = dir;
}

/// The on-disk checkpoint tier directory, if one is configured.
pub fn checkpoint_dir() -> Option<PathBuf> {
    disk_dir().lock().expect("ckpt dir lock").clone()
}

fn disk_dir() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Checkpoint-store activity counters (monotonic since process start or
/// the last [`reset_checkpoint_store`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptStats {
    /// Checkpoints served from the in-process tier.
    pub mem_hits: u64,
    /// Checkpoints loaded from the on-disk tier.
    pub disk_hits: u64,
    /// Checkpoints built from scratch (stored for later reuse).
    pub builds: u64,
}

/// Current checkpoint-store counters.
pub fn checkpoint_stats() -> CkptStats {
    CkptStats {
        mem_hits: MEM_HITS.load(Ordering::SeqCst),
        disk_hits: DISK_HITS.load(Ordering::SeqCst),
        builds: BUILDS.load(Ordering::SeqCst),
    }
}

/// Empties the in-process tier and zeroes the counters (the on-disk
/// tier is untouched). Benchmarks use this to measure cold-store costs
/// honestly.
pub fn reset_checkpoint_store() {
    let mut s = store().lock().expect("ckpt store lock");
    s.map.clear();
    s.bytes = 0;
    MEM_HITS.store(0, Ordering::SeqCst);
    DISK_HITS.store(0, Ordering::SeqCst);
    BUILDS.store(0, Ordering::SeqCst);
    let _ = take_recorded_checkpoints();
}

// ---------------------------------------------------------------------------
// Fingerprint-use recording (manifest provenance)
// ---------------------------------------------------------------------------

fn recorder() -> &'static Mutex<Option<Vec<String>>> {
    static REC: OnceLock<Mutex<Option<Vec<String>>>> = OnceLock::new();
    REC.get_or_init(|| Mutex::new(None))
}

/// Arms (or disarms) fingerprint recording: while armed, every
/// checkpoint obtained — hit or build — logs its fingerprint for the
/// report manifest.
pub fn record_checkpoints(on: bool) {
    let mut r = recorder().lock().expect("ckpt recorder lock");
    *r = if on { Some(Vec::new()) } else { None };
}

/// Drains the recorded fingerprints (deduplicated, first-use order).
pub fn take_recorded_checkpoints() -> Vec<String> {
    let mut r = recorder().lock().expect("ckpt recorder lock");
    let mut out = Vec::new();
    if let Some(v) = r.as_mut() {
        let mut seen = std::collections::HashSet::new();
        for fp in v.drain(..) {
            if seen.insert(fp.clone()) {
                out.push(fp);
            }
        }
    }
    out
}

fn record_use(fp: &str) {
    let mut r = recorder().lock().expect("ckpt recorder lock");
    if let Some(v) = r.as_mut() {
        v.push(fp.to_owned());
    }
}

// ---------------------------------------------------------------------------
// The functional fingerprint
// ---------------------------------------------------------------------------

/// Instructions hashed by [`stream_probe`]. Identifies the stream
/// (generator, seed, phase) without a trait change: the deterministic
/// generators that can fork produce their whole stream from their
/// current state, so a prefix hash separates every distinct stream the
/// suite can build. 32 Ki instructions cost ~10 µs — noise against the
/// profile pass the fingerprint deduplicates.
const PROBE_INSTRS: u64 = 32 * 1024;

#[inline]
fn fnv_byte(h: &mut u64, b: u8) {
    *h ^= u64::from(b);
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Hashes the first `PROBE_INSTRS` (32 Ki) instructions of `workload`'s
/// stream (via a fork; the workload itself is not advanced). `None`
/// when the workload cannot fork — such workloads cannot sample, so
/// they cannot checkpoint either.
pub fn stream_probe<W: Workload + ?Sized>(workload: &W) -> Option<u64> {
    let mut wl = workload.fork()?;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..PROBE_INSTRS {
        let (kind, m) = match wl.next_instr() {
            Instr::Op => {
                fnv_byte(&mut h, 0);
                continue;
            }
            Instr::Load(m) => (1u8, m),
            Instr::ChainedLoad(m) => (2, m),
            Instr::Store(m) => (3, m),
            Instr::SwPrefetch(m) => (4, m),
        };
        fnv_byte(&mut h, kind);
        for b in m.addr.get().to_le_bytes() {
            fnv_byte(&mut h, b);
        }
        for b in m.pc.get().to_le_bytes() {
            fnv_byte(&mut h, b);
        }
    }
    Some(h)
}

/// The functional fingerprint of a job, or `None` when the job would
/// not take the checkpointed path at all (no sampling configured,
/// multi-core, unsupported L1 mode, degenerate or over-cap budget).
/// This predicate is exactly the run-time gate in `run_sampled`, so the
/// engine's sweep planner and the simulator can never disagree about
/// which jobs shard.
///
/// Only knobs that can change *functional* behavior contribute:
/// timing-only configuration (latencies, buses, MSHRs, DRAM backend,
/// prefetch policy, victim admission filter, decay, metrics) is
/// excluded so that all timing variants of one stream share a
/// checkpoint.
pub fn job_fingerprint(
    probe: u64,
    workload_name: &str,
    cfg: &SystemConfig,
    budget: u64,
) -> Option<String> {
    fingerprint_with(probe, workload_name, cfg, cfg.sample?, budget)
}

/// [`job_fingerprint`] with the sampling parameters supplied
/// explicitly (`run_sampled` receives them out of band).
fn fingerprint_with(
    probe: u64,
    workload_name: &str,
    cfg: &SystemConfig,
    sc: SampleConfig,
    budget: u64,
) -> Option<String> {
    if cfg.cores > 1 || !FunctionalOracle::supports(cfg) || !checkpointable(sc, budget) {
        return None;
    }
    let m = &cfg.machine;
    // Victim-buffer *presence and capacity* are functional (warmup
    // moves lines through it); the admission filter is timing-based and
    // warmup always admits, so the mode beyond presence is not.
    let vc = match cfg.victim {
        VictimMode::None => "none".to_owned(),
        _ => m.victim_entries.to_string(),
    };
    Some(format!(
        "v1 wl={workload_name}/{probe:016x} budget={budget} interval={} k={} \
         l1={}x{}x{} l2={}x{}x{} vc={vc} swpf={}",
        sc.interval,
        sc.k,
        m.l1d.size_bytes(),
        m.l1d.assoc(),
        m.l1d.block_bytes(),
        m.l2.size_bytes(),
        m.l2.assoc(),
        m.l2.block_bytes(),
        u8::from(cfg.ignore_sw_prefetch),
    ))
}

// ---------------------------------------------------------------------------
// The in-process tier
// ---------------------------------------------------------------------------

/// Default in-process tier budget: 1.5 GiB of checkpoint payload
/// (override with `TK_CKPT_BYTES`). A paper-budget checkpoint is tens
/// of megabytes, so the whole 26-workload suite fits with room over.
const DEFAULT_CAP_BYTES: usize = 1536 * 1024 * 1024;

#[derive(Default)]
struct Store {
    map: HashMap<String, Entry>,
    bytes: usize,
    tick: u64,
}

struct Entry {
    ckpt: Arc<SampleCheckpoint>,
    bytes: usize,
    last_used: u64,
}

fn store() -> &'static Mutex<Store> {
    static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Store::default()))
}

fn cap_bytes() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("TK_CKPT_BYTES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(DEFAULT_CAP_BYTES)
    })
}

impl Store {
    fn get(&mut self, fp: &str) -> Option<Arc<SampleCheckpoint>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(fp).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.ckpt)
        })
    }

    fn insert(&mut self, ckpt: Arc<SampleCheckpoint>) {
        let bytes = ckpt.approx_bytes();
        if bytes > cap_bytes() {
            return; // larger than the whole budget: usable, not storable
        }
        self.tick += 1;
        if let Some(old) = self.map.insert(
            ckpt.fingerprint().to_owned(),
            Entry {
                ckpt,
                bytes,
                last_used: self.tick,
            },
        ) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        while self.bytes > cap_bytes() {
            // LRU eviction; the map stays small (one entry per distinct
            // stream), so a scan beats bookkeeping.
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("bytes > 0 implies entries");
            let e = self.map.remove(&victim).expect("just found");
            self.bytes -= e.bytes;
        }
    }
}

// ---------------------------------------------------------------------------
// Obtaining a checkpoint
// ---------------------------------------------------------------------------

/// The single entry point of the checkpoint plane: returns the
/// checkpoint for `(workload, cfg, budget)` — from the in-process tier,
/// the disk tier, or a fresh build, in that order. With the store
/// disabled the checkpoint is built transiently (nothing shared or
/// counted); in every case the returned object is bit-identical.
/// `None` when the job is not checkpointable or the generator overflows
/// the compact stream encoding.
pub(crate) fn obtain<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SystemConfig,
    sc: SampleConfig,
    budget: u64,
) -> Option<Arc<SampleCheckpoint>> {
    let probe = stream_probe(workload)?;
    let fp = fingerprint_with(probe, workload.name(), cfg, sc, budget)?;
    obtain_inner(workload, cfg, sc, budget, &fp)
}

/// Fetches or builds the checkpoint for an already-computed
/// fingerprint. The engine uses this after planning a sweep's distinct
/// fingerprints so each is built exactly once.
pub fn obtain_keyed<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SystemConfig,
    budget: u64,
    fingerprint: &str,
) -> Option<Arc<SampleCheckpoint>> {
    let sc = cfg.sample.expect("fingerprinted jobs sample");
    obtain_inner(workload, cfg, sc, budget, fingerprint)
}

fn obtain_inner<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SystemConfig,
    sc: SampleConfig,
    budget: u64,
    fingerprint: &str,
) -> Option<Arc<SampleCheckpoint>> {
    if !checkpoints_enabled() {
        // Transient: same builder, nothing shared, nothing counted.
        return build_checkpoint(workload, cfg, sc, budget, fingerprint.to_owned()).map(Arc::new);
    }
    if let Some(hit) = store().lock().expect("ckpt store lock").get(fingerprint) {
        MEM_HITS.fetch_add(1, Ordering::SeqCst);
        record_use(fingerprint);
        return Some(hit);
    }
    let dir = checkpoint_dir();
    if let Some(dir) = dir.as_deref() {
        if let Some(loaded) = disk_load(dir, fingerprint) {
            let loaded = Arc::new(loaded);
            store()
                .lock()
                .expect("ckpt store lock")
                .insert(Arc::clone(&loaded));
            DISK_HITS.fetch_add(1, Ordering::SeqCst);
            record_use(fingerprint);
            return Some(loaded);
        }
    }
    let built = Arc::new(build_checkpoint(
        workload,
        cfg,
        sc,
        budget,
        fingerprint.to_owned(),
    )?);
    store()
        .lock()
        .expect("ckpt store lock")
        .insert(Arc::clone(&built));
    if let Some(dir) = dir.as_deref() {
        disk_store(dir, &built);
    }
    BUILDS.fetch_add(1, Ordering::SeqCst);
    record_use(fingerprint);
    Some(built)
}

// ---------------------------------------------------------------------------
// The on-disk tier (versioned binary, checksummed)
// ---------------------------------------------------------------------------

/// File magic; the version rides in it, so a format change is a
/// "stale version" miss, never a misparse.
const MAGIC: &[u8; 8] = b"TKCKPT01";

fn fnv1a64_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        fnv_byte(&mut h, b);
    }
    h
}

fn ckpt_path(dir: &std::path::Path, fingerprint: &str) -> PathBuf {
    dir.join(format!(
        "ck_{:016x}.bin",
        fnv1a64_bytes(fingerprint.as_bytes())
    ))
}

struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn lines(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &l in v {
            self.u64(l);
        }
    }
}

fn encode(ckpt: &SampleCheckpoint) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(ckpt.approx_bytes() + 1024));
    w.0.extend_from_slice(MAGIC);
    w.str(&ckpt.fingerprint);
    w.str(&ckpt.workload);
    w.u64(ckpt.interval);
    w.u32(ckpt.k);
    w.u64(ckpt.intervals);
    w.u64(ckpt.budget);
    w.u32(ckpt.reps);
    // Deterministic order so identical checkpoints serialize to
    // identical files.
    let mut first: Vec<(u64, u32)> = ckpt.first_touch.iter().map(|(&l, &e)| (l, e)).collect();
    first.sort_unstable();
    w.u32(first.len() as u32);
    for (line, epoch) in first {
        w.u64(line);
        w.u32(epoch);
    }
    w.u32(ckpt.shards.len() as u32);
    for s in &ckpt.shards {
        w.u64(s.rep_index);
        w.u64(s.weight);
        w.u64(s.length);
        w.u32(s.start_ops_done);
        w.u32(s.stream.len() as u32);
        for b in &s.stream {
            w.u64(b.addr);
            w.u32(b.pc);
            w.u8(b.kind);
            w.u16(b.op_gap);
        }
        w.lines(&s.l1_lines);
        w.u32(s.l1_dirty.len() as u32);
        for &d in &s.l1_dirty {
            w.u8(u8::from(d));
        }
        w.lines(&s.l2_lines);
        w.lines(&s.shadow_stack);
    }
    let sum = fnv1a64_bytes(&w.0);
    w.u64(sum);
    w.0
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..self.at.checked_add(n)?)?;
        self.at += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.take(2)?.try_into().ok()?))
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
    fn lines(&mut self) -> Option<Vec<u64>> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.u64()).collect()
    }
}

fn decode(bytes: &[u8], want_fingerprint: &str) -> Option<SampleCheckpoint> {
    // Trailing-checksum gate: any truncation or bit rot fails here.
    if bytes.len() < MAGIC.len() + 8 || &bytes[..MAGIC.len()] != MAGIC {
        return None;
    }
    let (payload, sum) = bytes.split_at(bytes.len() - 8);
    if fnv1a64_bytes(payload) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    let mut r = Reader {
        buf: payload,
        at: MAGIC.len(),
    };
    let fingerprint = r.str()?;
    if fingerprint != want_fingerprint {
        return None; // hash-named file holding someone else's key
    }
    let workload = r.str()?;
    let interval = r.u64()?;
    let k = r.u32()?;
    let intervals = r.u64()?;
    let budget = r.u64()?;
    let reps = r.u32()?;
    let n_first = r.u32()? as usize;
    // Each entry takes 12 bytes; reserve no more than the payload can hold.
    let room = (r.buf.len() - r.at) / 12;
    let mut first_touch = LineMap::with_capacity_and_hasher(n_first.min(room), Default::default());
    for _ in 0..n_first {
        let line = r.u64()?;
        let epoch = r.u32()?;
        first_touch.insert(line, epoch);
    }
    let n_shards = r.u32()? as usize;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let rep_index = r.u64()?;
        let weight = r.u64()?;
        let length = r.u64()?;
        let start_ops_done = r.u32()?;
        let n_stream = r.u32()? as usize;
        let mut stream = Vec::with_capacity(n_stream);
        for _ in 0..n_stream {
            stream.push(BufInstr {
                addr: r.u64()?,
                pc: r.u32()?,
                kind: r.u8()?,
                op_gap: r.u16()?,
            });
        }
        let l1_lines = r.lines()?;
        let n_dirty = r.u32()? as usize;
        let mut l1_dirty = Vec::with_capacity(n_dirty);
        for _ in 0..n_dirty {
            l1_dirty.push(r.u8()? != 0);
        }
        if l1_dirty.len() != l1_lines.len() {
            return None;
        }
        shards.push(RepShard {
            rep_index,
            weight,
            length,
            start_ops_done,
            stream,
            l1_lines,
            l1_dirty,
            l2_lines: r.lines()?,
            shadow_stack: r.lines()?,
        });
    }
    if r.at != payload.len() {
        return None; // trailing garbage under a valid checksum: reject
    }
    Some(SampleCheckpoint {
        fingerprint,
        workload,
        interval,
        k,
        intervals,
        budget,
        reps,
        first_touch: Arc::new(first_touch),
        shards,
    })
}

fn disk_load(dir: &std::path::Path, fingerprint: &str) -> Option<SampleCheckpoint> {
    let bytes = std::fs::read(ckpt_path(dir, fingerprint)).ok()?;
    decode(&bytes, fingerprint)
}

/// Best-effort write-through: a full disk or read-only directory slows
/// future runs down, it never fails this one. Written to a temp name
/// and renamed so a concurrent reader can't observe a torn file.
fn disk_store(dir: &std::path::Path, ckpt: &SampleCheckpoint) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = ckpt_path(dir, ckpt.fingerprint());
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    if std::fs::write(&tmp, encode(ckpt)).is_ok() && std::fs::rename(&tmp, &path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_and_rejects_damage() {
        let ckpt = SampleCheckpoint {
            fingerprint: "v1 wl=test/0000000000000001 budget=10 interval=5 k=1 \
                          l1=1024x1x32 l2=4096x2x32 vc=none swpf=0"
                .to_owned(),
            workload: "test".to_owned(),
            interval: 5,
            k: 1,
            intervals: 2,
            budget: 10,
            reps: 1,
            first_touch: Arc::new([(3u64, 0u32), (9, 1)].into_iter().collect()),
            shards: vec![RepShard {
                rep_index: 1,
                weight: 2,
                length: 5,
                start_ops_done: 3,
                stream: vec![BufInstr {
                    addr: 0x1240,
                    pc: 0x400,
                    kind: 3,
                    op_gap: 7,
                }],
                l1_lines: vec![3, 9],
                l1_dirty: vec![true, false],
                l2_lines: vec![3],
                shadow_stack: vec![3, 9],
            }],
        };
        let bytes = encode(&ckpt);
        let back = decode(&bytes, ckpt.fingerprint()).expect("round trip");
        assert_eq!(back, ckpt);

        // Wrong fingerprint (a hash-named file holding another key).
        assert!(decode(&bytes, "something else").is_none());
        // Truncation.
        assert!(decode(&bytes[..bytes.len() - 1], ckpt.fingerprint()).is_none());
        // Single-bit corruption in the middle of the payload.
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 1;
        assert!(decode(&bad, ckpt.fingerprint()).is_none());
        // Stale version magic.
        let mut stale = bytes;
        stale[7] = b'0';
        assert!(decode(&stale, ckpt.fingerprint()).is_none());
    }

    #[test]
    fn fingerprint_excludes_timing_knobs() {
        let mut cfg = SystemConfig::base();
        cfg.sample = Some(SampleConfig {
            interval: 1_000,
            k: 2,
        });
        let base = job_fingerprint(7, "wl", &cfg, 100_000).expect("eligible");

        // Timing-only knobs share the fingerprint (the deprecated
        // field is still the Fixed backend's latency source).
        let mut timing = cfg;
        #[allow(deprecated)]
        {
            timing.machine.mem_latency = 999;
        }
        timing.machine.l2_latency = 40;
        timing.machine.l1l2_bus_occupancy = 9;
        assert_eq!(
            job_fingerprint(7, "wl", &timing, 100_000).as_deref(),
            Some(base.as_str())
        );

        // Functional knobs do not.
        let mut swpf = cfg;
        swpf.ignore_sw_prefetch = !cfg.ignore_sw_prefetch;
        assert_ne!(
            job_fingerprint(7, "wl", &swpf, 100_000).as_deref(),
            Some(base.as_str())
        );
        assert_ne!(
            job_fingerprint(8, "wl", &cfg, 100_000).as_deref(),
            Some(base.as_str()),
            "stream probe is part of the key"
        );
        assert_ne!(
            job_fingerprint(7, "wl", &cfg, 200_000).as_deref(),
            Some(base.as_str()),
            "budget is part of the key"
        );

        // Ineligible shapes fingerprint to nothing.
        let mut unsampled = cfg;
        unsampled.sample = None;
        assert_eq!(job_fingerprint(7, "wl", &unsampled, 100_000), None);
        let mut degenerate = cfg;
        degenerate.sample = Some(SampleConfig {
            interval: 100_000,
            k: 2,
        });
        assert_eq!(
            job_fingerprint(7, "wl", &degenerate, 100_000),
            None,
            "k >= intervals degenerates to a tagged full run"
        );
    }
}
