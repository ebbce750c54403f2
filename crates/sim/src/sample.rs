//! Statistical sampling with functional-warmup checkpoints.
//!
//! Simulating every instruction under the full timing model is the cost
//! that caps how many configurations the figures can sweep. This module
//! implements SimPoint-style interval sampling on top of the
//! deterministic workload generators:
//!
//! 1. **Profile** — a timing-free pass over the instruction stream
//!    splits it into fixed-length intervals and summarizes each as a
//!    basic-block-vector analog: a 64-dimension signature of hashed PC
//!    and line-address reference counts.
//! 2. **Cluster** — seeded, deterministic k-means (k-means++
//!    initialization, Lloyd refinement, strict-`<` tie-breaks) groups
//!    the intervals; each cluster elects the member closest to its
//!    centroid as the *representative* and carries its population as the
//!    *weight*.
//! 3. **Warm + time** — a second pass fast-forwards architectural cache
//!    state through skipped intervals with the [`FunctionalOracle`]'s
//!    timing-free tag model (functional warmup), and runs only the
//!    representative intervals under the full timing model, each on a
//!    fresh machine seeded with the warmed L1/L2 tags, dirty bits,
//!    generation plane and miss-classification shadow.
//! 4. **Reconstruct** — representative statistics scale by their
//!    cluster weights (plus the sub-interval tail at weight one) into a
//!    [`RunResult`] tagged with [`SampleStats`], so sampled documents
//!    are self-describing and can never masquerade as full runs (the
//!    config cache key also gains a `sample={...}` fragment).
//!
//! ## Warmup fidelity
//!
//! For the base machine (and the unfiltered victim cache) the L1/L2 tag
//! state is timing-independent — every mutation happens at access time
//! in program order — so functional warmup reproduces it *exactly*, and
//! a representative's hit/miss outcomes match the full run's outcomes
//! for the same interval (see `tests/sampling.rs`). Timing-dependent
//! state is approximated: filtered victim caches warm with an admit-all
//! policy and start representatives empty, decay switch-offs are
//! invisible to warmup, and prefetcher state (predictor tables,
//! prefetched lines in flight) starts cold at each representative.
//! L2 dirty bits are not tracked, so sampled `l2_writebacks`
//! undercounts slightly. These are accuracy trade-offs of the sampled
//! *estimate*, bounded by `sample_calibrate`; they never leak into
//! full runs.

use std::sync::Mutex;

use timekeeping::snapshot::{Json, Snapshot, SnapshotError};
use timekeeping::{
    CacheGeometry, CorrelationStats, Cycle, FullyAssocShadow, LineAddr, LineMap, LineSet,
    MetricsCollector, MissBreakdown, TimelinessStats, VictimStats,
};

use crate::config::{SampleConfig, SystemConfig};
use crate::core::{CoreStats, OooCore};
use crate::dram::DramStats;
use crate::hierarchy::{HierarchyStats, MemorySystem};
use crate::obs::TraceKind;
use crate::oracle::{FunctionalOracle, LockstepChecker};
use crate::system::{RunResult, SimSystem};
use crate::trace::{Instr, Workload};

// ---------------------------------------------------------------------------
// Process-wide default (the `--sample` flag)
// ---------------------------------------------------------------------------

static DEFAULT_SAMPLE: Mutex<Option<SampleConfig>> = Mutex::new(None);

/// Sets the process-wide default sampling mode. `None` (the initial
/// state) means full simulation. [`SystemConfig::builder`] reads this,
/// so every figure binary's configurations pick up a `--sample` flag
/// without per-callsite plumbing — the same pattern as the `--dram`
/// backend flag.
pub fn set_default_sample(sample: Option<SampleConfig>) {
    *DEFAULT_SAMPLE.lock().expect("sample default lock") = sample;
}

/// The process-wide default sampling mode.
pub fn default_sample() -> Option<SampleConfig> {
    *DEFAULT_SAMPLE.lock().expect("sample default lock")
}

/// Parses the value of a `--sample[=interval,k]` flag: empty selects
/// [`SampleConfig::DEFAULT`], otherwise `interval,k` (e.g.
/// `--sample=100000,10`).
///
/// # Errors
///
/// Returns a message describing the malformed value.
pub fn parse_sample_arg(arg: &str) -> Result<SampleConfig, String> {
    let arg = arg.trim();
    if arg.is_empty() {
        return Ok(SampleConfig::DEFAULT);
    }
    let (interval, k) = arg
        .split_once(',')
        .ok_or_else(|| format!("--sample expects `interval,k`, got `{arg}`"))?;
    let interval: u64 = interval
        .trim()
        .parse()
        .map_err(|_| format!("invalid sampling interval `{}`", interval.trim()))?;
    let k: u32 = k
        .trim()
        .parse()
        .map_err(|_| format!("invalid sampling cluster count `{}`", k.trim()))?;
    if interval == 0 {
        return Err("sampling interval must be nonzero".to_owned());
    }
    if k == 0 {
        return Err("sampling cluster count (k) must be nonzero".to_owned());
    }
    Ok(SampleConfig { interval, k })
}

// ---------------------------------------------------------------------------
// Result tag
// ---------------------------------------------------------------------------

/// What a sampled run actually did, recorded in
/// [`RunResult::sampled`](crate::RunResult::sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleStats {
    /// Interval length in instructions.
    pub interval: u64,
    /// Requested cluster count.
    pub k: u32,
    /// Number of whole intervals the budget divided into.
    pub intervals: u64,
    /// Representative intervals run under the timing model. Equals
    /// `intervals` when the parameters degenerate to a full (but still
    /// tagged) run; at most `k` otherwise.
    pub representatives: u32,
    /// Instructions simulated under the timing model (weight-one count,
    /// including the sub-interval tail).
    pub timed_instructions: u64,
}

impl Snapshot for SampleStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("interval", Json::U64(self.interval)),
            ("k", Json::U64(u64::from(self.k))),
            ("intervals", Json::U64(self.intervals)),
            (
                "representatives",
                Json::U64(u64::from(self.representatives)),
            ),
            ("timed_instructions", Json::U64(self.timed_instructions)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, SnapshotError> {
        Ok(SampleStats {
            interval: v.u64_field("interval")?,
            k: v.u64_field("k")? as u32,
            intervals: v.u64_field("intervals")?,
            representatives: v.u64_field("representatives")? as u32,
            timed_instructions: v.u64_field("timed_instructions")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Interval signatures (profiling pass)
// ---------------------------------------------------------------------------

/// Hash buckets for referenced PCs (the BBV analog: the generators have
/// no basic blocks, but their synthetic PCs partition the reference
/// stream by originating pattern).
const SIG_PC: usize = 32;
/// Hash buckets for referenced line addresses (working-set shape).
const SIG_LINE: usize = 32;
/// Signature dimensionality.
const SIG_DIMS: usize = SIG_PC + SIG_LINE;

fn fnv1a64(v: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Cheap signature bucket hash: a Fibonacci multiply whose top five bits
/// index one of 32 buckets. The profiling pass runs this twice per
/// memory reference, so it must cost one multiply, not an FNV loop.
#[inline]
fn sig_bucket(v: u64) -> usize {
    (v.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 59) as usize
}

/// One buffered *memory access* (see [`BUFFER_CAP_INSTRS`]): the kind
/// discriminant, the flattened reference, and the run of compute ops
/// immediately preceding it — compute instructions never touch the
/// memory system, so storing them as a packed gap count shrinks the
/// buffer (and the warm replay loop) by the op fraction of the stream,
/// typically 3–4×. PCs are stored in 32 bits and gaps in 16; a
/// generator overflowing either disables buffering for that run (the
/// streaming fallback is bit-identical, just slower).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BufInstr {
    pub(crate) addr: u64,
    pub(crate) pc: u32,
    /// 1 = Load, 2 = ChainedLoad, 3 = Store, 4 = SwPrefetch.
    pub(crate) kind: u8,
    /// Number of `Op` instructions directly before this access.
    pub(crate) op_gap: u16,
}

/// Start of an interval inside the buffered stream: the first entry at
/// or after the boundary, plus how many of that entry's gap ops the
/// previous interval already consumed (boundaries can fall mid-gap).
#[derive(Debug, Clone, Copy)]
struct BufPos {
    entry: u32,
    ops_done: u32,
}

fn decode(b: BufInstr) -> Instr {
    use timekeeping::{Addr, Pc};
    let m = crate::trace::MemRef::new(Addr::new(b.addr), Pc::new(u64::from(b.pc)));
    match b.kind {
        1 => Instr::Load(m),
        2 => Instr::ChainedLoad(m),
        3 => Instr::Store(m),
        _ => Instr::SwPrefetch(m),
    }
}

/// Replays a buffered stream suffix as a [`Workload`], so timed
/// representatives can run without re-generating the stream: each
/// entry's gap ops are re-emitted before its access, and once the
/// entries run out the replay emits `Op` forever (the instructions past
/// the last buffered access are compute by construction; the engine's
/// budget bounds how many are consumed).
struct BufReplay<'a> {
    buf: &'a [BufInstr],
    at: usize,
    /// Ops still to emit before `buf[at]`.
    ops: u32,
    name: &'a str,
}

impl<'a> BufReplay<'a> {
    fn new(buf: &'a [BufInstr], start: BufPos, name: &'a str) -> Self {
        BufReplay {
            buf: &buf[start.entry as usize..],
            at: 0,
            ops: buf
                .get(start.entry as usize)
                .map_or(0, |b| u32::from(b.op_gap))
                .saturating_sub(start.ops_done),
            name,
        }
    }
}

impl Workload for BufReplay<'_> {
    fn next_instr(&mut self) -> Instr {
        if self.ops > 0 {
            self.ops -= 1;
            return Instr::Op;
        }
        match self.buf.get(self.at) {
            Some(&b) => {
                self.at += 1;
                self.ops = self.buf.get(self.at).map_or(0, |n| u32::from(n.op_gap));
                decode(b)
            }
            None => Instr::Op, // trailing compute past the last access
        }
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Streams `n * interval + tail` instructions; reduces each whole
/// interval to a normalized reference-frequency signature and, when
/// `buffer` is given, records the memory accesses (tail included, with
/// compute runs packed into per-access gap counts) so the warm/timed
/// pass can replay the stream instead of re-generating it. On success
/// the returned boundaries hold `n + 1` entries — one per interval
/// start plus the tail start. A generator overflowing the compact
/// encoding clears both, and the caller falls back to streaming.
fn profile_signatures(
    mut wl: Box<dyn Workload>,
    cfg: &SystemConfig,
    interval: u64,
    n: u64,
    tail: u64,
    mut buffer: Option<&mut Vec<BufInstr>>,
) -> (Vec<Vec<f64>>, Vec<BufPos>) {
    let geom = cfg.machine.l1d;
    let mut sigs = Vec::with_capacity(n as usize);
    let mut bounds: Vec<BufPos> = Vec::with_capacity(n as usize + 1);
    // Ops seen since the last buffered access (the next entry's gap).
    let mut pending: u64 = 0;
    for _ in 0..n {
        if let Some(buf) = buffer.as_deref_mut() {
            bounds.push(BufPos {
                entry: buf.len() as u32,
                ops_done: pending as u32,
            });
        }
        let mut counts = [0u32; SIG_DIMS];
        for _ in 0..interval {
            let instr = wl.next_instr();
            let (kind, m) = match instr {
                Instr::Op => {
                    pending += 1;
                    continue;
                }
                Instr::Load(m) => (1u8, m),
                Instr::ChainedLoad(m) => (2, m),
                Instr::Store(m) => (3, m),
                Instr::SwPrefetch(m) => (4, m),
            };
            if let Some(buf) = buffer.as_deref_mut() {
                match (u32::try_from(m.pc.get()), u16::try_from(pending)) {
                    (Ok(pc), Ok(op_gap)) => buf.push(BufInstr {
                        addr: m.addr.get(),
                        pc,
                        kind,
                        op_gap,
                    }),
                    _ => {
                        buf.clear();
                        bounds.clear();
                        buffer = None;
                    }
                }
            }
            pending = 0;
            if kind == 4 && cfg.ignore_sw_prefetch {
                continue;
            }
            counts[sig_bucket(m.pc.get())] += 1;
            counts[SIG_PC + sig_bucket(geom.line_of(m.addr).get())] += 1;
        }
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        let norm = if total == 0 { 1.0 } else { total as f64 };
        sigs.push(counts.iter().map(|&c| f64::from(c) / norm).collect());
    }
    if let Some(buf) = buffer {
        bounds.push(BufPos {
            entry: buf.len() as u32,
            ops_done: pending as u32,
        });
        for _ in 0..tail {
            let (kind, m) = match wl.next_instr() {
                Instr::Op => {
                    pending += 1;
                    continue;
                }
                Instr::Load(m) => (1u8, m),
                Instr::ChainedLoad(m) => (2, m),
                Instr::Store(m) => (3, m),
                Instr::SwPrefetch(m) => (4, m),
            };
            match (u32::try_from(m.pc.get()), u16::try_from(pending)) {
                (Ok(pc), Ok(op_gap)) => buf.push(BufInstr {
                    addr: m.addr.get(),
                    pc,
                    kind,
                    op_gap,
                }),
                _ => {
                    buf.clear();
                    bounds.clear();
                    break;
                }
            }
            pending = 0;
        }
    }
    (sigs, bounds)
}

// ---------------------------------------------------------------------------
// Deterministic k-means
// ---------------------------------------------------------------------------

/// splitmix64: a tiny, seedable, platform-independent generator. The
/// clustering must not depend on process-level entropy — sampled runs
/// are required to be bit-identical across invocations and `--jobs`
/// levels.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

fn kmeans_seed(workload: &str, sc: SampleConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in workload.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ fnv1a64(sc.interval) ^ fnv1a64(u64::from(sc.k)).rotate_left(17)
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A cluster's elected representative interval and its population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cluster {
    /// Interval index of the member closest to the centroid.
    rep: u64,
    /// Cluster population (the representative's stat weight).
    weight: u64,
}

/// Seeded k-means++ plus Lloyd refinement (at most 50 rounds). Every
/// tie breaks toward the lowest index via strict `<` comparisons, so
/// the outcome is a pure function of `(sigs, k, seed)`.
fn cluster_intervals(sigs: &[Vec<f64>], k: u32, seed: u64) -> Vec<Cluster> {
    let n = sigs.len();
    let k = (k as usize).min(n);
    assert!(k > 0 && n > 0, "cluster_intervals requires work");
    let mut rng = SplitMix(seed);

    // k-means++ initialization: spread the seeds proportionally to
    // squared distance from the chosen set.
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(sigs[(rng.next() % n as u64) as usize].clone());
    let mut d2 = vec![0f64; n];
    while centers.len() < k {
        let mut total = 0.0;
        for (i, s) in sigs.iter().enumerate() {
            d2[i] = centers
                .iter()
                .map(|c| dist2(c, s))
                .fold(f64::INFINITY, f64::min);
            total += d2[i];
        }
        let pick = if total > 0.0 {
            let r = rng.next_f64() * total;
            let mut acc = 0.0;
            let mut pick = n - 1;
            for (i, &d) in d2.iter().enumerate() {
                acc += d;
                if acc >= r {
                    pick = i;
                    break;
                }
            }
            pick
        } else {
            // All remaining intervals coincide with a center; any choice
            // yields an empty extra cluster, harmlessly.
            (rng.next() % n as u64) as usize
        };
        centers.push(sigs[pick].clone());
    }

    // Lloyd refinement.
    let mut assign = vec![usize::MAX; n];
    for _ in 0..50 {
        let mut changed = false;
        for (i, s) in sigs.iter().enumerate() {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, center) in centers.iter().enumerate() {
                let d = dist2(center, s);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assign[i] != best {
                assign[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let mut count = 0u64;
            let mut sum = vec![0f64; SIG_DIMS];
            for (i, s) in sigs.iter().enumerate() {
                if assign[i] == c {
                    count += 1;
                    for (acc, x) in sum.iter_mut().zip(s) {
                        *acc += x;
                    }
                }
            }
            if count > 0 {
                for v in sum.iter_mut() {
                    *v /= count as f64;
                }
                *center = sum;
            }
            // Empty clusters keep their center; their population stays
            // zero and they elect no representative.
        }
    }

    // Representative election: the member closest to the centroid.
    let mut out = Vec::new();
    for (c, center) in centers.iter().enumerate() {
        let mut rep: Option<u64> = None;
        let mut best_d = f64::INFINITY;
        let mut weight = 0u64;
        for (i, s) in sigs.iter().enumerate() {
            if assign[i] != c {
                continue;
            }
            weight += 1;
            let d = dist2(center, s);
            if rep.is_none() || d < best_d {
                best_d = d;
                rep = Some(i as u64);
            }
        }
        if let Some(rep) = rep {
            out.push(Cluster { rep, weight });
        }
    }
    out.sort_by_key(|c| c.rep);
    out
}

// ---------------------------------------------------------------------------
// Functional warmup
// ---------------------------------------------------------------------------

/// Table-value flag: the line is dirty in the (set-associative) L1.
/// Orthogonal to shadow residency — a line the fully-associative stack
/// pushed out can still sit dirty in the L1, and vice versa.
const DIRTY_BIT: u32 = 1 << 31;
/// Largest last-touch stamp before a [`WarmShadow::rebase`].
const STAMP_MAX: u32 = DIRTY_BIT - 1;

/// Deterministic open-addressing line table — the warm loop's single
/// hash structure. Keys are line addresses stored `+1` (zero marks an
/// empty slot); values pack a last-touch stamp with the L1
/// [`DIRTY_BIT`]. Keys are never removed — the key set *is* the "seen"
/// set — so linear probing needs no tombstones.
/// One open-addressing slot: key and value on the same cache line, so
/// a probe touches exactly one memory location.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C)]
struct TableSlot {
    /// Line address `+1`; zero marks an empty slot.
    key: u64,
    /// Last-touch stamp | [`DIRTY_BIT`].
    val: u32,
    /// Index of the profiling interval that first touched this line
    /// (the [`WarmShadow`] epoch at insertion). Keys are never removed,
    /// so this is immutable once written — it is the per-line record
    /// behind the checkpoint plane's shared first-touch map, and it
    /// rides in what was padding, so tracking it is free.
    first: u32,
}

#[derive(Debug, Clone)]
struct FlatLineTable {
    slots: Vec<TableSlot>,
    len: usize,
}

impl FlatLineTable {
    fn new() -> Self {
        FlatLineTable {
            slots: vec![TableSlot::default(); 1024],
            len: 0,
        }
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.slots.len() - 1)
    }

    /// Slot of `line`: either its current slot or the empty slot where
    /// it would insert.
    #[inline]
    fn slot(&self, line: u64) -> usize {
        let key = line.wrapping_add(1);
        debug_assert!(key != 0, "line address u64::MAX is unsupported");
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let k = self.slots[i].key;
            if k == 0 || k == key {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Writes `val` for `line` at a previously-probed empty `slot`,
    /// growing (and re-probing) when the table passes half full.
    fn insert_at(&mut self, slot: usize, line: u64, val: u32, first: u32) {
        self.slots[slot] = TableSlot {
            key: line.wrapping_add(1),
            val,
            first,
        };
        self.len += 1;
        if self.len * 2 >= self.slots.len() {
            let grown = self.slots.len() * 2;
            let old = std::mem::replace(&mut self.slots, vec![TableSlot::default(); grown]);
            for s in old {
                if s.key != 0 {
                    let i = self.slot(s.key - 1);
                    self.slots[i] = s;
                }
            }
        }
    }
}

/// The warmup loop's stand-in for [`FullyAssocShadow`]: one flat-table
/// probe and a stamp write per access, with the L1 dirty bits riding in
/// the same table, so stores cost no extra lookup. It keeps no recency
/// list and never evicts, so its key set is the ever-seen record and each
/// slot carries its first-touch epoch. Converted to a real
/// `FullyAssocShadow` at checkpoint injection.
///
/// A fully-associative LRU stack of capacity `C` holds exactly the `C`
/// most-recently-touched distinct lines, in last-touch order. So the warm
/// loop only records each line's last-touch stamp, and
/// [`to_fully_assoc`](Self::to_fully_assoc) reconstructs the resident
/// stack lazily by selecting the top-`C` stamps, an `O(footprint)` pass
/// per representative. `FullyAssocShadow` relinks a list node per
/// reference instead, because it must classify every miss as it goes.
/// Stamps are unique, so the reconstruction is deterministic. Miss
/// classification is not tracked during warmup: representative stats
/// subtract the injected shadow's baseline, so warm-era counts cancel out
/// of every sampled document.
#[derive(Debug, Clone)]
struct WarmShadow {
    capacity: usize,
    table: FlatLineTable,
    /// Last issued stamp; rebased before reaching [`DIRTY_BIT`].
    stamp: u32,
    /// Mirror of the table's key set in [`FullyAssocShadow`]'s own seen
    /// format, grown once per new line. Checkpoint conversion shares it
    /// as a frozen snapshot (`Arc` clone, O(1)); the warm loop is the
    /// only holder by the time it mutates again, so `make_mut` never
    /// copies.
    seen: std::sync::Arc<LineSet>,
    /// Current profiling-interval index, stamped into
    /// [`TableSlot::first`] on insertion. The checkpoint builder bumps
    /// it at each interval boundary; single-checkpoint callers leave it
    /// at zero (the value is then unused).
    epoch: u32,
}

impl WarmShadow {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shadow capacity must be nonzero");
        WarmShadow {
            capacity,
            table: FlatLineTable::new(),
            stamp: 0,
            // Reserved ahead: large-footprint workloads would otherwise
            // pay a cascade of rehashes in the middle of the warm loop.
            seen: std::sync::Arc::new(LineSet::with_capacity_and_hasher(
                1 << 16,
                Default::default(),
            )),
            epoch: 0,
        }
    }

    /// Advances the first-touch epoch (see [`TableSlot::first`]).
    fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// One warmed reference: records `line`'s new last-touch stamp
    /// (inserting on first sight) and ORs in the L1 dirty bit for
    /// stores, all off a single table probe.
    #[inline]
    fn access(&mut self, line: u64, store: bool) {
        if self.stamp == STAMP_MAX {
            self.rebase();
        }
        self.stamp += 1;
        let dirty = if store { DIRTY_BIT } else { 0 };
        let slot = self.table.slot(line);
        let s = self.table.slots[slot];
        if s.key == 0 {
            std::sync::Arc::make_mut(&mut self.seen).insert(line);
            self.table
                .insert_at(slot, line, self.stamp | dirty, self.epoch);
        } else {
            self.table.slots[slot].val = self.stamp | (s.val & DIRTY_BIT) | dirty;
        }
    }

    /// Compresses stamps to their rank order so the counter can keep
    /// counting — reached once per two billion warm accesses. Relative
    /// order (all that matters) is preserved.
    #[cold]
    fn rebase(&mut self) {
        let mut order: Vec<(u32, usize)> = self
            .table
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.key != 0)
            .map(|(i, s)| (s.val & !DIRTY_BIT, i))
            .collect();
        order.sort_unstable();
        for (rank, &(_, i)) in order.iter().enumerate() {
            let dirty = self.table.slots[i].val & DIRTY_BIT;
            self.table.slots[i].val = (rank as u32 + 1) | dirty;
        }
        self.stamp = order.len() as u32;
    }

    /// Clears `line`'s L1 dirty bit (called when the L1 evicts it: the
    /// writeback happens then, and a returning line starts clean).
    fn clear_dirty(&mut self, line: u64) {
        let slot = self.table.slot(line);
        if self.table.slots[slot].key != 0 {
            self.table.slots[slot].val &= !DIRTY_BIT;
        }
    }

    /// Whether `line` is dirty in the warmed L1.
    fn is_dirty(&self, line: u64) -> bool {
        let slot = self.table.slot(line);
        let s = self.table.slots[slot];
        s.key != 0 && s.val & DIRTY_BIT != 0
    }

    /// The `capacity` highest-stamped lines — the fully-associative
    /// resident stack — in stamp order (LRU → MRU).
    fn resident_stack(&self) -> Vec<u64> {
        // Bounded top-C selection: one scan of the table with a size-C
        // min-heap. Stamps are unique, so the surviving set — and its
        // sorted (LRU → MRU) order — is deterministic.
        let mut top: std::collections::BinaryHeap<std::cmp::Reverse<(u32, u64)>> =
            std::collections::BinaryHeap::with_capacity(self.capacity + 1);
        for s in &self.table.slots {
            if s.key == 0 {
                continue;
            }
            let e = (s.val & !DIRTY_BIT, s.key - 1);
            if top.len() < self.capacity {
                top.push(std::cmp::Reverse(e));
            } else if e > top.peek().expect("heap at capacity > 0").0 {
                *top.peek_mut().expect("heap at capacity > 0") = std::cmp::Reverse(e);
            }
        }
        let mut all: Vec<(u32, u64)> = top.into_iter().map(|r| r.0).collect();
        all.sort_unstable();
        all.into_iter().map(|(_, line)| line).collect()
    }

    /// Converts to the real shadow model for injection into a
    /// [`MemorySystem`]: the `capacity` highest-stamped lines are the
    /// resident stack, in stamp order (LRU → MRU).
    fn to_fully_assoc(&self) -> FullyAssocShadow {
        FullyAssocShadow::from_parts(
            self.capacity,
            self.resident_stack(),
            std::sync::Arc::clone(&self.seen),
            MissBreakdown::default(),
        )
    }

    /// Every line ever touched, with the epoch (interval index) of its
    /// first touch — the single shared map that replaces per-shard seen
    /// snapshots in a [`SampleCheckpoint`].
    fn first_touch_map(&self) -> LineMap<u32> {
        self.table
            .slots
            .iter()
            .filter(|s| s.key != 0)
            .map(|s| (s.key - 1, s.first))
            .collect()
    }
}

/// The complete timing-free machine state carried across skipped
/// intervals: oracle tag arrays (L1, victim, L2) plus the
/// miss-classification shadow, which also carries the L1 dirty bits.
#[derive(Debug, Clone)]
struct WarmState {
    oracle: FunctionalOracle,
    shadow: WarmShadow,
    geom: CacheGeometry,
    ignore_swpf: bool,
    /// The line the previous reference touched (`u64::MAX` = none).
    /// After any access that line is resident and MRU at every level,
    /// so an immediate repeat load is a pure no-op — spatial locality
    /// makes this the warm loop's most common case by far.
    last_line: u64,
}

impl WarmState {
    fn new(cfg: &SystemConfig) -> Self {
        WarmState {
            oracle: FunctionalOracle::new(cfg),
            shadow: WarmShadow::new(cfg.machine.l1d.num_frames() as usize),
            geom: cfg.machine.l1d,
            ignore_swpf: cfg.ignore_sw_prefetch,
            last_line: u64::MAX,
        }
    }

    /// Replays one instruction into the functional tag model and the
    /// shadow, at zero simulated time.
    #[inline]
    fn step(&mut self, instr: Instr) {
        let (m, store) = match instr {
            Instr::Op => return,
            Instr::SwPrefetch(_) if self.ignore_swpf => return,
            Instr::Load(m) | Instr::ChainedLoad(m) | Instr::SwPrefetch(m) => (m, false),
            Instr::Store(m) => (m, true),
        };
        self.access_line(m.addr, store);
    }

    #[inline]
    fn access_line(&mut self, addr: timekeeping::Addr, store: bool) {
        let line = self.geom.line_of(addr);
        if line.get() == self.last_line && !store {
            // Repeat hit: no tag movement, no recency change worth
            // recording — the line already holds the newest stamp at
            // every level. (Stores fall through for the dirty bit.)
            return;
        }
        self.last_line = line.get();
        let evicted = self.oracle.warm_access(addr);
        self.shadow.access(line.get(), store);
        if let Some(ev) = evicted {
            // A line leaving the L1 is written back (if dirty) at that
            // point; if it ever returns it starts clean. (The evicted
            // line is never the accessed line, so the order with the
            // store's dirty-set above cannot matter.)
            self.shadow.clear_dirty(ev.get());
        }
    }

    /// Fast-forwards through `n` generated instructions of `wl`.
    fn advance<W: Workload + ?Sized>(&mut self, wl: &mut W, n: u64) {
        for _ in 0..n {
            self.step(wl.next_instr());
        }
    }

    /// Fast-forwards through a buffered stream slice. Compute gaps are
    /// never materialized — the loop touches memory accesses only.
    fn advance_buf(&mut self, buf: &[BufInstr]) {
        for &b in buf {
            if b.kind == 4 && self.ignore_swpf {
                continue;
            }
            self.access_line(timekeeping::Addr::new(b.addr), b.kind == 3);
        }
    }
}

/// Seeds a fresh [`MemorySystem`] with warmed state: L1 and L2 tags
/// filled LRU→MRU (so replacement order carries over), dirty bits,
/// generation-plane residency, and the classification shadow. Returns
/// the shadow's pre-existing breakdown, which the representative's
/// stats subtract off. When `checked`, a lockstep checker seeded with
/// the same warmed oracle is installed, so `--sample --check` verifies
/// the timed representatives end to end.
fn inject(mem: &mut MemorySystem, warm: &WarmState, checked: bool) -> MissBreakdown {
    let mut oracle = warm.oracle.clone();
    // The timed machine's victim cache starts empty; the checker's
    // oracle must agree with the machine it checks.
    oracle.clear_vc();
    let g1 = *oracle.l1_geometry();
    for line in oracle.l1_lines() {
        let (frame, evicted) = mem.l1d.fill(g1.addr_of_line(line));
        debug_assert!(evicted.is_none(), "injection into an empty cache");
        mem.obs.gens.plane.fill(frame, line, Cycle::ZERO);
        if warm.shadow.is_dirty(line.get()) {
            mem.l1d.mark_dirty(frame);
        }
    }
    let g2 = *oracle.l2_geometry();
    for line in oracle.l2_lines() {
        mem.l2.fill(g2.addr_of_line(line));
    }
    mem.shadow = warm.shadow.to_fully_assoc();
    let baseline = mem.shadow.breakdown();
    if checked {
        mem.checker = Some(Box::new(LockstepChecker::from_oracle(oracle)));
    }
    baseline
}

/// Runs `n` instructions of `wl` under the full timing model on a fresh
/// machine seeded with `warm`, and collects per-interval statistics.
fn run_rep<W: Workload + ?Sized>(
    wl: &mut W,
    warm: &WarmState,
    cfg: SystemConfig,
    n: u64,
    rep_index: u64,
    weight: u64,
    checked: bool,
) -> RunResult {
    let mut mem = MemorySystem::new(cfg);
    let baseline = inject(&mut mem, warm, checked);
    time_interval(wl, mem, baseline, &cfg, n, rep_index, weight)
}

/// The timed half of a representative: runs `n` instructions of `wl` on
/// an already-injected machine and collects per-interval statistics,
/// subtracting the injected shadow's baseline breakdown. Shared between
/// the inline warm-and-time loop ([`run_rep`]) and checkpoint shards
/// ([`run_shard`]).
fn time_interval<W: Workload + ?Sized>(
    wl: &mut W,
    mut mem: MemorySystem,
    baseline: MissBreakdown,
    cfg: &SystemConfig,
    n: u64,
    rep_index: u64,
    weight: u64,
) -> RunResult {
    if let Some(t) = mem.obs.trace.as_deref_mut() {
        t.push(
            TraceKind::SampleRep,
            Cycle::ZERO,
            LineAddr::new(rep_index),
            weight,
        );
    }
    let mut core = OooCore::new(cfg);
    let core_stats = core.run(wl, &mut mem, n);
    let full = mem.miss_breakdown();
    let breakdown = MissBreakdown {
        cold: full.cold - baseline.cold,
        conflict: full.conflict - baseline.conflict,
        capacity: full.capacity - baseline.capacity,
    };
    RunResult {
        workload: wl.name().to_owned(),
        core: core_stats,
        hierarchy: mem.stats(),
        breakdown,
        victim: mem.victim_stats(),
        victim_swap_fills: mem.victim_swap_fills(),
        timeliness: *mem.timeliness(),
        correlation: mem.correlation_stats(),
        dbcp: mem.dbcp_stats(),
        pf_queue_discards: mem.pf_queue_discards(),
        dram: mem.dram_stats(),
        sampled: None,
        coherence: None,
        metrics: std::mem::take(mem.metrics_mut()),
    }
}

// ---------------------------------------------------------------------------
// Weighted reconstruction
// ---------------------------------------------------------------------------

/// Accumulates weighted per-interval results into whole-run statistics.
struct Aggregate {
    core: CoreStats,
    hierarchy: HierarchyStats,
    breakdown: MissBreakdown,
    metrics: MetricsCollector,
    victim: Option<VictimStats>,
    victim_swap_fills: Option<u64>,
    timeliness: TimelinessStats,
    correlation: Option<CorrelationStats>,
    dbcp: Option<timekeeping::DbcpStats>,
    pf_queue_discards: u64,
    dram: Option<DramStats>,
}

impl Aggregate {
    fn new() -> Self {
        Aggregate {
            core: CoreStats::default(),
            hierarchy: HierarchyStats::default(),
            breakdown: MissBreakdown::default(),
            metrics: MetricsCollector::new(),
            victim: None,
            victim_swap_fills: None,
            timeliness: TimelinessStats::default(),
            correlation: None,
            dbcp: None,
            pf_queue_discards: 0,
            dram: None,
        }
    }

    fn add(&mut self, r: &RunResult, w: u64) {
        let c = &r.core;
        let d = &mut self.core;
        d.instructions += c.instructions * w;
        d.cycles += c.cycles * w;
        d.loads += c.loads * w;
        d.stores += c.stores * w;
        d.sw_prefetches += c.sw_prefetches * w;
        d.window_full_cycles += c.window_full_cycles * w;

        let h = &r.hierarchy;
        let t = &mut self.hierarchy;
        t.l1_accesses += h.l1_accesses * w;
        t.l1_hits += h.l1_hits * w;
        t.vc_hits += h.vc_hits * w;
        t.l2_accesses += h.l2_accesses * w;
        t.l2_hits += h.l2_hits * w;
        t.mem_accesses += h.mem_accesses * w;
        t.pf_enqueued += h.pf_enqueued * w;
        t.pf_issued += h.pf_issued * w;
        t.pf_fills += h.pf_fills * w;
        t.pf_redundant += h.pf_redundant * w;
        t.pf_dropped_live += h.pf_dropped_live * w;
        t.addr_predictions += h.addr_predictions * w;
        t.addr_correct += h.addr_correct * w;
        t.l1_writebacks += h.l1_writebacks * w;
        t.l2_writebacks += h.l2_writebacks * w;
        t.decay_misses += h.decay_misses * w;
        t.decay_off_cycles += h.decay_off_cycles * w;

        self.breakdown.cold += r.breakdown.cold * w;
        self.breakdown.conflict += r.breakdown.conflict * w;
        self.breakdown.capacity += r.breakdown.capacity * w;

        // Distribution-shaped stats only expose merging; applying the
        // weight as repeated merges keeps every histogram's counts
        // consistent with the scaled counters. Weights are interval
        // counts (budget / interval), so this stays small.
        for _ in 0..w {
            self.metrics.merge(&r.metrics);
            self.timeliness.merge(&r.timeliness);
        }

        if let Some(v) = r.victim {
            let d = self.victim.get_or_insert_with(VictimStats::default);
            d.offered += v.offered * w;
            d.admitted += v.admitted * w;
            d.probes += v.probes * w;
            d.hits += v.hits * w;
        }
        if let Some(v) = r.victim_swap_fills {
            *self.victim_swap_fills.get_or_insert(0) += v * w;
        }
        if let Some(v) = r.correlation {
            let d = self
                .correlation
                .get_or_insert_with(CorrelationStats::default);
            d.lookups += v.lookups * w;
            d.hits += v.hits * w;
            d.updates += v.updates * w;
            d.allocations += v.allocations * w;
        }
        if let Some(v) = r.dbcp {
            let d = self
                .dbcp
                .get_or_insert_with(timekeeping::DbcpStats::default);
            d.lookups += v.lookups * w;
            d.predictions += v.predictions * w;
            d.prefetches += v.prefetches * w;
            d.updates += v.updates * w;
        }
        self.pf_queue_discards += r.pf_queue_discards * w;
        if let Some(v) = r.dram {
            let d = self.dram.get_or_insert_with(DramStats::default);
            d.reads += v.reads * w;
            d.writes += v.writes * w;
            d.row_hits += v.row_hits * w;
            d.row_closed += v.row_closed * w;
            d.row_conflicts += v.row_conflicts * w;
            d.bank_wait_cycles += v.bank_wait_cycles * w;
            d.bus_wait_cycles += v.bus_wait_cycles * w;
            d.read_latency_cycles += v.read_latency_cycles * w;
        }
    }

    fn into_result(self, workload: &str, stats: SampleStats) -> RunResult {
        RunResult {
            workload: workload.to_owned(),
            core: self.core,
            hierarchy: self.hierarchy,
            breakdown: self.breakdown,
            metrics: self.metrics,
            victim: self.victim,
            victim_swap_fills: self.victim_swap_fills,
            timeliness: self.timeliness,
            correlation: self.correlation,
            dbcp: self.dbcp,
            pf_queue_discards: self.pf_queue_discards,
            dram: self.dram,
            sampled: Some(stats),
            coherence: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Sample checkpoints (the sweep-level reuse plane, see `crate::ckpt`)
// ---------------------------------------------------------------------------

/// Everything a sampled run computes *before* timing: the clustering
/// election plus, per elected shard, the warmed functional state at its
/// boundary and the exact stream slice it replays. A checkpoint is a
/// pure function of the functional fingerprint (workload stream,
/// geometry, budget, interval, k — see [`crate::ckpt`]), so every
/// timing-only configuration variant of one stream shares it, and a
/// timed run reconstructed from a checkpoint is bit-identical to the
/// inline warm-and-time loop it replaces.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleCheckpoint {
    pub(crate) fingerprint: String,
    pub(crate) workload: String,
    pub(crate) interval: u64,
    pub(crate) k: u32,
    /// Number of whole intervals the budget divided into.
    pub(crate) intervals: u64,
    pub(crate) budget: u64,
    /// Shards that are cluster representatives (the trailing
    /// sub-interval tail shard, when present, is not one).
    pub(crate) reps: u32,
    /// Line → index of the interval that first touched it, shared by
    /// every shard's classification shadow (a shard at interval `i`
    /// treats a line as seen iff its first touch came before `i`).
    pub(crate) first_touch: std::sync::Arc<LineMap<u32>>,
    pub(crate) shards: Vec<RepShard>,
}

/// One independently runnable timing shard: a representative interval
/// (or the tail) with the warmed state at its boundary and its stream
/// slice.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RepShard {
    /// Interval index of this representative.
    pub(crate) rep_index: u64,
    /// Cluster population (stat weight; 1 for the tail).
    pub(crate) weight: u64,
    /// Instructions to run (the interval length, or the tail length).
    pub(crate) length: u64,
    /// Gap ops of `stream[0]` already consumed by the previous interval
    /// (boundaries can fall mid-gap).
    pub(crate) start_ops_done: u32,
    /// The buffered accesses of this interval, plus one extra entry so
    /// the replay knows the trailing gap. The core fetches at most
    /// `length` instructions, which this slice covers exactly.
    pub(crate) stream: Vec<BufInstr>,
    /// Warmed L1 residents (set-major, LRU→MRU within each set — the
    /// refill order) and their dirty bits.
    pub(crate) l1_lines: Vec<u64>,
    pub(crate) l1_dirty: Vec<bool>,
    /// Warmed L2 residents, same order contract.
    pub(crate) l2_lines: Vec<u64>,
    /// Fully-associative classification-shadow residents, LRU→MRU.
    pub(crate) shadow_stack: Vec<u64>,
}

impl SampleCheckpoint {
    /// Number of independently schedulable timing shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The functional fingerprint this checkpoint was keyed under.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Rough heap footprint, for the store's byte budget.
    pub(crate) fn approx_bytes(&self) -> usize {
        let shards: usize = self
            .shards
            .iter()
            .map(|s| {
                s.stream.len() * std::mem::size_of::<BufInstr>()
                    + (s.l1_lines.len() + s.l2_lines.len() + s.shadow_stack.len()) * 8
                    + s.l1_dirty.len()
                    + 128
            })
            .sum();
        // Hash-map overhead per first-touch entry: key + value + bucket
        // slack, call it 24 bytes.
        shards + self.first_touch.len() * 24 + 256
    }
}

/// Whether a sampled run of `sc` at `budget` takes the buffered
/// checkpoint path (as opposed to the degenerate-full or streaming
/// fallbacks). The single eligibility predicate shared by
/// [`run_sampled`] and the engine's sweep planner, so the two can never
/// disagree about which jobs shard.
pub(crate) fn checkpointable(sc: SampleConfig, budget: u64) -> bool {
    let n = budget / sc.interval;
    n > 0 && u64::from(sc.k) < n && budget <= BUFFER_CAP_INSTRS
}

/// Hands a stream buffer back to the thread-local pool.
fn return_buf(mut buf: Vec<BufInstr>) {
    BUF_POOL.with(|p| {
        let pool = &mut *p.borrow_mut();
        if pool.capacity() < buf.capacity() {
            *pool = std::mem::take(&mut buf);
        }
    });
}

/// Snapshots the warm state at interval `rep_index`'s boundary into an
/// independently runnable shard. `end_entry` is the first buffered entry
/// past the interval (or `buf.len()` for the tail).
fn make_shard(
    warm: &WarmState,
    buf: &[BufInstr],
    start: BufPos,
    end_entry: usize,
    rep_index: u64,
    length: u64,
    weight: u64,
) -> RepShard {
    // One entry past the boundary: the replay needs its `op_gap` to emit
    // the interval's trailing compute run. (The access itself belongs to
    // the next interval and is never fetched — the core stops at
    // `length` instructions.)
    let slice_end = (end_entry + 1).min(buf.len());
    let l1_lines: Vec<u64> = warm.oracle.l1_lines().iter().map(|l| l.get()).collect();
    let l1_dirty = l1_lines.iter().map(|&l| warm.shadow.is_dirty(l)).collect();
    RepShard {
        rep_index,
        weight,
        length,
        start_ops_done: start.ops_done,
        stream: buf[start.entry as usize..slice_end].to_vec(),
        l1_lines,
        l1_dirty,
        l2_lines: warm.oracle.l2_lines().iter().map(|l| l.get()).collect(),
        shadow_stack: warm.shadow.resident_stack(),
    }
}

/// Profiles, clusters, and functionally warms `workload` once, emitting
/// the complete checkpoint. Returns `None` when the generator overflows
/// the compact stream encoding (the caller then streams instead —
/// bit-identical, just not checkpointable). The caller must have
/// checked [`checkpointable`].
pub(crate) fn build_checkpoint<W: Workload + ?Sized>(
    workload: &W,
    cfg: &SystemConfig,
    sc: SampleConfig,
    budget: u64,
    fingerprint: String,
) -> Option<SampleCheckpoint> {
    let prof = workload.fork()?;
    let num_intervals = budget / sc.interval;
    let tail = budget % sc.interval;
    debug_assert!(
        checkpointable(sc, budget),
        "caller gates on checkpointable()"
    );
    let mut buf = BUF_POOL.with(|p| std::mem::take(&mut *p.borrow_mut()));
    buf.clear();
    // Worst case every instruction is a memory access; reserving the
    // budget up front guarantees pushes never reallocate mid-pass.
    buf.reserve(budget as usize);
    let (sigs, bounds) =
        profile_signatures(prof, cfg, sc.interval, num_intervals, tail, Some(&mut buf));
    if bounds.len() != num_intervals as usize + 1 {
        return_buf(buf);
        return None;
    }
    let clusters = cluster_intervals(&sigs, sc.k, kmeans_seed(workload.name(), sc));

    // Warm pass: identical stream walk to the inline loop, but at each
    // representative boundary the warm state is snapshotted into a shard
    // instead of being timed in place.
    let mut warm = WarmState::new(cfg);
    let mut shards = Vec::with_capacity(clusters.len() + usize::from(tail > 0));
    let mut next = 0usize;
    for i in 0..num_intervals {
        warm.shadow.set_epoch(i as u32);
        let start = bounds[i as usize];
        let end = bounds[i as usize + 1].entry as usize;
        if next < clusters.len() && clusters[next].rep == i {
            shards.push(make_shard(
                &warm,
                &buf,
                start,
                end,
                i,
                sc.interval,
                clusters[next].weight,
            ));
            next += 1;
        }
        if next == clusters.len() && tail == 0 {
            break; // nothing downstream needs further warmup
        }
        warm.advance_buf(&buf[start.entry as usize..end]);
    }
    if tail > 0 {
        shards.push(make_shard(
            &warm,
            &buf,
            bounds[num_intervals as usize],
            buf.len(),
            num_intervals,
            tail,
            1,
        ));
    }
    let first_touch = std::sync::Arc::new(warm.shadow.first_touch_map());
    return_buf(buf);
    Some(SampleCheckpoint {
        fingerprint,
        workload: workload.name().to_owned(),
        interval: sc.interval,
        k: sc.k,
        intervals: num_intervals,
        budget,
        reps: clusters.len() as u32,
        first_touch,
        shards,
    })
}

/// Seeds a fresh machine from a shard's snapshot — the checkpoint-plane
/// equivalent of [`inject`], reproducing the same L1/L2 tags, dirty
/// bits, generation plane, classification shadow (via the shared
/// first-touch map cut at this shard's interval) and, when `checked`,
/// a lockstep checker whose oracle is rebuilt from the line lists.
fn inject_shard(
    mem: &mut MemorySystem,
    ckpt: &SampleCheckpoint,
    shard: &RepShard,
    cfg: &SystemConfig,
    checked: bool,
) -> MissBreakdown {
    let g1 = cfg.machine.l1d;
    for (&line, &dirty) in shard.l1_lines.iter().zip(&shard.l1_dirty) {
        let line = LineAddr::new(line);
        let (frame, evicted) = mem.l1d.fill(g1.addr_of_line(line));
        debug_assert!(evicted.is_none(), "injection into an empty cache");
        mem.obs.gens.plane.fill(frame, line, Cycle::ZERO);
        if dirty {
            mem.l1d.mark_dirty(frame);
        }
    }
    let g2 = cfg.machine.l2;
    for &line in &shard.l2_lines {
        mem.l2.fill(g2.addr_of_line(LineAddr::new(line)));
    }
    mem.shadow = FullyAssocShadow::from_parts_epoch(
        g1.num_frames() as usize,
        shard.shadow_stack.iter().copied(),
        std::sync::Arc::clone(&ckpt.first_touch),
        shard.rep_index as u32,
        MissBreakdown::default(),
    );
    let baseline = mem.shadow.breakdown();
    if checked {
        let oracle = FunctionalOracle::from_lines(cfg, &shard.l1_lines, &shard.l2_lines);
        mem.checker = Some(Box::new(LockstepChecker::from_oracle(oracle)));
    }
    baseline
}

/// Runs one shard of a checkpoint under the full timing model of `cfg`
/// (which must share the checkpoint's functional fingerprint — timing
/// knobs are free, geometry is not). Shards are independent: the engine
/// schedules them on separate workers and merges with
/// [`assemble_shards`].
pub fn run_shard(
    ckpt: &SampleCheckpoint,
    cfg: SystemConfig,
    index: usize,
    checked: bool,
) -> RunResult {
    let shard = &ckpt.shards[index];
    debug_assert!(
        cfg.sample
            .is_none_or(|sc| (sc.interval, sc.k) == (ckpt.interval, ckpt.k)),
        "config and checkpoint disagree on sampling parameters"
    );
    let mut mem = MemorySystem::new(cfg);
    let baseline = inject_shard(&mut mem, ckpt, shard, &cfg, checked);
    let mut wl = BufReplay::new(
        &shard.stream,
        BufPos {
            entry: 0,
            ops_done: shard.start_ops_done,
        },
        &ckpt.workload,
    );
    time_interval(
        &mut wl,
        mem,
        baseline,
        &cfg,
        shard.length,
        shard.rep_index,
        shard.weight,
    )
}

/// Merges per-shard results — in the checkpoint's fixed shard order —
/// into the whole-run weighted reconstruction. `shard_results[i]` must
/// be [`run_shard`]`(ckpt, cfg, i, _)`.
///
/// # Panics
///
/// Panics when the result count does not match the shard count.
pub fn assemble_shards(ckpt: &SampleCheckpoint, shard_results: &[RunResult]) -> RunResult {
    assert_eq!(
        shard_results.len(),
        ckpt.shards.len(),
        "one result per shard"
    );
    let mut agg = Aggregate::new();
    let mut timed = 0u64;
    for (shard, r) in ckpt.shards.iter().zip(shard_results) {
        agg.add(r, shard.weight);
        timed += shard.length;
    }
    agg.into_result(
        &ckpt.workload,
        SampleStats {
            interval: ckpt.interval,
            k: ckpt.k,
            intervals: ckpt.intervals,
            representatives: ckpt.reps,
            timed_instructions: timed,
        },
    )
}

/// Runs every shard sequentially and assembles — the single-job path
/// through the checkpoint plane.
pub(crate) fn run_from_checkpoint(
    ckpt: &SampleCheckpoint,
    cfg: SystemConfig,
    checked: bool,
) -> RunResult {
    let results: Vec<RunResult> = (0..ckpt.shards.len())
        .map(|i| run_shard(ckpt, cfg, i, checked))
        .collect();
    assemble_shards(ckpt, &results)
}

// ---------------------------------------------------------------------------
// The sampled run
// ---------------------------------------------------------------------------

/// Runs `budget` instructions of `workload` under `cfg` by statistical
/// sampling, or returns `None` when the workload cannot be forked (the
/// caller then falls back to full simulation, untagged).
///
/// Degenerate parameters — a budget smaller than one interval, or
/// `k >= intervals` so clustering could skip nothing — run the full
/// timing model but still tag the result, because the configuration
/// (and its cache key) asked for sampling.
/// Budgets at or below this many instructions buffer the profiled
/// stream in memory (16 bytes per *memory access* — compute runs pack
/// into gap counts, so the buffer holds roughly a third to half of the
/// budget) and replay it in pass 2, halving generator cost. The cap
/// covers the figure default (8M: at most 128 MiB per engine thread,
/// and the recycled thread-local buffer keeps that a one-time cost);
/// larger budgets stream the generators twice instead of buffering.
const BUFFER_CAP_INSTRS: u64 = 8_000_000;

thread_local! {
    /// Recycled stream buffer: faulting in ~32 MiB of fresh pages per
    /// sampled run costs more than the warm pass it feeds, so each
    /// thread keeps its one buffer alive across runs.
    static BUF_POOL: std::cell::RefCell<Vec<BufInstr>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

pub(crate) fn run_sampled<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    sc: SampleConfig,
    budget: u64,
    checked: bool,
) -> Option<RunResult> {
    let prof = workload.fork()?;
    let num_intervals = budget / sc.interval;
    let tail = budget % sc.interval;
    if num_intervals == 0 || u64::from(sc.k) >= num_intervals {
        drop(prof);
        let mut sys = if checked {
            SimSystem::checked(cfg)
        } else {
            SimSystem::new(cfg)
        };
        let mut r = sys.run(workload, budget);
        r.sampled = Some(SampleStats {
            interval: sc.interval,
            k: sc.k,
            intervals: num_intervals,
            representatives: num_intervals as u32,
            timed_instructions: budget,
        });
        return Some(r);
    }

    drop(prof);

    // Buffered path: runs through the checkpoint plane. The checkpoint
    // (profile, clustering, warm shard states, recorded stream slices)
    // is obtained from the store — or built transiently when the store
    // is disabled or cold — and the timed shards replay from it. A
    // stored checkpoint is the complete input to the timed half, so
    // reuse is bit-identical to a cold build by construction.
    if budget <= BUFFER_CAP_INSTRS {
        if let Some(ckpt) = crate::ckpt::obtain(workload, &cfg, sc, budget) {
            return Some(run_from_checkpoint(&ckpt, cfg, checked));
        }
        // The generator overflowed the compact stream encoding; the
        // streaming pass below handles it (bit-identical, just slower).
    }

    // Streaming fallback: profile without recording, then re-generate,
    // forking at representative boundaries.
    let prof = workload.fork().expect("fork succeeded above");
    let (sigs, _) = profile_signatures(prof, &cfg, sc.interval, num_intervals, tail, None);
    let clusters = cluster_intervals(&sigs, sc.k, kmeans_seed(workload.name(), sc));

    let mut warm = WarmState::new(&cfg);
    let mut agg = Aggregate::new();
    let mut next = 0usize;
    let mut timed = 0u64;
    let mut stream = workload.fork().expect("fork succeeded above");
    for i in 0..num_intervals {
        if next < clusters.len() && clusters[next].rep == i {
            let cl = clusters[next];
            let mut rep_wl = stream.fork().expect("forkable workload stays forkable");
            let r = run_rep(&mut *rep_wl, &warm, cfg, sc.interval, i, cl.weight, checked);
            agg.add(&r, cl.weight);
            timed += sc.interval;
            next += 1;
        }
        if next == clusters.len() && tail == 0 {
            break; // nothing downstream needs further warmup
        }
        warm.advance(&mut stream, sc.interval);
    }
    if tail > 0 {
        let r = run_rep(&mut stream, &warm, cfg, tail, num_intervals, 1, checked);
        agg.add(&r, 1);
        timed += tail;
    }

    Some(agg.into_result(
        workload.name(),
        SampleStats {
            interval: sc.interval,
            k: sc.k,
            intervals: num_intervals,
            representatives: clusters.len() as u32,
            timed_instructions: timed,
        },
    ))
}

/// Test hook for the oracle-warmup soundness property: fast-forwards
/// through `prefix` instructions functionally, then runs `suffix`
/// instructions under the timing model from the warmed state. The
/// returned L1-level outcomes (`l1_accesses`, `l1_hits`, `vc_hits`,
/// `breakdown`) must equal the corresponding deltas between full timing
/// runs of `prefix + suffix` and `prefix` instructions, for every
/// configuration whose tag state is timing-independent.
#[doc(hidden)]
pub fn warm_prefix_then_time<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    prefix: u64,
    suffix: u64,
) -> RunResult {
    let mut warm = WarmState::new(&cfg);
    warm.advance(workload, prefix);
    run_rep(
        workload,
        &warm,
        cfg,
        suffix,
        0,
        1,
        crate::oracle::lockstep_check_enabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekeeping::{Addr, Pc};

    #[test]
    fn parse_sample_arg_accepts_defaults_and_pairs() {
        assert_eq!(parse_sample_arg("").unwrap(), SampleConfig::DEFAULT);
        assert_eq!(
            parse_sample_arg("50000,8").unwrap(),
            SampleConfig {
                interval: 50_000,
                k: 8
            }
        );
        assert_eq!(
            parse_sample_arg(" 1000 , 2 ").unwrap(),
            SampleConfig {
                interval: 1000,
                k: 2
            }
        );
        assert!(parse_sample_arg("1000").is_err());
        assert!(parse_sample_arg("0,4").is_err());
        assert!(parse_sample_arg("1000,0").is_err());
        assert!(parse_sample_arg("x,y").is_err());
    }

    #[test]
    fn sample_stats_snapshot_round_trips() {
        let s = SampleStats {
            interval: 100_000,
            k: 10,
            intervals: 80,
            representatives: 9,
            timed_instructions: 950_000,
        };
        assert_eq!(SampleStats::from_json(&s.to_json()).unwrap(), s);
    }

    /// The lazily-reconstructed warm shadow must hand
    /// `to_fully_assoc` exactly the state a reference
    /// `FullyAssocShadow` would have reached: same residency, same
    /// recency order, same seen set — at any point in the stream.
    #[test]
    fn warm_shadow_matches_reference_shadow() {
        let mut fast = WarmShadow::new(8);
        let mut reference = FullyAssocShadow::new(8);
        let mut rng = SplitMix(42);
        for step in 1..=10_000u32 {
            let line = rng.next() % 24; // 3× capacity: plenty of eviction
            fast.access(line, false);
            reference.classify_miss(LineAddr::new(line));
            if step % 2_500 == 0 {
                // Converted copies must continue classifying exactly
                // like the reference — residency, recency order and
                // the seen set all reconstruct from the stamps.
                let mut converted = fast.to_fully_assoc();
                let mut expect = reference.clone();
                assert_eq!(converted.len(), expect.len(), "step {step}");
                let mut probe = SplitMix(u64::from(step));
                for _ in 0..1000 {
                    let line = LineAddr::new(probe.next() % 24);
                    assert_eq!(
                        converted.classify_miss(line),
                        expect.classify_miss(line),
                        "step {step}"
                    );
                }
            }
        }
    }

    /// Stamp rebasing (the two-billion-access overflow path) must
    /// preserve relative recency and dirty bits exactly.
    #[test]
    fn warm_shadow_rebase_preserves_order_and_dirt() {
        let mut s = WarmShadow::new(4);
        for line in 0..6u64 {
            s.access(line, line == 3); // line 3 dirty
        }
        s.stamp = STAMP_MAX; // force the next access to rebase
        s.access(6, false);
        s.access(1, false); // re-touch: 1 becomes MRU again
        assert!(s.is_dirty(3));
        assert!(!s.is_dirty(2));
        let mut sh = s.to_fully_assoc();
        assert_eq!(sh.len(), 4);
        // Resident: the 4 most recent = {4, 5, 6, 1}; 0, 2, 3 pushed out.
        use timekeeping::MissKind;
        for line in [4u64, 5, 6, 1] {
            assert_eq!(sh.classify_miss(LineAddr::new(line)), MissKind::Conflict);
        }
        assert_eq!(sh.classify_miss(LineAddr::new(0)), MissKind::Capacity);
    }

    /// Dirty bits live in the same table but are L1 state, orthogonal
    /// to shadow residency: shadow eviction preserves them, explicit
    /// clears (L1 writeback) remove them.
    #[test]
    fn warm_shadow_tracks_dirty_bits_across_shadow_eviction() {
        let mut s = WarmShadow::new(4);
        s.access(1, true); // store: dirty
        s.access(2, false); // load: clean
        assert!(s.is_dirty(1));
        assert!(!s.is_dirty(2));
        for l in 10..14 {
            s.access(l, false); // push line 1 out of the stack
        }
        assert!(s.is_dirty(1), "shadow eviction keeps the L1 dirty bit");
        s.clear_dirty(1); // the L1 evicted it: written back
        assert!(!s.is_dirty(1));
        s.access(1, false);
        assert!(!s.is_dirty(1), "a returning line starts clean");
        let mut sh = s.to_fully_assoc();
        assert_eq!(sh.len(), 4, "stack is bounded by capacity");
        assert_eq!(
            sh.classify_miss(LineAddr::new(2)),
            timekeeping::MissKind::Capacity,
            "2 was pushed out of the stack but stays seen"
        );
    }

    #[test]
    fn kmeans_is_deterministic_and_partitions_weights() {
        let mut rng = SplitMix(7);
        let sigs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..SIG_DIMS)
                    .map(|d| {
                        let base = if i < 20 { 0.0 } else { 1.0 };
                        base + (rng.next_f64() - 0.5) * 0.01 + d as f64 * 0.0
                    })
                    .collect()
            })
            .collect();
        let a = cluster_intervals(&sigs, 4, 99);
        let b = cluster_intervals(&sigs, 4, 99);
        assert_eq!(a, b, "same inputs, same clustering");
        let total: u64 = a.iter().map(|c| c.weight).sum();
        assert_eq!(total, 40, "weights partition the intervals");
        for w in a.windows(2) {
            assert!(w[0].rep < w[1].rep, "representatives sorted and distinct");
        }
    }

    /// A synthetic forkable workload for the engine-level tests.
    #[derive(Clone)]
    struct Strided {
        at: u64,
        lines: u64,
    }
    impl Workload for Strided {
        fn next_instr(&mut self) -> Instr {
            self.at += 1;
            if self.at.is_multiple_of(4) {
                return Instr::Op;
            }
            let addr = (self.at * 97 % self.lines) * 32;
            let m = MemRef::new(Addr::new(addr), Pc::new(0x400 + (self.at % 7) * 4));
            if self.at.is_multiple_of(5) {
                Instr::Store(m)
            } else {
                Instr::Load(m)
            }
        }
        fn name(&self) -> &str {
            "strided"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }
    use crate::trace::MemRef;

    #[test]
    fn degenerate_budget_runs_fully_but_tagged() {
        let cfg = SystemConfig::base();
        let sc = SampleConfig {
            interval: 1_000_000,
            k: 10,
        };
        let mut wl = Strided { at: 0, lines: 4096 };
        let sampled = run_sampled(&mut wl.clone(), cfg, sc, 50_000, false).unwrap();
        let full = crate::run_workload(&mut wl, cfg, 50_000);
        let tag = sampled.sampled.expect("degenerate runs stay tagged");
        assert_eq!(tag.intervals, 0);
        assert_eq!(tag.timed_instructions, 50_000);
        assert_eq!(sampled.core, full.core, "degenerate sampling is a full run");
        assert_eq!(sampled.hierarchy, full.hierarchy);
    }

    #[test]
    fn sampled_run_reconstructs_the_full_budget() {
        let cfg = SystemConfig::base();
        let sc = SampleConfig {
            interval: 10_000,
            k: 3,
        };
        let budget = 205_000; // 20 whole intervals + 5k tail
        let mut wl = Strided { at: 0, lines: 8192 };
        let r = run_sampled(&mut wl, cfg, sc, budget, false).unwrap();
        let tag = r.sampled.expect("sampled tag present");
        assert_eq!(tag.intervals, 20);
        assert!(tag.representatives <= 3);
        assert_eq!(
            tag.timed_instructions,
            u64::from(tag.representatives) * sc.interval + 5_000
        );
        assert_eq!(
            r.core.instructions, budget,
            "weighted instructions reconstruct the budget exactly"
        );
        assert!(r.core.cycles > 0 && r.hierarchy.l1_accesses > 0);
        assert_eq!(
            r.hierarchy.l1_accesses,
            r.hierarchy.l1_hits + r.breakdown.total(),
            "accesses = hits + classified misses under weighting"
        );
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let cfg = SystemConfig::base();
        let sc = SampleConfig {
            interval: 5_000,
            k: 4,
        };
        let mut a = Strided { at: 0, lines: 8192 };
        let mut b = Strided { at: 0, lines: 8192 };
        let ra = run_sampled(&mut a, cfg, sc, 80_000, false).unwrap();
        let rb = run_sampled(&mut b, cfg, sc, 80_000, false).unwrap();
        assert_eq!(ra, rb);
    }
}
