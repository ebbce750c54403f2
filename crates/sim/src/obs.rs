//! The observability plane: structured event tracing and self-profiling.
//!
//! The simulator's own behavior is observable through the same staged
//! pipeline that drives the model (see [`crate::pipeline`]): a
//! [`TraceObserver`] registered as the *sixth* [`MemObserver`] streams
//! every Lookup/Hit/Miss/Fill/Evict event — plus generation open/close
//! and prefetch fire/arrival/discard — as compact [`TraceRecord`]s
//! through a bounded ring buffer into a binary sink and a JSONL sink.
//! A [`Profiler`] wraps scoped monotonic timers around the access path,
//! each observer dispatch, the clock-hopping fast path and the final
//! flush, and reports the wall-time breakdown (plus a hop-length
//! histogram) through the serde-free [`Snapshot`] plane.
//!
//! # Zero-cost-when-off contract
//!
//! Observability is configured **process-globally**, *not* through
//! [`SystemConfig`](crate::SystemConfig): it cannot change a result, so
//! enabling a trace never perturbs memo keys, disk-cache keys or golden
//! digests. (Everything that *can* change a result — the memory
//! backend, sampling, the core count — is a `SystemConfig` field.) When
//! disabled (the default), a [`MemorySystem`](crate::MemorySystem)
//! carries `None` for both the trace observer and the profiler: no
//! allocation happens at construction (the trace ring's capacity stays
//! 0 for the life of the system, which a `hierarchy` unit test asserts
//! over a full core run next to the no-per-tick-allocation invariant)
//! and the per-event cost is a single `Option` branch. Traced and
//! untraced runs are bit-identical: the trace observer runs last and
//! writes nothing into the [`Reactions`] scratchpad.
//!
//! # Sampling semantics
//!
//! `--trace` optionally filters by category
//! ([`TraceCategories::parse`]) and samples **1-in-N L1 sets**
//! ([`set_trace_sample`]): a record is kept iff its line's L1 set index
//! is divisible by N. Sampling by set (not by record) keeps every
//! record of a sampled set, so per-line generation stories stay intact
//! — the property per-record sampling would destroy.

use std::fs::File;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use timekeeping::snapshot::{Json, JsonReader, JsonWriter, Snapshot, SnapshotError};
use timekeeping::{CacheGeometry, Cycle, EvictCause, Histogram, LineAddr, MissKind};

use crate::pipeline::{
    C2cEvent, EvictEvent, FillEvent, HitEvent, InvalidateEvent, LookupEvent, MemObserver,
    MissEvent, Reactions, SnoopEvent,
};

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// One filterable family of trace records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// Every reference, before the L1 probe.
    Lookup,
    /// L1 hits.
    Hit,
    /// L1 misses (after ground-truth classification).
    Miss,
    /// Lines entering L1 frames (demand and prefetch fills).
    Fill,
    /// Lines leaving L1 frames.
    Evict,
    /// Generation open/close markers.
    Gen,
    /// Prefetch lifecycle: fire (issue), arrival, discard.
    Prefetch,
    /// DRAM device events (banked backend only): reads and writebacks
    /// reaching the memory device, with their row-buffer outcome.
    Dram,
    /// Statistical-sampling markers (sampled runs only): one record per
    /// representative interval entering timed simulation.
    Sample,
    /// Coherence traffic (multi-core runs only): bus snoops,
    /// invalidations, and cache-to-cache transfers.
    Coherence,
    /// The raw demand-reference stream (one record per load/store
    /// entering the L1, before any cache state is consulted) — the
    /// capture side of the capture→replay loop: `tk_trace_export`
    /// turns these records into a replayable trace file. **Opt-in
    /// only**: excluded from [`TraceCategories::all`] (and therefore
    /// from bare `--trace`) because one record per reference dwarfs
    /// every other category; select it explicitly with `--trace=ref`.
    Ref,
}

impl TraceCategory {
    /// Every category, in presentation order.
    pub const ALL: [TraceCategory; 11] = [
        TraceCategory::Lookup,
        TraceCategory::Hit,
        TraceCategory::Miss,
        TraceCategory::Fill,
        TraceCategory::Evict,
        TraceCategory::Gen,
        TraceCategory::Prefetch,
        TraceCategory::Dram,
        TraceCategory::Sample,
        TraceCategory::Coherence,
        TraceCategory::Ref,
    ];

    /// The canonical lowercase name (what `--trace=CATS` accepts).
    pub fn name(self) -> &'static str {
        match self {
            TraceCategory::Lookup => "lookup",
            TraceCategory::Hit => "hit",
            TraceCategory::Miss => "miss",
            TraceCategory::Fill => "fill",
            TraceCategory::Evict => "evict",
            TraceCategory::Gen => "gen",
            TraceCategory::Prefetch => "prefetch",
            TraceCategory::Dram => "dram",
            TraceCategory::Sample => "sample",
            TraceCategory::Coherence => "coh",
            TraceCategory::Ref => "ref",
        }
    }

    fn bit(self) -> u16 {
        match self {
            TraceCategory::Lookup => 1 << 0,
            TraceCategory::Hit => 1 << 1,
            TraceCategory::Miss => 1 << 2,
            TraceCategory::Fill => 1 << 3,
            TraceCategory::Evict => 1 << 4,
            TraceCategory::Gen => 1 << 5,
            TraceCategory::Prefetch => 1 << 6,
            TraceCategory::Dram => 1 << 7,
            TraceCategory::Sample => 1 << 8,
            TraceCategory::Coherence => 1 << 9,
            TraceCategory::Ref => 1 << 10,
        }
    }
}

/// A set of [`TraceCategory`]s, as a bitmask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCategories(u16);

impl TraceCategories {
    /// The empty set.
    pub fn none() -> Self {
        TraceCategories(0)
    }

    /// Every category **except** [`TraceCategory::Ref`], which is
    /// opt-in only (`--trace=ref`): the per-reference capture stream
    /// would dwarf every other category, and excluding it keeps bare
    /// `--trace` output (and the golden obs summaries pinned against
    /// it) unchanged.
    pub fn all() -> Self {
        TraceCategory::ALL
            .iter()
            .filter(|&&c| c != TraceCategory::Ref)
            .fold(Self::none(), |s, &c| s.with(c))
    }

    /// This set plus `cat`.
    pub fn with(self, cat: TraceCategory) -> Self {
        TraceCategories(self.0 | cat.bit())
    }

    /// Whether `cat` is in the set.
    pub fn contains(self, cat: TraceCategory) -> bool {
        self.0 & cat.bit() != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated category list (`"miss,fill,evict"`).
    /// `"all"` selects everything except the opt-in `ref` capture
    /// category (combine as `"all,ref"` to add it); `"pf"` is an alias
    /// for `"prefetch"` and `"coherence"` for `"coh"`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown category.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut out = Self::none();
        for part in s.split(',') {
            let part = part.trim().to_ascii_lowercase();
            if part.is_empty() {
                continue;
            }
            if part == "all" {
                out = TraceCategories(out.0 | Self::all().0);
                continue;
            }
            let cat = TraceCategory::ALL.iter().copied().find(|c| {
                c.name() == part
                    || (part == "pf" && *c == TraceCategory::Prefetch)
                    || (part == "coherence" && *c == TraceCategory::Coherence)
            });
            match cat {
                Some(c) => out = out.with(c),
                None => {
                    return Err(format!(
                        "unknown trace category `{part}` (known: {}, all)",
                        TraceCategory::ALL.map(|c| c.name()).join(", ")
                    ))
                }
            }
        }
        if out.is_empty() {
            return Err("empty trace category list".to_owned());
        }
        Ok(out)
    }
}

impl std::fmt::Display for TraceCategories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = TraceCategory::ALL
            .iter()
            .filter(|c| self.contains(**c))
            .map(|c| c.name())
            .collect();
        write!(f, "{}", names.join(","))
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The kind of one trace record. Each kind belongs to one
/// [`TraceCategory`] (see [`TraceKind::category`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A reference probing the L1 (`aux` = PC).
    Lookup = 0,
    /// An L1 hit (`aux` = frame).
    Hit = 1,
    /// An L1 miss (`aux` = [`MissKind`] code: 0 cold, 1 conflict,
    /// 2 capacity).
    Miss = 2,
    /// A line entering a frame (`aux` = frame×2 + demand bit).
    Fill = 3,
    /// A line leaving a frame (`aux` = [`EvictCause`] code: 0 demand,
    /// 1 prefetch, 2 flush).
    Evict = 4,
    /// A generation opened in a frame (`aux` = frame).
    GenOpen = 5,
    /// A generation closed (`aux` = live time of the closed generation).
    GenClose = 6,
    /// A prefetch issued to the lower hierarchy (`aux` = arrival cycle).
    PfFire = 7,
    /// A prefetch fill landed in the L1 (`aux` = frame).
    PfArrival = 8,
    /// A prefetch was discarded (`aux`: 0 queue overflow,
    /// 1 displaced-resident-live drop).
    PfDiscard = 9,
    /// A read reached the DRAM device (banked backend only; `aux` =
    /// [`RowOutcome`](crate::dram::RowOutcome) code: 0 hit, 1 closed,
    /// 2 conflict).
    DramRead = 10,
    /// A writeback reached the DRAM device (banked backend only; `aux`
    /// as for [`TraceKind::DramRead`]).
    DramWrite = 11,
    /// A representative interval entered timed simulation (sampled runs
    /// only; `line` = interval index, `aux` = cluster weight in
    /// intervals).
    SampleRep = 12,
    /// A coherence bus transaction snooped by every core (multi-core
    /// only; `aux` = requester core + kind×256: 0 BusRd, 1 BusRdX,
    /// 2 upgrade).
    Snoop = 13,
    /// A line copy killed by coherence (multi-core only; `aux` = the
    /// owning core that lost the copy).
    Invalidate = 14,
    /// A cache-to-cache transfer: a modified line supplied by its owner
    /// (multi-core only; `aux` = from core + to core×256).
    C2c = 15,
    /// A demand reference entering the L1, recorded before any cache
    /// state is consulted (`--trace=ref` only; `line` = L1 line
    /// address, `aux` = PC×2 + store bit). `tk_trace_export` rebuilds a
    /// replayable trace file from these records.
    Access = 16,
}

impl TraceKind {
    /// Every kind, indexable by its `u8` value.
    pub const ALL: [TraceKind; 17] = [
        TraceKind::Lookup,
        TraceKind::Hit,
        TraceKind::Miss,
        TraceKind::Fill,
        TraceKind::Evict,
        TraceKind::GenOpen,
        TraceKind::GenClose,
        TraceKind::PfFire,
        TraceKind::PfArrival,
        TraceKind::PfDiscard,
        TraceKind::DramRead,
        TraceKind::DramWrite,
        TraceKind::SampleRep,
        TraceKind::Snoop,
        TraceKind::Invalidate,
        TraceKind::C2c,
        TraceKind::Access,
    ];

    /// The canonical name used in the JSONL encoding and summaries.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Lookup => "lookup",
            TraceKind::Hit => "hit",
            TraceKind::Miss => "miss",
            TraceKind::Fill => "fill",
            TraceKind::Evict => "evict",
            TraceKind::GenOpen => "gen_open",
            TraceKind::GenClose => "gen_close",
            TraceKind::PfFire => "pf_fire",
            TraceKind::PfArrival => "pf_arrival",
            TraceKind::PfDiscard => "pf_discard",
            TraceKind::DramRead => "dram_read",
            TraceKind::DramWrite => "dram_write",
            TraceKind::SampleRep => "sample_rep",
            TraceKind::Snoop => "snoop",
            TraceKind::Invalidate => "invalidate",
            TraceKind::C2c => "c2c",
            TraceKind::Access => "access",
        }
    }

    /// The filter category this kind belongs to.
    pub fn category(self) -> TraceCategory {
        match self {
            TraceKind::Lookup => TraceCategory::Lookup,
            TraceKind::Hit => TraceCategory::Hit,
            TraceKind::Miss => TraceCategory::Miss,
            TraceKind::Fill => TraceCategory::Fill,
            TraceKind::Evict => TraceCategory::Evict,
            TraceKind::GenOpen | TraceKind::GenClose => TraceCategory::Gen,
            TraceKind::PfFire | TraceKind::PfArrival | TraceKind::PfDiscard => {
                TraceCategory::Prefetch
            }
            TraceKind::DramRead | TraceKind::DramWrite => TraceCategory::Dram,
            TraceKind::SampleRep => TraceCategory::Sample,
            TraceKind::Snoop | TraceKind::Invalidate | TraceKind::C2c => TraceCategory::Coherence,
            TraceKind::Access => TraceCategory::Ref,
        }
    }

    /// Decodes a binary kind byte.
    pub fn from_u8(v: u8) -> Option<TraceKind> {
        Self::ALL.get(v as usize).copied()
    }

    /// Decodes a JSONL kind name.
    pub fn from_name(name: &str) -> Option<TraceKind> {
        Self::ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One flat trace record. The meaning of `aux` depends on the kind —
/// see the [`TraceKind`] variant docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// What happened.
    pub kind: TraceKind,
    /// When (core cycle; for decay-closed generations this is the
    /// switch-off point, which precedes the discovering access).
    pub cycle: u64,
    /// The line address involved.
    pub line: u64,
    /// Kind-specific payload.
    pub aux: u64,
}

/// Magic header opening every binary trace file.
pub const TRACE_MAGIC: &[u8; 8] = b"TKTRACE1";

/// Size of one binary-encoded record.
pub const RECORD_BYTES: usize = 25;

impl TraceRecord {
    /// Encodes the record into its 25-byte little-endian binary form.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut out = [0u8; RECORD_BYTES];
        out[0] = self.kind as u8;
        out[1..9].copy_from_slice(&self.cycle.to_le_bytes());
        out[9..17].copy_from_slice(&self.line.to_le_bytes());
        out[17..25].copy_from_slice(&self.aux.to_le_bytes());
        out
    }

    /// Decodes one 25-byte binary record.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown kind byte.
    pub fn from_bytes(b: &[u8; RECORD_BYTES]) -> Result<Self, String> {
        let kind = TraceKind::from_u8(b[0]).ok_or_else(|| format!("unknown kind byte {}", b[0]))?;
        let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
        Ok(TraceRecord {
            kind,
            cycle: word(1),
            line: word(9),
            aux: word(17),
        })
    }

    /// One human-readable line for `tk_obs_dump --pretty`.
    pub fn pretty(&self) -> String {
        format!(
            "{:>12}  {:<10}  line {:#x}  aux {}",
            self.cycle,
            self.kind.name(),
            self.line,
            self.aux
        )
    }
}

impl Snapshot for TraceRecord {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("aux", &self.aux);
            w.field("cycle", &self.cycle);
            w.key("kind").str(self.kind.name());
            w.field("line", &self.line);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        timekeeping::read_fields!(r, {
            aux: u64,
            cycle: u64,
            kind: String,
            line: u64,
        });
        let kind = TraceKind::from_name(&kind)
            .ok_or_else(|| SnapshotError::new(format!("unknown trace kind `{kind}`")))?;
        Ok(TraceRecord {
            kind,
            cycle,
            line,
            aux,
        })
    }
}

// ---------------------------------------------------------------------------
// Process-global configuration
// ---------------------------------------------------------------------------

/// The process-wide observability configuration, set by the shared
/// `--trace[=CATS]` / `--profile` / `--obs-out DIR` CLI flags and read
/// once per [`MemorySystem`](crate::MemorySystem) construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsConfig {
    /// Categories to trace; `None` disables tracing entirely.
    pub trace: Option<TraceCategories>,
    /// 1-in-N set sampling divisor (1 = every set).
    pub sample: u64,
    /// Whether self-profiling is enabled.
    pub profile: bool,
    /// Directory receiving trace/profile files; `None` keeps traces in
    /// memory (tests) and profile reports on stderr.
    pub out_dir: Option<PathBuf>,
}

impl ObsConfig {
    /// The disabled default.
    pub fn disabled() -> Self {
        ObsConfig {
            trace: None,
            sample: 1,
            profile: false,
            out_dir: None,
        }
    }
}

static OBS_CONFIG: Mutex<Option<ObsConfig>> = Mutex::new(None);
static OBS_SEQ: AtomicU64 = AtomicU64::new(0);

fn with_config<R>(f: impl FnOnce(&mut ObsConfig) -> R) -> R {
    let mut guard = OBS_CONFIG.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(ObsConfig::disabled))
}

/// The current process-wide observability configuration.
pub fn obs_config() -> ObsConfig {
    with_config(|c| c.clone())
}

/// Replaces the whole process-wide observability configuration.
pub fn set_obs_config(cfg: ObsConfig) {
    with_config(|c| *c = cfg);
}

/// Enables (`Some(categories)`) or disables (`None`) event tracing for
/// subsequently constructed memory systems.
pub fn set_trace(cats: Option<TraceCategories>) {
    with_config(|c| c.trace = cats);
}

/// Whether event tracing is currently enabled.
pub fn trace_enabled() -> bool {
    with_config(|c| c.trace.is_some())
}

/// Sets the 1-in-N set-sampling divisor (panics on 0).
pub fn set_trace_sample(n: u64) {
    assert!(n > 0, "sample divisor must be nonzero");
    with_config(|c| c.sample = n);
}

/// Enables or disables self-profiling for subsequently constructed
/// memory systems.
pub fn set_profile(enabled: bool) {
    with_config(|c| c.profile = enabled);
}

/// Sets the output directory for trace and profile files.
pub fn set_out_dir(dir: Option<PathBuf>) {
    with_config(|c| c.out_dir = dir);
}

/// The configured output directory, if any.
pub fn out_dir() -> Option<PathBuf> {
    with_config(|c| c.out_dir.clone())
}

/// Allocates the next per-process observability sequence number (used
/// to name `trace-NNNN.*` / `profile-NNNN.json` files uniquely when
/// several simulations run in one process).
pub fn next_seq() -> u64 {
    OBS_SEQ.fetch_add(1, Ordering::Relaxed) + 1
}

/// Applies one of the shared observability CLI flags, so every binary
/// parsing its arguments through `FigureOpts::parse` accepts the
/// identical syntax:
///
/// * `--trace[=CATS]` — enable tracing (all categories by default);
/// * `--trace-sample N` — keep 1-in-N L1 sets;
/// * `--profile` — enable self-profiling;
/// * `--obs-out DIR` — write trace/profile files into `DIR`.
///
/// `inline` is the `=value` part if the flag was written `--flag=value`;
/// `next` yields the following argument for space-separated values.
/// Returns `Ok(true)` when the flag was recognized and applied,
/// `Ok(false)` when it is not an observability flag.
///
/// # Errors
///
/// Returns a message for malformed values (unknown category, zero or
/// non-numeric sample, missing directory operand).
pub fn apply_cli_flag(
    flag: &str,
    inline: Option<&str>,
    next: &mut dyn FnMut() -> Option<String>,
) -> Result<bool, String> {
    match flag {
        "--trace" => {
            let cats = match inline {
                Some(s) => TraceCategories::parse(s)?,
                None => TraceCategories::all(),
            };
            set_trace(Some(cats));
            Ok(true)
        }
        "--trace-sample" => {
            let v = inline
                .map(str::to_owned)
                .or_else(next)
                .ok_or("--trace-sample needs a value")?;
            let n: u64 = v
                .parse()
                .map_err(|_| format!("--trace-sample needs an unsigned integer, got `{v}`"))?;
            if n == 0 {
                return Err("--trace-sample must be at least 1".to_owned());
            }
            set_trace_sample(n);
            Ok(true)
        }
        "--profile" => {
            set_profile(true);
            Ok(true)
        }
        "--obs-out" => {
            let v = inline
                .map(str::to_owned)
                .or_else(next)
                .ok_or("--obs-out needs a directory")?;
            set_out_dir(Some(v.into()));
            Ok(true)
        }
        _ => Ok(false),
    }
}

// ---------------------------------------------------------------------------
// The trace observer
// ---------------------------------------------------------------------------

/// Capacity of the bounded in-flight ring buffer; a full ring flushes
/// wholesale to the sinks.
pub const RING_CAPACITY: usize = 4096;

/// Where flushed records go.
#[derive(Debug)]
enum TraceSink {
    /// Accumulate in memory (tests, the golden `tk_obs_dump` run).
    Memory(Vec<TraceRecord>),
    /// Stream to a binary file and a JSONL file.
    Files {
        bin: BufWriter<File>,
        jsonl: BufWriter<File>,
        bin_path: PathBuf,
        jsonl_path: PathBuf,
    },
}

/// The sixth [`MemObserver`]: streams typed pipeline events as
/// [`TraceRecord`]s through a bounded ring into the configured sinks.
///
/// Dispatched **last**, and writes nothing into [`Reactions`], so its
/// presence cannot change simulation results.
#[derive(Debug)]
pub struct TraceObserver {
    cats: TraceCategories,
    sample: u64,
    geom: CacheGeometry,
    ring: Vec<TraceRecord>,
    sink: TraceSink,
    emitted: u64,
}

impl TraceObserver {
    /// A trace observer accumulating records in memory.
    pub fn memory(cats: TraceCategories, sample: u64, geom: CacheGeometry) -> Self {
        assert!(sample > 0, "sample divisor must be nonzero");
        TraceObserver {
            cats,
            sample,
            geom,
            ring: Vec::with_capacity(RING_CAPACITY),
            sink: TraceSink::Memory(Vec::new()),
            emitted: 0,
        }
    }

    /// A trace observer streaming into `dir/trace-SEQ.bin` and
    /// `dir/trace-SEQ.jsonl`.
    ///
    /// # Errors
    ///
    /// Fails when the directory or files cannot be created.
    pub fn files(
        cats: TraceCategories,
        sample: u64,
        geom: CacheGeometry,
        dir: &std::path::Path,
        seq: u64,
    ) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let bin_path = dir.join(format!("trace-{seq:04}.bin"));
        let jsonl_path = dir.join(format!("trace-{seq:04}.jsonl"));
        let mut bin = BufWriter::new(File::create(&bin_path)?);
        bin.write_all(TRACE_MAGIC)?;
        let jsonl = BufWriter::new(File::create(&jsonl_path)?);
        Ok(TraceObserver {
            cats,
            sample,
            geom,
            ring: Vec::with_capacity(RING_CAPACITY),
            sink: TraceSink::Files {
                bin,
                jsonl,
                bin_path,
                jsonl_path,
            },
            emitted: 0,
        })
    }

    /// Records kept so far (post filtering and sampling).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Current ring-buffer capacity in records (the zero-alloc probe
    /// reads this: bounded, and never grows past [`RING_CAPACITY`]).
    pub fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Whether this line's set survives 1-in-N sampling.
    #[inline]
    fn sampled(&self, line: LineAddr) -> bool {
        self.sample == 1 || self.geom.index_of_line(line).is_multiple_of(self.sample)
    }

    /// Filters, samples, and pushes one record; flushes a full ring.
    #[inline]
    pub(crate) fn push(&mut self, kind: TraceKind, cycle: Cycle, line: LineAddr, aux: u64) {
        if !self.cats.contains(kind.category()) || !self.sampled(line) {
            return;
        }
        self.ring.push(TraceRecord {
            kind,
            cycle: cycle.get(),
            line: line.get(),
            aux,
        });
        self.emitted += 1;
        if self.ring.len() >= RING_CAPACITY {
            self.flush();
        }
    }

    /// Drains the ring into the sink.
    fn flush(&mut self) {
        match &mut self.sink {
            TraceSink::Memory(store) => store.append(&mut self.ring),
            TraceSink::Files { bin, jsonl, .. } => {
                for rec in self.ring.drain(..) {
                    // Sink errors (disk full) are reported once at finish;
                    // dropping trace data must never kill a simulation.
                    let _ = bin.write_all(&rec.to_bytes());
                    let _ = writeln!(jsonl, "{}", rec.to_json_string());
                }
            }
        }
    }

    /// Flushes everything and syncs file sinks; returns the file paths
    /// when streaming to disk. Called from
    /// [`MemorySystem::finish`](crate::MemorySystem::finish).
    pub fn finish(&mut self) -> Option<(PathBuf, PathBuf)> {
        self.flush();
        match &mut self.sink {
            TraceSink::Memory(_) => None,
            TraceSink::Files {
                bin,
                jsonl,
                bin_path,
                jsonl_path,
            } => {
                if bin.flush().is_err() || jsonl.flush().is_err() {
                    eprintln!(
                        "warning: trace sink flush failed for {}",
                        bin_path.display()
                    );
                }
                Some((bin_path.clone(), jsonl_path.clone()))
            }
        }
    }

    /// Records one demand reference entering the L1 ([`TraceKind::Access`];
    /// `aux` packs the PC and the store bit). Called from the access
    /// pipeline before any cache state is consulted, so the captured
    /// stream is exactly the reference stream a replay must reproduce.
    #[inline]
    pub(crate) fn ref_event(&mut self, now: Cycle, line: LineAddr, pc: u64, is_store: bool) {
        let aux = pc.wrapping_mul(2).wrapping_add(u64::from(is_store));
        self.push(TraceKind::Access, now, line, aux);
    }

    /// The accumulated records of a memory-sink observer (flushed first).
    pub fn records(&mut self) -> &[TraceRecord] {
        self.flush();
        match &self.sink {
            TraceSink::Memory(store) => store,
            TraceSink::Files { .. } => &[],
        }
    }
}

/// Builds the trace observer described by the process-global
/// configuration, if tracing is enabled. A failure to create the file
/// sinks degrades to an in-memory trace with a warning rather than
/// killing the run.
pub(crate) fn trace_from_global(geom: CacheGeometry) -> Option<Box<TraceObserver>> {
    let cfg = obs_config();
    let cats = cfg.trace?;
    let obs = match &cfg.out_dir {
        Some(dir) => match TraceObserver::files(cats, cfg.sample, geom, dir, next_seq()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "warning: cannot create trace files in {}: {e}; tracing to memory",
                    dir.display()
                );
                TraceObserver::memory(cats, cfg.sample, geom)
            }
        },
        None => TraceObserver::memory(cats, cfg.sample, geom),
    };
    Some(Box::new(obs))
}

/// Builds a profiler when the process-global configuration asks for one.
pub(crate) fn profiler_from_global() -> Option<Box<Profiler>> {
    obs_config().profile.then(|| Box::new(Profiler::new()))
}

pub(crate) fn miss_kind_code(kind: MissKind) -> u64 {
    match kind {
        MissKind::Cold => 0,
        MissKind::Conflict => 1,
        MissKind::Capacity => 2,
    }
}

pub(crate) fn evict_cause_code(cause: EvictCause) -> u64 {
    match cause {
        EvictCause::Demand => 0,
        EvictCause::Prefetch => 1,
        EvictCause::Flush => 2,
        EvictCause::Invalidate => 3,
    }
}

impl MemObserver for TraceObserver {
    fn on_lookup(&mut self, ev: &LookupEvent, _rx: &mut Reactions) {
        let line = self.geom.line_of(ev.addr);
        self.push(TraceKind::Lookup, ev.now, line, ev.pc.get());
    }

    fn on_hit(&mut self, ev: &HitEvent, _rx: &mut Reactions) {
        self.push(TraceKind::Hit, ev.now, ev.line, ev.frame as u64);
    }

    fn on_miss(&mut self, ev: &MissEvent, _rx: &mut Reactions) {
        self.push(TraceKind::Miss, ev.now, ev.line, miss_kind_code(ev.kind));
    }

    fn on_fill(&mut self, ev: &FillEvent, _rx: &mut Reactions) {
        let aux = (ev.frame as u64) * 2 + u64::from(ev.demand);
        self.push(TraceKind::Fill, ev.now, ev.line, aux);
        // Every fill opens a generation.
        self.push(TraceKind::GenOpen, ev.now, ev.line, ev.frame as u64);
    }

    fn on_evict(&mut self, ev: &EvictEvent, rx: &mut Reactions) {
        self.push(TraceKind::Evict, ev.at, ev.line, evict_cause_code(ev.cause));
        // Dispatched last: the generation plane has already published
        // the closed record when one exists.
        if let Some(rec) = &rx.generation {
            self.push(TraceKind::GenClose, ev.at, ev.line, rec.live_time);
        }
    }

    fn on_snoop(&mut self, ev: &SnoopEvent, _rx: &mut Reactions) {
        let aux = u64::from(ev.requester) + ev.kind.code() * 256;
        self.push(TraceKind::Snoop, ev.at, ev.line, aux);
    }

    fn on_invalidate(&mut self, ev: &InvalidateEvent, _rx: &mut Reactions) {
        self.push(TraceKind::Invalidate, ev.at, ev.line, u64::from(ev.owner));
    }

    fn on_c2c(&mut self, ev: &C2cEvent, _rx: &mut Reactions) {
        let aux = u64::from(ev.from) + u64::from(ev.to) * 256;
        self.push(TraceKind::C2c, ev.at, ev.line, aux);
    }
}

// ---------------------------------------------------------------------------
// The profiler
// ---------------------------------------------------------------------------

/// A profiled section of the simulation loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfStage {
    /// One whole demand access ([`MemorySystem::access`](crate::MemorySystem::access)).
    Access = 0,
    /// Observer dispatch of Lookup events.
    ObsLookup = 1,
    /// Observer dispatch of Hit events.
    ObsHit = 2,
    /// Observer dispatch of Miss events.
    ObsMiss = 3,
    /// Observer dispatch of Fill events.
    ObsFill = 4,
    /// Observer dispatch of Evict events.
    ObsEvict = 5,
    /// The clock-hopping fast path ([`MemorySystem::advance`](crate::MemorySystem::advance)).
    Advance = 6,
    /// End-of-run generation flush ([`MemorySystem::finish`](crate::MemorySystem::finish)).
    Finish = 7,
}

impl ProfStage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, indexable by its `usize` value.
    pub const ALL: [ProfStage; ProfStage::COUNT] = [
        ProfStage::Access,
        ProfStage::ObsLookup,
        ProfStage::ObsHit,
        ProfStage::ObsMiss,
        ProfStage::ObsFill,
        ProfStage::ObsEvict,
        ProfStage::Advance,
        ProfStage::Finish,
    ];

    /// The stage's report name.
    pub fn name(self) -> &'static str {
        match self {
            ProfStage::Access => "access",
            ProfStage::ObsLookup => "obs_lookup",
            ProfStage::ObsHit => "obs_hit",
            ProfStage::ObsMiss => "obs_miss",
            ProfStage::ObsFill => "obs_fill",
            ProfStage::ObsEvict => "obs_evict",
            ProfStage::Advance => "advance",
            ProfStage::Finish => "finish",
        }
    }

    /// Whether timings of this stage count as observer-event dispatches
    /// (the events/sec denominator).
    fn is_event(self) -> bool {
        matches!(
            self,
            ProfStage::ObsLookup
                | ProfStage::ObsHit
                | ProfStage::ObsMiss
                | ProfStage::ObsFill
                | ProfStage::ObsEvict
        )
    }
}

/// Scoped-monotonic-timer profiler for one
/// [`MemorySystem`](crate::MemorySystem). Created when [`set_profile`]
/// is on; absent (and free) otherwise.
#[derive(Debug)]
pub struct Profiler {
    stage_ns: [u64; ProfStage::COUNT],
    stage_calls: [u64; ProfStage::COUNT],
    /// Clock-hop lengths in cycles (bucket width 64, 64 buckets; longer
    /// hops land in the top bucket).
    hops: Histogram,
    events: u64,
    started: Instant,
    finished: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A fresh profiler; the wall clock starts now.
    pub fn new() -> Self {
        Profiler {
            stage_ns: [0; ProfStage::COUNT],
            stage_calls: [0; ProfStage::COUNT],
            hops: Histogram::new(64, 64),
            events: 0,
            started: Instant::now(),
            finished: false,
        }
    }

    /// Accounts one timed scope.
    #[inline]
    pub fn record(&mut self, stage: ProfStage, elapsed: Duration) {
        let i = stage as usize;
        self.stage_ns[i] += elapsed.as_nanos() as u64;
        self.stage_calls[i] += 1;
        if stage.is_event() {
            self.events += 1;
        }
    }

    /// Records one clock hop of `cycles`.
    #[inline]
    pub fn record_hop(&mut self, cycles: u64) {
        self.hops.record(cycles);
    }

    /// Marks the run finished (idempotent); returns whether this call
    /// was the first.
    pub(crate) fn mark_finished(&mut self) -> bool {
        !std::mem::replace(&mut self.finished, true)
    }

    /// The report for everything recorded so far.
    pub fn report(&self) -> ProfileReport {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        ProfileReport {
            wall_ns,
            events: self.events,
            events_per_sec: if wall_ns == 0 {
                0
            } else {
                (self.events as u128 * 1_000_000_000 / wall_ns as u128) as u64
            },
            stages: ProfStage::ALL
                .iter()
                .map(|&s| StageStat {
                    name: s.name().to_owned(),
                    ns: self.stage_ns[s as usize],
                    calls: self.stage_calls[s as usize],
                })
                .collect(),
            hops: self.hops.clone(),
        }
    }
}

/// Wall time and call count of one profiled stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStat {
    /// Stage name (see [`ProfStage::name`]).
    pub name: String,
    /// Total nanoseconds spent in the stage.
    pub ns: u64,
    /// Times the stage ran.
    pub calls: u64,
}

/// A finished profiling report: wall-time breakdown per stage,
/// observer events/sec, and the clock-hop-length histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Wall nanoseconds from system construction to the report.
    pub wall_ns: u64,
    /// Observer events dispatched.
    pub events: u64,
    /// Observer events per wall-clock second.
    pub events_per_sec: u64,
    /// Per-stage totals, in [`ProfStage::ALL`] order.
    pub stages: Vec<StageStat>,
    /// Clock-hop lengths in cycles.
    pub hops: Histogram,
}

impl Snapshot for StageStat {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("calls", &self.calls);
            w.field("name", &self.name);
            w.field("ns", &self.ns);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        timekeeping::read_fields!(r, {
            calls: u64,
            name: String,
            ns: u64,
        });
        Ok(StageStat { name, ns, calls })
    }
}

impl Snapshot for ProfileReport {
    fn write_json(&self, w: &mut JsonWriter) {
        // Stages as an ordered array: JSON objects here sort keys
        // alphabetically, which would scramble the pipeline order.
        w.object(|w| {
            w.field("events", &self.events);
            w.field("events_per_sec", &self.events_per_sec);
            w.field("hop_cycles", &self.hops);
            w.field("stages", &self.stages);
            w.field("wall_ns", &self.wall_ns);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        timekeeping::read_fields!(r, {
            events: u64,
            events_per_sec: u64,
            hop_cycles: Histogram,
            stages: Vec<StageStat>,
            wall_ns: u64,
        });
        Ok(ProfileReport {
            wall_ns,
            events,
            events_per_sec,
            stages,
            hops: hop_cycles,
        })
    }
}

// ---------------------------------------------------------------------------
// Trace read-back and summarization (shared by tk_obs_dump and tests)
// ---------------------------------------------------------------------------

/// Reads a binary trace stream (with its [`TRACE_MAGIC`] header).
///
/// # Errors
///
/// Returns a message on I/O failure, a bad header, a truncated record,
/// or an unknown kind byte.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Vec<TraceRecord>, String> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|e| format!("cannot read trace header: {e}"))?;
    if &magic != TRACE_MAGIC {
        return Err("not a tk binary trace (bad magic)".to_owned());
    }
    let mut out = Vec::new();
    let mut buf = [0u8; RECORD_BYTES];
    loop {
        // Fill one record by hand: `read_exact` cannot distinguish a
        // clean end-of-stream from a truncated final record.
        let mut filled = 0;
        while filled < RECORD_BYTES {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read error after {} records: {e}", out.len())),
            }
        }
        match filled {
            0 => break,
            RECORD_BYTES => out.push(TraceRecord::from_bytes(&buf)?),
            _ => {
                return Err(format!(
                    "truncated record after {} records ({filled} of {RECORD_BYTES} bytes)",
                    out.len()
                ))
            }
        }
    }
    Ok(out)
}

/// Reads a JSONL trace stream (one record object per line).
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceRecord::from_json_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Summarizes `records`, keeping only categories in `filter`: per-kind
/// counts, cycle span, and distinct-line count. This is the exact JSON
/// `tk_obs_dump --summary` prints (and what the golden obs test pins).
pub fn summarize(records: &[TraceRecord], filter: TraceCategories) -> Json {
    let kept: Vec<&TraceRecord> = records
        .iter()
        .filter(|r| filter.contains(r.kind.category()))
        .collect();
    let mut by_kind = std::collections::BTreeMap::new();
    for kind in TraceKind::ALL {
        let n = kept.iter().filter(|r| r.kind == kind).count() as u64;
        if n > 0 {
            by_kind.insert(kind.name().to_owned(), Json::U64(n));
        }
    }
    let mut lines: Vec<u64> = kept.iter().map(|r| r.line).collect();
    lines.sort_unstable();
    lines.dedup();
    Json::obj([
        ("total_records", Json::U64(records.len() as u64)),
        ("kept_records", Json::U64(kept.len() as u64)),
        ("filter", Json::Str(filter.to_string())),
        ("by_kind", Json::Obj(by_kind)),
        (
            "first_cycle",
            kept.iter()
                .map(|r| r.cycle)
                .min()
                .map_or(Json::Null, Json::U64),
        ),
        (
            "last_cycle",
            kept.iter()
                .map(|r| r.cycle)
                .max()
                .map_or(Json::Null, Json::U64),
        ),
        ("distinct_lines", Json::U64(lines.len() as u64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekeeping::Addr;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 1, 32).unwrap()
    }

    #[test]
    fn categories_parse_and_display() {
        assert_eq!(
            TraceCategories::parse("all").unwrap(),
            TraceCategories::all()
        );
        let c = TraceCategories::parse("miss, fill,pf").unwrap();
        assert!(c.contains(TraceCategory::Miss));
        assert!(c.contains(TraceCategory::Fill));
        assert!(c.contains(TraceCategory::Prefetch));
        assert!(!c.contains(TraceCategory::Hit));
        assert_eq!(c.to_string(), "miss,fill,prefetch");
        assert!(TraceCategories::parse("bogus")
            .unwrap_err()
            .contains("bogus"));
        assert!(TraceCategories::parse("").is_err());
    }

    #[test]
    fn record_codecs_round_trip() {
        for (i, kind) in TraceKind::ALL.into_iter().enumerate() {
            let rec = TraceRecord {
                kind,
                cycle: 1_000_003 * (i as u64 + 1),
                line: 0xdead_beef ^ i as u64,
                aux: u64::MAX - i as u64,
            };
            assert_eq!(TraceRecord::from_bytes(&rec.to_bytes()).unwrap(), rec);
            let js = rec.to_json().render();
            assert_eq!(
                TraceRecord::from_json(&Json::parse(&js).unwrap()).unwrap(),
                rec
            );
        }
        assert!(TraceRecord::from_bytes(&[0xFF; RECORD_BYTES]).is_err());
    }

    #[test]
    fn binary_stream_round_trips_and_rejects_garbage() {
        let recs: Vec<TraceRecord> = (0..100)
            .map(|i| TraceRecord {
                kind: TraceKind::ALL[i % TraceKind::ALL.len()],
                cycle: i as u64 * 7,
                line: i as u64,
                aux: i as u64 * 3,
            })
            .collect();
        let mut bytes = TRACE_MAGIC.to_vec();
        for r in &recs {
            bytes.extend_from_slice(&r.to_bytes());
        }
        assert_eq!(read_binary(&bytes[..]).unwrap(), recs);
        assert!(read_binary(&b"NOTATRACE"[..]).is_err());
        // Truncated final record.
        bytes.pop();
        assert!(read_binary(&bytes[..]).is_err());
    }

    #[test]
    fn jsonl_stream_round_trips() {
        let recs: Vec<TraceRecord> = TraceKind::ALL
            .into_iter()
            .map(|kind| TraceRecord {
                kind,
                cycle: 42,
                line: 7,
                aux: 9,
            })
            .collect();
        let text: String = recs
            .iter()
            .map(|r| format!("{}\n", r.to_json().render()))
            .collect();
        assert_eq!(read_jsonl(text.as_bytes()).unwrap(), recs);
        assert!(
            read_jsonl(&b"{\"kind\":\"nope\",\"cycle\":0,\"line\":0,\"aux\":0}\n"[..]).is_err()
        );
    }

    #[test]
    fn observer_filters_and_samples() {
        let g = geom();
        // Only misses, and only 1-in-2 sets.
        let mut t = TraceObserver::memory(TraceCategories::none().with(TraceCategory::Miss), 2, g);
        let mut rx = Reactions::default();
        for set in 0..4u64 {
            let line = g.line_of(Addr::new(set * 32));
            let ev = MissEvent {
                line,
                addr: Addr::new(set * 32),
                kind: MissKind::Cold,
                now: Cycle::new(set),
            };
            t.on_miss(&ev, &mut rx);
            let hit = HitEvent {
                line,
                frame: set as usize,
                pc: timekeeping::Pc::new(1),
                now: Cycle::new(set),
            };
            t.on_hit(&hit, &mut rx); // filtered out by category
        }
        let recs = t.records();
        assert_eq!(recs.len(), 2, "sets 0 and 2 survive 1-in-2 sampling");
        assert!(recs.iter().all(|r| r.kind == TraceKind::Miss));
    }

    #[test]
    fn summarize_counts_and_span() {
        let recs = vec![
            TraceRecord {
                kind: TraceKind::Miss,
                cycle: 10,
                line: 1,
                aux: 0,
            },
            TraceRecord {
                kind: TraceKind::Fill,
                cycle: 12,
                line: 1,
                aux: 2,
            },
            TraceRecord {
                kind: TraceKind::Hit,
                cycle: 20,
                line: 2,
                aux: 0,
            },
        ];
        let filter = TraceCategories::none()
            .with(TraceCategory::Miss)
            .with(TraceCategory::Fill);
        let s = summarize(&recs, filter);
        assert_eq!(s.u64_field("total_records").unwrap(), 3);
        assert_eq!(s.u64_field("kept_records").unwrap(), 2);
        assert_eq!(s.get("by_kind").unwrap().u64_field("miss").unwrap(), 1);
        assert_eq!(s.u64_field("first_cycle").unwrap(), 10);
        assert_eq!(s.u64_field("last_cycle").unwrap(), 12);
        assert_eq!(s.u64_field("distinct_lines").unwrap(), 1);
    }

    #[test]
    fn profiler_report_round_trips() {
        let mut p = Profiler::new();
        p.record(ProfStage::Access, Duration::from_nanos(500));
        p.record(ProfStage::ObsHit, Duration::from_nanos(200));
        p.record_hop(100);
        p.record_hop(5000);
        let rep = p.report();
        assert_eq!(rep.events, 1, "only observer stages count as events");
        assert_eq!(rep.stages.len(), ProfStage::COUNT);
        assert_eq!(rep.hops.total(), 2);
        let js = rep.to_json().render();
        let back = ProfileReport::from_json(&Json::parse(&js).unwrap()).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn cli_flags_shared_syntax() {
        // Pure-parse failures never touch the global config.
        let mut none = || None;
        assert!(apply_cli_flag("--trace", Some("bogus"), &mut none).is_err());
        assert!(apply_cli_flag("--trace-sample", Some("0"), &mut none).is_err());
        assert!(apply_cli_flag("--obs-out", None, &mut none).is_err());
        assert!(!apply_cli_flag("--unrelated", None, &mut none).unwrap());

        // Applying flags updates the global config; restore the default
        // so concurrently constructed systems stay untraced.
        let prev = obs_config();
        assert!(apply_cli_flag("--trace", Some("miss,evict"), &mut none).unwrap());
        let mut next = || Some("8".to_owned());
        assert!(apply_cli_flag("--trace-sample", None, &mut next).unwrap());
        assert!(apply_cli_flag("--profile", None, &mut none).unwrap());
        let mut dir = || Some("/tmp/tk-obs-test".to_owned());
        assert!(apply_cli_flag("--obs-out", None, &mut dir).unwrap());
        let cfg = obs_config();
        assert_eq!(
            cfg.trace,
            Some(TraceCategories::parse("miss,evict").unwrap())
        );
        assert_eq!(cfg.sample, 8);
        assert!(cfg.profile);
        assert_eq!(cfg.out_dir, Some(PathBuf::from("/tmp/tk-obs-test")));
        set_obs_config(prev);
    }

    #[test]
    fn file_sinks_round_trip_through_readers() {
        let dir = std::env::temp_dir().join(format!("tk_obs_sink_{}", std::process::id()));
        let g = geom();
        let mut t = TraceObserver::files(TraceCategories::all(), 1, g, &dir, 9999).unwrap();
        let mut rx = Reactions::default();
        for i in 0..10u64 {
            let ev = MissEvent {
                line: g.line_of(Addr::new(i * 32)),
                addr: Addr::new(i * 32),
                kind: MissKind::Cold,
                now: Cycle::new(i),
            };
            t.on_miss(&ev, &mut rx);
        }
        let (bin_path, jsonl_path) = t.finish().expect("file sink returns paths");
        let bin = read_binary(File::open(&bin_path).unwrap()).unwrap();
        let jsonl = read_jsonl(std::io::BufReader::new(File::open(&jsonl_path).unwrap())).unwrap();
        assert_eq!(bin.len(), 10);
        assert_eq!(bin, jsonl, "both sinks carry the identical stream");
        std::fs::remove_dir_all(&dir).ok();
    }
}
