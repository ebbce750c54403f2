//! Pluggable main-memory backends.
//!
//! The simulator's memory hierarchy is synchronous: a miss computes its
//! completion cycle at request time by walking the levels (§`pipeline`).
//! Main memory used to be a single constant (`MachineConfig::mem_latency`)
//! added at the end of that walk. This module turns the "+ mem_latency"
//! term into a seam — the [`MemBackend`] trait — with two implementations:
//!
//! * [`FixedLatency`]: the bit-exact default. `issue(addr, t)` returns
//!   `t + mem_latency`, no internal state, no snapshot. Every
//!   existing golden digest and cache key is preserved byte-for-byte.
//! * [`BankedDram`]: channels × ranks × banks with an open-row policy.
//!   A request's latency depends on the row buffer (hit / closed-row /
//!   conflict), on the target bank's busy window, and on the channel data
//!   bus, so miss latency becomes *variable* — the question ROADMAP item 4
//!   asks of the paper's timekeeping predictors.
//!
//! Both backends are deterministic pure functions of the (request,
//! timestamp) sequence they observe. The pipeline issues requests in
//! program order at timestamps that are identical under clock hopping and
//! per-cycle stepping (proved by `tests/step_equivalence.rs`), so backend
//! state — and therefore every completion time and statistic — is
//! identical under both clocks by construction. Backend state changes
//! only inside those calls, so the backend is never a wake-up source for
//! the hopping clock.
//!
//! On FR-FCFS: arrivals at the backend are already serialized by the
//! shared L2↔memory bus, so the per-channel queue never holds more than
//! the requests whose bank is still busy; "first-ready" is captured by
//! letting a request to an idle bank overlap row activation with an
//! earlier request's data burst (bank timing and channel-bus timing are
//! decoupled below), and "FCFS" is the arrival order itself. See
//! DESIGN.md §2e.

use std::fmt::Debug;

use timekeeping::{Addr, Cycle};

use crate::config::SystemConfig;

/// Memory-bus transfer granularity: one L2 block.
const BLOCK_BYTES: u64 = 64;

/// Which memory model backs `MemorySystem`, and its parameters.
///
/// `Fixed` keeps reading the deprecated `MachineConfig::mem_latency`
/// alias, so existing callers (and golden digests) are untouched;
/// `Banked` carries a full [`BankedDramConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemBackendConfig {
    /// Constant-latency memory (the paper's 70-cycle model); the latency
    /// itself still lives in `MachineConfig::mem_latency`.
    #[default]
    Fixed,
    /// Banked DRAM with open-row policy and per-channel data buses.
    Banked(BankedDramConfig),
}

impl MemBackendConfig {
    /// Human-readable description for run manifests and reports.
    pub fn describe(&self) -> String {
        match self {
            MemBackendConfig::Fixed => "fixed".to_owned(),
            MemBackendConfig::Banked(b) => format!("banked{}", b.key_fragment()),
        }
    }

    /// Cache-key suffix. Empty for `Fixed` so every pre-existing memo,
    /// disk-cache and golden key stays byte-identical; banked configs get
    /// a full fingerprint so a banked run can never hit a fixed entry.
    pub fn cache_key_suffix(&self) -> String {
        match self {
            MemBackendConfig::Fixed => String::new(),
            MemBackendConfig::Banked(b) => format!(" dram=banked{}", b.key_fragment()),
        }
    }
}

/// Geometry and timing of the banked DRAM model. All timings are in core
/// cycles (memory-clock ratios folded in, as with bus occupancies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankedDramConfig {
    /// Independent channels, each with its own data bus. Power of two.
    pub channels: u32,
    /// Ranks per channel. Power of two.
    pub ranks: u32,
    /// Banks per rank. Power of two.
    pub banks: u32,
    /// Row-buffer (page) size in bytes. Power of two, ≥ one block.
    pub row_bytes: u64,
    /// Activate: row-closed → row-open (tRCD), core cycles.
    pub t_rcd: u64,
    /// Precharge: close an open row (tRP), core cycles.
    pub t_rp: u64,
    /// Column access on an open row (tCAS/CL), core cycles.
    pub t_cas: u64,
    /// Data-burst occupancy of the channel bus per block, core cycles.
    pub burst: u64,
}

impl BankedDramConfig {
    /// DDR2-533-class part @ ~2 GHz core: one channel, 2 ranks × 8 banks,
    /// 2 KB rows. Row hit 24+20 = 44, closed row 68, conflict 92 core
    /// cycles — bracketing the paper's constant 70.
    pub const DDR2: BankedDramConfig = BankedDramConfig {
        channels: 1,
        ranks: 2,
        banks: 8,
        row_bytes: 2048,
        t_rcd: 24,
        t_rp: 24,
        t_cas: 24,
        burst: 20,
    };

    /// DDR4-2400-class part @ ~2 GHz core: two channels, 2 ranks × 16
    /// banks, 8 KB rows, much faster bursts. Row hit 34, closed row 62,
    /// conflict 90 core cycles.
    pub const DDR4: BankedDramConfig = BankedDramConfig {
        channels: 2,
        ranks: 2,
        banks: 16,
        row_bytes: 8192,
        t_rcd: 28,
        t_rp: 28,
        t_cas: 28,
        burst: 6,
    };

    /// Total banks across all channels and ranks.
    pub fn total_banks(&self) -> u64 {
        self.channels as u64 * self.ranks as u64 * self.banks as u64
    }

    fn key_fragment(&self) -> String {
        format!(
            "{{ch={},ranks={},banks={},row={},rcd={},rp={},cas={},burst={}}}",
            self.channels,
            self.ranks,
            self.banks,
            self.row_bytes,
            self.t_rcd,
            self.t_rp,
            self.t_cas,
            self.burst
        )
    }
}

/// Parses the shared `--dram=<fixed|banked[:preset]>` CLI value.
///
/// `banked` alone selects the DDR2 preset; `banked:ddr2` / `banked:ddr4`
/// name a generation explicitly.
pub fn parse_backend_arg(s: &str) -> Result<MemBackendConfig, String> {
    match s {
        "fixed" => Ok(MemBackendConfig::Fixed),
        "banked" | "banked:ddr2" => Ok(MemBackendConfig::Banked(BankedDramConfig::DDR2)),
        "banked:ddr4" => Ok(MemBackendConfig::Banked(BankedDramConfig::DDR4)),
        other => Err(format!(
            "unknown --dram value `{other}` (expected fixed | banked | banked:ddr2 | banked:ddr4)"
        )),
    }
}

/// How a banked-DRAM access met the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Target row already open: column access only.
    Hit,
    /// Bank idle with no open row: activate + column access.
    Closed,
    /// Different row open: precharge + activate + column access.
    Conflict,
}

impl RowOutcome {
    /// Stable small integer for trace-record aux payloads.
    pub fn code(self) -> u64 {
        match self {
            RowOutcome::Hit => 0,
            RowOutcome::Closed => 1,
            RowOutcome::Conflict => 2,
        }
    }
}

/// A completed memory request: when the block is across the memory bus,
/// plus (for backends that model one) the row-buffer outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReply {
    /// Completion cycle: the requested block has left the memory device.
    pub done: Cycle,
    /// Row-buffer outcome; `None` for backends without row buffers.
    pub row: Option<RowOutcome>,
}

/// A main-memory model owned by `MemorySystem`.
///
/// The pipeline calls [`issue`](MemBackend::issue) at the cycle the
/// request has crossed the L2↔memory bus and expects the completion cycle
/// back — the synchronous-timing contract every other hierarchy level
/// follows. Implementations must be deterministic functions of their call
/// sequence (no wall clocks, no randomness): step-equivalence between the
/// hopping and per-cycle clocks rests on it.
pub trait MemBackend: Debug {
    /// Issues a read for the block containing `addr`, arriving at `now`;
    /// returns its completion cycle (and row outcome, if modeled).
    fn issue(&mut self, addr: Addr, now: Cycle) -> MemReply;

    /// Posts a writeback arriving at `now`. Writes complete in the
    /// background (nothing waits on them), but they occupy banks and may
    /// close rows, so they shape subsequent read latencies.
    fn write(&mut self, addr: Addr, now: Cycle) -> Option<RowOutcome>;

    /// End-of-run statistics; `None` for backends with nothing to report
    /// (keeps `RunResult` snapshots byte-identical for the default).
    fn snapshot(&self) -> Option<DramStats>;
}

/// The paper's constant-latency memory. Stateless: completion is always
/// `now + latency` and writebacks are free.
#[derive(Debug, Clone, Copy)]
pub struct FixedLatency {
    latency: u64,
}

impl FixedLatency {
    /// A fixed-latency backend answering every read in `latency` cycles.
    pub fn new(latency: u64) -> Self {
        FixedLatency { latency }
    }
}

impl MemBackend for FixedLatency {
    fn issue(&mut self, _addr: Addr, now: Cycle) -> MemReply {
        MemReply {
            done: now + self.latency,
            row: None,
        }
    }

    fn write(&mut self, _addr: Addr, _now: Cycle) -> Option<RowOutcome> {
        None
    }

    fn snapshot(&self) -> Option<DramStats> {
        None
    }
}

/// Aggregate banked-DRAM statistics for `RunResult`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramStats {
    /// Read requests issued (demand + prefetch fills from memory).
    pub reads: u64,
    /// Writeback requests posted.
    pub writes: u64,
    /// Accesses that found their row open.
    pub row_hits: u64,
    /// Accesses to a bank with no open row.
    pub row_closed: u64,
    /// Accesses that had to close another row first.
    pub row_conflicts: u64,
    /// Cycles reads spent queued behind a busy bank (arrival → bank free).
    pub bank_wait_cycles: u64,
    /// Cycles read data waited for the channel bus (ready → burst start).
    pub bus_wait_cycles: u64,
    /// Total read latency in cycles (arrival → burst done), for averages.
    pub read_latency_cycles: u64,
}

impl DramStats {
    /// Row-buffer hit rate over all accesses (reads + writes).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_closed + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Mean read latency (arrival at the device → data burst complete).
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        self.read_latency_cycles as f64 / self.reads as f64
    }
}

timekeeping::counter_block!(DramStats {
    bank_wait_cycles,
    bus_wait_cycles,
    read_latency_cycles,
    reads,
    row_closed,
    row_conflicts,
    row_hits,
    writes
});

#[derive(Debug, Clone, Copy)]
struct BankState {
    open_row: Option<u64>,
    busy_until: Cycle,
}

/// Banked DRAM with an open-row (open-page) policy.
///
/// Address interleaving spreads consecutive blocks across channels first,
/// then across the columns of one row, then across banks, so sequential
/// streams are row-hit-friendly while strided and pointer-chasing access
/// patterns generate conflicts — swim against mcf in
/// `tests/end_to_end.rs` pins that spread.
///
/// Timing of a request arriving at `now`:
///
/// ```text
/// start       = max(now, bank.busy_until)           // bank-level queue
/// access      = tCAS                                // row hit
///             | tRCD + tCAS                         // closed row
///             | tRP + tRCD + tCAS                   // row conflict
/// data_ready  = start + access
/// burst_start = max(data_ready, channel.bus_free)   // channel data bus
/// done        = burst_start + burst
/// ```
///
/// The bank and the channel bus are then both reserved until `done`; the
/// row stays open.
#[derive(Debug)]
pub struct BankedDram {
    cfg: BankedDramConfig,
    /// `channels × ranks × banks` bank states, channel-major.
    banks: Vec<BankState>,
    /// Per-channel data-bus free time.
    bus_free: Vec<Cycle>,
    stats: DramStats,
}

impl BankedDram {
    /// Builds an idle device from a validated config.
    ///
    /// # Panics
    ///
    /// Panics on geometry the config validator would reject (zero or
    /// non-power-of-two counts, rows smaller than a block, zero timings);
    /// `SystemConfig::build()` reports these as errors first.
    pub fn new(cfg: BankedDramConfig) -> Self {
        assert!(
            validate(&cfg).is_ok(),
            "BankedDramConfig must be validated: {:?}",
            validate(&cfg).unwrap_err()
        );
        let total = cfg.total_banks() as usize;
        BankedDram {
            cfg,
            banks: vec![
                BankState {
                    open_row: None,
                    busy_until: Cycle::ZERO,
                };
                total
            ],
            bus_free: vec![Cycle::ZERO; cfg.channels as usize],
            stats: DramStats::default(),
        }
    }

    /// (channel, global bank index, row) for the block containing `addr`.
    fn map(&self, addr: Addr) -> (usize, usize, u64) {
        let blk = addr.get() / BLOCK_BYTES;
        let channel = (blk % self.cfg.channels as u64) as usize;
        let in_channel = blk / self.cfg.channels as u64;
        let cols_per_row = self.cfg.row_bytes / BLOCK_BYTES;
        let banks_per_channel = self.cfg.ranks as u64 * self.cfg.banks as u64;
        let bank = (in_channel / cols_per_row) % banks_per_channel;
        let row = in_channel / cols_per_row / banks_per_channel;
        (
            channel,
            channel * banks_per_channel as usize + bank as usize,
            row,
        )
    }

    /// The shared bank/row/bus walk; returns `(done, outcome, start)`.
    fn access(&mut self, addr: Addr, now: Cycle) -> (Cycle, RowOutcome, Cycle) {
        let (channel, bank_idx, row) = self.map(addr);
        let bank = &mut self.banks[bank_idx];
        let start = now.max(bank.busy_until);
        let (outcome, access) = match bank.open_row {
            Some(open) if open == row => (RowOutcome::Hit, self.cfg.t_cas),
            Some(_) => (
                RowOutcome::Conflict,
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
            ),
            None => (RowOutcome::Closed, self.cfg.t_rcd + self.cfg.t_cas),
        };
        let data_ready = start + access;
        let burst_start = data_ready.max(self.bus_free[channel]);
        let done = burst_start + self.cfg.burst;
        bank.open_row = Some(row);
        bank.busy_until = done;
        self.bus_free[channel] = done;
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::Closed => self.stats.row_closed += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        self.stats.bank_wait_cycles += start.since(now);
        self.stats.bus_wait_cycles += burst_start.since(data_ready);
        (done, outcome, start)
    }

    /// Read-only view of the running statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

impl MemBackend for BankedDram {
    fn issue(&mut self, addr: Addr, now: Cycle) -> MemReply {
        let (done, outcome, _start) = self.access(addr, now);
        self.stats.reads += 1;
        self.stats.read_latency_cycles += done.since(now);
        MemReply {
            done,
            row: Some(outcome),
        }
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Option<RowOutcome> {
        let (_done, outcome, _start) = self.access(addr, now);
        self.stats.writes += 1;
        Some(outcome)
    }

    fn snapshot(&self) -> Option<DramStats> {
        Some(self.stats)
    }
}

/// Builds the backend a validated `SystemConfig` asks for. The
/// fixed-latency backend reads its latency from the deprecated
/// `MachineConfig::mem_latency` alias; this is the one place the
/// hierarchies read it.
pub fn build_backend(cfg: &SystemConfig) -> Box<dyn MemBackend> {
    match cfg.memory {
        #[allow(deprecated)] // Fixed-latency alias feeds the default backend
        MemBackendConfig::Fixed => Box::new(FixedLatency::new(cfg.machine.mem_latency)),
        MemBackendConfig::Banked(b) => Box::new(BankedDram::new(b)),
    }
}

/// A rejected [`BankedDramConfig`] (carried by
/// `ConfigError::InvalidDram`). The `&'static str` names the offending
/// field so the error stays `Copy` like the rest of `ConfigError`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramConfigError {
    /// A geometry count (`channels`/`ranks`/`banks`/`row_bytes`) is zero
    /// or not a power of two; the interleaved address mapping needs both.
    NotPowerOfTwo(&'static str),
    /// The row buffer is smaller than one transfer block.
    RowSmallerThanBlock,
    /// A timing parameter (`t_rcd`/`t_rp`/`t_cas`/`burst`) is zero.
    ZeroTiming(&'static str),
}

impl std::fmt::Display for DramConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramConfigError::NotPowerOfTwo(field) => {
                write!(f, "dram {field} must be a nonzero power of two")
            }
            DramConfigError::RowSmallerThanBlock => {
                write!(
                    f,
                    "dram row_bytes must be at least one {BLOCK_BYTES}-byte block"
                )
            }
            DramConfigError::ZeroTiming(field) => write!(f, "dram {field} must be nonzero"),
        }
    }
}

impl std::error::Error for DramConfigError {}

/// Structural validation shared by `SystemConfig::build()` and
/// `BankedDram::new()`: every count a power of two (the address mapping
/// uses modular interleaving), rows at least one block, timings nonzero.
pub fn validate(cfg: &BankedDramConfig) -> Result<(), DramConfigError> {
    let pow2 = |n: u64| n != 0 && n.is_power_of_two();
    for (name, v) in [
        ("channels", cfg.channels as u64),
        ("ranks", cfg.ranks as u64),
        ("banks", cfg.banks as u64),
        ("row_bytes", cfg.row_bytes),
    ] {
        if !pow2(v) {
            return Err(DramConfigError::NotPowerOfTwo(name));
        }
    }
    if cfg.row_bytes < BLOCK_BYTES {
        return Err(DramConfigError::RowSmallerThanBlock);
    }
    for (name, v) in [
        ("t_rcd", cfg.t_rcd),
        ("t_rp", cfg.t_rp),
        ("t_cas", cfg.t_cas),
        ("burst", cfg.burst),
    ] {
        if v == 0 {
            return Err(DramConfigError::ZeroTiming(name));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use timekeeping::snapshot::Snapshot;

    /// Small hand-checkable geometry: 1 channel, 1 rank, 2 banks, 128 B
    /// rows (2 blocks per row), tRCD=20 tRP=10 tCAS=15 burst=5.
    fn tiny() -> BankedDramConfig {
        BankedDramConfig {
            channels: 1,
            ranks: 1,
            banks: 2,
            row_bytes: 128,
            t_rcd: 20,
            t_rp: 10,
            t_cas: 15,
            burst: 5,
        }
    }

    /// Block `n` of bank 0 row `r` in the tiny geometry: rows hold 2
    /// blocks and banks interleave above the row, so bank 0 owns blocks
    /// {0,1}, {4,5}, {8,9}, ... (row 0, 1, 2, ...).
    fn tiny_addr(row: u64, col: u64, bank: u64) -> Addr {
        Addr::new(((row * 2 + bank) * 2 + col) * BLOCK_BYTES)
    }

    #[test]
    fn timing_table_closed_hit_conflict() {
        let mut d = BankedDram::new(tiny());
        // Cold access: closed row = tRCD + tCAS + burst = 20+15+5 = 40.
        let r = d.issue(tiny_addr(0, 0, 0), Cycle::new(0));
        assert_eq!(r.done, Cycle::new(40));
        assert_eq!(r.row, Some(RowOutcome::Closed));
        // Same row, after the bank frees: hit = tCAS + burst = 20.
        let r = d.issue(tiny_addr(0, 1, 0), Cycle::new(100));
        assert_eq!(r.done, Cycle::new(120));
        assert_eq!(r.row, Some(RowOutcome::Hit));
        // Different row, same bank: conflict = tRP+tRCD+tCAS+burst = 50.
        let r = d.issue(tiny_addr(1, 0, 0), Cycle::new(200));
        assert_eq!(r.done, Cycle::new(250));
        assert_eq!(r.row, Some(RowOutcome::Conflict));
    }

    #[test]
    fn preset_latency_tables() {
        // DDR2: hit 44, closed 68, conflict 92 (brackets the fixed 70).
        let mut d = BankedDram::new(BankedDramConfig::DDR2);
        let cols = BankedDramConfig::DDR2.row_bytes / BLOCK_BYTES; // 32 blocks/row
        let a_row0 = Addr::new(0);
        let b_row0 = Addr::new(BLOCK_BYTES); // same row, next column
        let a_row1 = Addr::new(cols * 16 * BLOCK_BYTES * 1_000); // same bank pattern? use explicit far row
        assert_eq!(
            d.issue(a_row0, Cycle::new(0)).done,
            Cycle::new(68),
            "DDR2 closed-row"
        );
        assert_eq!(
            d.issue(b_row0, Cycle::new(100)).done,
            Cycle::new(144),
            "DDR2 row-hit"
        );
        // Row conflict: same (channel, bank), different row. With 1
        // channel, 16 banks/channel and 32 cols/row, row stride on one
        // bank is 32*16 blocks.
        let conflict = Addr::new(32 * 16 * BLOCK_BYTES);
        assert_eq!(d.map(conflict).1, d.map(a_row0).1, "same bank");
        assert_ne!(d.map(conflict).2, d.map(a_row0).2, "different row");
        assert_eq!(
            d.issue(conflict, Cycle::new(200)).done,
            Cycle::new(292),
            "DDR2 row-conflict"
        );
        let _ = a_row1;

        // DDR4: hit 34, closed 62, conflict 90.
        let mut d = BankedDram::new(BankedDramConfig::DDR4);
        assert_eq!(
            d.issue(Addr::new(0), Cycle::new(0)).done,
            Cycle::new(62),
            "DDR4 closed-row"
        );
        // Next block on the same channel is blk 2 (channel-interleaved).
        assert_eq!(
            d.issue(Addr::new(2 * BLOCK_BYTES), Cycle::new(100)).done,
            Cycle::new(134),
            "DDR4 row-hit"
        );
        // Same bank, different row: stride = cols_per_row * banks *
        // channels blocks = 128 * 32 * 2.
        let conflict = Addr::new(128 * 32 * 2 * BLOCK_BYTES);
        assert_eq!(
            d.issue(conflict, Cycle::new(200)).done,
            Cycle::new(290),
            "DDR4 row-conflict"
        );
    }

    #[test]
    fn bank_busy_serializes_requests() {
        let mut d = BankedDram::new(tiny());
        // Two same-row requests at t=0: the first closes at 40, the
        // second starts when the bank frees (40), hits the open row
        // (tCAS 15) and bursts after: 40+15+5 = 60.
        assert_eq!(
            d.issue(tiny_addr(0, 0, 0), Cycle::new(0)).done,
            Cycle::new(40)
        );
        let r = d.issue(tiny_addr(0, 1, 0), Cycle::new(0));
        assert_eq!(r.done, Cycle::new(60));
        assert_eq!(r.row, Some(RowOutcome::Hit));
        assert_eq!(d.stats().bank_wait_cycles, 40);
    }

    #[test]
    fn channel_bus_serializes_bursts_across_banks() {
        let mut d = BankedDram::new(tiny());
        // Bank 0 and bank 1 activate in parallel (both data_ready at 35),
        // but share the one channel bus: bursts at 35..40 and 40..45.
        assert_eq!(
            d.issue(tiny_addr(0, 0, 0), Cycle::new(0)).done,
            Cycle::new(40)
        );
        let r = d.issue(tiny_addr(0, 0, 1), Cycle::new(0));
        assert_eq!(r.done, Cycle::new(45));
        assert_eq!(r.row, Some(RowOutcome::Closed));
        assert_eq!(d.stats().bank_wait_cycles, 0, "banks overlapped");
        assert_eq!(d.stats().bus_wait_cycles, 5, "burst waited for the bus");
    }

    #[test]
    fn writes_occupy_banks_and_close_rows_for_reads() {
        let mut d = BankedDram::new(tiny());
        // A writeback opens row 1 on bank 0...
        assert_eq!(
            d.write(tiny_addr(1, 0, 0), Cycle::new(0)),
            Some(RowOutcome::Closed)
        );
        // ...so a read of row 0 on that bank conflicts AND queues behind
        // the write (bank busy until 40): start 40, +45 access +5 burst.
        let r = d.issue(tiny_addr(0, 0, 0), Cycle::new(10));
        assert_eq!(r.row, Some(RowOutcome::Conflict));
        assert_eq!(r.done, Cycle::new(90));
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn fixed_latency_is_the_identity_plus_constant() {
        let mut f = FixedLatency::new(70);
        let r = f.issue(Addr::new(0x00de_adc0), Cycle::new(123));
        assert_eq!(r.done, Cycle::new(193));
        assert_eq!(r.row, None);
        assert_eq!(f.write(Addr::new(0), Cycle::new(5)), None);
        assert_eq!(f.snapshot(), None);
    }

    #[test]
    fn sequential_blocks_share_rows() {
        let d = BankedDram::new(BankedDramConfig::DDR2);
        // DDR2 has one channel and 32 blocks per row: blocks 0..32 map to
        // one (bank, row); block 32 starts the next bank.
        let (c0, b0, r0) = d.map(Addr::new(0));
        let (c1, b1, r1) = d.map(Addr::new(31 * BLOCK_BYTES));
        let (_, b2, _) = d.map(Addr::new(32 * BLOCK_BYTES));
        assert_eq!((c0, b0, r0), (c1, b1, r1));
        assert_ne!(b0, b2);
    }

    #[test]
    fn validation_rejects_bad_geometry_and_timing() {
        let mut c = tiny();
        c.banks = 3;
        assert_eq!(validate(&c), Err(DramConfigError::NotPowerOfTwo("banks")));
        let mut c = tiny();
        c.row_bytes = 32;
        assert_eq!(validate(&c), Err(DramConfigError::RowSmallerThanBlock));
        let mut c = tiny();
        c.t_cas = 0;
        assert_eq!(validate(&c), Err(DramConfigError::ZeroTiming("t_cas")));
        assert!(validate(&c)
            .unwrap_err()
            .to_string()
            .contains("t_cas must be nonzero"));
        assert!(validate(&tiny()).is_ok());
        assert!(validate(&BankedDramConfig::DDR2).is_ok());
        assert!(validate(&BankedDramConfig::DDR4).is_ok());
    }

    #[test]
    fn parse_backend_arg_accepts_presets() {
        assert_eq!(parse_backend_arg("fixed"), Ok(MemBackendConfig::Fixed));
        assert_eq!(
            parse_backend_arg("banked"),
            Ok(MemBackendConfig::Banked(BankedDramConfig::DDR2))
        );
        assert_eq!(
            parse_backend_arg("banked:ddr4"),
            Ok(MemBackendConfig::Banked(BankedDramConfig::DDR4))
        );
        assert!(parse_backend_arg("banked:ddr5").is_err());
        assert!(parse_backend_arg("").is_err());
    }

    #[test]
    fn cache_key_suffix_is_empty_only_for_fixed() {
        assert_eq!(MemBackendConfig::Fixed.cache_key_suffix(), "");
        let banked = MemBackendConfig::Banked(BankedDramConfig::DDR2);
        let suffix = banked.cache_key_suffix();
        assert!(suffix.starts_with(" dram=banked{"));
        assert!(suffix.contains("rcd=24"));
        // Distinct configs fingerprint differently.
        assert_ne!(
            MemBackendConfig::Banked(BankedDramConfig::DDR4).cache_key_suffix(),
            suffix
        );
    }

    #[test]
    fn dram_stats_snapshot_round_trips() {
        let s = DramStats {
            reads: 10,
            writes: 3,
            row_hits: 6,
            row_closed: 4,
            row_conflicts: 3,
            bank_wait_cycles: 17,
            bus_wait_cycles: 5,
            read_latency_cycles: 423,
        };
        let j = s.to_json();
        assert_eq!(DramStats::from_json(&j).unwrap(), s);
        assert!(s.row_hit_rate() > 0.45 && s.row_hit_rate() < 0.47);
        assert!((s.avg_read_latency() - 42.3).abs() < 1e-9);
    }
}
