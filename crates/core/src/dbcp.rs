//! Dead-Block Correlating Prefetcher (DBCP) baseline, after Lai, Fide &
//! Falsafi (ISCA 2001) — the 2 MB comparator of Figure 19.
//!
//! DBCP predicts that a block is dead when the *reference trace* of its
//! current generation (the sequence of PCs that touched it, compressed by
//! truncated addition into a signature) matches a signature that ended a
//! generation in the past. On a dead-block prediction it prefetches the
//! address that followed the block last time.
//!
//! Contrast with the timekeeping prefetcher: DBCP needs a PC trace
//! (complex to extract from an out-of-order core) and a large table to
//! disambiguate histories, whereas the timekeeping predictor uses only the
//! per-frame miss-address history plus live-time arithmetic, in ~1/256 the
//! state.
//!
//! ## Fidelity notes
//!
//! The published DBCP encodes (PC₁, PC₂, …) per block; we implement exactly
//! that signature mechanism using the synthetic PCs attached to every
//! reference by the workload substrate. A 2-bit confidence counter gates
//! prefetch issue, as in the original's two-bit saturating vote.

use crate::addr::{LineAddr, Pc};

/// Geometry of the DBCP history table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbcpConfig {
    /// log2 of the number of table sets.
    pub set_bits: u32,
    /// Ways per set.
    pub ways: u32,
    /// Confidence a prediction must reach before prefetching (saturates
    /// at 3).
    pub confidence_threshold: u8,
}

impl DbcpConfig {
    /// The paper's 2 MB comparator: with ~8-byte entries, 256 K entries as
    /// 64 K sets × 4 ways.
    pub const PAPER_2MB: DbcpConfig = DbcpConfig {
        set_bits: 16,
        ways: 4,
        confidence_threshold: 2,
    };

    /// A small table (for ablations): 2 K entries.
    pub const SMALL_16KB: DbcpConfig = DbcpConfig {
        set_bits: 9,
        ways: 4,
        confidence_threshold: 2,
    };

    /// Number of sets.
    pub const fn num_sets(&self) -> usize {
        1usize << self.set_bits
    }

    /// Total entries.
    pub const fn num_entries(&self) -> usize {
        self.num_sets() * self.ways as usize
    }

    /// Approximate hardware bytes at ~8 bytes/entry.
    pub const fn approx_bytes(&self) -> usize {
        self.num_entries() * 8
    }
}

impl Default for DbcpConfig {
    fn default() -> Self {
        Self::PAPER_2MB
    }
}

#[derive(Debug, Clone, Copy)]
struct DbcpEntry {
    valid: bool,
    key: u64,
    next_line: u64,
    confidence: u8,
    lru: u64,
}

impl DbcpEntry {
    const EMPTY: DbcpEntry = DbcpEntry {
        valid: false,
        key: 0,
        next_line: 0,
        confidence: 0,
        lru: 0,
    };
}

/// Per-frame signature accumulation state.
#[derive(Debug, Clone, Copy, Default)]
struct FrameSig {
    line: Option<LineAddr>,
    signature: u64,
}

/// DBCP statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbcpStats {
    /// Signature lookups (one per block access).
    pub lookups: u64,
    /// Lookups matching a death signature (dead-block predictions).
    pub predictions: u64,
    /// Predictions confident enough to issue a prefetch.
    pub prefetches: u64,
    /// Table updates at generation end.
    pub updates: u64,
}

crate::counter_block!(DbcpStats {
    lookups,
    predictions,
    prefetches,
    updates
});

/// The DBCP predictor + prefetcher.
///
/// Drive it with [`on_access`](Dbcp::on_access) for every L1 access
/// (hit or fill) and [`on_replace`](Dbcp::on_replace) whenever a frame's
/// resident block changes.
///
/// # Examples
///
/// ```
/// use timekeeping::{Dbcp, DbcpConfig, LineAddr, Pc};
/// let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 16);
/// let (a, b) = (LineAddr::new(100), LineAddr::new(200));
/// let pc = Pc::new(0x400);
/// // Generation 1 of `a`: touched once by `pc`, then replaced by `b`.
/// d.on_replace(0, a);
/// d.on_access(0, pc);
/// d.on_replace(0, b);
/// // Generation 2 of `a`, same trace: after the same access the history
/// // table recognizes the death signature (confidence rises with
/// // repetitions before a prefetch is issued).
/// d.on_replace(0, a);
/// let _ = d.on_access(0, pc);
/// assert!(d.stats().predictions >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Dbcp {
    cfg: DbcpConfig,
    table: Vec<DbcpEntry>,
    frames: Vec<FrameSig>,
    stamp: u64,
    stats: DbcpStats,
    /// Suppresses repeat prefetches for the same (frame, signature):
    /// the signature last prefetched for, indexed by frame.
    issued_for: Vec<Option<u64>>,
}

impl Dbcp {
    /// Creates a DBCP with the given table geometry for a cache with
    /// `num_frames` frames.
    pub fn new(cfg: DbcpConfig, num_frames: usize) -> Self {
        Dbcp {
            cfg,
            table: vec![DbcpEntry::EMPTY; cfg.num_entries()],
            frames: vec![FrameSig::default(); num_frames],
            stamp: 0,
            stats: DbcpStats::default(),
            issued_for: vec![None; num_frames],
        }
    }

    /// The table geometry.
    pub fn config(&self) -> DbcpConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DbcpStats {
        self.stats
    }

    /// Truncated-addition signature step.
    #[inline]
    fn fold(signature: u64, pc: Pc) -> u64 {
        // Truncated addition with a pre-rotate so the signature is
        // order-sensitive (pure addition would alias trace [a,b] with
        // [a+b]); keep the low 32 bits.
        signature
            .rotate_left(5)
            .wrapping_add(pc.get().wrapping_mul(0x9E37_79B9))
            & 0xFFFF_FFFF
    }

    #[inline]
    fn key_of(line: LineAddr, signature: u64) -> u64 {
        // History key combines the block address with its reference trace.
        (line.get().wrapping_mul(0x1000_0000_01B3)) ^ signature
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        // Spread the key before masking.
        let h = key ^ (key >> 23) ^ (key >> 41);
        (h as usize) & (self.cfg.num_sets() - 1)
    }

    /// Observes an access (hit or fill touch) to the block in `frame` by
    /// instruction `pc`. Returns a prefetch target if the updated
    /// signature matches a confident death signature.
    pub fn on_access(&mut self, frame: usize, pc: Pc) -> Option<LineAddr> {
        let fs = &mut self.frames[frame];
        let line = fs.line?;
        fs.signature = Self::fold(fs.signature, pc);
        let sig = fs.signature;
        self.stats.lookups += 1;
        let key = Self::key_of(line, sig);
        let set = self.set_of(key);
        let (next, confidence) = {
            let ways = self.set_mut(set);
            let entry = ways.iter().find(|e| e.valid && e.key == key)?;
            (entry.next_line, entry.confidence)
        };
        self.stats.predictions += 1;
        if confidence < self.cfg.confidence_threshold {
            return None;
        }
        // Only prefetch once per signature match per generation.
        if self.issued_for[frame] == Some(sig) {
            return None;
        }
        self.issued_for[frame] = Some(sig);
        self.stats.prefetches += 1;
        Some(LineAddr::new(next))
    }

    /// Observes the block in `frame` being replaced by `new_line`.
    ///
    /// Finalizes the dying block's signature — recording that "this trace
    /// ends a generation, and `new_line` came next" — then starts
    /// signature accumulation for the new block.
    pub fn on_replace(&mut self, frame: usize, new_line: LineAddr) {
        let fs = self.frames[frame];
        if let Some(old_line) = fs.line {
            self.stats.updates += 1;
            self.stamp += 1;
            let stamp = self.stamp;
            let key = Self::key_of(old_line, fs.signature);
            let set = self.set_of(key);
            let ways = self.set_mut(set);
            if let Some(e) = ways.iter_mut().find(|e| e.valid && e.key == key) {
                if e.next_line == new_line.get() {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    // Mispredicted successor: decay confidence, retrain.
                    if e.confidence > 0 {
                        e.confidence -= 1;
                    } else {
                        e.next_line = new_line.get();
                    }
                }
                e.lru = stamp;
            } else {
                let victim = ways
                    .iter_mut()
                    .min_by_key(|e| (e.valid, e.lru))
                    .expect("nonempty set");
                *victim = DbcpEntry {
                    valid: true,
                    key,
                    next_line: new_line.get(),
                    confidence: 1,
                    lru: stamp,
                };
            }
        }
        self.issued_for[frame] = None;
        self.frames[frame] = FrameSig {
            line: Some(new_line),
            signature: 0,
        };
    }

    fn set_mut(&mut self, set: usize) -> &mut [DbcpEntry] {
        let w = self.cfg.ways as usize;
        &mut self.table[set * w..(set + 1) * w]
    }

    /// Number of valid table entries.
    pub fn occupancy(&self) -> usize {
        self.table.iter().filter(|e| e.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    fn pc(n: u64) -> Pc {
        Pc::new(n)
    }

    /// Runs one generation: block `l` enters frame 0, is touched by `pcs`,
    /// then `next` replaces it. Returns any prefetch suggestions.
    fn generation(d: &mut Dbcp, l: LineAddr, pcs: &[u64], next: LineAddr) -> Vec<LineAddr> {
        d.on_replace(0, l);
        let mut out = Vec::new();
        for &p in pcs {
            if let Some(t) = d.on_access(0, pc(p)) {
                out.push(t);
            }
        }
        d.on_replace(0, next);
        out
    }

    #[test]
    fn learns_death_signature_and_prefetches_with_confidence() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 4);
        let trace = [0x400, 0x404, 0x408];
        // Gen 1: allocates entry, confidence 1.
        assert!(generation(&mut d, line(10), &trace, line(20)).is_empty());
        // Gen 2: signature matches but confidence 1 < 2 — no prefetch; the
        // confirming replacement raises confidence to 2.
        assert!(generation(&mut d, line(10), &trace, line(20)).is_empty());
        // Gen 3: confident — prefetch issued at the death point.
        let p = generation(&mut d, line(10), &trace, line(20));
        assert_eq!(p, vec![line(20)]);
        assert!(d.stats().prefetches >= 1);
    }

    #[test]
    fn prediction_fires_at_trace_end_not_midway() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 4);
        let trace = [1, 2, 3, 4];
        generation(&mut d, line(10), &trace, line(20));
        generation(&mut d, line(10), &trace, line(20));
        // Gen 3: check the prefetch appears only after the full trace.
        d.on_replace(0, line(10));
        assert!(d.on_access(0, pc(1)).is_none());
        assert!(d.on_access(0, pc(2)).is_none());
        assert!(d.on_access(0, pc(3)).is_none());
        assert_eq!(d.on_access(0, pc(4)), Some(line(20)));
    }

    #[test]
    fn one_prefetch_per_generation_signature() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 4);
        let trace = [7];
        generation(&mut d, line(10), &trace, line(20));
        generation(&mut d, line(10), &trace, line(20));
        d.on_replace(0, line(10));
        assert_eq!(d.on_access(0, pc(7)), Some(line(20)));
        // A second identical touch reproduces the same signature?
        // fold() changes the signature, so no repeat — but even an exact
        // repeat of the matching signature is suppressed per generation.
        assert!(d.on_access(0, pc(7)).is_none());
    }

    #[test]
    fn successor_change_decays_confidence() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 4);
        let trace = [9];
        generation(&mut d, line(10), &trace, line(20)); // conf 1 -> next 20
        generation(&mut d, line(10), &trace, line(30)); // mispredict: conf 0
        generation(&mut d, line(10), &trace, line(30)); // retrain next=30, conf stays low
        generation(&mut d, line(10), &trace, line(30)); // conf grows
        generation(&mut d, line(10), &trace, line(30));
        let p = generation(&mut d, line(10), &trace, line(30));
        assert_eq!(p, vec![line(30)]);
    }

    #[test]
    fn different_traces_different_signatures() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 4);
        generation(&mut d, line(10), &[1, 2], line(20));
        generation(&mut d, line(10), &[1, 2], line(20));
        // Same block, different trace: no match mid-generation.
        d.on_replace(0, line(10));
        assert!(d.on_access(0, pc(3)).is_none());
        assert!(d.on_access(0, pc(4)).is_none());
    }

    #[test]
    fn frames_are_independent() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 2);
        d.on_replace(0, line(10));
        d.on_replace(1, line(10));
        d.on_access(0, pc(5));
        // Frame 1's signature is untouched by frame 0's accesses.
        d.on_replace(0, line(20));
        d.on_replace(1, line(30));
        assert_eq!(d.stats().updates, 2);
    }

    #[test]
    fn access_to_empty_frame_is_noop() {
        let mut d = Dbcp::new(DbcpConfig::PAPER_2MB, 1);
        assert!(d.on_access(0, pc(1)).is_none());
        assert_eq!(d.stats().lookups, 0);
    }

    #[test]
    fn config_sizes() {
        assert_eq!(DbcpConfig::PAPER_2MB.approx_bytes(), 2 * 1024 * 1024);
        assert_eq!(DbcpConfig::SMALL_16KB.approx_bytes(), 16 * 1024);
        assert!(Dbcp::new(DbcpConfig::SMALL_16KB, 4).occupancy() == 0);
    }
}
