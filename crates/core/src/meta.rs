//! The unified per-line timekeeping metadata plane.
//!
//! The paper's mechanisms all consume the same small set of per-line time
//! metadata — generation start, last use, live/dead time of the previous
//! generation, reload-interval history (§3–§5). Rather than every consumer
//! (generation tracking, victim filters, the L2 interval monitor) keeping
//! a private `HashMap<u64, …>` shadow, this module centralizes that state
//! in one [`LinePlane`]:
//!
//! * **frame-indexed** open-generation state ([`LinePlane::fill`] /
//!   [`hit`](LinePlane::hit) / [`evict`](LinePlane::evict)) in a plain
//!   `Vec` — O(1) lookups, no hashing on the hot path;
//! * **line-keyed** history ([`LineMeta`]) for data that must survive
//!   eviction (previous generation's live/dead time, last L2 access),
//!   stored under a seeded deterministic hasher ([`DetBuildHasher`]) so
//!   simulations are reproducible and iteration order never depends on
//!   process-random state.
//!
//! [`GenerationTracker`](crate::GenerationTracker) is an alias of
//! [`LinePlane`]: the generational API of §3 is the core of the plane.
//!
//! Miss classification keeps its own state, because a fully-associative
//! LRU stack is not per-frame metadata:
//! [`FullyAssocShadow`](crate::FullyAssocShadow) holds a linked slot
//! array indexed by a [`LineMap`] plus a [`LineSet`] of lines ever seen.
//! Like everything else keyed by line, it hashes with [`DetHasher`].

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

use crate::addr::LineAddr;
use crate::generation::{EvictCause, GenerationRecord};
use crate::time::Cycle;

// ------------------------------------------------------------------ hashing

/// Multiplier from FxHash (Firefox's deterministic hasher): a 64-bit odd
/// constant with good bit dispersion under wrapping multiplication.
const DET_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A deterministic, seed-free streaming hasher in the FxHash style.
///
/// `std`'s default `RandomState` re-seeds per process, which is both slower
/// (SipHash) and a reproducibility hazard the moment any code iterates a
/// map. Every map keyed by line address or program counter in this
/// workspace goes through this hasher instead.
#[derive(Debug, Default, Clone)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(DET_SEED);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`DetHasher`] — usable as the `S` parameter of
/// `HashMap`/`HashSet`.
#[derive(Debug, Default, Clone, Copy)]
pub struct DetBuildHasher;

impl BuildHasher for DetBuildHasher {
    type Hasher = DetHasher;

    #[inline]
    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// A map keyed by line address (or any `u64` key) under the deterministic
/// hasher. Construct with `LineMap::default()`.
pub type LineMap<V> = HashMap<u64, V, DetBuildHasher>;

/// A set of line addresses under the deterministic hasher.
pub type LineSet = HashSet<u64, DetBuildHasher>;

// ------------------------------------------------------------------- plane

/// Per-line metadata that survives eviction: the history side of the plane.
///
/// This unifies what used to be `GenerationTracker::lines` (previous
/// generation's start/live/dead) and the hierarchy's `l2_last_access`
/// shadow map (last time the line reached the L2 — §3's observation that
/// an L1 reload interval *is* an L2 access interval).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineMeta {
    /// Start time of the line's most recent generation (completed or open).
    pub last_start: Cycle,
    /// Live time of the most recently completed generation.
    pub last_live_time: u64,
    /// Dead time of the most recently completed generation.
    pub last_dead_time: u64,
    /// Whether at least one generation of this line has completed.
    pub completed: bool,
    /// Whether the line has ever been filled (a [`LineMeta`] can exist
    /// before the first fill, created by an L2-access recording).
    pub filled: bool,
    /// Last time this line was accessed at the L2 (i.e. missed in L1).
    pub last_l2_access: Option<Cycle>,
}

/// Open state of one cache frame: the frame side of the plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameMeta {
    line: LineAddr,
    start: Cycle,
    last_use: Cycle,
    accesses: u32,
    max_access_interval: u64,
    reload_interval: Option<u64>,
    prev_live_time: Option<u64>,
}

/// The unified timekeeping metadata plane for one cache.
///
/// Drive it with [`fill`](LinePlane::fill), [`hit`](LinePlane::hit) and
/// [`evict`](LinePlane::evict) from the owning cache model; record L2-side
/// accesses with [`record_l2_access`](LinePlane::record_l2_access). All
/// methods take the current cycle.
///
/// # Examples
///
/// ```
/// use timekeeping::{Cycle, EvictCause, LineAddr, LinePlane};
///
/// let mut t = LinePlane::new(4);
/// let line = LineAddr::new(7);
/// t.fill(0, line, Cycle::new(100));
/// t.hit(0, Cycle::new(150));
/// t.hit(0, Cycle::new(220));
/// let rec = t.evict(0, Cycle::new(1000), EvictCause::Demand).unwrap();
/// assert_eq!(rec.live_time, 120); // 100 -> 220
/// assert_eq!(rec.dead_time, 780); // 220 -> 1000
/// assert_eq!(rec.accesses, 3);
/// assert_eq!(rec.max_access_interval, 70);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinePlane {
    frames: Vec<Option<FrameMeta>>,
    lines: LineMap<LineMeta>,
    /// Lines ever filled — kept as a counter so `lines_seen` stays O(1)
    /// even though the map also holds L2-access-only entries.
    filled_lines: usize,
}

impl LinePlane {
    /// Creates a plane for a cache with `num_frames` block frames.
    pub fn new(num_frames: usize) -> Self {
        LinePlane {
            frames: vec![None; num_frames],
            lines: LineMap::default(),
            filled_lines: 0,
        }
    }

    /// Number of frames tracked.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Begins a generation: `line` fills `frame` at time `now`.
    ///
    /// Returns the reload interval (time since the previous generation of
    /// the same line began), if this line has been resident before.
    ///
    /// # Panics
    ///
    /// Panics if the frame still holds an open generation (callers must
    /// [`evict`](Self::evict) first) or if `frame` is out of range.
    pub fn fill(&mut self, frame: usize, line: LineAddr, now: Cycle) -> Option<u64> {
        assert!(
            self.frames[frame].is_none(),
            "fill into occupied frame {frame}"
        );
        let meta = self.lines.entry(line.get()).or_default();
        let (reload_interval, prev_live_time) = if meta.filled {
            let ri = now.since(meta.last_start);
            (Some(ri), meta.completed.then_some(meta.last_live_time))
        } else {
            self.filled_lines += 1;
            (None, None)
        };
        meta.last_start = now;
        meta.filled = true;
        self.frames[frame] = Some(FrameMeta {
            line,
            start: now,
            last_use: now,
            accesses: 1,
            max_access_interval: 0,
            reload_interval,
            prev_live_time,
        });
        reload_interval
    }

    /// Records a successful use (hit) of the block in `frame` at `now`.
    ///
    /// Returns the access interval since the previous use.
    ///
    /// # Panics
    ///
    /// Panics if the frame has no open generation.
    pub fn hit(&mut self, frame: usize, now: Cycle) -> u64 {
        let g = self.frames[frame].as_mut().expect("hit on empty frame");
        let interval = now.since(g.last_use);
        g.last_use = now;
        g.accesses += 1;
        g.max_access_interval = g.max_access_interval.max(interval);
        interval
    }

    /// Ends the generation in `frame` at `now`, returning its record.
    ///
    /// Returns `None` if the frame holds no open generation (e.g. a cold
    /// frame being filled for the first time).
    pub fn evict(
        &mut self,
        frame: usize,
        now: Cycle,
        cause: EvictCause,
    ) -> Option<GenerationRecord> {
        let g = self.frames[frame].take()?;
        let live_time = g.last_use.since(g.start);
        let dead_time = now.since(g.last_use);
        // Cross-check the timekeeping arithmetic: live + dead must tile
        // the generation exactly, and the last use must fall inside it.
        #[cfg(feature = "check-invariants")]
        {
            assert!(
                g.start <= g.last_use && g.last_use <= now,
                "generation in frame {frame}: last use {} outside [{}, {now}]",
                g.last_use,
                g.start
            );
            assert_eq!(
                live_time + dead_time,
                now.since(g.start),
                "generation in frame {frame}: live {live_time} + dead \
                 {dead_time} does not tile [{}, {now}]",
                g.start
            );
            assert!(
                g.max_access_interval <= live_time,
                "generation in frame {frame}: max access interval {} \
                 exceeds live time {live_time}",
                g.max_access_interval
            );
        }
        let rec = GenerationRecord {
            line: g.line,
            frame,
            start: g.start,
            end: now,
            live_time,
            dead_time,
            accesses: g.accesses,
            max_access_interval: g.max_access_interval,
            reload_interval: g.reload_interval,
            prev_live_time: g.prev_live_time,
            cause,
        };
        let meta = self
            .lines
            .get_mut(&g.line.get())
            .expect("open generation must have line metadata");
        meta.last_live_time = live_time;
        meta.last_dead_time = dead_time;
        meta.completed = true;
        Some(rec)
    }

    /// The line currently resident in `frame`, if any.
    pub fn resident(&self, frame: usize) -> Option<LineAddr> {
        self.frames[frame].map(|g| g.line)
    }

    /// Time of the last use of the block in `frame`, if the frame is live.
    ///
    /// `now - last_use(frame)` is the *idle time* that the decay-style
    /// dead-block predictor thresholds (§5.1.1).
    pub fn last_use(&self, frame: usize) -> Option<Cycle> {
        self.frames[frame].map(|g| g.last_use)
    }

    /// Start time of the open generation in `frame`, if any.
    pub fn generation_start(&self, frame: usize) -> Option<Cycle> {
        self.frames[frame].map(|g| g.start)
    }

    /// Metadata of the most recent generation for `line`, if the line has
    /// ever been filled.
    ///
    /// This is what a miss to `line` consults: its previous generation's
    /// live time, dead time, and (via `last_start`) reload interval.
    /// Entries created only by [`record_l2_access`](Self::record_l2_access)
    /// are not visible here until the line's first fill.
    pub fn line_meta(&self, line: LineAddr) -> Option<&LineMeta> {
        self.lines.get(&line.get()).filter(|m| m.filled)
    }

    /// Compatibility name for [`line_meta`](Self::line_meta).
    #[inline]
    pub fn line_history(&self, line: LineAddr) -> Option<&LineMeta> {
        self.line_meta(line)
    }

    /// Records that `line` was accessed at the L2 (i.e. missed in L1) at
    /// `now`. Returns the L2 access interval — the time since the previous
    /// L2 access to the same line, if one was observed.
    pub fn record_l2_access(&mut self, line: LineAddr, now: Cycle) -> Option<u64> {
        let meta = self.lines.entry(line.get()).or_default();
        let prev = meta.last_l2_access.replace(now);
        prev.map(|p| now.since(p))
    }

    /// Number of distinct lines ever filled.
    pub fn lines_seen(&self) -> usize {
        self.filled_lines
    }

    /// Closes every open generation at `now` with [`EvictCause::Flush`],
    /// returning the records. Used at end of simulation.
    pub fn flush(&mut self, now: Cycle) -> Vec<GenerationRecord> {
        (0..self.frames.len())
            .filter_map(|f| self.evict(f, now, EvictCause::Flush))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_hasher_is_reproducible() {
        let h1 = DetBuildHasher.hash_one(0xdead_beefu64);
        let h2 = DetBuildHasher.hash_one(0xdead_beefu64);
        assert_eq!(h1, h2);
        assert_ne!(h1, DetBuildHasher.hash_one(0xdead_bee0u64));
    }

    #[test]
    fn det_hasher_bytes_match_padded_words() {
        // The byte path must agree with itself regardless of chunking done
        // by callers — a single write of 8 bytes equals write_u64.
        let mut a = DetHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = DetHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn l2_access_interval_roundtrip() {
        let mut p = LinePlane::new(1);
        let a = LineAddr::new(9);
        assert_eq!(p.record_l2_access(a, Cycle::new(100)), None);
        assert_eq!(p.record_l2_access(a, Cycle::new(350)), Some(250));
        assert_eq!(p.record_l2_access(a, Cycle::new(351)), Some(1));
    }

    #[test]
    fn l2_only_entries_are_invisible_until_filled() {
        let mut p = LinePlane::new(1);
        let a = LineAddr::new(9);
        p.record_l2_access(a, Cycle::new(100));
        // The line has never been filled: no history, no reload interval,
        // and it does not count as seen.
        assert!(p.line_meta(a).is_none());
        assert_eq!(p.lines_seen(), 0);
        assert_eq!(p.fill(0, a, Cycle::new(120)), None);
        assert_eq!(p.lines_seen(), 1);
        let m = p.line_meta(a).unwrap();
        assert!(m.filled && !m.completed);
        assert_eq!(m.last_l2_access, Some(Cycle::new(100)));
    }

    #[test]
    fn reload_interval_survives_l2_recording() {
        let mut p = LinePlane::new(1);
        let a = LineAddr::new(4);
        p.fill(0, a, Cycle::new(0));
        p.evict(0, Cycle::new(10), EvictCause::Demand);
        p.record_l2_access(a, Cycle::new(500));
        assert_eq!(p.fill(0, a, Cycle::new(500)), Some(500));
    }
}
