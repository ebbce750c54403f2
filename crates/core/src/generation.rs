//! Generational behavior of cache lines (§3 of the paper).
//!
//! Each cache-frame *generation* begins with the miss that fills the frame
//! and ends when the block is evicted. The generation splits into a *live
//! time* (fill → last successful hit) followed by a *dead time* (last hit →
//! eviction). Two further metrics relate successive events: the *access
//! interval* (time between successive uses within the live time) and the
//! *reload interval* (time between the starts of two successive generations
//! of the same memory line).
//!
//! ```text
//!  Load A                                   Evict A          Reload A
//!    |  a.i. |  a.i.  |                        |                |
//!    A       A        A ..(last hit)           B  ...           A
//!    |---------- live time ---------|-- dead --|
//!    |------------------ reload interval ----------------------|
//! ```
//!
//! This module defines the event vocabulary ([`EvictCause`],
//! [`GenerationRecord`]); the bookkeeping itself lives in the unified
//! per-line metadata plane, [`LinePlane`](crate::meta::LinePlane).

use crate::addr::LineAddr;
use crate::time::Cycle;

/// Why a generation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictCause {
    /// Evicted by a demand miss bringing in another block.
    Demand,
    /// Evicted by a prefetch fill.
    Prefetch,
    /// Evicted by external invalidation or end-of-simulation flush.
    Flush,
    /// Killed by a coherence invalidation (another core claimed exclusive
    /// ownership of the line, or an inclusive L2 eviction recalled it).
    /// Distinguished from [`EvictCause::Demand`] so multi-core timekeeping
    /// can separate eviction-death from invalidation-death.
    Invalidate,
}

/// A completed cache-line generation and its timekeeping metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationRecord {
    /// The memory line that was resident.
    pub line: LineAddr,
    /// The cache frame it occupied.
    pub frame: usize,
    /// Fill time (generation start).
    pub start: Cycle,
    /// Eviction time (generation end).
    pub end: Cycle,
    /// Cycles from fill to last successful use (0 if the block was never
    /// hit after the fill).
    pub live_time: u64,
    /// Cycles from last successful use to eviction.
    pub dead_time: u64,
    /// Number of uses, counting the filling access.
    pub accesses: u32,
    /// Largest gap between successive uses within the live time.
    pub max_access_interval: u64,
    /// Time since the start of the *previous* generation of the same line,
    /// if one was observed.
    pub reload_interval: Option<u64>,
    /// Live time of the previous generation of the same line, if observed.
    pub prev_live_time: Option<u64>,
    /// Why the generation ended.
    pub cause: EvictCause,
}

impl GenerationRecord {
    /// Total generation time (live + dead).
    #[inline]
    pub fn generation_time(&self) -> u64 {
        self.live_time + self.dead_time
    }

    /// True if the block was never successfully reused after its fill —
    /// the "zero live time" special case the paper uses as a one-bit
    /// conflict-miss predictor (§4.1).
    #[inline]
    pub fn zero_live_time(&self) -> bool {
        self.live_time == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::LinePlane;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn zero_live_time_generation() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(1), Cycle::new(10));
        let rec = t.evict(0, Cycle::new(500), EvictCause::Demand).unwrap();
        assert!(rec.zero_live_time());
        assert_eq!(rec.live_time, 0);
        assert_eq!(rec.dead_time, 490);
        assert_eq!(rec.generation_time(), 490);
        assert_eq!(rec.accesses, 1);
    }

    #[test]
    fn reload_interval_spans_generations() {
        let mut t = LinePlane::new(2);
        // Gen 1 of line 5 in frame 0 starting at cycle 100.
        assert_eq!(t.fill(0, line(5), Cycle::new(100)), None);
        t.evict(0, Cycle::new(300), EvictCause::Demand);
        // Line 5 returns (possibly in a different frame) at cycle 900.
        assert_eq!(t.fill(1, line(5), Cycle::new(900)), Some(800));
        let rec = t.evict(1, Cycle::new(1000), EvictCause::Demand).unwrap();
        assert_eq!(rec.reload_interval, Some(800));
        assert_eq!(rec.prev_live_time, Some(0));
    }

    #[test]
    fn prev_live_time_threading() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(9), Cycle::new(0));
        t.hit(0, Cycle::new(40));
        t.evict(0, Cycle::new(100), EvictCause::Demand); // live 40
        t.fill(0, line(9), Cycle::new(200));
        t.hit(0, Cycle::new(260));
        let rec = t.evict(0, Cycle::new(400), EvictCause::Demand).unwrap();
        assert_eq!(rec.prev_live_time, Some(40));
        assert_eq!(rec.live_time, 60);
        let h = t.line_meta(line(9)).unwrap();
        assert_eq!(h.last_live_time, 60);
        assert_eq!(h.last_dead_time, 140);
        assert!(h.completed);
    }

    #[test]
    fn max_access_interval_tracks_largest_gap() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(1), Cycle::new(0));
        assert_eq!(t.hit(0, Cycle::new(10)), 10);
        assert_eq!(t.hit(0, Cycle::new(250)), 240);
        assert_eq!(t.hit(0, Cycle::new(260)), 10);
        let rec = t.evict(0, Cycle::new(300), EvictCause::Demand).unwrap();
        assert_eq!(rec.max_access_interval, 240);
        assert_eq!(rec.accesses, 4);
    }

    #[test]
    fn idle_time_query() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(1), Cycle::new(0));
        t.hit(0, Cycle::new(100));
        assert_eq!(t.last_use(0), Some(Cycle::new(100)));
        assert_eq!(t.generation_start(0), Some(Cycle::new(0)));
        assert_eq!(t.resident(0), Some(line(1)));
    }

    #[test]
    #[should_panic(expected = "occupied")]
    fn fill_occupied_frame_panics() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(1), Cycle::new(0));
        t.fill(0, line(2), Cycle::new(1));
    }

    #[test]
    fn evict_empty_frame_is_none() {
        let mut t = LinePlane::new(1);
        assert!(t.evict(0, Cycle::new(5), EvictCause::Demand).is_none());
    }

    #[test]
    fn flush_closes_everything() {
        let mut t = LinePlane::new(3);
        t.fill(0, line(1), Cycle::new(0));
        t.fill(2, line(2), Cycle::new(10));
        let recs = t.flush(Cycle::new(100));
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.cause == EvictCause::Flush));
        assert!(t.resident(0).is_none());
        assert_eq!(t.lines_seen(), 2);
    }

    #[test]
    fn prefetch_evictions_are_distinguished() {
        let mut t = LinePlane::new(1);
        t.fill(0, line(1), Cycle::new(0));
        let rec = t.evict(0, Cycle::new(50), EvictCause::Prefetch).unwrap();
        assert_eq!(rec.cause, EvictCause::Prefetch);
    }

    #[test]
    fn same_line_in_two_frames_uses_latest_start() {
        // A line can re-enter while... actually not simultaneously in one
        // cache, but successive fills must always measure reload interval
        // from the most recent start.
        let mut t = LinePlane::new(2);
        t.fill(0, line(3), Cycle::new(0));
        t.evict(0, Cycle::new(10), EvictCause::Demand);
        t.fill(0, line(3), Cycle::new(100));
        t.evict(0, Cycle::new(110), EvictCause::Demand);
        assert_eq!(t.fill(1, line(3), Cycle::new(400)), Some(300));
    }
}
