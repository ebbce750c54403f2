//! Timekeeping prefetching (§5.2): prefetch queue, timeliness taxonomy and
//! the per-frame prefetch state machine of Figure 18.
//!
//! The prefetcher answers the three §5 sub-problems at once:
//!
//! 1. **Where** to prefetch into — a frame whose resident block is dead;
//! 2. **what** to prefetch — the next tag predicted by the
//!    [correlation table](crate::correlation::CorrelationTable);
//! 3. **when** — at twice the block's predicted live time after its
//!    generation starts.
//!
//! Per L1 frame the hardware is two 5-bit counters, one 5-bit register and
//! two tag fields: `gt_counter` (ticks since the generation began),
//! `lt_register` (copy of `gt_counter` at the most recent hit — at eviction
//! this holds the live time), `prev_tag` (the block resident before the
//! current one), `next_tag` (the predicted prefetch target) and
//! `prefetch_counter` (ticks until the prefetch is scheduled).

use std::collections::VecDeque;
use std::fmt;

use crate::addr::{CacheGeometry, LineAddr};
use crate::correlation::{CorrelationConfig, CorrelationStats, CorrelationTable, Prediction};
use crate::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use crate::time::GlobalTicker;
use crate::WeightedSum;

/// A scheduled prefetch produced by the prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Line to fetch.
    pub line: LineAddr,
    /// The L1 frame whose dead block it should replace.
    pub frame: usize,
    /// Predicted ticks until the line is actually needed (the predicted
    /// generation time minus the firing point), when known. §5.2.2's slack
    /// aside: "one could also estimate when C needs to arrive, and exploit
    /// any slack to save power or smooth out bus contention."
    pub need_in_ticks: Option<u8>,
}

/// Outcome classes for issued prefetches (Figure 21, bottom-to-top bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timeliness {
    /// Arrived before the resident block was dead and displaced live data.
    Early,
    /// Thrown out of the prefetch queue before issuing to the L2.
    Discarded,
    /// Arrived within the dead time, before the next miss.
    Timely,
    /// Issued, but arrived after the next miss.
    StartedNotTimely,
    /// Never issued before the next miss.
    NotStarted,
}

impl Timeliness {
    /// All classes in the paper's stacking order.
    pub const ALL: [Timeliness; 5] = [
        Timeliness::Early,
        Timeliness::Discarded,
        Timeliness::Timely,
        Timeliness::StartedNotTimely,
        Timeliness::NotStarted,
    ];

    /// Small stable index for array-backed stats.
    pub fn index(self) -> usize {
        match self {
            Timeliness::Early => 0,
            Timeliness::Discarded => 1,
            Timeliness::Timely => 2,
            Timeliness::StartedNotTimely => 3,
            Timeliness::NotStarted => 4,
        }
    }
}

impl fmt::Display for Timeliness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Timeliness::Early => "early",
            Timeliness::Discarded => "discarded",
            Timeliness::Timely => "timely",
            Timeliness::StartedNotTimely => "started_not_timely",
            Timeliness::NotStarted => "not_started",
        };
        f.write_str(s)
    }
}

/// Timeliness counts split by whether the address prediction was correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimelinessStats {
    counts: [[u64; 5]; 2],
}

impl TimelinessStats {
    /// Creates empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one prefetch outcome.
    pub fn record(&mut self, address_correct: bool, class: Timeliness) {
        self.counts[usize::from(address_correct)][class.index()] += 1;
    }

    /// Count for one (correctness, class) cell.
    pub fn count(&self, address_correct: bool, class: Timeliness) -> u64 {
        self.counts[usize::from(address_correct)][class.index()]
    }

    /// Total prefetches with the given address correctness.
    pub fn total(&self, address_correct: bool) -> u64 {
        self.counts[usize::from(address_correct)].iter().sum()
    }

    /// Fraction of prefetches (with the given correctness) in `class`.
    pub fn fraction(&self, address_correct: bool, class: Timeliness) -> f64 {
        let t = self.total(address_correct);
        if t == 0 {
            0.0
        } else {
            self.count(address_correct, class) as f64 / t as f64
        }
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &TimelinessStats) {
        self.add_weighted(other, 1);
    }
}

impl WeightedSum for TimelinessStats {
    fn add_weighted(&mut self, other: &TimelinessStats, w: u64) {
        for c in 0..2 {
            for k in 0..5 {
                self.counts[c][k] += other.counts[c][k] * w;
            }
        }
    }
}

impl Snapshot for TimelinessStats {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("right_addr", &self.counts[1]);
            w.field("wrong_addr", &self.counts[0]);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            right_addr: [u64; 5],
            wrong_addr: [u64; 5],
        });
        Ok(TimelinessStats {
            counts: [wrong_addr, right_addr],
        })
    }
}

/// A bounded FIFO prefetch request queue (128 entries in the paper).
///
/// When full, the *oldest* request is discarded to make room — those are
/// the "discarded" prefetches of Figure 21, which the paper attributes to
/// burstiness in `art` and `gcc`.
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    capacity: usize,
    queue: VecDeque<PrefetchRequest>,
    enqueued: u64,
    discarded: u64,
}

impl PrefetchQueue {
    /// The paper's queue depth.
    pub const PAPER_ENTRIES: usize = 128;

    /// Creates a queue holding up to `capacity` requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch queue capacity must be nonzero");
        PrefetchQueue {
            capacity,
            queue: VecDeque::new(),
            enqueued: 0,
            discarded: 0,
        }
    }

    /// Creates the paper's 128-entry queue.
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_ENTRIES)
    }

    /// Enqueues a request, returning the discarded oldest request if the
    /// queue overflowed.
    pub fn push(&mut self, req: PrefetchRequest) -> Option<PrefetchRequest> {
        self.enqueued += 1;
        let dropped = if self.queue.len() == self.capacity {
            self.discarded += 1;
            self.queue.pop_front()
        } else {
            None
        };
        self.queue.push_back(req);
        dropped
    }

    /// Dequeues the oldest pending request.
    pub fn pop(&mut self) -> Option<PrefetchRequest> {
        self.queue.pop_front()
    }

    /// The oldest pending request, without dequeuing it.
    pub fn peek(&self) -> Option<&PrefetchRequest> {
        self.queue.front()
    }

    /// Removes any pending request targeting `line` (e.g. because a demand
    /// miss fetched it first); returns how many were removed.
    pub fn cancel_line(&mut self, line: LineAddr) -> usize {
        let before = self.queue.len();
        self.queue.retain(|r| r.line != line);
        before - self.queue.len()
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total requests ever enqueued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total requests discarded by overflow.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }
}

/// Per-frame prefetcher registers (Figure 18).
///
/// The hardware's per-frame generation-time counter (5-bit, saturating,
/// incremented every global tick) is represented *lazily*: the frame
/// stores the tick at which the counter was last reset and the value is
/// reconstructed as `min(now - reset, MAX_LIVE_TICKS)` on read. This is
/// bit-identical to stepping the counter every tick and lets the
/// per-tick hot path skip idle frames entirely.
#[derive(Debug, Clone, Copy, Default)]
struct FrameRegs {
    /// Tick at which the generation-time counter last reset to zero.
    gt_reset: u64,
    /// Live-time register: the generation time captured at the latest hit.
    lt: u8,
    /// Tag resident in the frame before the current block.
    prev_tag: Option<u64>,
    /// Tag of the current resident block.
    cur_tag: Option<u64>,
    /// Whether the current block has been demanded at least once. A
    /// prefetched block that is replaced *unused* is erased from the
    /// history sequence — otherwise one wrong prefetch corrupts the
    /// frame's history and cascades into further wrong predictions.
    cur_used: bool,
    /// Cache set index of this frame (captured at fill).
    set_index: u64,
    /// Armed prefetch: predicted next tag, the absolute tick at which the
    /// countdown expires, and slack ticks past the firing point. The
    /// firing tick is mirrored in the prefetcher's armed queue.
    armed: Option<(u64, u64, u8)>,
    /// Prediction made at a prefetch fill, deferred until the block's
    /// first demand use confirms the chain is still being consumed.
    /// (tag, countdown ticks, slack) — the countdown starts at promotion.
    deferred: Option<(u64, u8, u8)>,
    /// Most recent address prediction for this frame (for accuracy
    /// scoring even when the prefetch never fires).
    last_prediction: Option<u64>,
}

/// The complete timekeeping prefetcher: correlation table + per-frame
/// registers + tick-driven prefetch scheduling.
///
/// Drive it from the cache model:
/// * [`on_hit`](Self::on_hit) for every L1 hit,
/// * [`on_fill`](Self::on_fill) whenever a new block enters a frame
///   (demand miss or prefetch arrival),
/// * [`tick`](Self::tick) once per global tick, collecting fired
///   [`PrefetchRequest`]s.
///
/// # Examples
///
/// ```
/// use timekeeping::{CacheGeometry, CorrelationConfig, GlobalTicker, TimekeepingPrefetcher};
///
/// let geom = CacheGeometry::new(1024, 1, 32)?; // 32 frames
/// let mut pf = TimekeepingPrefetcher::new(geom, CorrelationConfig::PAPER_8KB,
///                                         GlobalTicker::default());
/// // Teach it a pattern A -> B -> C in frame 0 (set 0):
/// pf.on_fill(0, 0, 0xA);
/// pf.on_fill(0, 0, 0xB); // history (A) recorded
/// pf.on_fill(0, 0, 0xC); // trains (A,B) -> C
/// // Re-run the pattern: when B replaces A again, C is predicted.
/// pf.on_fill(0, 0, 0xA);
/// let pred = pf.on_fill(0, 0, 0xB);
/// assert_eq!(pred.map(|p| p.next_tag), Some(0xC));
/// // The armed prefetch fires after 2 x predicted live time (>= 1 tick).
/// let fired = pf.tick();
/// assert_eq!(fired.len(), 1);
/// assert_eq!(geom.tag_of_line(fired[0].line), 0xC);
/// # Ok::<(), timekeeping::GeometryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimekeepingPrefetcher {
    geom: CacheGeometry,
    table: CorrelationTable,
    frames: Vec<FrameRegs>,
    ticker: GlobalTicker,
    scheduled: u64,
    /// Ticks elapsed since construction (the prefetcher's local clock;
    /// incremented once per [`tick`](Self::tick)).
    now_tick: u64,
    /// Armed prefetches ordered by (firing tick, frame index). Kept in
    /// lockstep with each frame's `armed` register so a tick only visits
    /// the frames that actually fire — the in-order iteration reproduces
    /// the frame-index firing order of a full per-frame scan.
    armed_queue: std::collections::BTreeSet<(u64, usize)>,
}

impl TimekeepingPrefetcher {
    /// Creates a prefetcher for an L1 with geometry `geom`.
    pub fn new(geom: CacheGeometry, cfg: CorrelationConfig, ticker: GlobalTicker) -> Self {
        TimekeepingPrefetcher {
            geom,
            table: CorrelationTable::new(cfg),
            frames: vec![FrameRegs::default(); geom.num_frames() as usize],
            ticker,
            scheduled: 0,
            now_tick: 0,
            armed_queue: std::collections::BTreeSet::new(),
        }
    }

    /// Current value of `frame`'s generation-time counter: ticks since its
    /// last reset, saturating at the 5-bit hardware maximum.
    fn gt_of(&self, frame: usize) -> u8 {
        (self.now_tick - self.frames[frame].gt_reset).min(CorrelationTable::MAX_LIVE_TICKS as u64)
            as u8
    }

    /// The global ticker driving the counters.
    pub fn ticker(&self) -> GlobalTicker {
        self.ticker
    }

    /// Correlation-table statistics (lookup hit rate = Figure 20 coverage).
    pub fn table_stats(&self) -> CorrelationStats {
        self.table.stats()
    }

    /// Total prefetches scheduled (fired from the counters).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Records a hit in `frame`: the live-time register catches up with the
    /// generation-time counter. If the resident block arrived by prefetch,
    /// its first use arms the deferred chain prediction.
    pub fn on_hit(&mut self, frame: usize) {
        let gt = self.gt_of(frame);
        let f = &mut self.frames[frame];
        f.lt = gt;
        f.cur_used = true;
        if let Some((tag, countdown, slack)) = f.deferred.take() {
            let fire = self.now_tick + u64::from(countdown);
            f.armed = Some((tag, fire, slack));
            self.armed_queue.insert((fire, frame));
        }
    }

    /// Records a new block (tag `new_tag`) entering `frame` by **demand
    /// miss**: the Figure 18 update + access sequence, arming the frame's
    /// prefetch counter immediately. Returns the table's prediction.
    pub fn on_fill(&mut self, frame: usize, set_index: u64, new_tag: u64) -> Option<Prediction> {
        self.fill_common(frame, set_index, new_tag, false)
    }

    /// Records a new block entering `frame` by **prefetch fill**: same
    /// table update/access, but the follow-on prefetch is deferred until
    /// the block's first demand use — chains advance only as fast as the
    /// program consumes them, which keeps a racing chain from displacing
    /// blocks that were never used.
    pub fn on_prefetch_fill(
        &mut self,
        frame: usize,
        set_index: u64,
        new_tag: u64,
    ) -> Option<Prediction> {
        self.fill_common(frame, set_index, new_tag, true)
    }

    fn fill_common(
        &mut self,
        frame: usize,
        set_index: u64,
        new_tag: u64,
        defer: bool,
    ) -> Option<Prediction> {
        let gt = self.gt_of(frame);
        let (old_prev, old_cur, lt, old_used) = {
            let f = &self.frames[frame];
            (f.prev_tag, f.cur_tag, f.lt, f.cur_used)
        };
        // An unused prefetched block is erased from the history: the
        // demand sequence of the frame skips it entirely.
        let hist = if old_used { old_cur } else { old_prev };
        // Update: history (D, A) learns that A was followed by B, lived
        // lt(A) ticks and occupied the frame for gt(A) ticks. Skipped when
        // A was an unused prefetch (noise).
        if old_used {
            if let (Some(d), Some(a)) = (old_prev, old_cur) {
                self.table.update(d, a, set_index, new_tag, lt, gt);
            }
        }
        // Access: history (A, B) predicts B's successor and live time.
        let prediction = hist.and_then(|a| self.table.lookup(a, new_tag, set_index));
        let now_tick = self.now_tick;
        let f = &mut self.frames[frame];
        f.prev_tag = hist;
        f.cur_tag = Some(new_tag);
        f.cur_used = !defer;
        f.set_index = set_index;
        f.gt_reset = now_tick;
        f.lt = 0;
        f.last_prediction = prediction.map(|p| p.next_tag);
        // Arm: fire at twice the predicted live time (the live time is
        // doubled by a one-bit shift before installing in the counter);
        // a zero prediction fires at the next tick. The predicted slack is
        // the remaining generation time past the firing point.
        let arm = prediction.map(|p| {
            let countdown = (u16::from(p.live_time_ticks) << 1).clamp(1, 255) as u8;
            let slack = p.gen_time_ticks.saturating_sub(countdown);
            (p.next_tag, countdown, slack)
        });
        // Overwriting an armed frame retires its queued firing.
        if let Some((_, old_fire, _)) = f.armed.take() {
            self.armed_queue.remove(&(old_fire, frame));
        }
        let f = &mut self.frames[frame];
        if defer {
            f.deferred = arm;
        } else {
            f.deferred = None;
            if let Some((tag, countdown, slack)) = arm {
                let fire = now_tick + u64::from(countdown);
                f.armed = Some((tag, fire, slack));
                self.armed_queue.insert((fire, frame));
            }
        }
        prediction
    }

    /// The most recent address prediction made for `frame`, if any.
    pub fn predicted_next(&self, frame: usize) -> Option<u64> {
        self.frames[frame].last_prediction
    }

    /// The live time (in ticks) currently held in `frame`'s lt register.
    pub fn live_time_ticks(&self, frame: usize) -> u8 {
        self.frames[frame].lt
    }

    /// Advances one global tick: generation-time counters increment,
    /// prefetch counters decrement, and prefetches whose counters reach
    /// zero are returned for enqueueing.
    pub fn tick(&mut self) -> Vec<PrefetchRequest> {
        let mut fired = Vec::new();
        self.tick_into(&mut fired);
        fired
    }

    /// Advances one global tick exactly as [`tick`](Self::tick), appending
    /// fired prefetches to `out` instead of allocating a fresh vector. The
    /// per-tick hot path reuses one scratch buffer across ticks; a buffer
    /// with capacity for one request per frame never reallocates (a tick
    /// fires at most one prefetch per frame).
    pub fn tick_into(&mut self, out: &mut Vec<PrefetchRequest>) {
        self.now_tick += 1;
        let before = out.len();
        // Only frames whose countdown expires this tick are visited; the
        // queue's (tick, frame) order reproduces the frame-index firing
        // order of the hardware's full per-frame scan. Generation-time
        // counters advance implicitly (they are reconstructed from
        // `gt_reset` on read), so idle frames cost nothing.
        while let Some(&(fire, i)) = self.armed_queue.first() {
            if fire > self.now_tick {
                break;
            }
            debug_assert_eq!(fire, self.now_tick, "armed firings drain every tick");
            self.armed_queue.pop_first();
            let f = &mut self.frames[i];
            let (tag, _, slack) = f.armed.take().expect("armed queue mirrors frame registers");
            let set_index = f.set_index;
            out.push(PrefetchRequest {
                line: self.geom.line_from_parts(tag, set_index),
                frame: i,
                need_in_ticks: Some(slack),
            });
        }
        self.scheduled += (out.len() - before) as u64;
    }

    /// Disarms any pending prefetch for `frame` (a demand miss got there
    /// first). Returns `true` if a prefetch was pending or deferred.
    pub fn disarm(&mut self, frame: usize) -> bool {
        let f = &mut self.frames[frame];
        let armed = f.armed.take();
        let deferred = f.deferred.take();
        if let Some((_, fire, _)) = armed {
            self.armed_queue.remove(&(fire, frame));
        }
        armed.is_some() | deferred.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(1024, 1, 32).unwrap() // 32 direct-mapped frames
    }

    fn pf() -> TimekeepingPrefetcher {
        TimekeepingPrefetcher::new(
            geom(),
            CorrelationConfig::PAPER_8KB,
            GlobalTicker::default(),
        )
    }

    #[test]
    fn queue_fifo_and_overflow() {
        let mut q = PrefetchQueue::new(2);
        let r = |n: u64| PrefetchRequest {
            line: LineAddr::new(n),
            frame: 0,
            need_in_ticks: None,
        };
        assert!(q.push(r(1)).is_none());
        assert!(q.push(r(2)).is_none());
        let dropped = q.push(r(3)).unwrap();
        assert_eq!(dropped.line, LineAddr::new(1));
        assert_eq!(q.discarded(), 1);
        assert_eq!(q.enqueued(), 3);
        assert_eq!(q.pop().unwrap().line, LineAddr::new(2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn queue_cancel_line() {
        let mut q = PrefetchQueue::new(8);
        let r = |n: u64| PrefetchRequest {
            line: LineAddr::new(n),
            frame: 0,
            need_in_ticks: None,
        };
        q.push(r(1));
        q.push(r(2));
        q.push(r(1));
        assert_eq!(q.cancel_line(LineAddr::new(1)), 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn queue_zero_capacity_rejected() {
        let _ = PrefetchQueue::new(0);
    }

    #[test]
    fn timeliness_stats_accumulate() {
        let mut s = TimelinessStats::new();
        s.record(true, Timeliness::Timely);
        s.record(true, Timeliness::Timely);
        s.record(false, Timeliness::Early);
        assert_eq!(s.count(true, Timeliness::Timely), 2);
        assert_eq!(s.total(true), 2);
        assert_eq!(s.total(false), 1);
        assert_eq!(s.fraction(true, Timeliness::Timely), 1.0);
        assert_eq!(s.fraction(false, Timeliness::Timely), 0.0);
        let mut t = TimelinessStats::new();
        t.merge(&s);
        assert_eq!(t.total(true), 2);
    }

    #[test]
    fn timeliness_indices_unique() {
        let mut seen = [false; 5];
        for c in Timeliness::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
            assert!(!c.to_string().is_empty());
        }
    }

    #[test]
    fn training_and_prediction_cycle() {
        let mut p = pf();
        // Sequence D, A, B in frame 3 (set 3): trains (D,A)->B.
        p.on_fill(3, 3, 0xD);
        p.on_fill(3, 3, 0xA);
        assert!(
            p.on_fill(3, 3, 0xB).is_none(),
            "untrained history predicts nothing"
        );
        // Replay: D, A again — history (D,A) now predicts B.
        p.on_fill(3, 3, 0xD);
        let pred = p.on_fill(3, 3, 0xA).expect("trained history must predict");
        assert_eq!(pred.next_tag, 0xB);
        assert_eq!(p.predicted_next(3), Some(0xB));
    }

    #[test]
    fn live_time_learned_through_ticks() {
        let mut p = pf();
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA);
        // Block A lives 3 ticks: hits after each tick.
        for _ in 0..3 {
            p.tick();
            p.on_hit(0);
        }
        assert_eq!(p.live_time_ticks(0), 3);
        p.on_fill(0, 0, 0xB); // records lt(A) = 3 under history (D,A)
                              // Replay to retrieve the learned live time.
        p.on_fill(0, 0, 0xD);
        let pred = p.on_fill(0, 0, 0xA).unwrap();
        assert_eq!(pred.live_time_ticks, 3);
        assert_eq!(pred.next_tag, 0xB);
    }

    #[test]
    fn armed_prefetch_fires_at_double_live_time() {
        let mut p = pf();
        // Train: (D,A)->B with lt(A) = 2 ticks.
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA);
        p.tick();
        p.on_hit(0);
        p.tick();
        p.on_hit(0);
        p.on_fill(0, 0, 0xB);
        // Replay and arm.
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA); // prediction: next B, lt 2 -> fires after 4 ticks
        let mut fired = Vec::new();
        let mut ticks = 0;
        while fired.is_empty() && ticks < 10 {
            fired = p.tick();
            ticks += 1;
        }
        assert_eq!(ticks, 4, "prefetch must fire at 2 x lt = 4 ticks");
        assert_eq!(fired[0].frame, 0);
        assert_eq!(geom().tag_of_line(fired[0].line), 0xB);
        assert_eq!(p.scheduled(), 1);
    }

    #[test]
    fn zero_live_time_prediction_fires_next_tick() {
        let mut p = pf();
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA); // lt(D)=0 — no hits
        p.on_fill(0, 0, 0xB); // trains (D,A)->B with lt(A)=0
        p.on_fill(0, 0, 0xD);
        let pred = p.on_fill(0, 0, 0xA).unwrap();
        assert_eq!(pred.live_time_ticks, 0);
        assert_eq!(p.tick().len(), 1, "zero-lt prediction fires at next tick");
    }

    #[test]
    fn tick_into_matches_tick_without_reallocating() {
        let train = |p: &mut TimekeepingPrefetcher| {
            p.on_fill(0, 0, 0xD);
            p.on_fill(0, 0, 0xA);
            p.on_fill(0, 0, 0xB); // trains (D,A)->B with lt(A)=0
            p.on_fill(0, 0, 0xD);
            p.on_fill(0, 0, 0xA); // armed: fires on the next tick
        };
        let mut a = pf();
        let mut b = pf();
        train(&mut a);
        train(&mut b);
        // A scratch buffer sized one-request-per-frame never grows.
        let mut scratch = Vec::with_capacity(geom().num_frames() as usize);
        let cap = scratch.capacity();
        for _ in 0..600 {
            let fired = a.tick();
            scratch.clear();
            b.tick_into(&mut scratch);
            assert_eq!(fired, scratch);
            assert_eq!(scratch.capacity(), cap, "tick_into must not reallocate");
        }
        assert_eq!(a.scheduled(), b.scheduled());
    }

    #[test]
    fn disarm_cancels_pending() {
        let mut p = pf();
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA);
        p.on_fill(0, 0, 0xB);
        p.on_fill(0, 0, 0xD);
        p.on_fill(0, 0, 0xA); // armed
        assert!(p.disarm(0));
        assert!(!p.disarm(0));
        assert!(p.tick().is_empty());
    }

    #[test]
    fn predictions_are_per_set_history() {
        let mut p = pf();
        // Train frame 1 (set 1) with (A,B)->C.
        p.on_fill(1, 1, 0xA);
        p.on_fill(1, 1, 0xB);
        p.on_fill(1, 1, 0xC);
        // Same tags in set 2 (different low index bit with n=1): untrained.
        p.on_fill(2, 2, 0xA);
        let pred = p.on_fill(2, 2, 0xB);
        assert!(pred.is_none());
    }
}
