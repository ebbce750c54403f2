//! Victim cache with pluggable admission filters (§4.2, Figure 12).
//!
//! A victim cache is a small fully-associative buffer next to the L1 that
//! catches blocks evicted by recent conflicts. The paper's insight is that
//! most evicted blocks are *not* worth buffering: only blocks whose
//! generation ended prematurely (a conflict signature — short dead time)
//! will be re-referenced soon enough to still be in a 32-entry buffer.
//!
//! Three admission policies are provided:
//!
//! * [`NoFilter`] — classic Jouppi victim cache: admit every eviction.
//! * [`CollinsFilter`] — the Collins & Tullsen comparator: an extra tag per
//!   cache set remembers what was evicted before; a miss that brings back
//!   the previously evicted block reveals a conflict, and evictions from
//!   sets with detected conflicts are admitted.
//! * [`DeadTimeFilter`] — the paper's timekeeping filter: a 2-bit
//!   coarse counter per line measures dead time; admit only evictions with
//!   dead time below 1 K cycles (counter ≤ 1 with a 512-cycle tick).

use crate::addr::LineAddr;
use crate::generation::EvictCause;
use crate::time::GlobalTicker;

/// Everything a filter may consult about an eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionInfo {
    /// The evicted line.
    pub line: LineAddr,
    /// The cache set it came from.
    pub set_index: u64,
    /// Its tag.
    pub tag: u64,
    /// Dead time of the ending generation, in cycles.
    pub dead_time: u64,
    /// Live time of the ending generation, in cycles.
    pub live_time: u64,
    /// Why the block left the cache.
    pub cause: EvictCause,
    /// Reload interval of the ending generation (time since the previous
    /// generation of the same line began), if one was observed.
    pub reload_interval: Option<u64>,
    /// Tag of the block replacing it (for Collins-style detection).
    pub incoming_tag: u64,
}

/// An admission policy for the victim cache.
///
/// Implementations may keep state (the Collins filter tracks per-set
/// history). The filter is consulted once per L1 eviction.
pub trait VictimFilter: std::fmt::Debug {
    /// Decides whether `evicted` should be placed in the victim cache.
    fn admit(&mut self, evicted: &EvictionInfo) -> bool;

    /// A short human-readable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Admit everything (Jouppi's original victim cache).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFilter;

impl VictimFilter for NoFilter {
    fn admit(&mut self, _evicted: &EvictionInfo) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "unfiltered"
    }
}

/// The paper's timekeeping filter: admit only blocks whose dead time is
/// below a threshold (1 K cycles in §4.2 — a 2-bit counter ticked every
/// 512 cycles must read ≤ 1).
///
/// The threshold is quantized to global ticks exactly as the hardware
/// counter would be: a dead time of `d` cycles passes the filter iff the
/// number of tick boundaries that elapsed during it is at most
/// `threshold_cycles / tick_period`.
#[derive(Debug, Clone, Copy)]
pub struct DeadTimeFilter {
    max_ticks: u64,
    ticker: GlobalTicker,
}

impl DeadTimeFilter {
    /// Creates the filter with the given dead-time threshold in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_cycles` is smaller than one tick period.
    pub fn new(threshold_cycles: u64, ticker: GlobalTicker) -> Self {
        // A counter value of k covers dead times in [k*period, (k+1)*period);
        // admitting counter values <= T/period - 1 covers dead times
        // 0..T-1, exactly the paper's "counter value <= 1 gives a range
        // from 0 to 1023 cycles" with T = 1024 and a 512-cycle tick.
        assert!(
            threshold_cycles >= ticker.period(),
            "threshold must cover at least one tick"
        );
        let max_ticks = threshold_cycles / ticker.period() - 1;
        DeadTimeFilter { max_ticks, ticker }
    }

    /// The paper's configuration: 1 K-cycle threshold, 512-cycle tick
    /// (counter value ≤ 1).
    pub fn paper_default() -> Self {
        Self::new(1024, GlobalTicker::default())
    }

    /// Maximum counter value that still passes the filter.
    pub fn max_ticks(&self) -> u64 {
        self.max_ticks
    }
}

impl VictimFilter for DeadTimeFilter {
    fn admit(&mut self, evicted: &EvictionInfo) -> bool {
        // The hardware counter is reset at the last access and advanced by
        // each global tick; its value at eviction is the number of elapsed
        // tick boundaries, an approximation of dead_time / period.
        self.ticker.ticks_in(evicted.dead_time) <= self.max_ticks
    }

    fn name(&self) -> &'static str {
        "timekeeping (dead-time)"
    }
}

/// A reload-interval victim filter: admit only blocks whose *current*
/// generation began within a threshold of the previous one.
///
/// §4.1 notes reload intervals are the strongest conflict signal but are
/// naturally counted at the L2, "which makes it difficult for their use as
/// a means to manage an L1 victim cache". This filter exists to quantify
/// that trade-off against the L1-resident dead-time filter (see the
/// ablation harness): it assumes per-line reload bookkeeping that real L1
/// hardware would not have.
#[derive(Debug, Clone, Copy)]
pub struct ReloadIntervalFilter {
    threshold: u64,
}

impl ReloadIntervalFilter {
    /// Creates the filter with a reload-interval threshold in cycles
    /// (Figure 8's natural breakpoint is 16 K).
    pub fn new(threshold: u64) -> Self {
        ReloadIntervalFilter { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl VictimFilter for ReloadIntervalFilter {
    fn admit(&mut self, evicted: &EvictionInfo) -> bool {
        evicted
            .reload_interval
            .map(|ri| ri < self.threshold)
            .unwrap_or(false)
    }

    fn name(&self) -> &'static str {
        "reload-interval"
    }
}

/// The adaptive dead-time filter the paper sketches as future work
/// (§4.2): "adaptive filtering adjusts the dead time threshold at run-time
/// so the number of candidate blocks remains approximately equal to the
/// number of the entries in the victim cache."
///
/// Control law: over an epoch of `epoch` offered evictions, count
/// admissions. If more than twice the victim-cache capacity was admitted,
/// the threshold halves (too many candidates dilute the cache's
/// associativity); if fewer than half the capacity, it doubles (unused
/// room). The threshold is clamped to `[one tick, 64 K cycles]`.
#[derive(Debug, Clone)]
pub struct AdaptiveDeadTimeFilter {
    ticker: GlobalTicker,
    threshold: u64,
    vc_entries: u64,
    epoch: u64,
    offered_in_epoch: u64,
    admitted_in_epoch: u64,
    adjustments: u64,
}

impl AdaptiveDeadTimeFilter {
    /// Smallest allowed threshold: one global tick.
    const MIN_FACTOR: u64 = 1;
    /// Largest allowed threshold in cycles.
    const MAX_THRESHOLD: u64 = 65_536;

    /// Creates the adaptive filter for a victim cache of `vc_entries`
    /// entries, starting from the paper's static 1 K-cycle threshold.
    pub fn new(ticker: GlobalTicker, vc_entries: usize) -> Self {
        AdaptiveDeadTimeFilter {
            ticker,
            threshold: 1024.max(ticker.period()),
            vc_entries: vc_entries as u64,
            epoch: 512,
            offered_in_epoch: 0,
            admitted_in_epoch: 0,
            adjustments: 0,
        }
    }

    /// The current (adapted) threshold in cycles.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Number of threshold adjustments performed.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    fn end_epoch(&mut self) {
        let old = self.threshold;
        if self.admitted_in_epoch > 2 * self.vc_entries {
            self.threshold = (self.threshold / 2).max(self.ticker.period() * Self::MIN_FACTOR);
        } else if self.admitted_in_epoch < self.vc_entries / 2 {
            self.threshold = (self.threshold * 2).min(Self::MAX_THRESHOLD);
        }
        if self.threshold != old {
            self.adjustments += 1;
        }
        self.offered_in_epoch = 0;
        self.admitted_in_epoch = 0;
    }
}

impl VictimFilter for AdaptiveDeadTimeFilter {
    fn admit(&mut self, evicted: &EvictionInfo) -> bool {
        let max_ticks = (self.threshold / self.ticker.period()).saturating_sub(1);
        let admit = self.ticker.ticks_in(evicted.dead_time) <= max_ticks;
        self.offered_in_epoch += 1;
        if admit {
            self.admitted_in_epoch += 1;
        }
        if self.offered_in_epoch >= self.epoch {
            self.end_epoch();
        }
        admit
    }

    fn name(&self) -> &'static str {
        "adaptive dead-time"
    }
}

/// Collins & Tullsen-style conflict filter.
///
/// Stores one extra tag per cache set: the tag most recently evicted from
/// that set. When a miss brings in a block whose tag matches the stored
/// evicted tag, the set is observed to be ping-ponging — a conflict — and
/// subsequent evictions from that set are admitted to the victim cache.
///
/// The hardware is one tag register and one conflict bit per set, so the
/// filter is exactly that: two set-indexed arrays sized at construction.
/// Its footprint is fixed no matter how many generations pass through.
#[derive(Debug, Clone)]
pub struct CollinsFilter {
    last_evicted: Vec<Option<u64>>,
    conflicting: Vec<bool>,
}

impl CollinsFilter {
    /// Creates a filter for a cache with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is zero.
    pub fn new(num_sets: usize) -> Self {
        assert!(num_sets > 0, "Collins filter needs at least one set");
        CollinsFilter {
            last_evicted: vec![None; num_sets],
            conflicting: vec![false; num_sets],
        }
    }

    /// Number of sets tracked (fixed at construction).
    pub fn tracked_sets(&self) -> usize {
        self.conflicting.len()
    }

    /// Number of sets currently marked as conflicting.
    pub fn conflicting_sets(&self) -> usize {
        self.conflicting.iter().filter(|&&v| v).count()
    }
}

impl VictimFilter for CollinsFilter {
    fn admit(&mut self, evicted: &EvictionInfo) -> bool {
        // Detect conflict: the incoming block is the one this set evicted
        // most recently — it came straight back.
        let set = evicted.set_index as usize;
        let is_conflict = self.last_evicted[set] == Some(evicted.incoming_tag);
        self.conflicting[set] = is_conflict;
        self.last_evicted[set] = Some(evicted.tag);
        is_conflict
    }

    fn name(&self) -> &'static str {
        "collins"
    }
}

/// Victim-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VictimStats {
    /// Evictions offered to the filter.
    pub offered: u64,
    /// Evictions admitted (fill traffic into the victim cache).
    pub admitted: u64,
    /// Probes of the victim cache (L1 misses).
    pub probes: u64,
    /// Probe hits (saved L1 misses).
    pub hits: u64,
}

impl VictimStats {
    /// Fraction of offered evictions admitted — 1.0 for the unfiltered
    /// cache; the paper reports an 87% traffic reduction for the
    /// timekeeping filter (admission ≈ 0.13).
    pub fn admission_rate(&self) -> Option<f64> {
        (self.offered > 0).then(|| self.admitted as f64 / self.offered as f64)
    }

    /// Victim-cache hit rate over probes.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.probes > 0).then(|| self.hits as f64 / self.probes as f64)
    }
}

crate::counter_block!(VictimStats {
    admitted,
    hits,
    offered,
    probes
});

/// A small fully-associative LRU victim cache.
///
/// # Examples
///
/// ```
/// use timekeeping::{LineAddr, VictimCache};
/// let mut vc = VictimCache::new(2);
/// vc.insert(LineAddr::new(1));
/// vc.insert(LineAddr::new(2));
/// assert!(vc.take(LineAddr::new(1))); // hit removes the entry (swap)
/// assert!(!vc.take(LineAddr::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct VictimCache {
    capacity: usize,
    stamp: u64,
    entries: Vec<(LineAddr, u64)>,
    stats: VictimStats,
}

impl VictimCache {
    /// The paper's victim-cache size: 32 entries.
    pub const PAPER_ENTRIES: usize = 32;

    /// Creates a victim cache with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "victim cache capacity must be nonzero");
        VictimCache {
            capacity,
            stamp: 0,
            entries: Vec::with_capacity(capacity),
            stats: VictimStats::default(),
        }
    }

    /// Creates the paper's 32-entry victim cache.
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_ENTRIES)
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of buffered victims.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache holds no victims.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VictimStats {
        self.stats
    }

    /// The buffered lines in LRU→MRU order (diagnostic accessor for the
    /// simulator's lockstep divergence report).
    pub fn lines(&self) -> Vec<LineAddr> {
        let mut v: Vec<(LineAddr, u64)> = self.entries.clone();
        v.sort_by_key(|&(_, s)| s);
        v.into_iter().map(|(l, _)| l).collect()
    }

    /// Probes for `line` on an L1 miss; on a hit the entry is removed
    /// (the block is swapped back into the L1). Returns whether it hit.
    pub fn take(&mut self, line: LineAddr) -> bool {
        self.stats.probes += 1;
        if let Some(pos) = self.entries.iter().position(|&(l, _)| l == line) {
            self.entries.swap_remove(pos);
            self.stats.hits += 1;
            true
        } else {
            false
        }
    }

    /// Unconditionally inserts a victim, evicting the LRU entry if full.
    pub fn insert(&mut self, line: LineAddr) {
        self.stamp += 1;
        if let Some(pos) = self.entries.iter().position(|&(l, _)| l == line) {
            self.entries[pos].1 = self.stamp;
            return;
        }
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, s))| s)
                .map(|(i, _)| i)
                .expect("full cache is nonempty");
            self.entries.swap_remove(lru);
        }
        self.entries.push((line, self.stamp));
        self.debug_invariants();
    }

    /// Buffer invariants, asserted after every insertion when the
    /// `check-invariants` feature is on: occupancy within capacity and no
    /// duplicate lines.
    #[cfg(feature = "check-invariants")]
    fn debug_invariants(&self) {
        assert!(
            self.entries.len() <= self.capacity,
            "victim cache holds {} entries, capacity {}",
            self.entries.len(),
            self.capacity
        );
        for (i, &(l, _)) in self.entries.iter().enumerate() {
            assert!(
                !self.entries[i + 1..].iter().any(|&(o, _)| o == l),
                "victim cache holds {l} twice"
            );
        }
    }

    #[cfg(not(feature = "check-invariants"))]
    #[inline(always)]
    fn debug_invariants(&self) {}

    /// Whether `line` is buffered, without counting a probe or touching
    /// LRU state. Coherence sharer discovery reads the buffer through
    /// this; the demand miss path uses [`take`](VictimCache::take).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|&(l, _)| l == line)
    }

    /// Removes `line` if buffered, returning whether it was present.
    ///
    /// Unlike [`take`](VictimCache::take) this counts neither a probe
    /// nor a hit: it models a coherence invalidation (or an inclusive-L2
    /// recall) snooping the buffer, not the L1 miss path probing it —
    /// victim hit rates must reflect demand probes only.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if let Some(pos) = self.entries.iter().position(|&(l, _)| l == line) {
            self.entries.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Offers an eviction through `filter`; inserts it if admitted.
    /// Returns whether the victim was admitted.
    pub fn offer(&mut self, filter: &mut dyn VictimFilter, info: &EvictionInfo) -> bool {
        self.stats.offered += 1;
        if filter.admit(info) {
            self.stats.admitted += 1;
            self.insert(info.line);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(line: u64, set: u64, tag: u64, dead: u64, incoming: u64) -> EvictionInfo {
        EvictionInfo {
            line: LineAddr::new(line),
            set_index: set,
            tag,
            dead_time: dead,
            live_time: 0,
            cause: EvictCause::Demand,
            reload_interval: None,
            incoming_tag: incoming,
        }
    }

    #[test]
    fn reload_interval_filter_thresholds() {
        let mut f = ReloadIntervalFilter::new(16_000);
        assert_eq!(f.threshold(), 16_000);
        assert_eq!(f.name(), "reload-interval");
        let mut short = info(1, 0, 10, 0, 0);
        short.reload_interval = Some(2_000);
        assert!(f.admit(&short));
        let mut long = info(1, 0, 10, 0, 0);
        long.reload_interval = Some(500_000);
        assert!(!f.admit(&long));
        // First generations carry no reload interval: reject.
        assert!(!f.admit(&info(1, 0, 10, 0, 0)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut vc = VictimCache::new(2);
        vc.insert(LineAddr::new(1));
        vc.insert(LineAddr::new(2));
        vc.insert(LineAddr::new(3)); // evicts 1
        assert!(!vc.take(LineAddr::new(1)));
        assert!(vc.take(LineAddr::new(2)));
        assert!(vc.take(LineAddr::new(3)));
        assert!(vc.is_empty());
    }

    #[test]
    fn reinsert_refreshes_lru() {
        let mut vc = VictimCache::new(2);
        vc.insert(LineAddr::new(1));
        vc.insert(LineAddr::new(2));
        vc.insert(LineAddr::new(1)); // refresh, no growth
        assert_eq!(vc.len(), 2);
        vc.insert(LineAddr::new(3)); // evicts 2 (LRU)
        assert!(vc.take(LineAddr::new(1)));
        assert!(!vc.take(LineAddr::new(2)));
    }

    #[test]
    fn no_filter_admits_everything() {
        let mut vc = VictimCache::new(4);
        let mut f = NoFilter;
        assert!(vc.offer(&mut f, &info(1, 0, 10, 1_000_000, 99)));
        assert_eq!(vc.stats().admission_rate(), Some(1.0));
        assert_eq!(f.name(), "unfiltered");
    }

    #[test]
    fn dead_time_filter_thresholds() {
        let mut f = DeadTimeFilter::paper_default();
        assert_eq!(f.max_ticks(), 1);
        // Paper: counter value <= 1 admits dead times 0..=1023.
        assert!(f.admit(&info(1, 0, 10, 500, 0)));
        assert!(f.admit(&info(1, 0, 10, 1023, 0)));
        assert!(!f.admit(&info(1, 0, 10, 1024, 0)));
        assert!(!f.admit(&info(1, 0, 10, 5000, 0)));
        assert_eq!(f.name(), "timekeeping (dead-time)");
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn dead_time_filter_rejects_sub_tick_threshold() {
        let _ = DeadTimeFilter::new(100, GlobalTicker::new(512));
    }

    #[test]
    fn collins_filter_detects_ping_pong() {
        let mut f = CollinsFilter::new(8);
        // Set 5: tag 1 evicted by tag 2 — nothing known yet, reject.
        assert!(!f.admit(&info(100, 5, 1, 0, 2)));
        // Tag 2 evicted by tag 1: tag 1 was the last evicted from set 5 ->
        // conflict detected, admit.
        assert!(f.admit(&info(101, 5, 2, 0, 1)));
        assert_eq!(f.conflicting_sets(), 1);
        // Unrelated set stays independent.
        assert!(!f.admit(&info(200, 6, 9, 0, 8)));
    }

    #[test]
    fn collins_filter_state_is_bounded_by_tracked_sets() {
        // Regression: the per-set state used to live in maps keyed by set
        // index that grew one entry per distinct (set, generation) stream
        // and were never pruned. The filter must hold exactly one tag and
        // one conflict bit per set, no matter how many generations pass.
        const SETS: usize = 16;
        let mut f = CollinsFilter::new(SETS);
        for gen in 0..10_000u64 {
            let set = gen % SETS as u64;
            // A fresh tag every generation: unbounded distinct keys.
            assert!(!f.admit(&info(gen, set, gen + 1, 100, gen + 2)));
        }
        assert_eq!(f.tracked_sets(), SETS);
        assert!(f.conflicting_sets() <= SETS);
        // Ping-pong detection still works after the churn.
        let set = 3;
        f.admit(&info(1, set, 42, 0, 7));
        assert!(f.admit(&info(2, set, 7, 0, 42)));
    }

    #[test]
    fn filtered_offer_counts_traffic() {
        let mut vc = VictimCache::new(4);
        let mut f = DeadTimeFilter::paper_default();
        vc.offer(&mut f, &info(1, 0, 10, 500, 0)); // admitted
        vc.offer(&mut f, &info(2, 0, 11, 50_000, 0)); // filtered
        let s = vc.stats();
        assert_eq!(s.offered, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.admission_rate(), Some(0.5));
        assert!(vc.take(LineAddr::new(1)));
        assert!(!vc.take(LineAddr::new(2)));
        assert_eq!(vc.stats().hit_rate(), Some(0.5)); // 1 hit / 2 probes
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = VictimCache::new(0);
    }

    #[test]
    fn adaptive_filter_starts_at_paper_threshold() {
        let f = AdaptiveDeadTimeFilter::new(GlobalTicker::default(), 32);
        assert_eq!(f.threshold(), 1024);
        assert_eq!(f.adjustments(), 0);
        let mut f = f;
        assert_eq!(f.name(), "adaptive dead-time");
        assert!(f.admit(&info(1, 0, 10, 500, 0)));
        assert!(!f.admit(&info(1, 0, 10, 5000, 0)));
    }

    #[test]
    fn adaptive_filter_tightens_under_admission_pressure() {
        let mut f = AdaptiveDeadTimeFilter::new(GlobalTicker::default(), 32);
        // A full epoch of short-dead victims: far more than 2x32 admitted.
        for i in 0..512 {
            f.admit(&info(i, 0, 10, 100, 0));
        }
        assert!(
            f.threshold() < 1024,
            "threshold must tighten, got {}",
            f.threshold()
        );
        assert_eq!(f.adjustments(), 1);
    }

    #[test]
    fn adaptive_filter_relaxes_when_starved() {
        let mut f = AdaptiveDeadTimeFilter::new(GlobalTicker::default(), 32);
        // A full epoch of long-dead victims: almost nothing admitted.
        for i in 0..512 {
            f.admit(&info(i, 0, 10, 50_000, 0));
        }
        assert!(
            f.threshold() > 1024,
            "threshold must relax, got {}",
            f.threshold()
        );
        // Relaxation is clamped.
        for _ in 0..100 {
            for i in 0..512 {
                f.admit(&info(i, 0, 10, 1_000_000, 0));
            }
        }
        assert!(f.threshold() <= 65_536);
    }

    #[test]
    fn adaptive_filter_settles_on_matched_load() {
        let mut f = AdaptiveDeadTimeFilter::new(GlobalTicker::default(), 32);
        // ~48 short-dead victims per 512-entry epoch: inside the
        // [entries/2, 2*entries] dead band, so no adjustment.
        for epoch in 0..4 {
            for i in 0..512u64 {
                let dead = if i % 11 == 0 { 100 } else { 50_000 };
                f.admit(&info(epoch * 1000 + i, 0, 10, dead, 0));
            }
        }
        assert_eq!(f.adjustments(), 0, "matched load must not oscillate");
        assert_eq!(f.threshold(), 1024);
    }
}
