//! On-line cold / conflict / capacity miss classification.
//!
//! The paper uses Hill's canonical three-way classification (§4): a *cold*
//! miss is the first reference ever to a line; a *conflict* miss would have
//! hit in a fully-associative LRU cache of the same total capacity; a
//! *capacity* miss would miss even there. [`FullyAssocShadow`] maintains
//! that fully-associative LRU shadow next to the real cache and classifies
//! every miss exactly — this is the ground truth that the timekeeping
//! *predictors* of misses are scored against.

use std::fmt;
use std::sync::Arc;

use crate::addr::LineAddr;
use crate::meta::{LineMap, LineSet};

/// Hill's three-way miss classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// First-ever reference to the line.
    Cold,
    /// Would have hit in a fully-associative cache of equal capacity.
    Conflict,
    /// Would have missed even in a fully-associative cache.
    Capacity,
}

impl MissKind {
    /// All three kinds, in the paper's reporting order.
    pub const ALL: [MissKind; 3] = [MissKind::Conflict, MissKind::Cold, MissKind::Capacity];

    /// Stable small index (0 = conflict, 1 = cold, 2 = capacity) for
    /// array-indexed per-kind statistics.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MissKind::Conflict => 0,
            MissKind::Cold => 1,
            MissKind::Capacity => 2,
        }
    }
}

impl fmt::Display for MissKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MissKind::Cold => "cold",
            MissKind::Conflict => "conflict",
            MissKind::Capacity => "capacity",
        };
        f.write_str(s)
    }
}

/// Per-kind miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MissBreakdown {
    /// Number of cold misses.
    pub cold: u64,
    /// Number of conflict misses.
    pub conflict: u64,
    /// Number of capacity misses.
    pub capacity: u64,
}

impl MissBreakdown {
    /// Total misses.
    pub fn total(&self) -> u64 {
        self.cold + self.conflict + self.capacity
    }

    /// Count for a specific kind.
    pub fn count(&self, kind: MissKind) -> u64 {
        match kind {
            MissKind::Cold => self.cold,
            MissKind::Conflict => self.conflict,
            MissKind::Capacity => self.capacity,
        }
    }

    /// Records one miss of `kind`.
    pub fn record(&mut self, kind: MissKind) {
        match kind {
            MissKind::Cold => self.cold += 1,
            MissKind::Conflict => self.conflict += 1,
            MissKind::Capacity => self.capacity += 1,
        }
    }

    /// Fraction of misses of `kind`, or 0 if there are no misses.
    pub fn fraction(&self, kind: MissKind) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.count(kind) as f64 / t as f64
        }
    }
}

crate::counter_block!(MissBreakdown {
    capacity,
    cold,
    conflict
});

impl fmt::Display for MissBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conflict:{} ({:.1}%) cold:{} ({:.1}%) capacity:{} ({:.1}%)",
            self.conflict,
            self.fraction(MissKind::Conflict) * 100.0,
            self.cold,
            self.fraction(MissKind::Cold) * 100.0,
            self.capacity,
            self.fraction(MissKind::Capacity) * 100.0,
        )
    }
}

/// Slot-link sentinel: no neighbour in that direction.
const NIL: u32 = u32::MAX;

/// One resident line of [`FullyAssocShadow`]'s recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    line: u64,
    /// The next more recently used slot, or [`NIL`] at the MRU end.
    newer: u32,
    /// The next less recently used slot, or [`NIL`] at the LRU end.
    older: u32,
}

/// A fully-associative LRU shadow cache used to classify misses.
///
/// The shadow observes *every* access the real cache sees (hits and misses)
/// so that its LRU state models a fully-associative cache of the same
/// capacity receiving the same reference stream.
///
/// Every observation is O(1): the resident lines sit in a slot array of at
/// most `capacity` entries, doubly linked MRU → LRU, with a [`LineMap`]
/// from line to slot; an eviction reuses the LRU slot in place. The
/// ever-seen set is a [`LineSet`], one entry per distinct line. Nothing is
/// ever iterated, so no result depends on hash order.
///
/// # Examples
///
/// ```
/// use timekeeping::{FullyAssocShadow, LineAddr, MissKind};
///
/// let mut shadow = FullyAssocShadow::new(2); // 2-block toy cache
/// let (a, b, c) = (LineAddr::new(1), LineAddr::new(2), LineAddr::new(3));
/// assert_eq!(shadow.classify_miss(a), MissKind::Cold);
/// assert_eq!(shadow.classify_miss(b), MissKind::Cold);
/// // `a` is still in the 2-entry fully-associative cache: if the real
/// // cache missed on it, that miss is a conflict.
/// assert_eq!(shadow.classify_miss(a), MissKind::Conflict);
/// // `c` evicts `b` (LRU); a re-reference to `b` is then a capacity miss.
/// assert_eq!(shadow.classify_miss(c), MissKind::Cold);
/// assert_eq!(shadow.classify_miss(b), MissKind::Capacity);
/// ```
#[derive(Debug, Clone)]
pub struct FullyAssocShadow {
    capacity: usize,
    /// Resident line → its index in `slots`.
    index: LineMap<u32>,
    /// Resident lines. Grows to `capacity`, then stays that size.
    slots: Vec<Slot>,
    /// Most recently used slot, or [`NIL`] when empty.
    mru: u32,
    /// Least recently used slot (the next victim), or [`NIL`] when empty.
    lru: u32,
    /// Lines observed by this shadow. Always a superset of the residents,
    /// so a resident line never needs a seen-set probe.
    seen: LineSet,
    /// Frozen prefix of the seen set, shared with the producer of a
    /// checkpoint (see [`from_parts`](Self::from_parts)). A line is
    /// "seen" if it is in either set; new observations land in `seen`.
    seen_base: Option<SeenBase>,
    breakdown: MissBreakdown,
}

/// A frozen, shareable prefix of the "ever seen" line set.
///
/// `Set` is a plain snapshot. `Epoch` is the checkpoint-plane encoding:
/// one map from line to the index of the profiling interval that first
/// touched it, shared across every representative of a
/// [`SampleCheckpoint`](../../tk_sim) via `Arc`. A representative at
/// interval `epoch` considers a line seen iff its first touch came
/// strictly before `epoch` — so the single map serves every cut point of
/// the warmup stream without per-representative copies.
#[derive(Debug, Clone)]
enum SeenBase {
    Set(Arc<LineSet>),
    Epoch {
        first_touch: Arc<LineMap<u32>>,
        epoch: u32,
    },
}

impl SeenBase {
    #[inline]
    fn contains(&self, raw: u64) -> bool {
        match self {
            SeenBase::Set(s) => s.contains(&raw),
            SeenBase::Epoch { first_touch, epoch } => {
                first_touch.get(&raw).is_some_and(|&e| e < *epoch)
            }
        }
    }
}

impl FullyAssocShadow {
    /// Creates a shadow with room for `capacity_blocks` lines.
    ///
    /// For the paper's L1 (32 KB / 32 B blocks) this is 1024.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero.
    pub fn new(capacity_blocks: usize) -> Self {
        assert!(capacity_blocks > 0, "shadow capacity must be nonzero");
        FullyAssocShadow {
            capacity: capacity_blocks,
            index: LineMap::default(),
            slots: Vec::new(),
            mru: NIL,
            lru: NIL,
            seen: LineSet::default(),
            seen_base: None,
            breakdown: MissBreakdown::default(),
        }
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Reconstructs a shadow from exported state: the resident lines in
    /// LRU→MRU order, the set of lines ever seen (the residents are
    /// added to it), and the accumulated breakdown. Used by the sampling
    /// warmup engine, which tracks the same LRU semantics in a faster
    /// structure and converts at checkpoint-injection time — the seen
    /// set transfers as a shared frozen snapshot, so a warm checkpoint
    /// hands over its whole footprint in O(1) instead of copying it at
    /// each representative. Lines the new shadow observes accumulate in
    /// a private overlay; membership is the union of the two.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks` is zero, a resident line is supplied
    /// twice, or more than `capacity_blocks` resident lines are supplied.
    pub fn from_parts(
        capacity_blocks: usize,
        resident_lru_to_mru: impl IntoIterator<Item = u64>,
        seen: Arc<LineSet>,
        breakdown: MissBreakdown,
    ) -> Self {
        Self::from_base(
            capacity_blocks,
            resident_lru_to_mru,
            SeenBase::Set(seen),
            breakdown,
        )
    }

    /// Like [`from_parts`](Self::from_parts), but the frozen seen set is
    /// encoded as a shared first-touch map plus a cut point: a line
    /// counts as previously seen iff `first_touch[line] < epoch`. One map
    /// (covering the whole warmup stream) serves every representative of
    /// a sampling checkpoint, each at its own epoch, without copying.
    ///
    /// # Panics
    ///
    /// Same conditions as [`from_parts`](Self::from_parts).
    pub fn from_parts_epoch(
        capacity_blocks: usize,
        resident_lru_to_mru: impl IntoIterator<Item = u64>,
        first_touch: Arc<LineMap<u32>>,
        epoch: u32,
        breakdown: MissBreakdown,
    ) -> Self {
        Self::from_base(
            capacity_blocks,
            resident_lru_to_mru,
            SeenBase::Epoch { first_touch, epoch },
            breakdown,
        )
    }

    fn from_base(
        capacity_blocks: usize,
        resident_lru_to_mru: impl IntoIterator<Item = u64>,
        base: SeenBase,
        breakdown: MissBreakdown,
    ) -> Self {
        let mut s = FullyAssocShadow::new(capacity_blocks);
        s.seen_base = Some(base);
        let mut lines = resident_lru_to_mru.into_iter();
        while let Some(line) = lines.next() {
            assert!(
                !s.index.contains_key(&line),
                "duplicate resident line {line:#x}"
            );
            if s.index.len() == capacity_blocks {
                let supplied = capacity_blocks + 1 + lines.count();
                panic!("{supplied} resident lines exceed capacity {capacity_blocks}");
            }
            s.seen.insert(line);
            s.install(line);
        }
        s.breakdown = breakdown;
        s
    }

    /// Number of lines currently resident in the shadow.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the shadow holds no lines.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `line` is currently resident in the shadow.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.index.contains_key(&line.get())
    }

    /// Accumulated classification counts.
    pub fn breakdown(&self) -> MissBreakdown {
        self.breakdown
    }

    /// Observes an access that *hit* in the real cache (updates recency
    /// only).
    pub fn on_access(&mut self, line: LineAddr) {
        let raw = line.get();
        match self.index.get(&raw) {
            Some(&slot) => self.promote(slot),
            None => {
                self.seen.insert(raw);
                self.install(raw);
            }
        }
    }

    /// Classifies a miss in the real cache, then observes the access.
    pub fn classify_miss(&mut self, line: LineAddr) -> MissKind {
        let raw = line.get();
        let kind = match self.index.get(&raw) {
            // Residents are always seen: a resident miss is a conflict.
            Some(&slot) => {
                self.promote(slot);
                MissKind::Conflict
            }
            None => {
                let first_sight = self.seen.insert(raw)
                    && !self.seen_base.as_ref().is_some_and(|b| b.contains(raw));
                self.install(raw);
                if first_sight {
                    MissKind::Cold
                } else {
                    MissKind::Capacity
                }
            }
        };
        self.breakdown.record(kind);
        kind
    }

    /// Makes the non-resident `line` MRU, evicting the LRU line into its
    /// slot when the shadow is full.
    fn install(&mut self, line: u64) {
        let slot = if self.slots.len() < self.capacity {
            assert!(
                self.slots.len() < NIL as usize,
                "shadow slot index overflow"
            );
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                line,
                newer: NIL,
                older: NIL,
            });
            slot
        } else {
            let slot = self.lru;
            self.unlink(slot);
            let victim = std::mem::replace(&mut self.slots[slot as usize].line, line);
            self.index.remove(&victim);
            slot
        };
        self.index.insert(line, slot);
        self.push_mru(slot);
    }

    /// Moves a resident slot to the MRU end.
    #[inline]
    fn promote(&mut self, slot: u32) {
        if slot != self.mru {
            self.unlink(slot);
            self.push_mru(slot);
        }
    }

    /// Detaches `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        if newer == NIL {
            self.mru = older;
        } else {
            self.slots[newer as usize].older = older;
        }
        if older == NIL {
            self.lru = newer;
        } else {
            self.slots[older as usize].newer = newer;
        }
    }

    /// Links a detached `slot` in at the MRU end.
    #[inline]
    fn push_mru(&mut self, slot: u32) {
        let old_mru = self.mru;
        let s = &mut self.slots[slot as usize];
        s.newer = NIL;
        s.older = old_mru;
        if old_mru == NIL {
            self.lru = slot;
        } else {
            self.slots[old_mru as usize].newer = slot;
        }
        self.mru = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn first_touch_is_cold() {
        let mut s = FullyAssocShadow::new(4);
        assert_eq!(s.classify_miss(line(1)), MissKind::Cold);
        assert_eq!(s.breakdown().cold, 1);
    }

    #[test]
    fn resident_line_miss_is_conflict() {
        let mut s = FullyAssocShadow::new(4);
        s.classify_miss(line(1));
        // Line 1 still resident in shadow; real cache missed again -> conflict.
        assert_eq!(s.classify_miss(line(1)), MissKind::Conflict);
    }

    #[test]
    fn capacity_requires_eviction_by_distinct_lines() {
        let mut s = FullyAssocShadow::new(2);
        s.classify_miss(line(1));
        s.classify_miss(line(2));
        s.classify_miss(line(3)); // evicts 1 (LRU)
        assert!(!s.contains(line(1)));
        assert_eq!(s.classify_miss(line(1)), MissKind::Capacity);
    }

    #[test]
    fn hits_refresh_lru_order() {
        let mut s = FullyAssocShadow::new(2);
        s.classify_miss(line(1));
        s.classify_miss(line(2));
        s.on_access(line(1)); // 1 becomes MRU; 2 is now LRU
        s.classify_miss(line(3)); // evicts 2
        assert!(s.contains(line(1)));
        assert!(!s.contains(line(2)));
        assert_eq!(s.classify_miss(line(2)), MissKind::Capacity);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn exactly_capacity_unique_lines_needed() {
        // For a shadow of N blocks, a line is only driven out after N other
        // unique accesses — the property the paper uses to explain why
        // capacity misses have reload intervals >= ~1024 accesses (§4.1).
        let n = 16;
        let mut s = FullyAssocShadow::new(n);
        s.classify_miss(line(1000));
        for i in 0..n as u64 - 1 {
            s.classify_miss(line(i));
        }
        assert!(s.contains(line(1000)), "n-1 unique lines must not evict");
        s.classify_miss(line(999));
        assert!(!s.contains(line(1000)), "n unique lines must evict");
    }

    #[test]
    fn breakdown_totals_and_fractions() {
        let mut s = FullyAssocShadow::new(2);
        s.classify_miss(line(1)); // cold
        s.classify_miss(line(1)); // conflict
        s.classify_miss(line(2)); // cold
        s.classify_miss(line(3)); // cold, evicts 1
        s.classify_miss(line(1)); // capacity
        let b = s.breakdown();
        assert_eq!(b.total(), 5);
        assert_eq!(b.cold, 3);
        assert_eq!(b.conflict, 1);
        assert_eq!(b.capacity, 1);
        assert!((b.fraction(MissKind::Cold) - 0.6).abs() < 1e-9);
        assert!(!b.to_string().is_empty());
    }

    #[test]
    fn miss_kind_indices_are_distinct() {
        let mut seen = [false; 3];
        for k in MissKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _ = FullyAssocShadow::new(0);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        assert_eq!(MissBreakdown::default().fraction(MissKind::Cold), 0.0);
    }

    #[test]
    fn epoch_seen_base_matches_set_snapshot() {
        // First-touch epochs: line 1 @0, line 2 @1, line 3 @2. A shadow
        // cut at epoch 2 must treat {1, 2} as seen and 3 as unseen —
        // exactly what a set snapshot taken at that boundary would say.
        let first: Arc<LineMap<u32>> =
            Arc::new([(1u64, 0u32), (2, 1), (3, 2)].into_iter().collect());
        let snapshot: Arc<LineSet> = Arc::new([1u64, 2].into_iter().collect());
        let mut by_epoch =
            FullyAssocShadow::from_parts_epoch(4, [1u64], first, 2, MissBreakdown::default());
        let mut by_set =
            FullyAssocShadow::from_parts(4, [1u64], snapshot, MissBreakdown::default());
        for l in [1u64, 2, 3, 3, 2] {
            assert_eq!(
                by_epoch.classify_miss(line(l)),
                by_set.classify_miss(line(l)),
                "line {l}"
            );
        }
        assert_eq!(by_epoch.breakdown(), by_set.breakdown());
    }

    #[test]
    fn resident_state_stays_bounded_under_large_footprints() {
        // A footprint far beyond capacity (long large-footprint runs) must
        // grow only the seen set: the resident index and the slot array
        // stay within `capacity` entries, and neither reallocates once
        // the stream is past its first sweep.
        for cap in [1usize, 8, 1024] {
            let mut s = FullyAssocShadow::new(cap);
            let total = 64 * cap as u64;
            let mut settled = None;
            for i in 0..total {
                // Alternate miss and hit observations of fresh lines.
                if i % 2 == 0 {
                    assert_eq!(s.classify_miss(line(i)), MissKind::Cold);
                } else {
                    s.on_access(line(i));
                }
                assert!(s.index.len() <= cap && s.slots.len() <= cap);
                assert_eq!(s.seen.len() as u64, i + 1);
                if i == 2 * cap as u64 {
                    settled = Some((s.index.capacity(), s.slots.capacity()));
                }
            }
            assert_eq!(s.len(), cap);
            assert_eq!(
                settled,
                Some((s.index.capacity(), s.slots.capacity())),
                "resident storage regrew at capacity {cap}"
            );
            assert!(s.slots.capacity() <= (2 * cap).max(4), "cap {cap}");
            assert_eq!(s.breakdown().cold, total / 2);
        }
    }

    #[test]
    fn epoch_zero_sees_nothing() {
        let first = Arc::new([(7u64, 0u32)].into_iter().collect());
        let mut s = FullyAssocShadow::from_parts_epoch(2, [], first, 0, MissBreakdown::default());
        // first_touch[7] == 0 is NOT < epoch 0: the very first interval's
        // own touches are invisible to the representative at boundary 0.
        assert_eq!(s.classify_miss(line(7)), MissKind::Cold);
    }
}
