//! The timekeeping address + live-time correlation table (§5.2, Figure 17).
//!
//! A single small structure predicts, for each L1 frame, *what* block will
//! be demanded next and *when* the current block will be dead — unifying
//! the address predictor and the live-time predictor.
//!
//! The table is indexed by a 1-miss history: when block `B` replaces block
//! `A` in a frame, the tags of `A` and `B` are added (truncated addition)
//! and the pointer is formed from `m` bits of that sum concatenated with
//! `n` bits of the frame's set index. The pointer selects a set of the
//! (8-way) table; the entry is selected by matching the identification tag
//! against `B`. The entry then supplies the predicted next tag `C` and the
//! predicted live time of `B`.
//!
//! Indexing with mostly tag information (`n` small) deliberately aliases
//! histories from different cache sets onto the same entry. This is the
//! paper's *constructive aliasing*: multiple data structures traversed in
//! the same pattern share entries, which is what lets an 8 KB table match a
//! 2 MB DBCP.

use crate::addr::CacheGeometry;

/// Geometry of the correlation table.
///
/// The paper's evaluated configuration is `m = 7` tag-sum bits, `n = 1`
/// index bit, 8 ways: 256 sets × 8 ways = 2048 entries ≈ 8 KB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorrelationConfig {
    /// Bits taken from the truncated sum of the two history tags.
    pub m_bits: u32,
    /// Bits taken from the cache set index.
    pub n_bits: u32,
    /// Ways per table set.
    pub ways: u32,
}

impl CorrelationConfig {
    /// The paper's 8 KB configuration (m=7, n=1, 8-way).
    pub const PAPER_8KB: CorrelationConfig = CorrelationConfig {
        m_bits: 7,
        n_bits: 1,
        ways: 8,
    };

    /// A large 2 MB-class configuration (for the mcf experiment noted in
    /// §5.2.3): m=15, n=1, 8-way = 512 K entries.
    pub const LARGE_2MB: CorrelationConfig = CorrelationConfig {
        m_bits: 15,
        n_bits: 1,
        ways: 8,
    };

    /// Number of table sets.
    pub const fn num_sets(&self) -> usize {
        1usize << (self.m_bits + self.n_bits)
    }

    /// Total number of entries.
    pub const fn num_entries(&self) -> usize {
        self.num_sets() * self.ways as usize
    }

    /// Approximate hardware size in bytes, assuming ~4 bytes per entry
    /// (two truncated tags, a 5-bit live time, valid + LRU state).
    pub const fn approx_bytes(&self) -> usize {
        self.num_entries() * 4
    }
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        Self::PAPER_8KB
    }
}

/// A prediction returned by the table: the next tag expected in the frame
/// and the predicted live time (in global ticks) of the block just loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted tag of the next block to occupy the frame.
    pub next_tag: u64,
    /// Predicted live time of the current block, in global ticks
    /// (5-bit saturated).
    pub live_time_ticks: u8,
    /// Predicted *generation* time of the current block, in global ticks
    /// (5-bit saturated) — when the next block will be needed. §5.2.2's
    /// aside ("one could also estimate when C needs to arrive, and exploit
    /// any slack to save power or smooth out bus contention") uses this as
    /// the prefetch deadline.
    pub gen_time_ticks: u8,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    id_tag: u64,
    next_tag: u64,
    live_time_ticks: u8,
    gen_time_ticks: u8,
    lru: u64,
}

impl Entry {
    const EMPTY: Entry = Entry {
        valid: false,
        id_tag: 0,
        next_tag: 0,
        live_time_ticks: 0,
        gen_time_ticks: 0,
        lru: 0,
    };
}

/// Lookup/update statistics of the table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorrelationStats {
    /// Lookup attempts.
    pub lookups: u64,
    /// Lookups that matched an entry (the predictor's coverage).
    pub hits: u64,
    /// Updates performed.
    pub updates: u64,
    /// Updates that allocated a fresh entry (vs. rewriting a match).
    pub allocations: u64,
}

impl CorrelationStats {
    /// Hit rate of the predictor — the paper's "coverage" in Figure 20.
    pub fn hit_rate(&self) -> Option<f64> {
        (self.lookups > 0).then(|| self.hits as f64 / self.lookups as f64)
    }
}

crate::counter_block!(CorrelationStats {
    allocations,
    hits,
    lookups,
    updates
});

/// The set-associative correlation table.
///
/// # Examples
///
/// ```
/// use timekeeping::{CorrelationConfig, CorrelationTable};
///
/// let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
/// // History (A=0x10, B=0x20) in cache set 3: B's successor is C=0x30,
/// // B lived 4 ticks.
/// t.update(0x10, 0x20, 3, 0x30, 4, 4);
/// let p = t.lookup(0x10, 0x20, 3).unwrap();
/// assert_eq!(p.next_tag, 0x30);
/// assert_eq!(p.live_time_ticks, 4);
/// // A different history misses.
/// assert!(t.lookup(0x11, 0x20, 3).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CorrelationTable {
    cfg: CorrelationConfig,
    sets: Vec<Entry>,
    stamp: u64,
    stats: CorrelationStats,
}

impl CorrelationTable {
    /// Maximum storable live time in ticks (5-bit counter).
    pub const MAX_LIVE_TICKS: u8 = 31;

    /// Creates an empty table with the given geometry.
    pub fn new(cfg: CorrelationConfig) -> Self {
        CorrelationTable {
            cfg,
            sets: vec![Entry::EMPTY; cfg.num_entries()],
            stamp: 0,
            stats: CorrelationStats::default(),
        }
    }

    /// The table geometry.
    pub fn config(&self) -> CorrelationConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CorrelationStats {
        self.stats
    }

    #[inline]
    fn set_of(&self, hist_tag: u64, cur_tag: u64, cache_index: u64) -> usize {
        let m_mask = (1u64 << self.cfg.m_bits) - 1;
        let n_mask = (1u64 << self.cfg.n_bits) - 1;
        let sum = hist_tag.wrapping_add(cur_tag) & m_mask;
        (((sum << self.cfg.n_bits) | (cache_index & n_mask)) as usize) % self.cfg.num_sets()
    }

    #[inline]
    fn set_slice(&mut self, set: usize) -> &mut [Entry] {
        let w = self.cfg.ways as usize;
        &mut self.sets[set * w..(set + 1) * w]
    }

    /// Records that in a frame with history `(hist_tag, cur_tag)` (the tag
    /// resident before `cur_tag`, and `cur_tag` itself), the block `cur_tag`
    /// was followed by `next_tag`, lived `live_time_ticks` global ticks and
    /// occupied the frame for `gen_time_ticks` global ticks in total.
    ///
    /// Both tick fields saturate at [`Self::MAX_LIVE_TICKS`].
    pub fn update(
        &mut self,
        hist_tag: u64,
        cur_tag: u64,
        cache_index: u64,
        next_tag: u64,
        live_time_ticks: u8,
        gen_time_ticks: u8,
    ) {
        self.stats.updates += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        let lt = live_time_ticks.min(Self::MAX_LIVE_TICKS);
        let gt = gen_time_ticks.min(Self::MAX_LIVE_TICKS);
        let set = self.set_of(hist_tag, cur_tag, cache_index);
        let mut allocated = false;
        {
            let ways = self.set_slice(set);
            // Rewrite a matching entry if present, else allocate into an
            // invalid way or the LRU way.
            if let Some(e) = ways.iter_mut().find(|e| e.valid && e.id_tag == cur_tag) {
                e.next_tag = next_tag;
                e.live_time_ticks = lt;
                e.gen_time_ticks = gt;
                e.lru = stamp;
            } else {
                allocated = true;
                let victim = ways
                    .iter_mut()
                    .min_by_key(|e| (e.valid, e.lru))
                    .expect("table sets are nonempty");
                *victim = Entry {
                    valid: true,
                    id_tag: cur_tag,
                    next_tag,
                    live_time_ticks: lt,
                    gen_time_ticks: gt,
                    lru: stamp,
                };
            }
        }
        if allocated {
            self.stats.allocations += 1;
        }
    }

    /// Looks up the prediction for a frame whose history is
    /// `(hist_tag, cur_tag)`; returns `None` on a predictor miss.
    pub fn lookup(&mut self, hist_tag: u64, cur_tag: u64, cache_index: u64) -> Option<Prediction> {
        self.stats.lookups += 1;
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(hist_tag, cur_tag, cache_index);
        let found = {
            let e = self
                .set_slice(set)
                .iter_mut()
                .find(|e| e.valid && e.id_tag == cur_tag)?;
            e.lru = stamp;
            Prediction {
                next_tag: e.next_tag,
                live_time_ticks: e.live_time_ticks,
                gen_time_ticks: e.gen_time_ticks,
            }
        };
        self.stats.hits += 1;
        Some(found)
    }

    /// Converts a predicted tag into the full line address it denotes in
    /// cache set `index` of a cache with geometry `geom`.
    pub fn predicted_line(
        &self,
        geom: &CacheGeometry,
        prediction: &Prediction,
        index: u64,
    ) -> crate::addr::LineAddr {
        geom.line_from_parts(prediction.next_tag, index)
    }

    /// Number of currently valid entries (for occupancy inspection).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().filter(|e| e.valid).count()
    }

    /// Clears all entries and statistics.
    pub fn clear(&mut self) {
        self.sets.fill(Entry::EMPTY);
        self.stamp = 0;
        self.stats = CorrelationStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sizes() {
        let c = CorrelationConfig::PAPER_8KB;
        assert_eq!(c.num_sets(), 256);
        assert_eq!(c.num_entries(), 2048);
        assert_eq!(c.approx_bytes(), 8192);
        let big = CorrelationConfig::LARGE_2MB;
        assert_eq!(big.approx_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn update_then_lookup_round_trip() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        t.update(10, 20, 0, 30, 5, 5);
        let p = t.lookup(10, 20, 0).unwrap();
        assert_eq!(p.next_tag, 30);
        assert_eq!(p.live_time_ticks, 5);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().lookups, 1);
    }

    #[test]
    fn id_tag_disambiguates_within_set() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        // Two histories that map to the same set (same tag sum) but have
        // different current tags.
        t.update(10, 20, 0, 111, 1, 1); // sum 30, id 20
        t.update(20, 10, 0, 222, 2, 2); // sum 30, id 10
        assert_eq!(t.lookup(10, 20, 0).unwrap().next_tag, 111);
        assert_eq!(t.lookup(20, 10, 0).unwrap().next_tag, 222);
    }

    #[test]
    fn update_rewrites_matching_entry() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        t.update(1, 2, 0, 100, 1, 1);
        t.update(1, 2, 0, 200, 9, 9);
        let p = t.lookup(1, 2, 0).unwrap();
        assert_eq!(p.next_tag, 200);
        assert_eq!(p.live_time_ticks, 9);
        assert_eq!(t.stats().allocations, 1, "second update must not allocate");
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn live_time_saturates_at_5_bits() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        t.update(1, 2, 0, 3, 200, 200);
        assert_eq!(t.lookup(1, 2, 0).unwrap().live_time_ticks, 31);
    }

    #[test]
    fn constructive_aliasing_across_sets() {
        // With n=1, histories from cache sets 0 and 2 (same low index bit)
        // and identical tags share one entry — the aliasing the paper
        // exploits.
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        t.update(7, 9, 0, 42, 3, 3);
        assert_eq!(t.lookup(7, 9, 2).unwrap().next_tag, 42);
        // A different low index bit maps elsewhere.
        assert!(t.lookup(7, 9, 1).is_none());
    }

    #[test]
    fn lru_replacement_within_set() {
        let cfg = CorrelationConfig {
            m_bits: 2,
            n_bits: 0,
            ways: 2,
        };
        let mut t = CorrelationTable::new(cfg);
        // All updates with tag sums congruent mod 4 land in one 2-way set.
        // sums: 4 (id 2), 8 (id 4), 12 (id 6) — all ≡ 0 mod 4.
        t.update(2, 2, 0, 100, 1, 1);
        t.update(4, 4, 0, 200, 1, 1);
        t.lookup(2, 2, 0).unwrap(); // refresh id 2 -> id 4 becomes LRU
        t.update(6, 6, 0, 300, 1, 1); // evicts id 4
        assert!(t.lookup(2, 2, 0).is_some());
        assert!(t.lookup(4, 4, 0).is_none());
        assert!(t.lookup(6, 6, 0).is_some());
    }

    #[test]
    fn predicted_line_reassembles_address() {
        use crate::addr::{Addr, CacheGeometry};
        let geom = CacheGeometry::new(32 * 1024, 1, 32).unwrap();
        let t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        let a = Addr::new(0x12340);
        let p = Prediction {
            next_tag: geom.tag_of(a),
            live_time_ticks: 0,
            gen_time_ticks: 0,
        };
        let line = t.predicted_line(&geom, &p, geom.index_of(a));
        assert_eq!(line, geom.line_of(a));
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        t.update(1, 2, 0, 3, 1, 1);
        t.clear();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats(), CorrelationStats::default());
        assert!(t.lookup(1, 2, 0).is_none());
    }

    #[test]
    fn hit_rate_stat() {
        let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
        assert_eq!(t.stats().hit_rate(), None);
        t.update(1, 2, 0, 3, 1, 1);
        t.lookup(1, 2, 0);
        t.lookup(9, 9, 0);
        assert_eq!(t.stats().hit_rate(), Some(0.5));
    }
}
