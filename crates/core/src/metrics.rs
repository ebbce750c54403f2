//! Aggregation of timekeeping metrics into the distributions and predictor
//! scores the paper's evaluation plots.
//!
//! [`MetricsCollector`] is fed two event streams by the simulator:
//! completed generations ([`MetricsCollector::on_generation`]) and classified
//! misses with the line's previous-generation history
//! ([`MetricsCollector::on_miss`]). From those it maintains everything
//! needed to regenerate Figures 4, 5, 7–11 and 14–16 in one simulation run.

use crate::classify::MissKind;
use crate::generation::GenerationRecord;
use crate::histogram::Histogram;
use crate::meta::LineMeta;
use crate::predictor::accuracy::{AccuracyCoverage, SweepPoint};
use crate::predictor::dead_block::{DecayDeadBlockSweep, LiveTimeDeadBlockPredictor};
use crate::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use crate::WeightedSum;

/// Live-time variability statistics (Figure 15).
///
/// Tracks, per completed generation with history, the absolute difference
/// and the log2-bucketed ratio between the generation's live time and its
/// line's previous live time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveTimeVariability {
    /// |live − previous live| in 16-cycle buckets (the paper profiles with
    /// counters of 16-cycle resolution).
    pub abs_diff: Histogram,
    /// Counts of floor(log2(live / previous live)) clamped to ±12; index 12
    /// is ratio 1 (equal), index 13 is [2,4), index 11 is [1/2,1), etc.
    ratio_log2: [u64; 25],
    pairs: u64,
}

impl LiveTimeVariability {
    const RATIO_BUCKETS: usize = 25;
    const RATIO_CENTER: i32 = 12;

    /// Creates empty variability statistics.
    pub fn new() -> Self {
        LiveTimeVariability {
            abs_diff: Histogram::new(16, 1024),
            ratio_log2: [0; Self::RATIO_BUCKETS],
            pairs: 0,
        }
    }

    /// Records a (previous live time, current live time) pair.
    pub fn record(&mut self, prev: u64, cur: u64) {
        self.pairs += 1;
        self.abs_diff.record(cur.abs_diff(prev));
        let bucket = match (prev, cur) {
            (0, 0) => Self::RATIO_CENTER,
            (0, _) => Self::RATIO_BUCKETS as i32 - 1,
            (_, 0) => 0,
            (p, c) => {
                // floor(log2(c/p)) computed exactly without floats. The
                // ilog2 difference g is within one of the answer; test
                // whether c/p >= 2^g to decide between g and g-1.
                let g = c.ilog2() as i32 - p.ilog2() as i32;
                let lg = if g >= 0 {
                    if (c >> g.min(63)) >= p {
                        g
                    } else {
                        g - 1
                    }
                } else if ((c as u128) << (-g).min(127)) >= p as u128 {
                    g
                } else {
                    g - 1
                };
                (Self::RATIO_CENTER + lg).clamp(0, Self::RATIO_BUCKETS as i32 - 1)
            }
        };
        self.ratio_log2[bucket as usize] += 1;
    }

    /// Number of pairs recorded.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// Fraction of pairs whose absolute difference is below `cycles`.
    pub fn fraction_diff_below(&self, cycles: u64) -> f64 {
        self.abs_diff.fraction_below(cycles)
    }

    /// Cumulative fraction of pairs with `cur < 2^(k+1) * prev` where the
    /// argument is `k + 12` (bucket index); i.e.
    /// `cumulative_ratio_fraction(13)` is the fraction of current live times
    /// less than **twice** the previous live time — the paper's ~80%
    /// headline.
    pub fn cumulative_ratio_fraction(&self, upto_bucket: usize) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        let upto = upto_bucket.min(Self::RATIO_BUCKETS - 1);
        let below: u64 = self.ratio_log2[..=upto].iter().sum();
        below as f64 / self.pairs as f64
    }

    /// The ratio-bucket counts, centered so that index 12 is ratio ≈ 1.
    pub fn ratio_buckets(&self) -> &[u64; 25] {
        &self.ratio_log2
    }

    /// Fraction of current live times less than twice the previous live
    /// time (the quantity Figure 15 bottom reads off at ratio = 2).
    /// Ratios in [1, 2) fall in the center bucket, so "< 2×" is exactly the
    /// cumulative count through bucket 12.
    pub fn fraction_within_2x(&self) -> f64 {
        self.cumulative_ratio_fraction(Self::RATIO_CENTER as usize)
    }
}

impl Default for LiveTimeVariability {
    fn default() -> Self {
        Self::new()
    }
}

impl Snapshot for LiveTimeVariability {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("abs_diff", &self.abs_diff);
            w.field("pairs", &self.pairs);
            w.field("ratio_log2", &self.ratio_log2);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            abs_diff: Histogram,
            pairs: u64,
            ratio_log2: [u64; 25],
        });
        Ok(LiveTimeVariability {
            abs_diff,
            ratio_log2,
            pairs,
        })
    }
}

/// Collects every distribution and predictor score the evaluation needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsCollector {
    /// Live-time distribution, ×100-cycle buckets (Figure 4 top).
    pub live: Histogram,
    /// Dead-time distribution, ×100-cycle buckets (Figure 4 bottom).
    pub dead: Histogram,
    /// Access-interval distribution, ×100-cycle buckets (Figure 5 top).
    pub access_interval: Histogram,
    /// Reload-interval distribution, ×1000-cycle buckets (Figure 5 bottom).
    pub reload: Histogram,

    // Fine-grained per-miss-kind histograms for Figures 7–10 sweeps.
    reload_by_kind: [Histogram; 3],
    dead_by_kind: [Histogram; 3],
    live_by_kind: [Histogram; 3],

    /// Zero-live-time conflict predictor score (Figure 11).
    pub zero_live_score: AccuracyCoverage,
    /// Decay dead-block sweep (Figure 14).
    pub decay_sweep: DecayDeadBlockSweep,
    /// Live-time dead-block predictor (Figure 16).
    pub live_time_predictor: LiveTimeDeadBlockPredictor,
    /// Live-time variability (Figure 15).
    pub variability: LiveTimeVariability,

    generations: u64,
    zero_live_generations: u64,
}

impl MetricsCollector {
    /// Fine reload-interval resolution for threshold sweeps: 1000-cycle
    /// buckets out to 1 M cycles.
    fn fine_reload() -> Histogram {
        Histogram::new(1000, 1024)
    }

    /// Fine dead/live-time resolution for threshold sweeps: 100-cycle
    /// buckets out to ~100 K cycles.
    fn fine_x100() -> Histogram {
        Histogram::new(100, 1024)
    }

    /// Creates an empty collector with the paper's figure axes.
    pub fn new() -> Self {
        MetricsCollector {
            live: Histogram::paper_x100(),
            dead: Histogram::paper_x100(),
            access_interval: Histogram::paper_x100(),
            reload: Histogram::paper_x1000(),
            reload_by_kind: [
                Self::fine_reload(),
                Self::fine_reload(),
                Self::fine_reload(),
            ],
            dead_by_kind: [Self::fine_x100(), Self::fine_x100(), Self::fine_x100()],
            live_by_kind: [Self::fine_x100(), Self::fine_x100(), Self::fine_x100()],
            zero_live_score: AccuracyCoverage::new(),
            decay_sweep: DecayDeadBlockSweep::paper_default(),
            live_time_predictor: LiveTimeDeadBlockPredictor::paper_default(),
            variability: LiveTimeVariability::new(),
            generations: 0,
            zero_live_generations: 0,
        }
    }

    /// Records one access interval observed inside a live time.
    #[inline]
    pub fn on_access_interval(&mut self, interval: u64) {
        self.access_interval.record(interval);
    }

    /// Records a completed generation.
    pub fn on_generation(&mut self, rec: &GenerationRecord) {
        self.generations += 1;
        if rec.zero_live_time() {
            self.zero_live_generations += 1;
        }
        self.live.record(rec.live_time);
        self.dead.record(rec.dead_time);
        if let Some(ri) = rec.reload_interval {
            self.reload.record(ri);
        }
        self.decay_sweep.observe(rec);
        self.live_time_predictor.observe(rec);
        if let Some(prev) = rec.prev_live_time {
            self.variability.record(prev, rec.live_time);
        }
    }

    /// Records a classified miss together with the missing line's previous
    /// generation history (`None` for cold misses or lines whose previous
    /// generation never completed).
    ///
    /// `reload_interval` is the time since the previous generation of this
    /// line began — the metric of "the last generation of the cache line
    /// that suffers the miss".
    pub fn on_miss(
        &mut self,
        kind: MissKind,
        history: Option<&LineMeta>,
        reload_interval: Option<u64>,
    ) {
        let Some(h) = history.filter(|h| h.completed) else {
            return;
        };
        if kind == MissKind::Cold {
            return;
        }
        let k = kind.index();
        if let Some(ri) = reload_interval {
            self.reload_by_kind[k].record(ri);
        }
        self.dead_by_kind[k].record(h.last_dead_time);
        self.live_by_kind[k].record(h.last_live_time);
        self.zero_live_score
            .record(h.last_live_time == 0, kind == MissKind::Conflict);
    }

    /// Total generations observed.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// The fraction of generation time spent dead — Wood, Hill & Kessler's
    /// estimator (§1 of the paper cites it as an early time-based
    /// technique): for a reference landing at a random instant, the next
    /// access to a frame is a miss exactly when the frame is in its dead
    /// time, so this fraction estimates the cold-start ("unprimed") miss
    /// probability of trace samples. It also upper-bounds the frame-cycles
    /// cache decay could switch off.
    pub fn dead_fraction(&self) -> Option<f64> {
        let live = self.live.mean()? * self.live.total() as f64;
        let dead = self.dead.mean()? * self.dead.total() as f64;
        let total = live + dead;
        (total > 0.0).then(|| dead / total)
    }

    /// Generations with zero live time.
    pub fn zero_live_generations(&self) -> u64 {
        self.zero_live_generations
    }

    /// The per-kind reload-interval histogram (Figure 7).
    pub fn reload_for(&self, kind: MissKind) -> &Histogram {
        &self.reload_by_kind[kind.index()]
    }

    /// The per-kind dead-time histogram (Figure 9).
    pub fn dead_for(&self, kind: MissKind) -> &Histogram {
        &self.dead_by_kind[kind.index()]
    }

    /// The per-kind live-time histogram.
    pub fn live_for(&self, kind: MissKind) -> &Histogram {
        &self.live_by_kind[kind.index()]
    }

    /// Accuracy/coverage of "reload interval < T ⇒ conflict" for each
    /// threshold (Figure 8).
    pub fn conflict_sweep_reload(&self, thresholds: &[u64]) -> Vec<SweepPoint> {
        Self::conflict_sweep(
            &self.reload_by_kind[MissKind::Conflict.index()],
            &self.reload_by_kind[MissKind::Capacity.index()],
            thresholds,
        )
    }

    /// Accuracy/coverage of "dead time < T ⇒ conflict" for each threshold
    /// (Figure 10).
    pub fn conflict_sweep_dead(&self, thresholds: &[u64]) -> Vec<SweepPoint> {
        Self::conflict_sweep(
            &self.dead_by_kind[MissKind::Conflict.index()],
            &self.dead_by_kind[MissKind::Capacity.index()],
            thresholds,
        )
    }

    fn conflict_sweep(
        conflict: &Histogram,
        capacity: &Histogram,
        thresholds: &[u64],
    ) -> Vec<SweepPoint> {
        let total_conflict = conflict.total();
        thresholds
            .iter()
            .map(|&t| {
                let tp = conflict.count_below(t);
                let fp = capacity.count_below(t);
                SweepPoint {
                    threshold: t,
                    accuracy: (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64),
                    coverage: (total_conflict > 0).then(|| tp as f64 / total_conflict as f64),
                }
            })
            .collect()
    }

    /// Merges another collector (e.g. per-benchmark into suite-wide).
    pub fn merge(&mut self, other: &MetricsCollector) {
        self.add_weighted(other, 1);
    }
}

impl WeightedSum for MetricsCollector {
    fn add_weighted(&mut self, other: &MetricsCollector, w: u64) {
        self.live.add_weighted(&other.live, w);
        self.dead.add_weighted(&other.dead, w);
        self.access_interval.add_weighted(&other.access_interval, w);
        self.reload.add_weighted(&other.reload, w);
        for i in 0..3 {
            self.reload_by_kind[i].add_weighted(&other.reload_by_kind[i], w);
            self.dead_by_kind[i].add_weighted(&other.dead_by_kind[i], w);
            self.live_by_kind[i].add_weighted(&other.live_by_kind[i], w);
        }
        self.zero_live_score.add_weighted(&other.zero_live_score, w);
        self.decay_sweep.add_weighted(&other.decay_sweep, w);
        self.live_time_predictor
            .add_weighted(&other.live_time_predictor, w);
        self.generations += other.generations * w;
        self.zero_live_generations += other.zero_live_generations * w;
        self.variability
            .abs_diff
            .add_weighted(&other.variability.abs_diff, w);
        for i in 0..25 {
            self.variability.ratio_log2[i] += other.variability.ratio_log2[i] * w;
        }
        self.variability.pairs += other.variability.pairs * w;
    }
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl Snapshot for MetricsCollector {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("access_interval", &self.access_interval);
            w.field("dead", &self.dead);
            w.field("dead_by_kind", &self.dead_by_kind);
            w.field("decay_sweep", &self.decay_sweep);
            w.field("generations", &self.generations);
            w.field("live", &self.live);
            w.field("live_by_kind", &self.live_by_kind);
            w.field("live_time_predictor", &self.live_time_predictor);
            w.field("reload", &self.reload);
            w.field("reload_by_kind", &self.reload_by_kind);
            w.field("variability", &self.variability);
            w.field("zero_live_generations", &self.zero_live_generations);
            w.field("zero_live_score", &self.zero_live_score);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            access_interval: Histogram,
            dead: Histogram,
            dead_by_kind: [Histogram; 3],
            decay_sweep: DecayDeadBlockSweep,
            generations: u64,
            live: Histogram,
            live_by_kind: [Histogram; 3],
            live_time_predictor: LiveTimeDeadBlockPredictor,
            reload: Histogram,
            reload_by_kind: [Histogram; 3],
            variability: LiveTimeVariability,
            zero_live_generations: u64,
            zero_live_score: AccuracyCoverage,
        });
        Ok(MetricsCollector {
            live,
            dead,
            access_interval,
            reload,
            reload_by_kind,
            dead_by_kind,
            live_by_kind,
            zero_live_score,
            decay_sweep,
            live_time_predictor,
            variability,
            generations,
            zero_live_generations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::generation::EvictCause;
    use crate::time::Cycle;

    fn record(live: u64, dead: u64, ri: Option<u64>, prev: Option<u64>) -> GenerationRecord {
        GenerationRecord {
            line: LineAddr::new(1),
            frame: 0,
            start: Cycle::new(0),
            end: Cycle::new(live + dead),
            live_time: live,
            dead_time: dead,
            accesses: 1,
            max_access_interval: 0,
            reload_interval: ri,
            prev_live_time: prev,
            cause: EvictCause::Demand,
        }
    }

    fn history(live: u64, dead: u64) -> LineMeta {
        LineMeta {
            last_live_time: live,
            last_dead_time: dead,
            completed: true,
            ..LineMeta::default()
        }
    }

    #[test]
    fn generation_feeds_all_distributions() {
        let mut m = MetricsCollector::new();
        m.on_generation(&record(50, 5000, Some(8_000), Some(40)));
        m.on_access_interval(30);
        assert_eq!(m.live.total(), 1);
        assert_eq!(m.dead.total(), 1);
        assert_eq!(m.reload.total(), 1);
        assert_eq!(m.access_interval.total(), 1);
        assert_eq!(m.generations(), 1);
        assert_eq!(m.variability.pairs(), 1);
    }

    #[test]
    fn zero_live_counted() {
        let mut m = MetricsCollector::new();
        m.on_generation(&record(0, 100, None, None));
        m.on_generation(&record(10, 100, None, None));
        assert_eq!(m.zero_live_generations(), 1);
    }

    #[test]
    fn miss_splits_by_kind() {
        let mut m = MetricsCollector::new();
        m.on_miss(MissKind::Conflict, Some(&history(0, 500)), Some(2_000));
        m.on_miss(
            MissKind::Capacity,
            Some(&history(300, 90_000)),
            Some(500_000),
        );
        assert_eq!(m.reload_for(MissKind::Conflict).total(), 1);
        assert_eq!(m.reload_for(MissKind::Capacity).total(), 1);
        assert_eq!(m.dead_for(MissKind::Conflict).total(), 1);
        // Cold misses and misses without completed history are skipped.
        m.on_miss(MissKind::Cold, Some(&history(0, 0)), None);
        m.on_miss(MissKind::Conflict, None, Some(10));
        assert_eq!(m.reload_for(MissKind::Conflict).total(), 1);
    }

    #[test]
    fn conflict_sweep_separates_clean_distributions() {
        let mut m = MetricsCollector::new();
        // Conflict misses: reload intervals ~2K. Capacity: ~500K.
        for _ in 0..90 {
            m.on_miss(MissKind::Conflict, Some(&history(0, 200)), Some(2_000));
        }
        for _ in 0..10 {
            m.on_miss(
                MissKind::Capacity,
                Some(&history(500, 80_000)),
                Some(500_000),
            );
        }
        let pts = m.conflict_sweep_reload(&[16_000, 1_000_000_000]);
        assert_eq!(pts[0].accuracy, Some(1.0));
        assert_eq!(pts[0].coverage, Some(1.0));
        // At an absurdly large threshold everything is predicted conflict:
        // accuracy degrades to the base rate.
        assert!((pts[1].accuracy.unwrap() - 0.9).abs() < 1e-9);

        let dpts = m.conflict_sweep_dead(&[1024]);
        assert_eq!(dpts[0].accuracy, Some(1.0));
    }

    #[test]
    fn zero_live_scoring() {
        let mut m = MetricsCollector::new();
        m.on_miss(MissKind::Conflict, Some(&history(0, 100)), None); // TP
        m.on_miss(MissKind::Capacity, Some(&history(0, 100)), None); // FP
        m.on_miss(MissKind::Conflict, Some(&history(50, 100)), None); // miss
        assert_eq!(m.zero_live_score.accuracy(), Some(0.5));
        assert_eq!(m.zero_live_score.coverage_of_positives(), Some(0.5));
    }

    #[test]
    fn variability_abs_diff_resolution() {
        let mut v = LiveTimeVariability::new();
        v.record(100, 110); // diff 10 < 16
        v.record(100, 400); // diff 300
        assert!((v.fraction_diff_below(16) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn variability_ratio_buckets() {
        let mut v = LiveTimeVariability::new();
        v.record(100, 100); // ratio 1 -> bucket 12
        v.record(100, 150); // ratio 1.5 -> bucket 12
        v.record(100, 199); // ratio <2 -> bucket 12
        v.record(100, 200); // ratio 2 -> bucket 13
        v.record(100, 999_000); // huge -> clamped high
        v.record(100, 0); // zero -> bucket 0
        v.record(0, 100); // from zero -> top bucket
        v.record(0, 0); // both zero -> ratio 1
                        // fraction strictly under 2x: buckets ..=12.
        let under_2x = v.cumulative_ratio_fraction(12);
        assert!((under_2x - 5.0 / 8.0).abs() < 1e-9);
        assert_eq!(v.pairs(), 8);
    }

    #[test]
    fn variability_ratio_log2_floor_is_exact() {
        let mut v = LiveTimeVariability::new();
        // ratio 3.9 -> floor(log2)=1 -> bucket 13
        v.record(100, 390);
        // ratio 0.6 -> floor(log2)=-1 -> bucket 11
        v.record(100, 60);
        // ratio 0.4 -> floor(log2)=-2 -> bucket 10
        v.record(100, 40);
        let b = v.ratio_buckets();
        assert_eq!(b[13], 1);
        assert_eq!(b[11], 1);
        assert_eq!(b[10], 1);
    }

    #[test]
    fn dead_fraction_is_wood_estimator() {
        let mut m = MetricsCollector::new();
        // Two generations: 100 live + 300 dead, and 50 live + 50 dead.
        m.on_generation(&record(100, 300, None, None));
        m.on_generation(&record(50, 50, None, None));
        let f = m.dead_fraction().unwrap();
        assert!((f - 350.0 / 500.0).abs() < 1e-9);
        assert_eq!(MetricsCollector::new().dead_fraction(), None);
    }

    #[test]
    fn merge_combines_collectors() {
        let mut a = MetricsCollector::new();
        let mut b = MetricsCollector::new();
        a.on_generation(&record(10, 20, None, None));
        b.on_generation(&record(30, 40, Some(100), Some(25)));
        b.on_miss(MissKind::Conflict, Some(&history(0, 10)), Some(50));
        a.merge(&b);
        assert_eq!(a.generations(), 2);
        assert_eq!(a.live.total(), 2);
        assert_eq!(a.reload_for(MissKind::Conflict).total(), 1);
        assert_eq!(a.variability.pairs(), 1);
    }

    /// A weighted add is `w` merges in one pass, for every weight the
    /// sampled reconstruction uses (and the empty weight 0).
    #[test]
    fn weighted_add_equals_repeated_merges() {
        let mut a = MetricsCollector::new();
        a.on_generation(&record(10, 20, None, None));
        let mut b = MetricsCollector::new();
        b.on_generation(&record(30, 40, Some(100), Some(25)));
        b.on_generation(&record(0, 5_000, Some(9_000), Some(70)));
        b.on_miss(MissKind::Conflict, Some(&history(0, 10)), Some(50));
        b.on_miss(MissKind::Capacity, None, Some(2_000_000));
        for w in 0..6 {
            let mut merged = a.clone();
            for _ in 0..w {
                merged.merge(&b);
            }
            let mut weighted = a.clone();
            weighted.add_weighted(&b, w);
            assert_eq!(weighted, merged, "weight {w}");
        }
    }
}
