//! Dead-block predictors (§5.1).
//!
//! A block is *dead* once it has seen its last successful use in the current
//! generation. Predicting deadness early — and accurately — is what lets a
//! prefetch land in the frame without displacing live data. The paper
//! explores two predictors:
//!
//! * [`DecayDeadBlockSweep`] — the cache-decay heuristic (§5.1.1): if the
//!   idle time since the last access exceeds a threshold, predict dead.
//!   Needs large thresholds (> 5120 cycles) for high accuracy, with only
//!   ~50% coverage (Figure 14) — fine for leakage control, too late and too
//!   narrow for prefetching.
//! * [`LiveTimeDeadBlockPredictor`] — the paper's contribution (§5.1.2):
//!   live times per frame are *regular*, so predict the current live time
//!   from the previous one and declare the block dead at twice the predicted
//!   live time after the generation starts. ~75% accuracy and ~70% coverage
//!   on average (Figure 16), and — crucially — the prediction fires early
//!   enough to schedule a timely prefetch.

use crate::generation::GenerationRecord;
use crate::predictor::accuracy::SweepPoint;
use crate::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use crate::WeightedSum;

/// Post-hoc evaluation of the decay (idle-time threshold) dead-block
/// predictor across a set of thresholds.
///
/// For a given threshold `T`, the online predictor fires the first time the
/// gap between accesses to a frame exceeds `T`:
///
/// * if any *access interval* of the generation exceeds `T`, the first such
///   gap fires the predictor during live time — a **wrong** prediction;
/// * otherwise, if the *dead time* exceeds `T`, the predictor fires during
///   dead time — a **correct** prediction;
/// * otherwise the block is evicted before the predictor ever fires — the
///   generation is **not covered**.
///
/// Because the firing condition depends only on the largest access interval
/// and the dead time, each completed [`GenerationRecord`] can be scored
/// against every threshold in one pass.
///
/// # Examples
///
/// ```
/// use timekeeping::{Cycle, EvictCause, DecayDeadBlockSweep, LineAddr, LinePlane};
/// let mut sweep = DecayDeadBlockSweep::paper_default();
/// let mut t = LinePlane::new(1);
/// t.fill(0, LineAddr::new(1), Cycle::new(0));
/// t.hit(0, Cycle::new(10));
/// let rec = t.evict(0, Cycle::new(10_000), EvictCause::Demand).unwrap();
/// sweep.observe(&rec);
/// // dead time 9990 > every threshold, the lone access interval (10
/// // cycles) is under every threshold: correct at every threshold.
/// for p in sweep.points() {
///     assert_eq!(p.accuracy, Some(1.0));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecayDeadBlockSweep {
    thresholds: Vec<u64>,
    fired_correct: Vec<u64>,
    fired_wrong: Vec<u64>,
    generations: u64,
}

impl DecayDeadBlockSweep {
    /// Figure 14's threshold axis: 40, 80, …, 5120 cycles.
    pub const PAPER_THRESHOLDS: [u64; 8] = [40, 80, 160, 320, 640, 1280, 2560, 5120];

    /// Creates a sweep over the given idle-time thresholds (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` is empty.
    pub fn new(thresholds: Vec<u64>) -> Self {
        assert!(!thresholds.is_empty(), "sweep needs at least one threshold");
        let n = thresholds.len();
        DecayDeadBlockSweep {
            thresholds,
            fired_correct: vec![0; n],
            fired_wrong: vec![0; n],
            generations: 0,
        }
    }

    /// Creates a sweep over Figure 14's thresholds.
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_THRESHOLDS.to_vec())
    }

    /// The thresholds being evaluated.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Scores one completed generation against every threshold.
    pub fn observe(&mut self, rec: &GenerationRecord) {
        self.generations += 1;
        for (i, &t) in self.thresholds.iter().enumerate() {
            if rec.max_access_interval > t {
                // First over-threshold gap happens inside live time.
                self.fired_wrong[i] += 1;
            } else if rec.dead_time > t {
                self.fired_correct[i] += 1;
            }
            // else: evicted before firing — not covered.
        }
    }

    /// Number of generations observed.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// Merges another sweep's counters (e.g. per-benchmark into a
    /// suite-wide aggregate).
    ///
    /// # Panics
    ///
    /// Panics if the threshold lists differ.
    pub fn merge(&mut self, other: &DecayDeadBlockSweep) {
        self.add_weighted(other, 1);
    }

    /// The accuracy/coverage curve: one [`SweepPoint`] per threshold.
    ///
    /// Coverage here is the dead-block flavor: the fraction of generations
    /// for which the predictor fires at all.
    pub fn points(&self) -> Vec<SweepPoint> {
        self.thresholds
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                let fired = self.fired_correct[i] + self.fired_wrong[i];
                SweepPoint {
                    threshold: t,
                    accuracy: (fired > 0).then(|| self.fired_correct[i] as f64 / fired as f64),
                    coverage: (self.generations > 0)
                        .then(|| fired as f64 / self.generations as f64),
                }
            })
            .collect()
    }
}

/// # Panics
///
/// Panics if the threshold lists differ.
impl WeightedSum for DecayDeadBlockSweep {
    fn add_weighted(&mut self, other: &DecayDeadBlockSweep, w: u64) {
        assert_eq!(self.thresholds, other.thresholds, "threshold mismatch");
        for i in 0..self.thresholds.len() {
            self.fired_correct[i] += other.fired_correct[i] * w;
            self.fired_wrong[i] += other.fired_wrong[i] * w;
        }
        self.generations += other.generations * w;
    }
}

impl Snapshot for DecayDeadBlockSweep {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("fired_correct", &self.fired_correct);
            w.field("fired_wrong", &self.fired_wrong);
            w.field("generations", &self.generations);
            w.field("thresholds", &self.thresholds);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            fired_correct: Vec<u64>,
            fired_wrong: Vec<u64>,
            generations: u64,
            thresholds: Vec<u64>,
        });
        if thresholds.is_empty() {
            return Err(SnapshotError::new("sweep needs at least one threshold"));
        }
        if fired_correct.len() != thresholds.len() || fired_wrong.len() != thresholds.len() {
            return Err(SnapshotError::new("sweep counter length mismatch"));
        }
        Ok(DecayDeadBlockSweep {
            thresholds,
            fired_correct,
            fired_wrong,
            generations,
        })
    }
}

/// The live-time dead-block predictor: a block is declared dead at
/// `factor ×` its previous live time after the start of its generation.
///
/// The paper chooses `factor = 2` from the observation that ~80% of live
/// times are less than twice the previous live time of the same block
/// (Figure 15, bottom).
///
/// Scoring per completed generation (Figure 16):
///
/// * generations whose line has no previous live time cannot be predicted;
/// * if the generation ended before `factor × previous live time`, the block
///   "has already been evicted by the time of the prediction" — **not
///   covered**;
/// * otherwise a prediction was made; it is **correct** iff the actual live
///   time had already ended by the prediction point.
///
/// # Examples
///
/// ```
/// use timekeeping::LiveTimeDeadBlockPredictor;
/// let p = LiveTimeDeadBlockPredictor::paper_default();
/// // Previous live time 100 -> predicted dead at cycle 200 of the generation.
/// assert_eq!(p.prediction_point(100), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveTimeDeadBlockPredictor {
    factor: u64,
    correct: u64,
    wrong: u64,
    uncovered: u64,
    no_history: u64,
}

impl LiveTimeDeadBlockPredictor {
    /// The paper's safety factor: declare dead at 2× the previous live time.
    pub const PAPER_FACTOR: u64 = 2;

    /// Creates a predictor with the given live-time multiplier.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn new(factor: u64) -> Self {
        assert!(factor > 0, "live-time factor must be nonzero");
        LiveTimeDeadBlockPredictor {
            factor,
            correct: 0,
            wrong: 0,
            uncovered: 0,
            no_history: 0,
        }
    }

    /// Creates the paper's 2× predictor.
    pub fn paper_default() -> Self {
        Self::new(Self::PAPER_FACTOR)
    }

    /// The live-time multiplier.
    pub fn factor(&self) -> u64 {
        self.factor
    }

    /// Cycles after generation start at which the block is declared dead,
    /// given the previous live time.
    #[inline]
    pub fn prediction_point(&self, prev_live_time: u64) -> u64 {
        self.factor.saturating_mul(prev_live_time)
    }

    /// Scores one completed generation.
    pub fn observe(&mut self, rec: &GenerationRecord) {
        let Some(prev_lt) = rec.prev_live_time else {
            self.no_history += 1;
            return;
        };
        let point = self.prediction_point(prev_lt);
        if rec.generation_time() <= point {
            // Evicted before the prediction fired.
            self.uncovered += 1;
        } else if rec.live_time <= point {
            self.correct += 1;
        } else {
            self.wrong += 1;
        }
    }

    /// Generations observed that had a previous live time to predict from.
    pub fn predictable(&self) -> u64 {
        self.correct + self.wrong + self.uncovered
    }

    /// Total generations observed (including first generations with no
    /// history).
    pub fn observed(&self) -> u64 {
        self.predictable() + self.no_history
    }

    /// `correct / predictions made`, or `None` if no prediction fired.
    pub fn accuracy(&self) -> Option<f64> {
        let fired = self.correct + self.wrong;
        (fired > 0).then(|| self.correct as f64 / fired as f64)
    }

    /// Fraction of predictable generations for which a prediction fired
    /// before eviction (the Figure 16 notion of coverage).
    pub fn coverage(&self) -> Option<f64> {
        let p = self.predictable();
        (p > 0).then(|| (self.correct + self.wrong) as f64 / p as f64)
    }

    /// Merges another predictor's counters.
    ///
    /// # Panics
    ///
    /// Panics if the factors differ.
    pub fn merge(&mut self, other: &LiveTimeDeadBlockPredictor) {
        self.add_weighted(other, 1);
    }
}

/// # Panics
///
/// Panics if the factors differ.
impl WeightedSum for LiveTimeDeadBlockPredictor {
    fn add_weighted(&mut self, other: &LiveTimeDeadBlockPredictor, w: u64) {
        assert_eq!(self.factor, other.factor, "factor mismatch");
        self.correct += other.correct * w;
        self.wrong += other.wrong * w;
        self.uncovered += other.uncovered * w;
        self.no_history += other.no_history * w;
    }
}

impl Snapshot for LiveTimeDeadBlockPredictor {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("correct", &self.correct);
            w.field("factor", &self.factor);
            w.field("no_history", &self.no_history);
            w.field("uncovered", &self.uncovered);
            w.field("wrong", &self.wrong);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            correct: u64,
            factor: u64,
            no_history: u64,
            uncovered: u64,
            wrong: u64,
        });
        if factor == 0 {
            return Err(SnapshotError::new("live-time factor must be nonzero"));
        }
        Ok(LiveTimeDeadBlockPredictor {
            factor,
            correct,
            wrong,
            uncovered,
            no_history,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::LineAddr;
    use crate::generation::EvictCause;
    use crate::time::Cycle;

    fn record(live: u64, dead: u64, max_ai: u64, prev_live: Option<u64>) -> GenerationRecord {
        GenerationRecord {
            line: LineAddr::new(1),
            frame: 0,
            start: Cycle::new(0),
            end: Cycle::new(live + dead),
            live_time: live,
            dead_time: dead,
            accesses: 2,
            max_access_interval: max_ai,
            reload_interval: None,
            prev_live_time: prev_live,
            cause: EvictCause::Demand,
        }
    }

    #[test]
    fn decay_correct_when_dead_time_long_and_intervals_short() {
        let mut s = DecayDeadBlockSweep::new(vec![100]);
        s.observe(&record(50, 10_000, 20, None));
        let p = &s.points()[0];
        assert_eq!(p.accuracy, Some(1.0));
        assert_eq!(p.coverage, Some(1.0));
    }

    #[test]
    fn decay_wrong_when_access_interval_exceeds_threshold() {
        let mut s = DecayDeadBlockSweep::new(vec![100]);
        s.observe(&record(500, 10_000, 300, None));
        let p = &s.points()[0];
        assert_eq!(p.accuracy, Some(0.0));
    }

    #[test]
    fn decay_uncovered_when_everything_short() {
        let mut s = DecayDeadBlockSweep::new(vec![1000]);
        s.observe(&record(50, 100, 20, None));
        let p = &s.points()[0];
        assert_eq!(p.accuracy, None);
        assert_eq!(p.coverage, Some(0.0));
    }

    #[test]
    fn decay_accuracy_rises_with_threshold() {
        // Mimic the Figure 14 shape: short access intervals cluster near
        // zero, dead times are long. Low thresholds fire inside live time
        // (wrong); high thresholds wait out the intervals (right).
        let mut s = DecayDeadBlockSweep::paper_default();
        for _ in 0..100 {
            s.observe(&record(2000, 50_000, 600, None));
        }
        let pts = s.points();
        // At T=40..320 the 600-cycle interval fires the predictor early.
        assert_eq!(pts[0].accuracy, Some(0.0));
        // At T=640+ the predictor waits and fires in dead time.
        let last = pts.last().unwrap();
        assert_eq!(last.accuracy, Some(1.0));
        assert_eq!(s.generations(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn decay_rejects_empty_thresholds() {
        let _ = DecayDeadBlockSweep::new(vec![]);
    }

    #[test]
    fn live_time_predictor_correct_case() {
        let mut p = LiveTimeDeadBlockPredictor::paper_default();
        // prev live 100 -> dead declared at 200; actual live 150 <= 200 and
        // generation lasts 1000 > 200: prediction fired and was correct.
        p.observe(&record(150, 850, 0, Some(100)));
        assert_eq!(p.accuracy(), Some(1.0));
        assert_eq!(p.coverage(), Some(1.0));
    }

    #[test]
    fn live_time_predictor_wrong_case() {
        let mut p = LiveTimeDeadBlockPredictor::paper_default();
        // prev live 100 -> dead declared at 200, but block actually lives 500.
        p.observe(&record(500, 500, 0, Some(100)));
        assert_eq!(p.accuracy(), Some(0.0));
    }

    #[test]
    fn live_time_predictor_uncovered_case() {
        let mut p = LiveTimeDeadBlockPredictor::paper_default();
        // Generation (live 10 + dead 20 = 30) ends before 2*100 = 200.
        p.observe(&record(10, 20, 0, Some(100)));
        assert_eq!(p.coverage(), Some(0.0));
        assert_eq!(p.accuracy(), None);
        assert_eq!(p.predictable(), 1);
    }

    #[test]
    fn live_time_predictor_skips_first_generations() {
        let mut p = LiveTimeDeadBlockPredictor::paper_default();
        p.observe(&record(10, 20, 0, None));
        assert_eq!(p.predictable(), 0);
        assert_eq!(p.observed(), 1);
        assert_eq!(p.accuracy(), None);
        assert_eq!(p.coverage(), None);
    }

    #[test]
    fn regular_live_times_predict_well() {
        // A stream of near-identical live times — the regularity the paper
        // discovered — should yield both high accuracy and high coverage.
        let mut p = LiveTimeDeadBlockPredictor::paper_default();
        for _ in 0..1000 {
            p.observe(&record(100, 5_000, 0, Some(104)));
        }
        assert!(p.accuracy().unwrap() > 0.99);
        assert!(p.coverage().unwrap() > 0.99);
    }

    #[test]
    fn prediction_point_saturates() {
        let p = LiveTimeDeadBlockPredictor::paper_default();
        assert_eq!(p.prediction_point(u64::MAX), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_factor_rejected() {
        let _ = LiveTimeDeadBlockPredictor::new(0);
    }
}
