//! Accuracy / coverage bookkeeping shared by all predictors.
//!
//! The paper scores every predictor on two axes (§4.1):
//!
//! * **accuracy** — "the likelihood that our prediction is correct, for the
//!   instances where we do make a prediction": `correct / predicted`.
//! * **coverage** — for conflict predictors, "the percent of conflict misses
//!   captured by the prediction": `correct / actual positives`; for
//!   dead-block predictors, the percent of blocks for which a prediction is
//!   made at all: `predicted / observed`.
//!
//! [`AccuracyCoverage`] tracks the raw counters from which either flavor
//! can be derived.

use crate::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use crate::WeightedSum;
use std::fmt;

/// Raw prediction-outcome counters.
///
/// # Examples
///
/// ```
/// use timekeeping::AccuracyCoverage;
/// let mut ac = AccuracyCoverage::new();
/// ac.record(true, true);   // predicted, was positive  -> true positive
/// ac.record(true, false);  // predicted, was negative  -> false positive
/// ac.record(false, true);  // not predicted, positive  -> missed
/// ac.record(false, false);
/// assert_eq!(ac.accuracy(), Some(0.5));
/// assert_eq!(ac.coverage_of_positives(), Some(0.5));
/// assert_eq!(ac.prediction_rate(), Some(0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccuracyCoverage {
    true_pos: u64,
    false_pos: u64,
    missed_pos: u64,
    true_neg: u64,
}

impl AccuracyCoverage {
    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome: whether the predictor fired, and whether the
    /// event it predicts actually occurred.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.true_pos += 1,
            (true, false) => self.false_pos += 1,
            (false, true) => self.missed_pos += 1,
            (false, false) => self.true_neg += 1,
        }
    }

    /// Number of predictions made.
    pub fn predicted(&self) -> u64 {
        self.true_pos + self.false_pos
    }

    /// Number of correct predictions.
    pub fn correct(&self) -> u64 {
        self.true_pos
    }

    /// Number of actual positive events observed.
    pub fn actual_positives(&self) -> u64 {
        self.true_pos + self.missed_pos
    }

    /// Total outcomes observed.
    pub fn observed(&self) -> u64 {
        self.true_pos + self.false_pos + self.missed_pos + self.true_neg
    }

    /// `correct / predicted`, or `None` if no prediction was ever made.
    pub fn accuracy(&self) -> Option<f64> {
        let p = self.predicted();
        (p > 0).then(|| self.true_pos as f64 / p as f64)
    }

    /// `correct / actual positives` — the conflict-predictor notion of
    /// coverage ("percent of conflict misses captured"). `None` if no
    /// positive event was observed.
    pub fn coverage_of_positives(&self) -> Option<f64> {
        let a = self.actual_positives();
        (a > 0).then(|| self.true_pos as f64 / a as f64)
    }

    /// `predicted / observed` — the dead-block-predictor notion of coverage
    /// ("percent of blocks for which we make a prediction"). `None` if
    /// nothing was observed.
    pub fn prediction_rate(&self) -> Option<f64> {
        let o = self.observed();
        (o > 0).then(|| self.predicted() as f64 / o as f64)
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &AccuracyCoverage) {
        self.add_weighted(other, 1);
    }
}

impl WeightedSum for AccuracyCoverage {
    fn add_weighted(&mut self, other: &AccuracyCoverage, w: u64) {
        self.true_pos += other.true_pos * w;
        self.false_pos += other.false_pos * w;
        self.missed_pos += other.missed_pos * w;
        self.true_neg += other.true_neg * w;
    }
}

impl Snapshot for AccuracyCoverage {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("false_pos", &self.false_pos);
            w.field("missed_pos", &self.missed_pos);
            w.field("true_neg", &self.true_neg);
            w.field("true_pos", &self.true_pos);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            false_pos: u64,
            missed_pos: u64,
            true_neg: u64,
            true_pos: u64,
        });
        Ok(AccuracyCoverage {
            true_pos,
            false_pos,
            missed_pos,
            true_neg,
        })
    }
}

impl fmt::Display for AccuracyCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc={} cov={} ({} predictions / {} observed)",
            self.accuracy()
                .map_or("n/a".into(), |a| format!("{:.3}", a)),
            self.coverage_of_positives()
                .map_or("n/a".into(), |c| format!("{:.3}", c)),
            self.predicted(),
            self.observed(),
        )
    }
}

/// One point on an accuracy/coverage-vs-threshold curve (Figures 8, 10, 14).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The threshold evaluated (cycles).
    pub threshold: u64,
    /// Prediction accuracy at this threshold (`None` if no predictions).
    pub accuracy: Option<f64>,
    /// Coverage at this threshold (`None` if undefined).
    pub coverage: Option<f64>,
}

impl fmt::Display for SweepPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T={}: acc={} cov={}",
            self.threshold,
            self.accuracy.map_or("n/a".into(), |a| format!("{:.3}", a)),
            self.coverage.map_or("n/a".into(), |c| format!("{:.3}", c)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_counters_yield_none() {
        let ac = AccuracyCoverage::new();
        assert_eq!(ac.accuracy(), None);
        assert_eq!(ac.coverage_of_positives(), None);
        assert_eq!(ac.prediction_rate(), None);
        assert_eq!(ac.observed(), 0);
    }

    #[test]
    fn perfect_predictor() {
        let mut ac = AccuracyCoverage::new();
        for _ in 0..10 {
            ac.record(true, true);
        }
        assert_eq!(ac.accuracy(), Some(1.0));
        assert_eq!(ac.coverage_of_positives(), Some(1.0));
        assert_eq!(ac.prediction_rate(), Some(1.0));
    }

    #[test]
    fn high_accuracy_low_coverage() {
        // The shape of the paper's dead-time predictor at small thresholds:
        // very accurate but only ~40% coverage.
        let mut ac = AccuracyCoverage::new();
        for _ in 0..40 {
            ac.record(true, true);
        }
        for _ in 0..2 {
            ac.record(true, false);
        }
        for _ in 0..60 {
            ac.record(false, true);
        }
        assert!(ac.accuracy().unwrap() > 0.9);
        assert!(ac.coverage_of_positives().unwrap() < 0.5);
    }

    #[test]
    fn merge_sums() {
        let mut a = AccuracyCoverage::new();
        a.record(true, true);
        let mut b = AccuracyCoverage::new();
        b.record(false, true);
        b.record(true, false);
        a.merge(&b);
        assert_eq!(a.observed(), 3);
        assert_eq!(a.predicted(), 2);
        assert_eq!(a.actual_positives(), 2);
    }

    #[test]
    fn display_handles_empty_and_full() {
        let mut ac = AccuracyCoverage::new();
        assert!(ac.to_string().contains("n/a"));
        ac.record(true, true);
        assert!(ac.to_string().contains("acc=1.000"));
        let p = SweepPoint {
            threshold: 100,
            accuracy: Some(0.5),
            coverage: None,
        };
        assert!(p.to_string().contains("T=100"));
    }
}
