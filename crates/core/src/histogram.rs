//! Bucketed histograms matching the paper's figure axes.
//!
//! Figures 4, 5, 7 and 9 plot distributions of the four timekeeping metrics
//! in fixed-width buckets (×100 cycles for live time, dead time and access
//! interval; ×1000 cycles for reload interval) with a single `>100` overflow
//! bucket. [`Histogram`] reproduces exactly that shape and adds the summary
//! queries the paper quotes ("58% of live times are 100 cycles or less").

use crate::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use crate::WeightedSum;
use std::fmt;

/// A fixed-width bucketed histogram with an overflow tail.
///
/// Bucket `i` counts samples in `[i * width, (i + 1) * width)`; samples of
/// `num_buckets * width` or more land in the overflow tail.
///
/// # Examples
///
/// ```
/// use timekeeping::Histogram;
/// // The paper's live-time axis: 100 buckets of 100 cycles, ">100" tail.
/// let mut h = Histogram::new(100, 100);
/// h.record(57);
/// h.record(99);
/// h.record(100);
/// h.record(50_000); // overflow
/// assert_eq!(h.bucket_count(0), 2);
/// assert_eq!(h.bucket_count(1), 1);
/// assert_eq!(h.overflow_count(), 1);
/// assert_eq!(h.total(), 4);
/// assert!((h.fraction_below(100) - 0.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates a histogram with `num_buckets` buckets of `bucket_width` each.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` or `num_buckets` is zero.
    pub fn new(bucket_width: u64, num_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be nonzero");
        assert!(num_buckets > 0, "histogram needs at least one bucket");
        Histogram {
            bucket_width,
            buckets: vec![0; num_buckets],
            overflow: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The paper's ×100-cycle axis (live time, dead time, access interval).
    pub fn paper_x100() -> Self {
        Histogram::new(100, 100)
    }

    /// The paper's ×1000-cycle axis (reload interval).
    pub fn paper_x1000() -> Self {
        Histogram::new(1000, 100)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = (value / self.bucket_width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += n;
        } else {
            self.overflow += n;
        }
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Width of each bucket.
    #[inline]
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Number of (non-overflow) buckets.
    #[inline]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_buckets()`.
    #[inline]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Count in the overflow tail.
    #[inline]
    pub fn overflow_count(&self) -> u64 {
        self.overflow
    }

    /// Total number of samples recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Mean of all recorded samples, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum as f64 / self.total as f64)
    }

    /// Number of samples strictly below `threshold` (rounded down to a
    /// bucket boundary; exact when `threshold` is a multiple of the bucket
    /// width).
    pub fn count_below(&self, threshold: u64) -> u64 {
        let full = ((threshold / self.bucket_width) as usize).min(self.buckets.len());
        self.buckets[..full].iter().sum()
    }

    /// Fraction of samples strictly below `threshold`.
    ///
    /// `threshold` is rounded down to a bucket boundary, so this is exact
    /// when `threshold` is a multiple of the bucket width (as in all of the
    /// paper's quoted statistics).
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let full = ((threshold / self.bucket_width) as usize).min(self.buckets.len());
        let below: u64 = self.buckets[..full].iter().sum();
        below as f64 / self.total as f64
    }

    /// Fraction of samples at or below the last bucket boundary covered by
    /// bucket `i` inclusive.
    pub fn cumulative_fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let upto = (i + 1).min(self.buckets.len());
        let below: u64 = self.buckets[..upto].iter().sum();
        below as f64 / self.total as f64
    }

    /// The smallest value `v` (a bucket upper boundary) such that at least
    /// `p` (0.0–1.0) of samples are below `v`; returns `None` if the
    /// histogram is empty or the percentile falls in the overflow tail.
    pub fn percentile_boundary(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let target = (p.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        None
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs, excluding the
    /// overflow tail.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as u64 * self.bucket_width, c))
    }

    /// Per-bucket fractions (bucket count / total), excluding overflow.
    pub fn fractions(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.buckets.len()];
        }
        self.buckets
            .iter()
            .map(|&c| c as f64 / self.total as f64)
            .collect()
    }

    /// Fraction of samples in the overflow tail.
    pub fn overflow_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.overflow as f64 / self.total as f64
        }
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket widths or counts.
    pub fn merge(&mut self, other: &Histogram) {
        self.add_weighted(other, 1);
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// `w` merges in one pass. Minimum and maximum move only when `w > 0`.
///
/// # Panics
///
/// Panics if the two histograms have different bucket widths or counts.
impl WeightedSum for Histogram {
    fn add_weighted(&mut self, other: &Histogram, w: u64) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "bucket width mismatch"
        );
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "bucket count mismatch"
        );
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b * w;
        }
        self.overflow += other.overflow * w;
        self.total += other.total * w;
        self.sum += other.sum * u128::from(w);
        if w > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

impl Snapshot for Histogram {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.field("bucket_width", &self.bucket_width);
            w.field("buckets", &self.buckets);
            w.field("max", &self.max);
            w.field("min", &self.min);
            w.field("overflow", &self.overflow);
            w.field("sum", &self.sum);
            w.field("total", &self.total);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        crate::read_fields!(r, {
            bucket_width: u64,
            buckets: Vec<u64>,
            max: u64,
            min: u64,
            overflow: u64,
            sum: u128,
            total: u64,
        });
        if buckets.is_empty() {
            return Err(SnapshotError::new("histogram needs at least one bucket"));
        }
        if bucket_width == 0 {
            return Err(SnapshotError::new("histogram bucket width must be nonzero"));
        }
        Ok(Histogram {
            bucket_width,
            buckets,
            overflow,
            total,
            sum,
            min,
            max,
        })
    }
}

impl fmt::Display for Histogram {
    /// Compact textual summary: total, mean, and the three paper-style
    /// cut-offs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} <{}:{:.1}% tail:{:.1}%",
            self.total,
            self.mean().unwrap_or(0.0),
            self.bucket_width,
            self.fraction_below(self.bucket_width) * 100.0,
            self.overflow_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_bucketing() {
        let mut h = Histogram::new(10, 5);
        for v in [0, 9, 10, 49, 50, 500] {
            h.record(v);
        }
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(4), 1);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.total(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(500));
    }

    #[test]
    fn fraction_below_matches_paper_style_queries() {
        let mut h = Histogram::paper_x100();
        // 58 samples under 100 cycles, 42 above.
        for i in 0..58 {
            h.record(i);
        }
        for i in 0..42 {
            h.record(200 + i);
        }
        assert!((h.fraction_below(100) - 0.58).abs() < 1e-9);
    }

    #[test]
    fn percentile_boundary() {
        let mut h = Histogram::new(100, 100);
        for i in 0..100u64 {
            h.record(i * 100); // one sample per bucket
        }
        assert_eq!(h.percentile_boundary(0.5), Some(5000));
        assert_eq!(h.percentile_boundary(0.01), Some(100));
        // All in overflow -> None
        let mut h2 = Histogram::new(10, 2);
        h2.record(1000);
        assert_eq!(h2.percentile_boundary(0.5), None);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new(10, 4);
        let mut b = Histogram::new(10, 4);
        a.record(5);
        b.record(15);
        b.record(999);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.bucket_count(0), 1);
        assert_eq!(a.bucket_count(1), 1);
        assert_eq!(a.overflow_count(), 1);
        assert_eq!(a.max(), Some(999));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn merge_rejects_mismatched() {
        let mut a = Histogram::new(10, 4);
        let b = Histogram::new(20, 4);
        a.merge(&b);
    }

    #[test]
    fn empty_queries() {
        let h = Histogram::new(10, 4);
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.fraction_below(100), 0.0);
        assert_eq!(h.overflow_fraction(), 0.0);
        assert_eq!(h.fractions(), vec![0.0; 4]);
    }

    #[test]
    fn record_n_bulk() {
        let mut h = Histogram::new(10, 4);
        h.record_n(5, 10);
        h.record_n(5, 0);
        assert_eq!(h.total(), 10);
        assert_eq!(h.mean(), Some(5.0));
    }

    #[test]
    fn cumulative_fraction_monotone() {
        let mut h = Histogram::new(10, 10);
        for i in 0..100 {
            h.record(i);
        }
        let mut prev = 0.0;
        for i in 0..10 {
            let c = h.cumulative_fraction(i);
            assert!(c >= prev);
            prev = c;
        }
        assert!((h.cumulative_fraction(9) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        let mut h = Histogram::new(10, 4);
        h.record(3);
        assert!(!h.to_string().is_empty());
    }
}
