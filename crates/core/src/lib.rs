//! # timekeeping — time-based prediction and optimization of cache behavior
//!
//! A from-scratch reproduction of the mechanisms in *"Timekeeping in the
//! Memory System: Predicting and Optimizing Memory Behavior"* (Hu, Kaxiras,
//! Martonosi — ISCA 2002).
//!
//! The paper's thesis: the **time durations** between memory-reference
//! events — not just their order — are strongly predictive of future
//! reference behavior. Four per-generation metrics do the work:
//!
//! * **live time** — fill to last hit,
//! * **dead time** — last hit to eviction,
//! * **access interval** — between hits within a live time,
//! * **reload interval** — between generation starts of the same line.
//!
//! From these, the crate builds (layer by layer, mirroring the paper's
//! Figure 6 "metrics → predictions → mechanisms" stack):
//!
//! 1. **Metrics** — [`LinePlane`] measures the four metrics with
//!    the same per-line coarse counters the hardware would use
//!    ([`CoarseCounter`], [`GlobalTicker`]); [`MetricsCollector`] and
//!    [`Histogram`] aggregate their distributions; [`FullyAssocShadow`]
//!    supplies ground-truth cold/conflict/capacity classification.
//! 2. **Predictions** — conflict-miss predictors from reload interval,
//!    dead time, or zero live time
//!    ([`ReloadIntervalConflictPredictor`], [`DeadTimeConflictPredictor`],
//!    [`ZeroLiveTimeConflictPredictor`]); dead-block predictors from idle
//!    time or live-time regularity ([`DecayDeadBlockSweep`],
//!    [`LiveTimeDeadBlockPredictor`]).
//! 3. **Mechanisms** — a dead-time-filtered victim cache
//!    ([`VictimCache`], [`DeadTimeFilter`], with [`NoFilter`] and
//!    [`CollinsFilter`] baselines) and the timekeeping prefetcher
//!    ([`TimekeepingPrefetcher`] over a tiny [`CorrelationTable`], with
//!    the 2 MB [`Dbcp`] baseline it outperforms).
//!
//! ## Quick example
//!
//! Measure the generational metrics of a toy reference stream and apply
//! the paper's dead-time conflict predictor:
//!
//! ```
//! use timekeeping::{Cycle, DeadTimeConflictPredictor, EvictCause,
//!                   LineAddr, LinePlane};
//!
//! let mut tracker = LinePlane::new(16);
//! let mut predictor = DeadTimeConflictPredictor::paper_default();
//!
//! // A block lives briefly in frame 3, then is evicted almost immediately
//! // after its last use — the signature of a conflict eviction.
//! tracker.fill(3, LineAddr::new(42), Cycle::new(0));
//! tracker.hit(3, Cycle::new(90));
//! let gen = tracker.evict(3, Cycle::new(500), EvictCause::Demand).unwrap();
//! assert_eq!(gen.dead_time, 410);
//! assert!(predictor.predict(gen.dead_time),
//!         "a short dead time predicts the line's next miss is a conflict");
//! ```
//!
//! The sibling crates complete the reproduction: `tk-sim` (cycle-level
//! out-of-order core + memory hierarchy substrate), `tk-workloads`
//! (deterministic SPEC2000-like reference generators) and `tk-bench`
//! (regenerates every figure of the paper's evaluation).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod classify;
pub mod correlation;
pub mod dbcp;
pub mod generation;
pub mod histogram;
pub mod hwcost;
pub mod l2monitor;
pub mod markov;
pub mod meta;
pub mod metrics;
pub mod predictor;
pub mod prefetch;
pub mod snapshot;
pub mod stride;
pub mod time;
pub mod victim;

pub use addr::{Addr, CacheGeometry, GeometryError, LineAddr, Pc};
pub use classify::{FullyAssocShadow, MissBreakdown, MissKind};
pub use correlation::{CorrelationConfig, CorrelationStats, CorrelationTable, Prediction};
pub use dbcp::{Dbcp, DbcpConfig, DbcpStats};
pub use generation::{EvictCause, GenerationRecord};
pub use histogram::Histogram;
pub use l2monitor::L2IntervalMonitor;
pub use markov::{Markov, MarkovConfig, MarkovStats};
pub use meta::{DetBuildHasher, DetHasher, LineMap, LineMeta, LinePlane, LineSet};
pub use metrics::{LiveTimeVariability, MetricsCollector};
pub use predictor::{
    AccuracyCoverage, DeadTimeConflictPredictor, DecayDeadBlockSweep, LiveTimeDeadBlockPredictor,
    ReloadIntervalConflictPredictor, SweepPoint, ZeroLiveTimeConflictPredictor,
};
pub use prefetch::{
    PrefetchQueue, PrefetchRequest, TimekeepingPrefetcher, Timeliness, TimelinessStats,
};
pub use snapshot::{Json, JsonReader, JsonWriter, Snapshot, SnapshotError};
pub use stride::{StrideConfig, StridePrefetcher, StrideStats};
pub use time::{CoarseCounter, Cycle, GlobalTicker};
pub use victim::{
    AdaptiveDeadTimeFilter, CollinsFilter, DeadTimeFilter, EvictionInfo, NoFilter,
    ReloadIntervalFilter, VictimCache, VictimFilter, VictimStats,
};

/// Counter blocks and distributions that combine by weighted addition:
/// summed over the cores of a multi-core run (weight 1) and over the
/// representatives of a sampled run (weight = intervals represented).
pub trait WeightedSum {
    /// Adds `w` copies of `other` to `self`.
    fn add_weighted(&mut self, other: &Self, w: u64);
}

impl WeightedSum for u64 {
    fn add_weighted(&mut self, other: &Self, w: u64) {
        *self += other * w;
    }
}

/// An optional block is absent until the first present one is added.
impl<T: WeightedSum + Default> WeightedSum for Option<T> {
    fn add_weighted(&mut self, other: &Self, w: u64) {
        if let Some(o) = other {
            self.get_or_insert_with(T::default).add_weighted(o, w);
        }
    }
}

/// Declares a struct of `u64` counters a counter block: a [`Snapshot`]
/// that stores every field under its own name, and a [`WeightedSum`]
/// that adds field by field. Every field must be listed, in ascending
/// name order: the snapshot writes its keys in the order listed.
#[macro_export]
macro_rules! counter_block {
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::WeightedSum for $t {
            fn add_weighted(&mut self, other: &Self, w: u64) {
                $(self.$f += other.$f * w;)+
            }
        }

        impl $crate::snapshot::Snapshot for $t {
            fn write_json(&self, w: &mut $crate::snapshot::JsonWriter) {
                w.object(|w| {
                    $(w.field(stringify!($f), &self.$f);)+
                });
            }

            fn read_json(
                r: &mut $crate::snapshot::JsonReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                $crate::read_fields!(r, { $($f: u64),+ });
                Ok($t { $($f),+ })
            }
        }
    };
}

/// The crate version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
