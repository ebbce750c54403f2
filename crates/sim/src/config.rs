//! Simulated-machine configuration (Table 1 of the paper).

use timekeeping::{CacheGeometry, CorrelationConfig, DbcpConfig, MarkovConfig, StrideConfig};

use crate::dram::{DramConfigError, MemBackendConfig};

/// Largest `--cores` value the coherent hierarchy supports (the sharer
/// set is a byte-wide bitmask).
pub const MAX_CORES: u32 = 8;

/// Processor-core and memory-hierarchy parameters.
///
/// [`MachineConfig::paper_default`] reproduces Table 1: a 2 GHz 8-issue
/// out-of-order core with a 128-entry instruction window, a 32 KB
/// direct-mapped L1 data cache with 32 B blocks, a 1 MB 4-way L2 with 64 B
/// blocks and 12-cycle latency, a 32-byte 2 GHz L1/L2 bus, a 64-byte
/// 400 MHz L2/memory bus, and 70-cycle memory latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Instructions issued per cycle (8).
    pub issue_width: u32,
    /// Instruction-window (RUU) entries (128).
    pub window_size: u32,
    /// Instructions retired per cycle (8).
    pub commit_width: u32,
    /// L1 data-cache geometry (32 KB, direct-mapped, 32 B blocks).
    pub l1d: CacheGeometry,
    /// L2 unified-cache geometry (1 MB, 4-way, 64 B blocks).
    pub l2: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// L2 access latency in cycles (12).
    pub l2_latency: u64,
    /// Main-memory access latency in cycles (70).
    ///
    /// Deprecated alias: this constant is consumed only by the
    /// [`MemBackendConfig::Fixed`] backend (the default).
    /// Banked-DRAM runs derive latency from
    /// `SystemConfig::memory` instead and ignore this field (except in
    /// the nominal prefetch-gate limits, which stay backend-independent
    /// by design).
    #[deprecated(
        since = "0.6.0",
        note = "configure memory latency through `MemBackendConfig::Fixed` \
                (SystemConfig::builder().memory(..)); this field survives \
                only as the Fixed backend's latency source so existing \
                cache keys stay byte-identical"
    )]
    pub mem_latency: u64,
    /// L1/L2 bus occupancy per block transfer, in core cycles.
    /// 32-byte-wide at the 2 GHz core clock moving a 32 B L1 block: 1.
    pub l1l2_bus_occupancy: u64,
    /// L2/memory bus occupancy per block transfer, in core cycles.
    /// 64-byte-wide at 400 MHz (5 core cycles per bus cycle) moving a
    /// 64 B L2 block: 5.
    pub l2mem_bus_occupancy: u64,
    /// Demand MSHRs at the L1 (64).
    pub demand_mshrs: usize,
    /// Prefetch MSHRs (32).
    pub prefetch_mshrs: usize,
    /// Prefetch request-queue entries (128).
    pub prefetch_queue: usize,
    /// Global timekeeping tick period in cycles (512).
    pub tick_period: u64,
    /// Victim-cache entries when a victim cache is configured (32).
    pub victim_entries: usize,
}

impl MachineConfig {
    /// The Table 1 configuration.
    #[allow(deprecated)] // seeds the Fixed-backend latency alias
    pub fn paper_default() -> Self {
        MachineConfig {
            issue_width: 8,
            window_size: 128,
            commit_width: 8,
            l1d: CacheGeometry::new(32 * 1024, 1, 32).expect("valid L1 geometry"),
            l2: CacheGeometry::new(1024 * 1024, 4, 64).expect("valid L2 geometry"),
            l1_hit_latency: 1,
            l2_latency: 12,
            mem_latency: 70,
            l1l2_bus_occupancy: 1,
            l2mem_bus_occupancy: 5,
            demand_mshrs: 64,
            prefetch_mshrs: 32,
            prefetch_queue: 128,
            tick_period: 512,
            victim_entries: 32,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Victim-cache configuration (§4.2 / Figure 13 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimMode {
    /// No victim cache (the base machine).
    #[default]
    None,
    /// Unfiltered 32-entry victim cache (Jouppi).
    Unfiltered,
    /// Collins-style conflict-filtered victim cache.
    Collins,
    /// The paper's timekeeping (dead-time) filter with the given threshold
    /// in cycles.
    DeadTime {
        /// Dead-time admission threshold in cycles (paper: 1024).
        threshold: u64,
    },
    /// The adaptive dead-time filter sketched as future work in §4.2: the
    /// threshold adjusts at run-time to keep the candidate count near the
    /// victim cache's capacity.
    AdaptiveDeadTime,
    /// A reload-interval filter (the §4.1 predictor the paper deems
    /// impractical for an L1 victim cache because reload intervals are
    /// counted at the L2 — included for the comparison's sake).
    ReloadInterval {
        /// Reload-interval admission threshold in cycles (Figure 8's
        /// breakpoint: 16 384).
        threshold: u64,
    },
}

impl VictimMode {
    /// The paper's dead-time filter at its 1 K-cycle operating point.
    pub fn paper_dead_time() -> Self {
        VictimMode::DeadTime { threshold: 1024 }
    }
}

/// Prefetcher configuration (§5 / Figure 19 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrefetchMode {
    /// No hardware prefetching (the base machine).
    #[default]
    None,
    /// The timekeeping prefetcher with the given correlation-table
    /// geometry (paper: 8 KB).
    Timekeeping(CorrelationConfig),
    /// The DBCP baseline with the given table geometry (paper: 2 MB).
    Dbcp(DbcpConfig),
    /// A Joseph & Grunwald-style Markov miss-correlation prefetcher (the
    /// time-independent prior work of §1).
    Markov(MarkovConfig),
    /// A classic PC-stride reference-prediction table.
    Stride(StrideConfig),
}

/// L1 behavior selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum L1Mode {
    /// Normal cache behavior.
    #[default]
    Normal,
    /// Oracle for Figure 1: only cold misses occur (all conflict and
    /// capacity misses eliminated).
    ColdOnly,
}

/// Statistical-sampling parameters (SimPoint-style interval selection,
/// [`crate::sample`]).
///
/// A run with `Some(SampleConfig)` profiles the workload into
/// fixed-length instruction intervals, clusters their access-pattern
/// signatures, and timing-simulates only one representative interval per
/// cluster after functionally warming cache state through the skipped
/// prefix — reconstructing full-run statistics as a weighted sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SampleConfig {
    /// Interval length in instructions (profiling granularity and the
    /// length of each timed representative).
    pub interval: u64,
    /// Number of k-means clusters, i.e. the maximum number of
    /// representative intervals simulated under the timing model.
    pub k: u32,
}

impl SampleConfig {
    /// The `--sample` default: 100 K-instruction intervals, 10 clusters.
    /// At the figure binaries' 8 M-instruction budget that is 80
    /// intervals, of which at most 10 (plus the sub-interval tail) run
    /// under the timing model.
    pub const DEFAULT: SampleConfig = SampleConfig {
        interval: 100_000,
        k: 10,
    };
}

impl Default for SampleConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Full system configuration: machine + mechanism selection.
///
/// Construct one through [`SystemConfig::builder`] (validated), or with
/// the convenience constructors ([`SystemConfig::base`],
/// [`SystemConfig::with_victim`], …) which are thin wrappers over the
/// builder for combinations known to be valid.
///
/// Every run collects the full timekeeping metric distributions, and a
/// software prefetch in the instruction stream is an ordinary reference
/// that does not block retirement (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystemConfig {
    /// Machine parameters.
    pub machine: MachineConfig,
    /// Victim-cache mode.
    pub victim: VictimMode,
    /// Prefetcher mode.
    pub prefetch: PrefetchMode,
    /// L1 mode (normal or the Figure 1 oracle).
    pub l1_mode: L1Mode,
    /// Run the configured prefetcher's predictor without issuing any
    /// prefetches — used to measure intrinsic address accuracy and
    /// coverage (Figure 20) free of prefetch side effects.
    pub predict_only: bool,
    /// Cache-decay leakage control (the mechanism of the paper's prior
    /// work, built on the same idle-time counters): L1 lines idle longer
    /// than this interval are switched off. A decayed line's next access
    /// refetches from the L2 (a decay-induced miss); the off time is the
    /// leakage saving.
    pub decay_interval: Option<u64>,
    /// §5.2.2's slack scheduling: non-urgent prefetches (predicted need
    /// far in the future) are issued only on a fully idle bus, smoothing
    /// bus contention; urgent ones use the normal demand-priority gate.
    pub slack_prefetch: bool,
    /// Statistical sampling: when set, [`crate::run_workload`] simulates
    /// only representative intervals under the timing model (functional
    /// warmup through the rest) and reconstructs weighted statistics.
    /// `None` (the default) simulates every instruction.
    pub sample: Option<SampleConfig>,
    /// Main-memory backend. The default, [`MemBackendConfig::Fixed`],
    /// reads the deprecated `machine.mem_latency` alias and reproduces
    /// the paper's constant-latency memory bit-exactly;
    /// [`MemBackendConfig::Banked`] swaps in the banked DRAM model.
    pub memory: MemBackendConfig,
    /// Reference mode: advance the core clock one cycle at a time instead
    /// of hopping over provably dead cycles. Results are bit-identical
    /// either way (the differential suite in `tests/step_equivalence.rs`
    /// proves it); this mode exists as the oracle for that proof and costs
    /// an order of magnitude of wall-clock time on memory-bound runs.
    pub step_every_cycle: bool,
    /// Number of timing cores (1..=[`MAX_CORES`]).
    ///
    /// `1` (the default) runs the single-core paper machine. `N > 1`
    /// instantiates N out-of-order cores with private L1s and victim
    /// caches over a shared, inclusive L2, which the coherence stage
    /// ([`crate::multicore`]) keeps MESI-coherent: generations can then
    /// end by coherence invalidation
    /// ([`timekeeping::EvictCause::Invalidate`]) as well as by eviction.
    /// Multi-core runs support every victim-cache mode and
    /// `predict_only` prefetcher scoring; decay, slack scheduling, the
    /// cold-miss oracle, and *issuing* prefetchers are rejected at
    /// `build()` because the coherence stage does not cover them yet (a
    /// prefetch fill, for one, has no bus transaction of its own to
    /// snoop).
    pub cores: u32,
}

/// A rejected [`SystemConfigBuilder`] combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `predict_only` was requested without configuring a prefetcher:
    /// there is no predictor to score.
    PredictOnlyWithoutPrefetcher,
    /// `slack_prefetch` was requested without configuring a prefetcher:
    /// there are no prefetches to schedule.
    SlackWithoutPrefetcher,
    /// The Figure 1 cold-miss oracle was combined with a victim cache,
    /// prefetcher, or cache decay. The oracle already eliminates every
    /// conflict and capacity miss, so a mechanism on top measures nothing.
    OracleWithMechanism,
    /// A victim-cache admission threshold of zero admits no victim and
    /// degenerates to no victim cache at all.
    ZeroVictimThreshold,
    /// A cache-decay interval of zero would switch every line off on the
    /// tick after its fill.
    ZeroDecayInterval,
    /// A sampling interval of zero instructions defines no intervals to
    /// profile or simulate.
    ZeroSampleInterval,
    /// Zero k-means clusters select no representative intervals, so no
    /// statistics would ever be reconstructed.
    ZeroSampleK,
    /// The banked-DRAM geometry or timing is structurally invalid (see
    /// [`DramConfigError`] for the exact rule violated).
    InvalidDram(DramConfigError),
    /// Zero timing cores simulate nothing.
    ZeroCores,
    /// More cores than [`MAX_CORES`]: the coherence directory tracks
    /// sharers in a byte-wide bitmask.
    TooManyCores,
    /// `cores > 1` was combined with cache decay, slack prefetch
    /// scheduling, or the cold-miss oracle L1 — mechanisms whose timing
    /// machinery (the decay refetch, the prefetch issue gate, the oracle
    /// shadow) the coherence stage does not cover yet.
    MultiCoreWithMechanism,
    /// `cores > 1` with a prefetcher that *issues* prefetches. A prefetch
    /// fill has no bus transaction of its own for the coherence stage to
    /// snoop; multi-core runs must add `predict_only`, which still scores
    /// the predictor's intrinsic coverage/accuracy under coherence
    /// traffic.
    MultiCoreIssuingPrefetcher,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let ConfigError::InvalidDram(e) = self {
            return e.fmt(f);
        }
        let s = match self {
            ConfigError::PredictOnlyWithoutPrefetcher => {
                "predict_only requires a prefetcher (PrefetchMode::None has no predictor)"
            }
            ConfigError::SlackWithoutPrefetcher => {
                "slack_prefetch requires a prefetcher (PrefetchMode::None issues no prefetches)"
            }
            ConfigError::OracleWithMechanism => {
                "the cold-miss oracle (L1Mode::ColdOnly) cannot be combined with a victim \
                 cache, prefetcher, or decay"
            }
            ConfigError::ZeroVictimThreshold => "victim-cache admission threshold must be nonzero",
            ConfigError::ZeroDecayInterval => "decay interval must be nonzero",
            ConfigError::ZeroSampleInterval => "sampling interval must be nonzero",
            ConfigError::ZeroSampleK => "sampling cluster count (k) must be nonzero",
            ConfigError::ZeroCores => "core count must be nonzero",
            ConfigError::TooManyCores => "core count exceeds MAX_CORES (8)",
            ConfigError::MultiCoreWithMechanism => {
                "cores > 1 cannot be combined with cache decay, slack prefetch \
                 scheduling, or the cold-miss oracle (not yet covered by coherence)"
            }
            ConfigError::MultiCoreIssuingPrefetcher => {
                "cores > 1 with a prefetcher requires predict_only (prefetch \
                 fills are not yet covered by coherence)"
            }
            ConfigError::InvalidDram(_) => unreachable!("delegated to DramConfigError above"),
        };
        f.write_str(s)
    }
}

impl std::error::Error for ConfigError {}

/// Fluent, validated construction of a [`SystemConfig`].
///
/// # Examples
///
/// ```
/// use tk_sim::{SystemConfig, VictimMode};
///
/// let cfg = SystemConfig::builder()
///     .victim(VictimMode::paper_dead_time())
///     .decay(16_384)
///     .build()
///     .unwrap();
/// assert_eq!(cfg.decay_interval, Some(16_384));
///
/// // Incompatible combinations are rejected instead of silently simulated:
/// assert!(SystemConfig::builder().predict_only().build().is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Replaces the machine parameters (default: Table 1).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.cfg.machine = machine;
        self
    }

    /// Selects a victim-cache mode.
    pub fn victim(mut self, victim: VictimMode) -> Self {
        self.cfg.victim = victim;
        self
    }

    /// Selects a prefetcher.
    pub fn prefetch(mut self, prefetch: PrefetchMode) -> Self {
        self.cfg.prefetch = prefetch;
        self
    }

    /// Selects the Figure 1 cold-miss oracle L1.
    pub fn oracle_l1(mut self) -> Self {
        self.cfg.l1_mode = L1Mode::ColdOnly;
        self
    }

    /// Enables cache decay at the given idle interval (cycles).
    pub fn decay(mut self, interval: u64) -> Self {
        self.cfg.decay_interval = Some(interval);
        self
    }

    /// Runs the prefetcher's predictor without issuing prefetches
    /// (Figure 20's intrinsic accuracy/coverage measurement).
    pub fn predict_only(mut self) -> Self {
        self.cfg.predict_only = true;
        self
    }

    /// Issues non-urgent prefetches only on an idle bus (§5.2.2 slack
    /// scheduling).
    pub fn slack_prefetch(mut self) -> Self {
        self.cfg.slack_prefetch = true;
        self
    }

    /// Steps the core clock every cycle instead of event-driven hopping
    /// (the bit-identical but slow reference mode).
    pub fn step_every_cycle(mut self) -> Self {
        self.cfg.step_every_cycle = true;
        self
    }

    /// Selects the main-memory backend (default:
    /// [`MemBackendConfig::Fixed`], the paper's constant latency).
    pub fn memory(mut self, memory: MemBackendConfig) -> Self {
        self.cfg.memory = memory;
        self
    }

    /// Enables statistical sampling with the given interval length and
    /// cluster count (default: off).
    pub fn sample(mut self, sample: SampleConfig) -> Self {
        self.cfg.sample = Some(sample);
        self
    }

    /// Disables statistical sampling (the default).
    pub fn no_sample(mut self) -> Self {
        self.cfg.sample = None;
        self
    }

    /// Sets the number of timing cores (default: 1). See
    /// [`SystemConfig::cores`] for the combinations `build()` accepts at
    /// `n > 1`.
    pub fn cores(mut self, n: u32) -> Self {
        self.cfg.cores = n;
        self
    }

    /// Validates the combination and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first incompatible combination
    /// found — see the variants for the rules.
    pub fn build(self) -> Result<SystemConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.predict_only && cfg.prefetch == PrefetchMode::None {
            return Err(ConfigError::PredictOnlyWithoutPrefetcher);
        }
        if cfg.slack_prefetch && cfg.prefetch == PrefetchMode::None {
            return Err(ConfigError::SlackWithoutPrefetcher);
        }
        if cfg.l1_mode == L1Mode::ColdOnly
            && (cfg.victim != VictimMode::None
                || cfg.prefetch != PrefetchMode::None
                || cfg.decay_interval.is_some())
        {
            return Err(ConfigError::OracleWithMechanism);
        }
        match cfg.victim {
            VictimMode::DeadTime { threshold: 0 } | VictimMode::ReloadInterval { threshold: 0 } => {
                return Err(ConfigError::ZeroVictimThreshold)
            }
            _ => {}
        }
        if cfg.decay_interval == Some(0) {
            return Err(ConfigError::ZeroDecayInterval);
        }
        if let Some(s) = cfg.sample {
            if s.interval == 0 {
                return Err(ConfigError::ZeroSampleInterval);
            }
            if s.k == 0 {
                return Err(ConfigError::ZeroSampleK);
            }
        }
        if let MemBackendConfig::Banked(b) = cfg.memory {
            crate::dram::validate(&b).map_err(ConfigError::InvalidDram)?;
        }
        if cfg.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if cfg.cores > MAX_CORES {
            return Err(ConfigError::TooManyCores);
        }
        if cfg.cores > 1 {
            if cfg.decay_interval.is_some() || cfg.slack_prefetch || cfg.l1_mode == L1Mode::ColdOnly
            {
                return Err(ConfigError::MultiCoreWithMechanism);
            }
            if cfg.prefetch != PrefetchMode::None && !cfg.predict_only {
                return Err(ConfigError::MultiCoreIssuingPrefetcher);
            }
        }
        Ok(cfg)
    }
}

impl SystemConfig {
    /// Starts a validated builder from the base machine: Table 1, no
    /// victim cache, no prefetcher, fixed-latency memory, no sampling, one
    /// core.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig {
                machine: MachineConfig::paper_default(),
                victim: VictimMode::None,
                prefetch: PrefetchMode::None,
                l1_mode: L1Mode::Normal,
                predict_only: false,
                decay_interval: None,
                slack_prefetch: false,
                step_every_cycle: false,
                memory: MemBackendConfig::Fixed,
                sample: None,
                cores: 1,
            },
        }
    }

    /// A builder seeded with this configuration, so a caller can adjust
    /// some fields and re-validate the result.
    pub fn to_builder(self) -> SystemConfigBuilder {
        SystemConfigBuilder { cfg: self }
    }

    /// The base machine: no victim cache, no prefetcher.
    pub fn base() -> Self {
        Self::builder().build().expect("base config is valid")
    }

    /// Base machine with the given victim-cache mode.
    ///
    /// # Panics
    ///
    /// Panics on a zero admission threshold; use [`SystemConfig::builder`]
    /// to handle invalid modes as a `Result`.
    pub fn with_victim(victim: VictimMode) -> Self {
        Self::builder()
            .victim(victim)
            .build()
            .expect("victim config must be valid")
    }

    /// Base machine with the given prefetcher.
    pub fn with_prefetch(prefetch: PrefetchMode) -> Self {
        Self::builder()
            .prefetch(prefetch)
            .build()
            .expect("prefetch config is valid")
    }

    /// The Figure 1 oracle machine (cold misses only).
    pub fn ideal() -> Self {
        Self::builder()
            .oracle_l1()
            .build()
            .expect("oracle config is valid")
    }

    /// Base machine with cache decay at the given idle interval (cycles).
    ///
    /// # Panics
    ///
    /// Panics on a zero interval; use [`SystemConfig::builder`] to handle
    /// invalid intervals as a `Result`.
    pub fn with_decay(interval: u64) -> Self {
        Self::builder()
            .decay(interval)
            .build()
            .expect("decay config must be valid")
    }

    /// A canonical, human-readable, serde-free serialization of every
    /// field. Two configurations compare equal iff their keys are equal,
    /// which makes this the natural experiment-cache key; it is also
    /// stable across processes (unlike `std::hash::Hash`, whose output
    /// `HashMap` randomizes per process).
    #[allow(deprecated)] // the machine fragment pins the Fixed-latency alias
    pub fn cache_key(&self) -> String {
        let m = &self.machine;
        let mut key = format!(
            "machine{{issue={},window={},commit={},\
             l1d={}x{}x{},l2={}x{}x{},lat={}/{}/{},bus={}/{},\
             mshr={}/{},pfq={},tick={},vc={}}}",
            m.issue_width,
            m.window_size,
            m.commit_width,
            m.l1d.size_bytes(),
            m.l1d.assoc(),
            m.l1d.block_bytes(),
            m.l2.size_bytes(),
            m.l2.assoc(),
            m.l2.block_bytes(),
            m.l1_hit_latency,
            m.l2_latency,
            m.mem_latency,
            m.l1l2_bus_occupancy,
            m.l2mem_bus_occupancy,
            m.demand_mshrs,
            m.prefetch_mshrs,
            m.prefetch_queue,
            m.tick_period,
            m.victim_entries,
        );
        key.push_str(&match self.victim {
            VictimMode::None => " victim=none".to_owned(),
            VictimMode::Unfiltered => " victim=unfiltered".to_owned(),
            VictimMode::Collins => " victim=collins".to_owned(),
            VictimMode::DeadTime { threshold } => format!(" victim=dead<{threshold}"),
            VictimMode::AdaptiveDeadTime => " victim=adaptive-dead".to_owned(),
            VictimMode::ReloadInterval { threshold } => format!(" victim=reload<{threshold}"),
        });
        key.push_str(&match self.prefetch {
            PrefetchMode::None => " pf=none".to_owned(),
            PrefetchMode::Timekeeping(c) => {
                format!(" pf=tk(m={},n={},w={})", c.m_bits, c.n_bits, c.ways)
            }
            PrefetchMode::Dbcp(c) => format!(
                " pf=dbcp(sets={},w={},conf={})",
                c.set_bits, c.ways, c.confidence_threshold
            ),
            PrefetchMode::Markov(c) => format!(
                " pf=markov(sets={},w={},succ={},deg={})",
                c.set_bits, c.ways, c.successors, c.degree
            ),
            PrefetchMode::Stride(c) => {
                format!(" pf=stride(bits={},deg={})", c.entry_bits, c.degree)
            }
        });
        // The `metrics` and software-prefetch fields name two knobs that
        // no longer exist, at the values every run had: metrics are always
        // collected and software prefetches are always references. They
        // stay because the key names the result-cache files that the
        // golden figures and the perfbench digests pin; dropping them is a
        // model-version change that renames every cache file at once.
        key.push_str(&format!(
            " l1={} metrics=true ignore_swpf=false predict_only={} decay={} slack={}",
            match self.l1_mode {
                L1Mode::Normal => "normal",
                L1Mode::ColdOnly => "cold-only",
            },
            self.predict_only,
            self.decay_interval
                .map_or("none".to_owned(), |d| d.to_string()),
            self.slack_prefetch,
        ));
        // Single-core runs (the default) leave the key untouched so every
        // pre-existing memo/disk/golden key stays byte-identical;
        // multi-core results live under a distinct fragment and can never
        // alias a single-core entry.
        if self.cores > 1 {
            key.push_str(&format!(" cores={}", self.cores));
        }
        // Fixed-latency memory contributes nothing: `mem_latency` is
        // already in the machine fragment, and an empty suffix keeps every
        // pre-existing memo/disk/golden key byte-identical. Banked configs
        // get a full fingerprint so they can never alias a fixed entry.
        key.push_str(&self.memory.cache_key_suffix());
        // Sampled runs approximate full runs, so they must never alias a
        // full-run memo/disk/golden entry: the fragment fingerprints the
        // sampling parameters, and its absence keeps every pre-existing
        // (non-sampled) key byte-identical.
        if let Some(s) = self.sample {
            key.push_str(&format!(" sample={{interval={},k={}}}", s.interval, s.k));
        }
        // The hopping clock is bit-identical to per-cycle stepping, so the
        // default mode adds nothing to the key (cached results are valid
        // across the two); the reference mode is tagged only so its runs
        // are distinguishable in reports.
        if self.step_every_cycle {
            key.push_str(" step_every_cycle=true");
        }
        key
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)] // pins the Fixed-latency alias field
    fn paper_defaults_match_table1() {
        let m = MachineConfig::paper_default();
        assert_eq!(m.issue_width, 8);
        assert_eq!(m.window_size, 128);
        assert_eq!(m.l1d.size_bytes(), 32 * 1024);
        assert_eq!(m.l1d.assoc(), 1);
        assert_eq!(m.l1d.block_bytes(), 32);
        assert_eq!(m.l1d.num_frames(), 1024);
        assert_eq!(m.l2.size_bytes(), 1024 * 1024);
        assert_eq!(m.l2.assoc(), 4);
        assert_eq!(m.l2.block_bytes(), 64);
        assert_eq!(m.l2_latency, 12);
        assert_eq!(m.mem_latency, 70);
        assert_eq!(m.demand_mshrs, 64);
        assert_eq!(m.prefetch_mshrs, 32);
        assert_eq!(m.prefetch_queue, 128);
        assert_eq!(m.victim_entries, 32);
    }

    #[test]
    fn step_reference_mode_tags_cache_key() {
        let hop = SystemConfig::base();
        let step = SystemConfig::builder().step_every_cycle().build().unwrap();
        assert!(!hop.step_every_cycle);
        assert!(step.step_every_cycle);
        // Hopping is the default and bit-identical, so it leaves the key
        // untouched; only the reference mode is tagged.
        assert!(!hop.cache_key().contains("step_every_cycle"));
        assert!(step.cache_key().ends_with(" step_every_cycle=true"));
    }

    #[test]
    fn default_memory_backend_leaves_cache_key_untouched() {
        let base = SystemConfig::base();
        assert_eq!(base.memory, MemBackendConfig::Fixed);
        assert!(!base.cache_key().contains("dram"));
    }

    #[test]
    fn banked_backend_fingerprints_the_cache_key() {
        let banked = SystemConfig::builder()
            .memory(MemBackendConfig::Banked(
                crate::dram::BankedDramConfig::DDR2,
            ))
            .build()
            .unwrap();
        let key = banked.cache_key();
        assert!(key.contains(" dram=banked{ch=1,ranks=2,banks=8,"), "{key}");
        // The banked tag slots in before the step-reference tag, which
        // stays the final suffix.
        let step = SystemConfig::builder()
            .memory(MemBackendConfig::Banked(
                crate::dram::BankedDramConfig::DDR2,
            ))
            .step_every_cycle()
            .build()
            .unwrap();
        assert!(step.cache_key().contains(" dram=banked{"));
        assert!(step.cache_key().ends_with(" step_every_cycle=true"));
    }

    #[test]
    fn invalid_dram_geometry_is_rejected_at_build() {
        let mut bad = crate::dram::BankedDramConfig::DDR2;
        bad.banks = 5;
        let err = SystemConfig::builder()
            .memory(MemBackendConfig::Banked(bad))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::InvalidDram(DramConfigError::NotPowerOfTwo("banks"))
        );
        assert!(err.to_string().contains("power of two"));
        let mut bad = crate::dram::BankedDramConfig::DDR4;
        bad.burst = 0;
        assert_eq!(
            SystemConfig::builder()
                .memory(MemBackendConfig::Banked(bad))
                .build()
                .unwrap_err(),
            ConfigError::InvalidDram(DramConfigError::ZeroTiming("burst"))
        );
    }

    #[test]
    fn sample_fragment_fingerprints_the_cache_key() {
        let full = SystemConfig::base();
        assert_eq!(full.sample, None);
        assert!(!full.cache_key().contains("sample"));
        let sampled = SystemConfig::builder()
            .sample(SampleConfig::DEFAULT)
            .build()
            .unwrap();
        assert!(sampled
            .cache_key()
            .ends_with(" sample={interval=100000,k=10}"));
        // The sample tag slots in after the memory suffix and before the
        // step-reference tag, which stays the final suffix.
        let step = SystemConfig::builder()
            .sample(SampleConfig {
                interval: 500,
                k: 3,
            })
            .step_every_cycle()
            .build()
            .unwrap();
        let key = step.cache_key();
        assert!(key.contains(" sample={interval=500,k=3}"), "{key}");
        assert!(key.ends_with(" step_every_cycle=true"));
    }

    #[test]
    fn degenerate_sampling_parameters_are_rejected_at_build() {
        assert_eq!(
            SystemConfig::builder()
                .sample(SampleConfig { interval: 0, k: 4 })
                .build()
                .unwrap_err(),
            ConfigError::ZeroSampleInterval
        );
        assert_eq!(
            SystemConfig::builder()
                .sample(SampleConfig {
                    interval: 1000,
                    k: 0
                })
                .build()
                .unwrap_err(),
            ConfigError::ZeroSampleK
        );
        assert!(SystemConfig::builder()
            .sample(SampleConfig {
                interval: 1000,
                k: 1
            })
            .build()
            .is_ok());
    }

    #[test]
    fn single_core_leaves_cache_key_untouched() {
        let base = SystemConfig::base();
        assert_eq!(base.cores, 1);
        assert!(!base.cache_key().contains("cores="));
    }

    #[test]
    fn cores_fragment_fingerprints_the_cache_key() {
        let mp = SystemConfig::builder().cores(4).build().unwrap();
        let key = mp.cache_key();
        // The cores fragment follows the mechanism block and precedes the
        // memory/sample/step suffixes.
        assert!(key.contains(" slack=false cores=4"), "{key}");
        let stacked = SystemConfig::builder()
            .cores(2)
            .memory(MemBackendConfig::Banked(
                crate::dram::BankedDramConfig::DDR4,
            ))
            .sample(SampleConfig {
                interval: 500,
                k: 3,
            })
            .step_every_cycle()
            .build()
            .unwrap();
        let key = stacked.cache_key();
        let cores = key.find(" cores=2").expect("cores fragment");
        let dram = key.find(" dram=banked").expect("dram fragment");
        let sample = key.find(" sample=").expect("sample fragment");
        assert!(cores < dram && dram < sample, "{key}");
        assert!(key.ends_with(" step_every_cycle=true"), "{key}");
    }

    #[test]
    fn multi_core_rejects_single_core_mechanisms() {
        assert_eq!(
            SystemConfig::builder().cores(0).build().unwrap_err(),
            ConfigError::ZeroCores
        );
        assert_eq!(
            SystemConfig::builder()
                .cores(MAX_CORES + 1)
                .build()
                .unwrap_err(),
            ConfigError::TooManyCores
        );
        assert_eq!(
            SystemConfig::builder()
                .cores(2)
                .decay(16_384)
                .build()
                .unwrap_err(),
            ConfigError::MultiCoreWithMechanism
        );
        assert_eq!(
            SystemConfig::builder()
                .cores(2)
                .oracle_l1()
                .build()
                .unwrap_err(),
            ConfigError::MultiCoreWithMechanism
        );
        // An issuing prefetcher is rejected; predict-only scoring passes.
        let tk = PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB);
        assert_eq!(
            SystemConfig::builder()
                .cores(2)
                .prefetch(tk)
                .build()
                .unwrap_err(),
            ConfigError::MultiCoreIssuingPrefetcher
        );
        assert!(SystemConfig::builder()
            .cores(2)
            .prefetch(tk)
            .predict_only()
            .build()
            .is_ok());
        // Every victim mode is supported at N cores.
        assert!(SystemConfig::builder()
            .cores(4)
            .victim(VictimMode::paper_dead_time())
            .build()
            .is_ok());
    }

    #[test]
    #[allow(deprecated)] // pins the alias-to-backend equivalence
    fn deprecated_mem_latency_alias_keeps_cache_keys_identical() {
        // The deprecated `MachineConfig::mem_latency` alias is still the
        // Fixed backend's latency source: the base key pins it in the
        // machine fragment, and writing through the alias is observable
        // in the key exactly as it was before the deprecation.
        let base = SystemConfig::base();
        assert!(
            base.cache_key().contains("lat=1/12/70,"),
            "{}",
            base.cache_key()
        );
        assert_eq!(
            base.cache_key(),
            SystemConfig::builder()
                .memory(MemBackendConfig::Fixed)
                .build()
                .unwrap()
                .cache_key(),
            "an explicit Fixed backend must alias the default exactly"
        );
        let mut slow = base;
        slow.machine.mem_latency = 140;
        assert!(slow.cache_key().contains("lat=1/12/140,"));
        assert_eq!(
            slow.cache_key().replace("lat=1/12/140,", "lat=1/12/70,"),
            base.cache_key()
        );
    }

    #[test]
    fn config_constructors() {
        assert_eq!(SystemConfig::base().victim, VictimMode::None);
        assert_eq!(
            SystemConfig::with_victim(VictimMode::paper_dead_time()).victim,
            VictimMode::DeadTime { threshold: 1024 }
        );
        assert_eq!(SystemConfig::ideal().l1_mode, L1Mode::ColdOnly);
        let pf =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        assert!(matches!(pf.prefetch, PrefetchMode::Timekeeping(_)));
    }
}
