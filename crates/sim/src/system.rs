//! One-call experiment runner: workload × configuration → statistics.

use timekeeping::snapshot::{JsonReader, JsonWriter, Snapshot, SnapshotError};
use timekeeping::{
    CorrelationStats, DbcpStats, MetricsCollector, MissBreakdown, TimelinessStats, VictimStats,
};

use crate::config::SystemConfig;
use crate::core::{CoreStats, OooCore};
use crate::dram::DramStats;
use crate::hierarchy::{HierarchyStats, MemorySystem};
use crate::multicore::CoherenceStats;
use crate::sample::SampleStats;
use crate::trace::Workload;

/// Everything a single simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Core statistics (IPC, instruction mix).
    pub core: CoreStats,
    /// Hierarchy counters.
    pub hierarchy: HierarchyStats,
    /// Ground-truth miss breakdown.
    pub breakdown: MissBreakdown,
    /// Timekeeping metric distributions and predictor scores.
    pub metrics: MetricsCollector,
    /// Victim-cache statistics, if configured.
    pub victim: Option<VictimStats>,
    /// Victim-cache swap-path fills, if configured.
    pub victim_swap_fills: Option<u64>,
    /// Prefetch timeliness, if a prefetcher ran.
    pub timeliness: TimelinessStats,
    /// Correlation-table stats (timekeeping prefetcher only).
    pub correlation: Option<timekeeping::CorrelationStats>,
    /// DBCP stats (DBCP prefetcher only).
    pub dbcp: Option<timekeeping::DbcpStats>,
    /// Prefetch-queue overflow discards.
    pub pf_queue_discards: u64,
    /// Banked-DRAM statistics (`None` under the fixed-latency default).
    pub dram: Option<crate::dram::DramStats>,
    /// Statistical-sampling summary (`None` for full runs, including
    /// configurations where sampling was requested but fell back to full
    /// simulation — the absence of this tag is the fallback signal).
    pub sampled: Option<crate::sample::SampleStats>,
    /// Coherence-plane counters (`Some` exactly when `cores > 1`).
    pub coherence: Option<crate::multicore::CoherenceStats>,
}

impl RunResult {
    /// Instructions per cycle of the run.
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Relative IPC improvement of this run over a baseline run.
    pub fn speedup_over(&self, base: &RunResult) -> f64 {
        if base.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / base.ipc() - 1.0
        }
    }
}

impl Snapshot for RunResult {
    fn write_json(&self, w: &mut JsonWriter) {
        // `coherence`, `dram` and `sampled` are written only when
        // present: the fixed-latency single-core full run keeps the exact
        // pre-backend document shape, so golden digests and old cached
        // results stay byte-identical.
        w.object(|w| {
            w.field("breakdown", &self.breakdown);
            if let Some(c) = &self.coherence {
                w.field("coherence", c);
            }
            w.field("core", &self.core);
            w.field("correlation", &self.correlation);
            w.field("dbcp", &self.dbcp);
            if let Some(d) = &self.dram {
                w.field("dram", d);
            }
            w.field("hierarchy", &self.hierarchy);
            w.field("metrics", &self.metrics);
            w.field("pf_queue_discards", &self.pf_queue_discards);
            if let Some(s) = &self.sampled {
                w.field("sampled", s);
            }
            w.field("timeliness", &self.timeliness);
            w.field("victim", &self.victim);
            w.field("victim_swap_fills", &self.victim_swap_fills);
            w.field("workload", &self.workload);
        });
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, SnapshotError> {
        timekeeping::read_fields!(r, {
            breakdown: MissBreakdown,
            coherence: Option<CoherenceStats> = None,
            core: CoreStats,
            correlation: Option<CorrelationStats>,
            dbcp: Option<DbcpStats>,
            dram: Option<DramStats> = None,
            hierarchy: HierarchyStats,
            metrics: MetricsCollector,
            pf_queue_discards: u64,
            sampled: Option<SampleStats> = None,
            timeliness: TimelinessStats,
            victim: Option<VictimStats>,
            victim_swap_fills: Option<u64>,
            workload: String,
        });
        Ok(RunResult {
            workload,
            core,
            hierarchy,
            breakdown,
            metrics,
            victim,
            victim_swap_fills,
            timeliness,
            correlation,
            dbcp,
            pf_queue_discards,
            dram,
            sampled,
            coherence,
        })
    }
}

/// Simulates `instructions` instructions of `workload` on a machine
/// configured by `cfg`.
///
/// # Examples
///
/// ```
/// use tk_sim::{run_workload, SystemConfig};
/// use tk_sim::trace::{Instr, Workload};
///
/// struct Ops;
/// impl Workload for Ops {
///     fn next_instr(&mut self) -> Instr { Instr::Op }
///     fn name(&self) -> &str { "ops" }
/// }
///
/// let result = run_workload(&mut Ops, SystemConfig::base(), 1_000);
/// assert_eq!(result.core.instructions, 1_000);
/// assert!(result.ipc() > 1.0);
/// ```
pub fn run_workload<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    instructions: u64,
) -> RunResult {
    run(workload, cfg, instructions, false)
}

/// Like [`run_workload`], but with the functional-oracle lockstep checker
/// installed (when the configuration supports it): every access is
/// replayed into a timing-free reference model and any divergence panics
/// with a diagnostic report. See [`crate::oracle`].
///
/// Checking is a pure assertion layer: the result is bit-identical to
/// [`run_workload`]'s.
pub fn run_workload_checked<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    instructions: u64,
) -> RunResult {
    run(workload, cfg, instructions, true)
}

fn run<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    instructions: u64,
    checked: bool,
) -> RunResult {
    if cfg.cores > 1 {
        // Multi-core configurations run one stream per core. Statistical
        // sampling is ignored there; the missing `sampled` tag is the
        // standard fallback signal.
        return crate::multicore::run_multicore(workload, cfg, instructions, checked);
    }
    if let Some(sc) = cfg.sample {
        if crate::oracle::FunctionalOracle::supports(&cfg) {
            if let Some(r) = crate::sample::run_sampled(workload, cfg, sc, instructions, checked) {
                return r;
            }
        }
        // Unsupported configuration or unforkable workload: fall through
        // to an ordinary full run. The result carries no `sampled` tag,
        // which is how callers detect the fallback.
    }
    let mut sys = if checked {
        SimSystem::checked(cfg)
    } else {
        SimSystem::new(cfg)
    };
    sys.run(workload, instructions)
}

/// A constructed simulation — core plus memory system — with an explicit
/// check mode.
///
/// [`run_workload`] covers the common one-shot case; `SimSystem` is for
/// callers that need to decide up front whether the run is self-verifying
/// ([`SimSystem::checked`]) or inspect the memory system afterwards.
#[derive(Debug)]
pub struct SimSystem {
    core: OooCore,
    mem: MemorySystem,
}

impl SimSystem {
    /// Builds an unchecked simulation of `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        let core = OooCore::new(&cfg);
        let mem = MemorySystem::new(cfg);
        SimSystem { core, mem }
    }

    /// Builds a simulation with the lockstep checker installed.
    ///
    /// Configurations the oracle cannot mirror (the cold-miss-only L1
    /// study mode) run unchecked; [`SimSystem::is_checked`] reports what
    /// happened.
    pub fn checked(cfg: SystemConfig) -> Self {
        let mut sys = Self::new(cfg);
        sys.mem.enable_lockstep_check();
        sys
    }

    /// Whether the lockstep checker is active.
    pub fn is_checked(&self) -> bool {
        self.mem.lockstep_check_active()
    }

    /// The memory system (for post-run inspection).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Runs `instructions` instructions of `workload` and collects the
    /// results. Draining the metrics means a `SimSystem` runs once.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W, instructions: u64) -> RunResult {
        let core_stats = self.core.run(workload, &mut self.mem, instructions);
        self.mem.take_result(workload.name(), core_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VictimMode;
    use crate::trace::{Instr, MemRef};
    use timekeeping::{Addr, Pc};

    /// A dependent (pointer-chase-style) ping-pong between two conflicting
    /// lines: every load's address depends on the previous one, so each
    /// conflict miss pays its full refill latency — exactly the pattern a
    /// victim cache rescues.
    struct ConflictPingPong(u64);
    impl Workload for ConflictPingPong {
        fn next_instr(&mut self) -> Instr {
            self.0 += 1;
            let a = (self.0 % 2) * 32 * 1024;
            Instr::ChainedLoad(MemRef::new(Addr::new(0x40 + a), Pc::new(8)))
        }
        fn name(&self) -> &str {
            "ping-pong"
        }
    }

    #[test]
    fn run_result_accessors() {
        let base = run_workload(&mut ConflictPingPong(0), SystemConfig::base(), 5_000);
        assert_eq!(base.workload, "ping-pong");
        assert!(base.breakdown.conflict > 0, "ping-pong generates conflicts");
        let vc = run_workload(
            &mut ConflictPingPong(0),
            SystemConfig::with_victim(VictimMode::Unfiltered),
            5_000,
        );
        assert!(
            vc.speedup_over(&base) > 0.1,
            "a victim cache must speed up a conflict ping-pong: {:.3} vs {:.3}",
            vc.ipc(),
            base.ipc()
        );
    }
}
