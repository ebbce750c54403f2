//! The full memory system of one or more cores: per core an L1D (+
//! optional victim cache), MSHRs, miss classification, generational
//! timekeeping and the prefetchers; shared by all cores the L2, the
//! buses and DRAM.
//!
//! This is the substrate every experiment runs on. The timing model is
//! occupancy-based: every shared resource (buses, MSHRs) tracks when it is
//! next free, and a request's completion time is computed by walking its
//! path through the hierarchy. Tags are allocated at miss time; data
//! arrives at the computed completion time (hits under outstanding misses
//! observe the fill time through the MSHRs).
//!
//! The access path itself is a staged pipeline of typed events consumed
//! by an observer plane — see [`crate::pipeline`]. One machine serves
//! every core count, with N = 1 as the degenerate case: at N > 1 the
//! coherence stage of [`crate::multicore`] runs at every demand fill and
//! keeps the private L1s MESI-coherent over the shared, inclusive L2.
//! This module holds the machine state ([`MemorySystem`] and its
//! per-core `CoreSlice`s), its constructor and accessors, the
//! per-access lockstep-checker wrapper, and the aggregate counters.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use timekeeping::snapshot::Snapshot;
use timekeeping::{
    Cycle, FullyAssocShadow, GlobalTicker, LineSet, MetricsCollector, MissBreakdown, PrefetchQueue,
    TimelinessStats, WeightedSum,
};

use crate::bus::Bus;
use crate::cache::SetAssocCache;
use crate::config::{PrefetchMode, SystemConfig};
use crate::core::{CoreMemory, CoreStats};
use crate::dram::{DramStats, MemBackend};
use crate::mshr::MshrFile;
use crate::multicore::{CoherenceStats, Mesi};
use crate::obs::{
    self, ProfStage, ProfileReport, Profiler, TraceCategories, TraceObserver, TraceRecord,
};
use crate::oracle::{FunctionalOracle, LockstepChecker};
use crate::pipeline::{Observers, PendingPf, TapEvent};
use crate::system::RunResult;
use crate::trace::MemRef;

/// Result of one data-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available to the core.
    pub ready_at: Cycle,
    /// Whether the access hit in the L1.
    pub l1_hit: bool,
    /// Whether an L1 miss was served by the victim cache.
    pub vc_hit: bool,
}

/// Aggregate hierarchy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data-cache accesses.
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses served by the victim cache.
    pub vc_hits: u64,
    /// L2 accesses (demand).
    pub l2_accesses: u64,
    /// L2 hits (demand).
    pub l2_hits: u64,
    /// Main-memory accesses (demand).
    pub mem_accesses: u64,
    /// Prefetches enqueued.
    pub pf_enqueued: u64,
    /// Prefetches issued to the L2/memory.
    pub pf_issued: u64,
    /// Prefetch fills that landed in the L1.
    pub pf_fills: u64,
    /// Prefetches dropped because the line was already cached/outstanding
    /// or the target set already had a pending prefetch.
    pub pf_redundant: u64,
    /// Prefetch arrivals dropped because the resident block was recently
    /// used (likely live) — the §5.1 displacement guard.
    pub pf_dropped_live: u64,
    /// Address predictions checked against the next fill (Figure 20).
    pub addr_predictions: u64,
    /// Address predictions that matched.
    pub addr_correct: u64,
    /// Dirty L1 lines written back to the L2 at eviction.
    pub l1_writebacks: u64,
    /// Dirty L2 lines written back to memory at eviction.
    pub l2_writebacks: u64,
    /// Misses induced by cache decay (line was switched off while idle).
    pub decay_misses: u64,
    /// Frame-cycles spent switched off by cache decay (leakage saving).
    pub decay_off_cycles: u64,
}

impl HierarchyStats {
    /// L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.l1_accesses - self.l1_hits
    }

    /// L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses() as f64 / self.l1_accesses as f64
        }
    }

    /// Address-prediction accuracy (Figure 20).
    pub fn addr_accuracy(&self) -> Option<f64> {
        (self.addr_predictions > 0).then(|| self.addr_correct as f64 / self.addr_predictions as f64)
    }

    /// Counts the address prediction a fill scored, if it scored one
    /// (`Reactions::addr_scored`).
    pub(crate) fn score_addr(&mut self, scored: Option<bool>) {
        if let Some(correct) = scored {
            self.addr_predictions += 1;
            self.addr_correct += u64::from(correct);
        }
    }
}

timekeeping::counter_block!(HierarchyStats {
    addr_correct,
    addr_predictions,
    decay_misses,
    decay_off_cycles,
    l1_accesses,
    l1_hits,
    l1_writebacks,
    l2_accesses,
    l2_hits,
    l2_writebacks,
    mem_accesses,
    pf_dropped_live,
    pf_enqueued,
    pf_fills,
    pf_issued,
    pf_redundant,
    vc_hits
});

/// One core's private slice of the machine: its L1 and the state that
/// serves it. Shared resources (L2, buses, DRAM) live in
/// [`MemorySystem`].
#[derive(Debug)]
pub(crate) struct CoreSlice {
    pub(crate) l1d: SetAssocCache,
    /// The event-observer plane, dispatched in fixed order.
    pub(crate) obs: Observers,
    pub(crate) shadow: FullyAssocShadow,
    pub(crate) demand_mshrs: MshrFile,
    pub(crate) prefetch_mshrs: MshrFile,
    pub(crate) pf_queue: PrefetchQueue,
    /// In-flight prefetches ordered by arrival: `(arrive, line, set)`.
    pub(crate) inflight_pf: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// At most one pending prefetch per L1 set, indexed by set.
    pub(crate) pending_pf: Vec<Option<PendingPf>>,
    /// Lines ever seen, for the cold-miss-only study L1.
    pub(crate) cold_seen: LineSet,
    /// MESI state per L1 frame (parallel to the tag array); read and
    /// written only at N > 1, by the coherence stage.
    pub(crate) mesi: Vec<Mesi>,
    /// Lines this core lost to an invalidation and has not refetched yet.
    pub(crate) inval_lost: LineSet,
    pub(crate) stats: HierarchyStats,
}

impl CoreSlice {
    fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let m = &cfg.machine;
        let num_frames = m.l1d.num_frames() as usize;
        CoreSlice {
            l1d: SetAssocCache::new(m.l1d),
            obs: Observers::new(cfg, ticker),
            shadow: FullyAssocShadow::new(num_frames),
            demand_mshrs: MshrFile::new(m.demand_mshrs),
            prefetch_mshrs: MshrFile::new(m.prefetch_mshrs),
            pf_queue: PrefetchQueue::new(m.prefetch_queue),
            inflight_pf: BinaryHeap::new(),
            pending_pf: vec![None; m.l1d.num_sets() as usize],
            cold_seen: LineSet::default(),
            mesi: vec![Mesi::Invalid; num_frames],
            inval_lost: LineSet::default(),
            stats: HierarchyStats::default(),
        }
    }
}

/// The complete simulated memory system, for one core or several.
///
/// Timing state lives here: per core a `CoreSlice` (L1, MSHRs, the
/// prefetch queue), shared by all cores the L2, both buses and the
/// memory backend. Everything that merely *watches* the access stream —
/// generation tracking, metrics, predictors, victim-cache admission,
/// the lockstep-oracle tap — lives in each core's `Observers` plane and
/// is driven by the pipeline stages in [`crate::pipeline`].
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) cfg: SystemConfig,
    pub(crate) ticker: GlobalTicker,
    /// One private slice per core; core 0 alone at N = 1.
    pub(crate) cores: Vec<CoreSlice>,
    pub(crate) l2: SetAssocCache,
    pub(crate) l1l2_bus: Bus,
    pub(crate) l2mem_bus: Bus,
    /// Main-memory model behind the L2↔memory bus (see [`crate::dram`]).
    pub(crate) backend: Box<dyn MemBackend>,
    pub(crate) timeliness: TimelinessStats,
    pub(crate) last_tick: u64,
    /// High-water mark of [`advance`](MemorySystem::advance) calls: the
    /// event-replay loop walks from here to the requested cycle.
    pub(crate) last_advance: Cycle,
    /// Reusable buffer for prefetches fired by a global tick (avoids a
    /// per-tick allocation; sized one request per frame, so it never
    /// grows).
    pub(crate) tick_scratch: Vec<timekeeping::PrefetchRequest>,
    /// Coherence counters, kept at N > 1 only.
    pub(crate) coh: CoherenceStats,
    pub(crate) checker: Option<Box<LockstepChecker>>,
    /// Optional self-profiler (`--profile`); `None` keeps the disabled
    /// path to one pointer-sized branch per scope.
    pub(crate) prof: Option<Box<Profiler>>,
}

impl MemorySystem {
    /// Builds the memory system described by `cfg`, with one
    /// `CoreSlice` per core.
    pub fn new(cfg: SystemConfig) -> Self {
        let m = &cfg.machine;
        let ticker = GlobalTicker::new(m.tick_period);
        let cores = (0..cfg.cores)
            .map(|_| CoreSlice::new(&cfg, ticker))
            .collect();
        MemorySystem {
            ticker,
            cores,
            l2: SetAssocCache::new(m.l2),
            l1l2_bus: Bus::new(m.l1l2_bus_occupancy),
            l2mem_bus: Bus::new(m.l2mem_bus_occupancy),
            backend: crate::dram::build_backend(&cfg),
            timeliness: TimelinessStats::new(),
            last_tick: 0,
            last_advance: Cycle::ZERO,
            tick_scratch: match cfg.prefetch {
                PrefetchMode::Timekeeping(_) => Vec::with_capacity(m.l1d.num_frames() as usize),
                _ => Vec::new(),
            },
            coh: CoherenceStats::default(),
            checker: None,
            prof: obs::profiler_from_global(),
            cfg,
        }
    }

    /// Whether no core has accessed memory yet.
    fn untouched(&self) -> bool {
        self.cores.iter().all(|c| c.stats.l1_accesses == 0)
    }

    /// Installs the functional-oracle lockstep checker (see
    /// [`crate::oracle`]): every subsequent demand access, prefetch fill
    /// and prefetch L2 touch is replayed into a timing-free reference
    /// model of every core, and any disagreement on hit/miss
    /// classification, level serviced, evicted-line identity, generation
    /// boundaries or the invalidation set panics with a divergence
    /// report.
    ///
    /// Returns whether the checker was installed; configurations the
    /// oracle cannot mirror (the cold-miss-only L1 study mode) are left
    /// unchecked.
    ///
    /// # Panics
    ///
    /// Panics if the system has already performed accesses — the oracle
    /// mirrors an empty hierarchy.
    pub fn enable_lockstep_check(&mut self) -> bool {
        assert!(
            self.untouched(),
            "lockstep checker must be installed before any access"
        );
        if !FunctionalOracle::supports(&self.cfg) {
            return false;
        }
        self.checker = Some(Box::new(LockstepChecker::new(&self.cfg)));
        true
    }

    /// Whether the lockstep checker is installed.
    pub fn lockstep_check_active(&self) -> bool {
        self.checker.is_some()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Aggregate counters, summed over cores.
    pub fn stats(&self) -> HierarchyStats {
        sum_cores(&self.cores, |c| c.stats)
    }

    /// One core's hierarchy counters.
    pub fn core_stats(&self, core: usize) -> HierarchyStats {
        self.cores[core].stats
    }

    /// Coherence counters; all zero at one core.
    pub fn coherence(&self) -> &CoherenceStats {
        &self.coh
    }

    /// Capacity of the reusable buffer receiving tick-fired prefetches.
    /// Pre-sized to one request per L1 frame (the per-tick maximum), so a
    /// value unchanged across a run shows the global-tick hot path
    /// performed no allocation.
    #[cfg(test)]
    pub(crate) fn tick_scratch_capacity(&self) -> usize {
        self.tick_scratch.capacity()
    }

    /// Bytes of trace ring-buffer capacity held by core 0: 0 when
    /// tracing is disabled, and fixed for the life of the system either
    /// way — the trace ring is bounded and the disabled path allocates
    /// nothing.
    #[cfg(test)]
    pub(crate) fn obs_trace_capacity(&self) -> usize {
        self.cores[0].obs.trace.as_deref().map_or(0, |t| {
            t.ring_capacity() * std::mem::size_of::<TraceRecord>()
        })
    }

    /// Installs an in-memory trace observer directly on every core of
    /// this system, bypassing the process-global configuration — for
    /// hermetic tests (the golden `tk_obs_dump` run) that must not race
    /// with other tests over the global flags.
    ///
    /// # Panics
    ///
    /// Panics if the system has already performed accesses.
    pub fn install_trace(&mut self, cats: TraceCategories, sample: u64) {
        assert!(
            self.untouched(),
            "trace observer must be installed before any access"
        );
        let geom = self.cfg.machine.l1d;
        for c in &mut self.cores {
            c.obs.trace = Some(Box::new(TraceObserver::memory(cats, sample, geom)));
        }
    }

    /// Installs a profiler directly on this system, bypassing the
    /// process-global configuration (see [`install_trace`](Self::install_trace)).
    pub fn install_profiler(&mut self) {
        self.prof = Some(Box::new(Profiler::new()));
    }

    /// The records core 0's in-memory trace observer captured; `None`
    /// when tracing is disabled or streaming to files.
    pub fn trace_records(&mut self) -> Option<&[TraceRecord]> {
        self.cores[0].obs.trace.as_deref_mut().map(|t| t.records())
    }

    /// The profiling report accumulated so far, when profiling is on.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        self.prof.as_deref().map(|p| p.report())
    }

    /// Starts a profiling scope: the timestamp when profiling is on,
    /// nothing (and no clock read) otherwise.
    #[inline]
    pub(crate) fn prof_t0(&self) -> Option<std::time::Instant> {
        self.prof.as_deref().map(|_| std::time::Instant::now())
    }

    /// Closes a profiling scope opened by [`prof_t0`](Self::prof_t0).
    #[inline]
    pub(crate) fn prof_rec(&mut self, stage: ProfStage, t0: Option<std::time::Instant>) {
        if let (Some(p), Some(t0)) = (self.prof.as_deref_mut(), t0) {
            p.record(stage, t0.elapsed());
        }
    }

    /// Core 0's timekeeping metric distributions and predictor scores.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.cores[0].obs.metrics.collector
    }

    /// Ground-truth miss breakdown (Figure 2), summed over cores.
    pub fn miss_breakdown(&self) -> MissBreakdown {
        sum_cores(&self.cores, |c| c.shadow.breakdown())
    }

    /// Victim-cache statistics summed over cores, if a victim cache is
    /// configured.
    pub fn victim_stats(&self) -> Option<timekeeping::VictimStats> {
        sum_cores(&self.cores, |c| {
            c.obs.victim.unit.as_ref().map(|v| v.cache.stats())
        })
    }

    /// Blocks entered into the victim caches by L1↔VC swaps.
    pub fn victim_swap_fills(&self) -> Option<u64> {
        sum_cores(&self.cores, |c| {
            c.obs.victim.unit.as_ref().map(|v| v.swap_fills)
        })
    }

    /// Prefetch timeliness breakdown (Figure 21).
    pub fn timeliness(&self) -> &TimelinessStats {
        &self.timeliness
    }

    /// Prefetch queue drop count, summed over cores.
    pub fn pf_queue_discards(&self) -> u64 {
        sum_cores(&self.cores, |c| c.pf_queue.discarded())
    }

    /// Correlation-table statistics of the timekeeping predictor, if
    /// configured (hit rate = Figure 20 coverage), summed over cores.
    pub fn correlation_stats(&self) -> Option<timekeeping::CorrelationStats> {
        sum_cores(&self.cores, |c| c.obs.predictors.correlation_stats())
    }

    /// Banked-DRAM statistics; `None` under the fixed-latency backend
    /// (which has nothing to report, keeping snapshots byte-identical).
    pub fn dram_stats(&self) -> Option<DramStats> {
        self.backend.snapshot()
    }

    /// DBCP statistics summed over cores, if configured.
    pub fn dbcp_stats(&self) -> Option<timekeeping::DbcpStats> {
        sum_cores(&self.cores, |c| c.obs.predictors.dbcp_stats())
    }

    /// Collects a finished run into a [`RunResult`]: every per-core block
    /// summed over cores (core 0's alone at N = 1), the metric
    /// distributions merged, and the coherence counters, which are
    /// present exactly when `cores > 1`. Moves the metrics out, so a
    /// system yields one result.
    pub(crate) fn take_result(&mut self, workload: &str, core: CoreStats) -> RunResult {
        let mut metrics = std::mem::take(&mut self.cores[0].obs.metrics.collector);
        for c in &self.cores[1..] {
            metrics.merge(&c.obs.metrics.collector);
        }
        RunResult {
            workload: workload.to_owned(),
            core,
            hierarchy: self.stats(),
            breakdown: self.miss_breakdown(),
            metrics,
            victim: self.victim_stats(),
            victim_swap_fills: self.victim_swap_fills(),
            timeliness: self.timeliness,
            correlation: self.correlation_stats(),
            dbcp: self.dbcp_stats(),
            pf_queue_discards: self.pf_queue_discards(),
            dram: self.dram_stats(),
            sampled: None,
            coherence: (self.cores.len() > 1).then_some(self.coh),
        }
    }

    /// Performs one data reference by core 0. Stores mark the line dirty
    /// (write-back, write-allocate); the caller decides whether to stall
    /// on the result.
    pub fn access(&mut self, mref: &MemRef, is_store: bool, now: Cycle) -> AccessOutcome {
        self.access_by(0, mref, is_store, now)
    }

    /// Performs one data reference by core `core`: [`access`](Self::access)
    /// for any core of the machine.
    #[inline]
    pub fn access_by(
        &mut self,
        core: usize,
        mref: &MemRef,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        let t0 = self.prof_t0();
        let out = self.access_impl(core, mref, is_store, now);
        self.prof_rec(ProfStage::Access, t0);
        out
    }

    fn access_impl(
        &mut self,
        c: usize,
        mref: &MemRef,
        is_store: bool,
        now: Cycle,
    ) -> AccessOutcome {
        if self.checker.is_none() {
            return self.stage_lookup(c, mref, is_store, now);
        }
        self.cores[c].obs.oracle.evt = TapEvent::default();
        let out = self.stage_lookup(c, mref, is_store, now);
        let core = &self.cores[c];
        let obs = core
            .obs
            .oracle
            .evt
            .observation(c, mref.addr, is_store, out.l1_hit, out.vc_hit);
        let vc_lines = core.obs.victim.unit.as_ref().map(|v| v.cache.lines());
        if let Some(chk) = self.checker.as_deref_mut() {
            chk.check_demand(&core.l1d, vc_lines.as_deref(), &obs);
        }
        out
    }

    /// Flushes all open generations into the metrics (end of simulation),
    /// then finalizes the observability plane: the trace sinks are
    /// flushed, and when profiling to a directory the profile report is
    /// written out (both idempotent across repeated calls).
    pub fn finish(&mut self, now: Cycle) {
        let t0 = self.prof_t0();
        for c in 0..self.cores.len() {
            if self.cfg.decay_interval.is_some() {
                for frame in 0..self.cores[c].obs.predictors.addr_pred.len() {
                    self.bank_decay_off_time(c, frame, now);
                }
            }
            self.cores[c].obs.flush(now);
        }
        self.prof_rec(ProfStage::Finish, t0);
        self.finish_obs();
    }

    /// Flushes trace sinks and emits the profile report (first call only).
    fn finish_obs(&mut self) {
        for c in &mut self.cores {
            if let Some(t) = c.obs.trace.as_deref_mut() {
                t.finish();
            }
        }
        let Some(p) = self.prof.as_deref_mut() else {
            return;
        };
        if !p.mark_finished() {
            return;
        }
        let report = p.report();
        match obs::out_dir() {
            Some(dir) => {
                let path = dir.join(format!("profile-{:04}.json", obs::next_seq()));
                let write = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, report.to_json_string()));
                match write {
                    Ok(()) => eprintln!("profile report written to {}", path.display()),
                    Err(e) => eprintln!(
                        "warning: cannot write profile report to {}: {e}\n{}",
                        path.display(),
                        report.to_json_string()
                    ),
                }
            }
            None => eprintln!("profile report:\n{}", report.to_json_string()),
        }
    }
}

/// A per-core block summed over `cores`, starting from core 0's own
/// value (so one core's block comes back unchanged).
fn sum_cores<T: WeightedSum>(cores: &[CoreSlice], block: impl Fn(&CoreSlice) -> T) -> T {
    let mut acc = block(&cores[0]);
    for c in &cores[1..] {
        acc.add_weighted(&block(c), 1);
    }
    acc
}

/// The memory system as the core driver sees it, at any core count.
impl CoreMemory for MemorySystem {
    #[inline]
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        self.access_by(core, mref, is_store, now).ready_at
    }

    #[inline]
    fn advance(&mut self, now: Cycle) {
        MemorySystem::advance(self, now);
    }

    #[inline]
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        MemorySystem::next_event(self, now)
    }

    fn finish(&mut self, now: Cycle) {
        MemorySystem::finish(self, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VictimMode;
    use timekeeping::{Addr, CorrelationConfig, Pc};

    fn mref(addr: u64) -> MemRef {
        MemRef::new(Addr::new(addr), Pc::new(0x1000 + (addr % 97)))
    }

    fn base_system() -> MemorySystem {
        MemorySystem::new(SystemConfig::base())
    }

    /// A base system recording every L1 miss in an in-memory trace.
    fn miss_traced_system() -> MemorySystem {
        use crate::obs::{TraceCategories, TraceCategory};
        let mut sys = base_system();
        sys.install_trace(TraceCategories::none().with(TraceCategory::Miss), 1);
        sys
    }

    /// For every repeat L1 miss of a line in `sys`'s miss trace: the time
    /// since that line's previous L1 miss — its L2 access interval (§3) —
    /// and the miss-kind code the record carries.
    fn repeat_miss_gaps(sys: &mut MemorySystem) -> Vec<(u64, u64)> {
        use crate::obs::TraceKind;
        let mut last = timekeeping::LineMap::default();
        sys.trace_records()
            .expect("miss trace installed")
            .iter()
            .filter(|r| r.kind == TraceKind::Miss)
            .filter_map(|r| {
                let prev = last.insert(r.line, r.cycle)?;
                Some((r.cycle - prev, r.aux))
            })
            .collect()
    }

    #[test]
    fn miss_then_hit_latency() {
        let mut sys = base_system();
        let t0 = Cycle::new(0);
        let out = sys.access(&mref(0x40), false, t0);
        assert!(!out.l1_hit);
        // Cold L1 and L2 miss: latency includes L2 + memory + buses.
        let m = MachineLatencyProbe::expected_cold(&sys.cfg.machine);
        assert_eq!(out.ready_at.get(), m);
        let out2 = sys.access(&mref(0x44), false, Cycle::new(1)); // same L1 line
        assert!(out2.l1_hit);
        // Hit under miss: data still in flight.
        assert_eq!(out2.ready_at, out.ready_at);
        // After the fill, a hit is 1 cycle.
        let late = Cycle::new(out.ready_at.get() + 10);
        let out3 = sys.access(&mref(0x44), false, late);
        assert!(out3.l1_hit);
        assert_eq!(out3.ready_at, late + 1);
    }

    /// Helper computing the expected cold-miss latency from the config.
    struct MachineLatencyProbe;
    impl MachineLatencyProbe {
        #[allow(deprecated)] // the Fixed backend reads the latency alias
        fn expected_cold(m: &crate::config::MachineConfig) -> u64 {
            // L2 probe (12) + mem latency (70) + l2mem bus (5) + l1l2 bus (1)
            m.l2_latency + m.mem_latency + m.l2mem_bus_occupancy + m.l1l2_bus_occupancy
        }
    }

    #[test]
    fn l2_hit_is_cheaper_than_memory() {
        let mut sys = base_system();
        sys.access(&mref(0x40), false, Cycle::new(0));
        // Evict 0x40's L1 line by touching the conflicting address
        // (L1 is 32 KB direct-mapped).
        sys.access(&mref(0x40 + 32 * 1024), false, Cycle::new(1000));
        // Re-access 0x40: L1 miss, L2 hit.
        let out = sys.access(&mref(0x40), false, Cycle::new(2000));
        assert!(!out.l1_hit);
        let m = &sys.cfg.machine;
        assert_eq!(
            out.ready_at.get(),
            2000 + m.l2_latency + m.l1l2_bus_occupancy
        );
        assert_eq!(sys.stats().l2_hits, 1);
    }

    #[test]
    fn miss_classification_ground_truth() {
        let mut sys = base_system();
        sys.access(&mref(0x40), false, Cycle::new(0)); // cold
        sys.access(&mref(0x40 + 32 * 1024), false, Cycle::new(100)); // cold, evicts
        sys.access(&mref(0x40), false, Cycle::new(200)); // conflict
        let b = sys.miss_breakdown();
        assert_eq!(b.cold, 2);
        assert_eq!(b.conflict, 1);
        assert_eq!(b.capacity, 0);
    }

    #[test]
    fn generations_recorded_on_eviction() {
        let mut sys = base_system();
        sys.access(&mref(0x40), false, Cycle::new(0));
        sys.access(&mref(0x44), false, Cycle::new(50)); // hit, live time grows
        sys.access(&mref(0x40 + 32 * 1024), false, Cycle::new(5000)); // evict
        assert_eq!(sys.metrics().generations(), 1);
        assert_eq!(sys.metrics().live.total(), 1);
        // live = 50, dead = 4950.
        assert_eq!(sys.metrics().live.mean(), Some(50.0));
        assert_eq!(sys.metrics().dead.mean(), Some(4950.0));
    }

    #[test]
    fn cold_only_mode_hits_after_first_touch() {
        let mut sys = MemorySystem::new(SystemConfig::ideal());
        let a = mref(0x40);
        let conflicting = mref(0x40 + 32 * 1024);
        assert!(!sys.access(&a, false, Cycle::new(0)).l1_hit);
        assert!(!sys.access(&conflicting, false, Cycle::new(500)).l1_hit);
        // In the oracle there are no conflict misses.
        assert!(sys.access(&a, false, Cycle::new(1000)).l1_hit);
    }

    #[test]
    fn victim_cache_catches_conflict_ping_pong() {
        let mut sys = MemorySystem::new(SystemConfig::with_victim(VictimMode::Unfiltered));
        let a = mref(0x40);
        let b = mref(0x40 + 32 * 1024);
        sys.access(&a, false, Cycle::new(0));
        sys.access(&b, false, Cycle::new(200)); // evicts a -> victim cache
        let out = sys.access(&a, false, Cycle::new(400)); // VC hit
        assert!(out.vc_hit);
        assert!(out.ready_at.get() <= 402 + 2);
        assert_eq!(sys.stats().vc_hits, 1);
        let vs = sys.victim_stats().unwrap();
        assert_eq!(vs.hits, 1);
    }

    #[test]
    fn dead_time_filter_blocks_stale_victims() {
        let mut sys = MemorySystem::new(SystemConfig::with_victim(VictimMode::paper_dead_time()));
        let a = mref(0x40);
        let b = mref(0x40 + 32 * 1024);
        sys.access(&a, false, Cycle::new(0));
        // Evict a with a huge dead time: filtered out.
        sys.access(&b, false, Cycle::new(100_000));
        let out = sys.access(&a, false, Cycle::new(100_100));
        assert!(!out.vc_hit, "stale victim must not be buffered");
        // a's eviction (dead 100 K cycles) was rejected; re-fetching a
        // evicted b with a 100-cycle dead time, which was admitted.
        let vs = sys.victim_stats().unwrap();
        assert_eq!(vs.offered, 2);
        assert_eq!(vs.admitted, 1);

        // b was evicted at 100_100 with a 100-cycle dead time: admitted.
        let out2 = sys.access(&b, false, Cycle::new(100_300));
        assert!(out2.vc_hit, "fresh victim must be buffered: {out2:?}");
    }

    // These prefetcher tests jump `advance` straight across each
    // inter-access gap: `advance` is jump-capable (it replays every
    // intermediate tick, arrival, and issue event at its true timestamp),
    // so the old hand-rolled small-step emulation of the per-cycle core
    // loop is unnecessary (`tests/step_equivalence.rs` proves jumping and
    // stepping bit-identical).

    #[test]
    fn timekeeping_prefetcher_learns_stream() {
        let cfg =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        let mut sys = MemorySystem::new(cfg);
        // A repeating cyclic sweep over 3 conflicting lines in one set
        // teaches (prev, cur) -> next; after training, prefetches fire and
        // arrive well within the 2000-cycle inter-access gap.
        let stride = 32 * 1024u64; // same L1 set each time
        let mut now = 0u64;
        let mut hits_after_training = 0;
        for rep in 0..50 {
            for i in 0..3u64 {
                let a = mref(0x40 + i * stride);
                sys.advance(Cycle::new(now));
                let out = sys.access(&a, false, Cycle::new(now));
                if rep >= 10 && out.l1_hit {
                    hits_after_training += 1;
                }
                now += 2000;
            }
        }
        assert!(sys.stats().pf_enqueued > 0, "prefetches must be scheduled");
        assert!(sys.stats().pf_issued > 0, "prefetches must issue");
        assert!(sys.stats().pf_fills > 0, "prefetches must fill");
        let cs = sys.correlation_stats().unwrap();
        assert!(cs.hits > 0, "correlation table must hit");
        assert!(
            hits_after_training > 50,
            "trained prefetcher must convert misses to hits, got {hits_after_training}"
        );
    }

    #[test]
    fn dbcp_issues_prefetches_on_signature_match() {
        let cfg =
            SystemConfig::with_prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB));
        let mut sys = MemorySystem::new(cfg);
        let stride = 32 * 1024u64;
        let mut now = Cycle::new(0);
        // Same cyclic pattern with fixed PCs per line builds stable
        // signatures.
        for _ in 0..60 {
            for i in 0..3u64 {
                let r = MemRef::new(Addr::new(0x40 + i * stride), Pc::new(0x400 + i * 4));
                sys.advance(now);
                sys.access(&r, false, now);
                now += 700;
            }
        }
        let ds = sys.dbcp_stats().unwrap();
        assert!(ds.predictions > 0, "DBCP must match signatures: {ds:?}");
        assert!(sys.stats().pf_enqueued > 0);
    }

    #[test]
    fn prefetch_timeliness_resolved() {
        let cfg =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        let mut sys = MemorySystem::new(cfg);
        let stride = 32 * 1024u64;
        let mut now = 0u64;
        for _ in 0..80 {
            for i in 0..3u64 {
                let a = mref(0x40 + i * stride);
                sys.advance(Cycle::new(now));
                sys.access(&a, false, Cycle::new(now));
                now += 900;
            }
        }
        let t = sys.timeliness();
        let total: u64 = (0..2).map(|c| t.total(c == 1)).sum();
        assert!(total > 0, "timeliness outcomes must be recorded");
    }

    #[test]
    fn software_prefetch_counts_as_access() {
        // The hierarchy itself doesn't distinguish; this documents that the
        // core passes software prefetches through as normal references.
        let mut sys = base_system();
        sys.access(&mref(0x40), false, Cycle::new(0));
        assert_eq!(sys.stats().l1_accesses, 1);
    }

    #[test]
    fn finish_flushes_generations() {
        let mut sys = base_system();
        sys.access(&mref(0x40), false, Cycle::new(0));
        sys.access(&mref(0x80), false, Cycle::new(10));
        assert_eq!(sys.metrics().generations(), 0);
        sys.finish(Cycle::new(1000));
        assert_eq!(sys.metrics().generations(), 2);
    }

    /// A timekeeping-prefetch run through the OOO core allocates nothing
    /// per global tick, and its trace ring neither appears when tracing
    /// is off nor grows when it is on.
    #[test]
    fn core_run_keeps_tick_scratch_and_trace_ring_fixed() {
        use crate::core::OooCore;
        use crate::obs::TraceCategories;
        use crate::trace::{Instr, Workload};

        /// Loads cycling over a 64 KB footprint: twice the L1, so every
        /// lap misses and the correlation table learns the successors.
        struct Cyclic(u64);
        impl Workload for Cyclic {
            fn next_instr(&mut self) -> Instr {
                self.0 = (self.0 + 32) % (64 * 1024);
                Instr::Load(mref(0x10_0000 + self.0))
            }
            fn name(&self) -> &str {
                "cyclic"
            }
        }

        let cfg =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        for traced in [false, true] {
            let mut mem = MemorySystem::new(cfg);
            if traced {
                mem.install_trace(TraceCategories::all(), 1);
            }
            let scratch = mem.tick_scratch_capacity();
            let ring = mem.obs_trace_capacity();
            assert!(scratch > 0, "tick scratch is pre-sized");
            assert_eq!(ring > 0, traced, "a ring exists only when traced");
            let stats = OooCore::new(&cfg).run(&mut Cyclic(0), &mut mem, 60_000);
            assert_eq!(stats.instructions, 60_000);
            assert!(
                mem.stats().pf_issued > 0,
                "the tick path must fire prefetches"
            );
            assert_eq!(mem.tick_scratch_capacity(), scratch, "traced={traced}");
            assert_eq!(mem.obs_trace_capacity(), ring, "traced={traced}");
        }
    }

    #[test]
    fn trace_observer_is_invisible_to_the_simulation() {
        use crate::obs::{TraceCategories, TraceKind};
        // Identical access sequences with and without the sixth
        // observer must produce bit-identical stats.
        let mut plain = base_system();
        let mut traced = base_system();
        traced.install_trace(TraceCategories::all(), 1);
        assert!(traced.obs_trace_capacity() > 0);
        assert_eq!(plain.obs_trace_capacity(), 0, "disabled path holds no ring");
        for i in 0..200u64 {
            let a = mref((i % 32) * 0x40 + (i / 32) * 32 * 1024);
            let at = Cycle::new(i * 10);
            assert_eq!(
                plain.access(&a, false, at),
                traced.access(&a, false, at),
                "traced access {i} diverged"
            );
        }
        plain.finish(Cycle::new(10_000));
        traced.finish(Cycle::new(10_000));
        assert_eq!(plain.stats(), traced.stats());
        let recs = traced.trace_records().expect("memory sink installed");
        assert!(!recs.is_empty());
        // Every demand access produced a Lookup; hits + misses = accesses.
        let count = |k: TraceKind| recs.iter().filter(|r| r.kind == k).count() as u64;
        assert_eq!(count(TraceKind::Lookup), 200);
        assert_eq!(count(TraceKind::Hit) + count(TraceKind::Miss), 200);
        assert_eq!(count(TraceKind::Fill), count(TraceKind::GenOpen));
        assert!(plain.trace_records().is_none());
    }

    #[test]
    fn profiler_sees_the_access_and_advance_stages() {
        let mut sys = base_system();
        sys.install_profiler();
        for i in 0..50u64 {
            sys.advance(Cycle::new(i * 100));
            sys.access(&mref(i * 0x40), false, Cycle::new(i * 100));
        }
        sys.finish(Cycle::new(100_000));
        let rep = sys.profile_report().expect("profiler installed");
        let calls = |name: &str| {
            rep.stages
                .iter()
                .find(|s| s.name == name)
                .map(|s| s.calls)
                .unwrap_or(0)
        };
        assert_eq!(calls("access"), 50);
        assert_eq!(calls("obs_lookup"), 50);
        assert_eq!(calls("advance"), 50);
        assert_eq!(calls("finish"), 1);
        assert!(rep.hops.total() > 0, "forward jumps recorded as hops");
        assert!(rep.events >= 100, "lookups + hits/misses/fills dispatched");
    }

    #[test]
    fn mshr_merge_shares_completion() {
        let mut sys = base_system();
        let out1 = sys.access(&mref(0x40), false, Cycle::new(0));
        // A second miss to the same line from a different word, issued
        // before data returns — merged, same ready time. (It hits in L1
        // because the tag was allocated at miss time.)
        let out2 = sys.access(&mref(0x40), false, Cycle::new(2));
        assert_eq!(out1.ready_at, out2.ready_at);
    }

    #[test]
    fn prefetching_works_with_associative_l1() {
        // §5.2.1: "we use per set miss trace history but we still perform
        // all timekeeping and accounting on a per frame basis." The same
        // machinery must run (and help) on a 2-way L1.
        let mut cfg =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        cfg.machine.l1d = timekeeping::CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        let mut sys = MemorySystem::new(cfg);
        // A cyclic sweep of 4 lines aliasing one 2-way set.
        let stride = 16 * 1024u64; // 2-way 32 KB: sets repeat every 16 KB
        let mut now = 0u64;
        for _ in 0..60 {
            for i in 0..4u64 {
                sys.advance(Cycle::new(now));
                sys.access(&mref(0x40 + i * stride), false, Cycle::new(now));
                now += 2000;
            }
        }
        assert!(
            sys.stats().pf_issued > 0,
            "prefetches must issue on 2-way L1"
        );
        assert!(sys.stats().pf_fills > 0, "prefetches must fill on 2-way L1");
    }

    #[test]
    fn slack_mode_defers_non_urgent_prefetches() {
        // Two systems differ only in slack scheduling; both must still
        // complete prefetches, and slack mode must never issue MORE than
        // the eager policy.
        let run = |slack: bool| {
            let mut cfg = SystemConfig::with_prefetch(PrefetchMode::Timekeeping(
                CorrelationConfig::PAPER_8KB,
            ));
            cfg.slack_prefetch = slack;
            let mut sys = MemorySystem::new(cfg);
            let stride = 32 * 1024u64;
            let mut now = 0u64;
            for _ in 0..60 {
                for i in 0..3u64 {
                    sys.advance(Cycle::new(now));
                    sys.access(&mref(0x40 + i * stride), false, Cycle::new(now));
                    now += 2000;
                }
            }
            sys.stats()
        };
        let eager = run(false);
        let slack = run(true);
        assert!(slack.pf_issued > 0, "slack mode must still prefetch");
        assert!(
            slack.pf_issued <= eager.pf_issued,
            "slack mode must not issue more: {} vs {}",
            slack.pf_issued,
            eager.pf_issued
        );
    }

    #[test]
    fn l2_monitor_tracks_conflict_misses() {
        // A conflict ping-pong between two aliasing lines, slow enough that
        // MSHRs expire: §4.1's L2-side monitor, which calls an L2 access
        // interval under 16K cycles a conflict, must flag the short
        // re-access intervals as conflicts with high accuracy.
        use crate::obs::miss_kind_code;
        use timekeeping::MissKind;
        let mut sys = miss_traced_system();
        let a = mref(0x40);
        let b = mref(0x40 + 32 * 1024);
        let mut now = 0u64;
        for _ in 0..200 {
            sys.access(&a, false, Cycle::new(now));
            sys.access(&b, false, Cycle::new(now + 600));
            now += 1200;
        }
        let mut score = timekeeping::AccuracyCoverage::new();
        for (gap, kind) in repeat_miss_gaps(&mut sys) {
            if kind != miss_kind_code(MissKind::Cold) {
                score.record(gap < 16_384, kind == miss_kind_code(MissKind::Conflict));
            }
        }
        assert!(score.observed() > 100, "monitor must score misses");
        assert!(
            score.accuracy().unwrap() > 0.9,
            "short L2 intervals must flag conflicts: {}",
            score.accuracy().unwrap()
        );
    }

    #[test]
    fn dirty_evictions_write_back() {
        let mut sys = base_system();
        // Store to a line, then evict it with the conflicting address.
        sys.access(&mref(0x40), true, Cycle::new(0));
        sys.access(&mref(0x40 + 32 * 1024), false, Cycle::new(200));
        assert_eq!(sys.stats().l1_writebacks, 1);
        // The line is still L2-resident, so no memory write-back.
        assert_eq!(sys.stats().l2_writebacks, 0);
        // A clean eviction writes nothing back.
        sys.access(&mref(0x40), false, Cycle::new(400));
        assert_eq!(sys.stats().l1_writebacks, 1);
    }

    #[test]
    fn store_miss_allocates_dirty() {
        let mut sys = base_system();
        sys.access(&mref(0x40), true, Cycle::new(0)); // store miss: allocate dirty
        sys.access(&mref(0x40 + 32 * 1024), false, Cycle::new(200));
        assert_eq!(
            sys.stats().l1_writebacks,
            1,
            "write-allocated line must be dirty"
        );
    }

    #[test]
    fn read_only_traffic_never_writes_back() {
        let mut sys = base_system();
        let mut now = Cycle::new(0);
        for i in 0..4096u64 {
            sys.access(&mref(0x40 + i * 32), false, now);
            now += 5;
        }
        assert_eq!(sys.stats().l1_writebacks, 0);
        assert_eq!(sys.stats().l2_writebacks, 0);
    }

    #[test]
    fn l2_access_interval_equals_l1_reload_interval() {
        // The paper's §3 identity, demonstrated mechanically: sweep a
        // footprint that thrashes the L1 so lines reload repeatedly.
        let mut sys = miss_traced_system();
        let mut now = Cycle::new(0);
        for _ in 0..6 {
            for i in 0..4096u64 {
                sys.advance(now);
                sys.access(&mref(0x40 + i * 32), false, now);
                now += 3;
            }
        }
        sys.finish(now);
        let mut l2 = timekeeping::Histogram::paper_x1000();
        for (gap, _) in repeat_miss_gaps(&mut sys) {
            l2.record(gap);
        }
        let reload = &sys.metrics().reload;
        assert!(l2.total() > 0);
        assert_eq!(
            l2.total(),
            reload.total(),
            "one reload per repeat L2 access"
        );
        assert_eq!(l2.mean(), reload.mean());
    }

    #[test]
    fn decay_turns_idle_lines_off() {
        let mut sys = MemorySystem::new(SystemConfig::with_decay(10_000));
        sys.access(&mref(0x40), false, Cycle::new(0));
        // Within the decay interval: a normal 1-cycle hit.
        let warm = sys.access(&mref(0x44), false, Cycle::new(5_000));
        assert!(warm.l1_hit);
        // Long idle: the line decayed; the access refetches from L2.
        let cold = sys.access(&mref(0x48), false, Cycle::new(100_000));
        assert!(!cold.l1_hit, "decayed line must refetch");
        assert_eq!(sys.stats().decay_misses, 1);
        // Off time spans from decay point (5000 + 10000) to the access.
        assert_eq!(sys.stats().decay_off_cycles, 100_000 - 15_000);
        // After the refetch the line is live again.
        let rewarm = sys.access(&mref(0x40), false, Cycle::new(100_010));
        assert!(rewarm.l1_hit);
    }

    #[test]
    fn decay_interval_trades_leakage_for_misses() {
        let run = |interval: Option<u64>| {
            let cfg = match interval {
                Some(i) => SystemConfig::with_decay(i),
                None => SystemConfig::base(),
            };
            let mut sys = MemorySystem::new(cfg);
            let mut now = 0u64;
            // A slow periodic scan: lines idle ~8K cycles between touches.
            for rep in 0..40 {
                for i in 0..16u64 {
                    sys.access(&mref(0x40 + i * 32), false, Cycle::new(now + i));
                }
                now += 8_000;
                let _ = rep;
            }
            sys.finish(Cycle::new(now));
            sys.stats()
        };
        let aggressive = run(Some(2_000));
        let conservative = run(Some(32_768));
        assert!(
            aggressive.decay_misses > conservative.decay_misses,
            "shorter interval must induce more misses"
        );
        assert!(
            aggressive.decay_off_cycles > conservative.decay_off_cycles,
            "shorter interval must save more leakage"
        );
        assert_eq!(run(None).decay_misses, 0);
    }

    #[test]
    fn adaptive_victim_filter_runs() {
        let mut sys = MemorySystem::new(SystemConfig::with_victim(VictimMode::AdaptiveDeadTime));
        let a = mref(0x40);
        let b = mref(0x40 + 32 * 1024);
        sys.access(&a, false, Cycle::new(0));
        sys.access(&b, false, Cycle::new(200));
        let out = sys.access(&a, false, Cycle::new(400));
        assert!(out.vc_hit, "fresh conflict victim must be buffered");
    }

    #[test]
    fn addr_predictions_scored() {
        let cfg =
            SystemConfig::with_prefetch(PrefetchMode::Timekeeping(CorrelationConfig::PAPER_8KB));
        let mut sys = MemorySystem::new(cfg);
        let stride = 32 * 1024u64;
        let mut now = Cycle::new(0);
        for _ in 0..50 {
            for i in 0..4u64 {
                sys.advance(now);
                sys.access(&mref(0x40 + i * stride), false, now);
                now += 100;
            }
        }
        let s = sys.stats();
        assert!(s.addr_predictions > 0);
        assert!(
            s.addr_accuracy().unwrap() > 0.5,
            "cyclic pattern must predict well"
        );
    }
}
