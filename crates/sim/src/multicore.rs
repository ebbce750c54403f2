//! Multi-core MESI-coherent hierarchy: N timing cores with private L1s
//! and victim caches over a shared inclusive L2.
//!
//! This module generalizes the single-core machine of
//! [`crate::hierarchy`] to `--cores=N` (see [`SystemConfig::cores`]).
//! Each core carries the pipeline's observer plane
//! ([`crate::pipeline`]'s `Observers`, built by the same constructor as
//! [`MemorySystem::new`](crate::MemorySystem::new)) — generation
//! tracking, metric distributions, the predictors, the optional victim
//! cache and its admission filter — plus its own ground-truth miss
//! classification, while a snooping MESI protocol arbitrated by a
//! [`SnoopBus`] keeps the private L1s coherent:
//!
//! * **BusRd** (read miss): data comes from the owning core's modified
//!   copy (a cache-to-cache transfer that also flushes the dirty data to
//!   the L2), from the shared L2, or from memory. Remaining M/E copies
//!   degrade to S.
//! * **BusRdX** (write miss) and **upgrade** (write hit on a shared
//!   copy): every other copy — L1 *and* victim cache — is invalidated.
//! * **Inclusion**: an L2 eviction back-invalidates both L1-sized halves
//!   of the departing L2 block in every core.
//!
//! The timekeeping consequence is a second way for a generation to die:
//! [`EvictCause::Invalidate`] (coherence or inclusion kill) versus
//! [`EvictCause::Demand`] (replacement). [`CoherenceStats`] splits
//! live/dead time along that axis, which is what the `mesi_compare`
//! report plots.
//!
//! Events: an access emits the pipeline's `LookupEvent`, `HitEvent`,
//! `MissEvent`, `EvictEvent` and `FillEvent` through its core's plane, in
//! the single-core order, and reads the closed generation, the admission
//! decision and the address-prediction score back from `Reactions`. A
//! coherence kill is an `InvalidateEvent`: the generation and metrics
//! observers close and record the generation, and the victim observer
//! ignores it, so an invalidated generation is never offered to the
//! admission filter. A victim-cache swap close is offered only where
//! `VictimUnit::offers_swap_close` holds — at one core, not here.
//!
//! Tracing and checking both go through the plane. Each core's plane
//! carries its own trace (`--trace`), so every run writes one trace per
//! core: the reference, hit, miss, fill and generation records of that
//! core's accesses, the `SnoopEvent`s and `C2cEvent`s it requested, and
//! the `InvalidateEvent`s that killed its copies. With
//! [`MultiCoreSystem::enable_lockstep_check`], each core's oracle tap
//! records its accesses exactly as the single-core
//! [`MemorySystem`](crate::MemorySystem)'s does — level serviced, L1 and
//! L2 victims, generation boundary, admission bit — plus the cores its
//! store invalidated, and the one [`LockstepChecker`] of
//! [`crate::oracle`] verifies them against a timing-free mirror of all
//! N cores.
//!
//! Determinism and clock hopping: one [`OooCore`] per core runs under
//! the same driver as the single-core machine (`OooCore::run_cores`),
//! which services cores in (cycle, core-index) order, so the global
//! bus-transaction order is a pure function of the workload. This
//! module is that driver's `CoreMemory`: it schedules no background
//! events (multi-core runs reject issuing prefetchers and decay at
//! `build()`, and predict-only ticks are synchronized lazily at access
//! time), so `advance` is a no-op, `next_event` is `None`, and the clock
//! hop is provably equivalent to per-cycle stepping — the
//! `step_equivalence` suite checks bit-identity over multiprogrammed
//! mixes.
//!
//! Predictors: each core's plane holds the predictor observer built from
//! `cfg.prefetch`, so every predictor family trains and is scored in
//! predict-only mode; the prefetches it asks for are dropped.

use timekeeping::{
    Addr, Cycle, EvictCause, FullyAssocShadow, GenerationRecord, GlobalTicker, LineAddr, LineMap,
    LineSet, MetricsCollector, MissBreakdown, Pc, PrefetchRequest, WeightedSum,
};

use crate::bus::{Bus, SnoopBus};
use crate::cache::{ProbeResult, SetAssocCache};
use crate::config::SystemConfig;
use crate::core::{CoreMemory, CoreStats, OooCore};
use crate::dram::MemBackend;
use crate::hierarchy::HierarchyStats;
use crate::oracle::{LockstepChecker, SimLevel};
use crate::pipeline::{
    C2cEvent, CoherenceKind, EvictEvent, FillEvent, HitEvent, InvalidateEvent, LookupEvent,
    MissEvent, Observers, PrefetcherImpl, Reactions, SnoopEvent, TapEvent, VictimUnit,
};
use crate::system::RunResult;
use crate::trace::{MemRef, Workload};

// ------------------------------------------------------------------- MESI

/// Per-frame MESI coherence state of a private L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// No valid copy (the frame is empty or was invalidated).
    Invalid,
    /// A clean copy that other caches may also hold.
    Shared,
    /// The only cached copy, still clean — a store upgrades it to
    /// [`Mesi::Modified`] silently (no bus transaction).
    Exclusive,
    /// The only cached copy, dirty; supplied cache-to-cache on a remote
    /// miss.
    Modified,
}

// ------------------------------------------------------- coherence stats

/// Aggregate coherence-plane counters of a multi-core run.
///
/// The generation-death split (`evict_*` vs `inval_*`) is the module's
/// reason to exist: it separates replacement-death timekeeping (the
/// single-core paper's subject) from invalidation-death, where another
/// core's write ends a generation the local replacement policy never
/// chose to end. Flush-closed generations at end of run are counted in
/// neither bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// BusRd transactions granted (read misses).
    pub bus_reads: u64,
    /// BusRdX transactions granted (write misses).
    pub bus_read_exclusives: u64,
    /// Upgrade transactions granted (write hits on shared copies).
    pub bus_upgrades: u64,
    /// Misses supplied cache-to-cache from a modified remote copy.
    pub c2c_transfers: u64,
    /// L1/VC copies killed by BusRdX or upgrade transactions.
    pub coherence_invalidations: u64,
    /// L1/VC copies recalled by inclusive-L2 evictions.
    pub inclusion_invalidations: u64,
    /// Of all invalidations, the copies that lived in a victim cache.
    pub vc_invalidations: u64,
    /// Misses to lines this core previously lost to an invalidation —
    /// the coherence analogue of a conflict miss.
    pub inval_refetches: u64,
    /// Generations ended by replacement (demand eviction).
    pub evict_deaths: u64,
    /// Total live time of replacement-ended generations.
    pub evict_live_time: u64,
    /// Total dead time of replacement-ended generations.
    pub evict_dead_time: u64,
    /// Generations ended by invalidation.
    pub inval_deaths: u64,
    /// Total live time of invalidation-ended generations.
    pub inval_live_time: u64,
    /// Total dead time of invalidation-ended generations.
    pub inval_dead_time: u64,
}

impl CoherenceStats {
    /// All bus transactions granted.
    pub fn transactions(&self) -> u64 {
        self.bus_reads + self.bus_read_exclusives + self.bus_upgrades
    }

    /// Fraction of generation deaths caused by invalidation.
    pub fn invalidation_death_fraction(&self) -> Option<f64> {
        let total = self.evict_deaths + self.inval_deaths;
        (total > 0).then(|| self.inval_deaths as f64 / total as f64)
    }

    /// Mean dead time of replacement-ended generations.
    pub fn mean_evict_dead_time(&self) -> Option<f64> {
        (self.evict_deaths > 0).then(|| self.evict_dead_time as f64 / self.evict_deaths as f64)
    }

    /// Mean dead time of invalidation-ended generations.
    pub fn mean_inval_dead_time(&self) -> Option<f64> {
        (self.inval_deaths > 0).then(|| self.inval_dead_time as f64 / self.inval_deaths as f64)
    }

    /// Mean live time of invalidation-ended generations.
    pub fn mean_inval_live_time(&self) -> Option<f64> {
        (self.inval_deaths > 0).then(|| self.inval_live_time as f64 / self.inval_deaths as f64)
    }

    /// Records a closed generation's death in the split.
    fn record_death(&mut self, rec: Option<&GenerationRecord>) {
        let Some(rec) = rec else { return };
        match rec.cause {
            EvictCause::Demand => {
                self.evict_deaths += 1;
                self.evict_live_time += rec.live_time;
                self.evict_dead_time += rec.dead_time;
            }
            EvictCause::Invalidate => {
                self.inval_deaths += 1;
                self.inval_live_time += rec.live_time;
                self.inval_dead_time += rec.dead_time;
            }
            _ => {}
        }
    }
}

timekeeping::counter_block!(CoherenceStats {
    bus_read_exclusives,
    bus_reads,
    bus_upgrades,
    c2c_transfers,
    coherence_invalidations,
    evict_dead_time,
    evict_deaths,
    evict_live_time,
    inclusion_invalidations,
    inval_dead_time,
    inval_deaths,
    inval_live_time,
    inval_refetches,
    vc_invalidations
});

// ---------------------------------------------------------- per-core plane

/// One core's private slice of the hierarchy: L1 tags, MESI states, the
/// classification shadow, and the pipeline's observer plane (generation
/// tracking, metrics, predict-only predictors, the victim cache and its
/// admission filter) — the same [`Observers`] the single-core
/// [`MemorySystem`](crate::MemorySystem) carries.
#[derive(Debug)]
struct CorePlane {
    l1: SetAssocCache,
    /// MESI state per L1 frame (parallel to the tag array).
    mesi: Vec<Mesi>,
    shadow: FullyAssocShadow,
    obs: Observers,
    /// Cycle up to which global ticks have been applied to the
    /// timekeeping predictor.
    last_sync: Cycle,
    /// Reusable buffer for tick-fired requests (discarded: predict-only).
    tick_scratch: Vec<PrefetchRequest>,
    /// In-flight demand fills: line → data-ready cycle. Tags allocate at
    /// miss time (as in the single-core model), so a subsequent access
    /// to an in-flight line hits in the tag array; this map supplies the
    /// true data-ready time for that hit-under-miss case.
    pending: LineMap<u64>,
    /// Lines this core lost to an invalidation and has not refetched yet.
    inval_lost: LineSet,
    stats: HierarchyStats,
}

impl CorePlane {
    fn new(cfg: &SystemConfig, ticker: GlobalTicker) -> Self {
        let m = &cfg.machine;
        let num_frames = m.l1d.num_frames() as usize;
        CorePlane {
            l1: SetAssocCache::new(m.l1d),
            mesi: vec![Mesi::Invalid; num_frames],
            shadow: FullyAssocShadow::new(num_frames),
            obs: Observers::new(cfg, ticker),
            last_sync: Cycle::ZERO,
            tick_scratch: Vec::new(),
            pending: LineMap::default(),
            inval_lost: LineSet::default(),
            stats: HierarchyStats::default(),
        }
    }

    /// Applies every global tick boundary crossed since the last access
    /// to the predict-only prefetcher (fired requests are discarded).
    /// Lazy, cycle-count-based synchronization keeps hop and per-cycle
    /// stepping bit-identical.
    fn sync_ticks(&mut self, now: Cycle, ticker: &GlobalTicker) {
        if let PrefetcherImpl::Tk(pred) = &mut self.obs.predictors.prefetcher {
            let n = ticker.ticks_between(self.last_sync, now);
            for _ in 0..n {
                self.tick_scratch.clear();
                pred.tick_into(&mut self.tick_scratch);
            }
            self.tick_scratch.clear();
            self.last_sync = now;
        }
    }

    /// Emits the demand Fill event of `line` entering `frame` (displacing
    /// `evicted`) and counts the address prediction it scores. The
    /// prefetches it asks for are dropped: multi-core runs are
    /// predict-only.
    fn fill_event(
        &mut self,
        frame: usize,
        line: LineAddr,
        pc: Pc,
        evicted: Option<LineAddr>,
        now: Cycle,
    ) {
        let geom = *self.l1.geometry();
        let ev = FillEvent {
            line,
            frame,
            set: geom.index_of_line(line),
            tag: geom.tag_of_line(line),
            pc: Some(pc),
            demand: true,
            evicted,
            now,
        };
        let mut rx = Reactions::default();
        self.obs.fill(&ev, &mut rx);
        self.stats.score_addr(rx.addr_scored);
    }

    /// Kills this core's copy of `line` (L1 frame or victim-cache entry)
    /// and counts the kill in `coh`: as an inclusion recall when
    /// `inclusion`, else as a coherence invalidation. The kill goes
    /// through the plane as an [`InvalidateEvent`], which closes an L1
    /// copy's generation with [`EvictCause::Invalidate`] and traces the
    /// kill. Returns whether the killed copy was modified (the caller
    /// drains its data), or `None` if the core holds no copy.
    fn kill_copy(
        &mut self,
        coh: &mut CoherenceStats,
        owner: usize,
        line: LineAddr,
        addr: Addr,
        at: Cycle,
        inclusion: bool,
    ) -> Option<bool> {
        let frame = self.l1.peek(addr);
        let was_modified = frame.is_some_and(|f| self.mesi[f] == Mesi::Modified);
        if let Some(f) = frame {
            self.l1.invalidate(f);
            self.mesi[f] = Mesi::Invalid;
        } else if !self
            .obs
            .victim
            .unit
            .as_mut()
            .is_some_and(|v| v.cache.invalidate(line))
        {
            return None;
        }
        self.inval_lost.insert(line.get());
        let ev = InvalidateEvent {
            line,
            owner: owner as u32,
            frame,
            at,
        };
        let mut rx = Reactions::default();
        self.obs.invalidate(&ev, &mut rx);
        if inclusion {
            coh.inclusion_invalidations += 1;
        } else {
            coh.coherence_invalidations += 1;
        }
        coh.vc_invalidations += u64::from(frame.is_none());
        self.stats.l1_writebacks += u64::from(was_modified);
        coh.record_death(rx.generation.as_ref());
        Some(was_modified)
    }
}

// ---------------------------------------------------------------- system

/// The N-core MESI-coherent memory system.
///
/// Build with [`MultiCoreSystem::new`] from a validated multi-core
/// [`SystemConfig`], then drive it with one [`OooCore`] per core through
/// `OooCore::run_cores`; [`run_multicore`] does both, and
/// [`crate::run_workload`] routes there when `cfg.cores > 1`.
#[derive(Debug)]
pub struct MultiCoreSystem {
    cfg: SystemConfig,
    ticker: GlobalTicker,
    cores: Vec<CorePlane>,
    l2: SetAssocCache,
    snoop_bus: SnoopBus,
    l2mem_bus: Bus,
    backend: Box<dyn MemBackend>,
    coh: CoherenceStats,
    checker: Option<Box<LockstepChecker>>,
}

impl MultiCoreSystem {
    /// Builds the coherent hierarchy described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores < 2` — single-core configurations run the
    /// original bit-exact hierarchy in [`crate::hierarchy`].
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            cfg.cores >= 2,
            "MultiCoreSystem requires cores >= 2 (cores=1 runs the single-core hierarchy)"
        );
        let m = cfg.machine;
        let ticker = GlobalTicker::new(m.tick_period);
        let cores = (0..cfg.cores)
            .map(|_| CorePlane::new(&cfg, ticker))
            .collect();
        MultiCoreSystem {
            ticker,
            cfg,
            cores,
            l2: SetAssocCache::new(m.l2),
            // The snoop bus doubles as the L1↔L2 data path, so coherence
            // transactions occupy it for one block transfer each.
            snoop_bus: SnoopBus::new(m.l1l2_bus_occupancy),
            l2mem_bus: Bus::new(m.l2mem_bus_occupancy),
            backend: crate::dram::build_backend(&cfg),
            coh: CoherenceStats::default(),
            checker: None,
        }
    }

    /// Installs the functional-oracle lockstep checker (see
    /// [`crate::oracle`]), the same one
    /// [`MemorySystem::enable_lockstep_check`](crate::MemorySystem::enable_lockstep_check)
    /// installs: every access is replayed into the timing-free reference
    /// model of all cores, and any divergence panics with a diagnostic
    /// report. Every multi-core configuration is checkable: the one mode
    /// the oracle declines, the cold-miss-only L1, has no multi-core
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if the system has already performed accesses.
    pub fn enable_lockstep_check(&mut self) {
        assert!(
            self.cores.iter().all(|c| c.stats.l1_accesses == 0),
            "lockstep checker must be installed before any access"
        );
        self.checker = Some(Box::new(LockstepChecker::new(&self.cfg)));
    }

    /// Whether the lockstep checker is installed.
    pub fn lockstep_check_active(&self) -> bool {
        self.checker.is_some()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Coherence-plane counters.
    pub fn coherence(&self) -> &CoherenceStats {
        &self.coh
    }

    /// One core's hierarchy counters.
    pub fn core_stats(&self, core: usize) -> HierarchyStats {
        self.cores[core].stats
    }

    /// Hierarchy counters summed over all cores.
    pub fn stats(&self) -> HierarchyStats {
        let mut sum = HierarchyStats::default();
        for c in &self.cores {
            sum.add_weighted(&c.stats, 1);
        }
        sum
    }

    /// Grants `core` a bus transaction of `kind` for `line` at or after
    /// `now`, counts it, and emits its [`SnoopEvent`] through the
    /// requester's plane. Returns the grant cycle.
    fn transact(&mut self, core: usize, line: LineAddr, kind: CoherenceKind, now: Cycle) -> Cycle {
        let at = match kind {
            CoherenceKind::BusRd => {
                self.coh.bus_reads += 1;
                self.snoop_bus.grant_read(now)
            }
            CoherenceKind::BusRdX => {
                self.coh.bus_read_exclusives += 1;
                self.snoop_bus.grant_read_exclusive(now)
            }
            CoherenceKind::Upgrade => {
                self.coh.bus_upgrades += 1;
                self.snoop_bus.grant_upgrade(now)
            }
        };
        let ev = SnoopEvent {
            line,
            requester: core as u32,
            kind,
            at,
        };
        self.cores[core].obs.snoop(&ev, &mut Reactions::default());
        at
    }

    /// A store by `core` to a line other cores hold: the upgrade
    /// transaction kills every other copy.
    fn upgrade(&mut self, core: usize, line: LineAddr, addr: Addr, now: Cycle) {
        let grant = self.transact(core, line, CoherenceKind::Upgrade, now);
        self.invalidate_others(core, line, addr, grant);
    }

    /// The core (and its L1 frame) holding a modified copy of `addr`,
    /// excluding `except`. At most one M copy can exist.
    fn m_owner(&self, except: usize, addr: Addr) -> Option<(usize, usize)> {
        for (i, p) in self.cores.iter().enumerate() {
            if i == except {
                continue;
            }
            if let Some(f) = p.l1.peek(addr) {
                if p.mesi[f] == Mesi::Modified {
                    return Some((i, f));
                }
            }
        }
        None
    }

    /// Whether any other core holds a copy of `line` (L1 or victim
    /// cache). Sharer discovery scans the actual structures — there is
    /// no directory to go stale.
    fn other_copy_exists(&self, except: usize, addr: Addr, line: LineAddr) -> bool {
        self.cores.iter().enumerate().any(|(i, p)| {
            i != except
                && (p.l1.peek(addr).is_some()
                    || p.obs
                        .victim
                        .unit
                        .as_ref()
                        .is_some_and(|v| v.cache.contains(line)))
        })
    }

    /// Flushes a modified remote copy's data into the shared L2 (the L2
    /// holds the line by inclusion; marking it dirty stands in for the
    /// data movement in this tags-only model).
    fn flush_to_l2(&mut self, addr: Addr) {
        if let Some(f2) = self.l2.peek(addr) {
            self.l2.mark_dirty(f2);
        }
    }

    /// Invalidates every other core's copy of `line`, recording the
    /// killed cores in the requester's oracle tap.
    fn invalidate_others(&mut self, except: usize, line: LineAddr, addr: Addr, at: Cycle) {
        for c in (0..self.cores.len()).filter(|&c| c != except) {
            let Some(was_modified) =
                self.cores[c].kill_copy(&mut self.coh, c, line, addr, at, false)
            else {
                continue;
            };
            if was_modified {
                // The dying modified copy's data drains to the L2.
                self.flush_to_l2(addr);
            }
            self.cores[except].obs.oracle.evt.invalidated |= 1 << c;
        }
    }

    /// Recalls both L1-sized halves of an evicted L2 line from every
    /// core: the shared L2 is inclusive over L1 ∪ victim cache (the rule
    /// the lockstep oracle reads from `oracle::l2_is_inclusive`).
    fn back_invalidate(&mut self, l2_line: LineAddr, at: Cycle) {
        let l1_geom = self.cfg.machine.l1d;
        let l2_geom = self.cfg.machine.l2;
        let base = l2_geom.addr_of_line(l2_line);
        for off in (0..l2_geom.block_bytes() as u64).step_by(l1_geom.block_bytes() as usize) {
            let half_addr = base.offset(off);
            let half = l1_geom.line_of(half_addr);
            for c in 0..self.cores.len() {
                let killed = self.cores[c].kill_copy(&mut self.coh, c, half, half_addr, at, true);
                if killed == Some(true) {
                    // The L2 copy is leaving too: the recalled dirty data
                    // goes straight to memory.
                    self.backend.write(half_addr, at);
                }
            }
        }
    }

    /// One demand access by `core` at `now`. Returns the cycle at which
    /// the data is available to the core.
    ///
    /// The access emits the pipeline's events through the core's
    /// observer plane — Lookup, then Hit, or Miss followed by the Evict
    /// of the displaced line and the Fill — in the single-core order,
    /// plus the coherence events: Snoop and C2c through the requester's
    /// plane, Invalidate through the plane of the core that loses its
    /// copy. With checking on, the core's oracle tap records the access
    /// and the lockstep checker verifies it.
    pub fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        let m = self.cfg.machine;
        let geom = m.l1d;
        let addr = mref.addr;
        let line = geom.line_of(addr);

        let plane = &mut self.cores[core];
        if self.checker.is_some() {
            plane.obs.oracle.evt = TapEvent::default();
        }
        plane.sync_ticks(now, &self.ticker);
        plane.stats.l1_accesses += 1;
        if let Some(t) = plane.obs.trace.as_deref_mut() {
            t.ref_event(now, line, mref.pc.get(), is_store);
        }
        let lookup = LookupEvent {
            addr,
            pc: mref.pc,
            now,
        };
        plane.obs.lookup(&lookup, &mut Reactions::default());

        let probe = plane.l1.probe(addr);
        let (ready, vc_hit) = match probe {
            ProbeResult::Hit(frame) => {
                plane.stats.l1_hits += 1;
                plane.shadow.on_access(line);
                let hit = HitEvent {
                    line,
                    frame,
                    pc: mref.pc,
                    now,
                };
                plane.obs.hit(&hit, &mut Reactions::default());
                // Hit-under-miss: the tag allocated at miss time, but the
                // data may still be in flight.
                let data_ready = plane
                    .pending
                    .get(&line.get())
                    .copied()
                    .filter(|&r| r > now.get());
                if data_ready.is_none() {
                    plane.pending.remove(&line.get());
                }
                if is_store {
                    match self.cores[core].mesi[frame] {
                        Mesi::Modified => {}
                        Mesi::Exclusive => self.cores[core].mesi[frame] = Mesi::Modified,
                        Mesi::Shared | Mesi::Invalid => {
                            // Write hit on a shared copy: upgrade.
                            self.upgrade(core, line, addr, now);
                            self.cores[core].mesi[frame] = Mesi::Modified;
                        }
                    }
                    self.cores[core].l1.mark_dirty(frame);
                }
                let base = now + m.l1_hit_latency;
                (data_ready.map_or(base, |r| Cycle::new(r).max(base)), false)
            }
            ProbeResult::Miss {
                victim_frame,
                evicted,
            } => {
                let kind = plane.shadow.classify_miss(line);
                let miss = MissEvent {
                    line,
                    addr,
                    kind,
                    now,
                };
                plane.obs.miss(&miss, &mut Reactions::default());
                if plane.inval_lost.remove(&line.get()) {
                    self.coh.inval_refetches += 1;
                }

                // Victim-cache swap path: the buffered block returns to
                // the L1 and the displaced resident enters the buffer
                // unconditionally.
                let vc_hit = self.cores[core]
                    .obs
                    .victim
                    .unit
                    .as_mut()
                    .is_some_and(|v| v.cache.take(line));
                if vc_hit {
                    self.cores[core].stats.vc_hits += 1;
                    if let Some(displaced) = evicted {
                        let disp_addr = geom.addr_of_line(displaced);
                        let dirty = self.cores[core].l1.frame_dirty(victim_frame);
                        let offer = VictimUnit::offers_swap_close(&self.cfg);
                        let ev = EvictEvent::new(
                            &geom,
                            victim_frame,
                            displaced,
                            now,
                            EvictCause::Demand,
                            None,
                            offer,
                        );
                        let mut rx = Reactions::default();
                        self.cores[core].obs.evict(&ev, &mut rx);
                        self.coh.record_death(rx.generation.as_ref());
                        if dirty {
                            // The buffer holds clean data only: drain the
                            // dirty copy to the L2 before it enters.
                            self.cores[core].stats.l1_writebacks += 1;
                            self.flush_to_l2(disp_addr);
                        }
                        let v = self.cores[core].obs.victim.unit.as_mut().expect("vc hit");
                        v.cache.insert(displaced);
                        v.swap_fills += 1;
                    }
                    self.cores[core].l1.fill_frame(victim_frame, addr);
                    let others = self.other_copy_exists(core, addr, line);
                    let state = if is_store {
                        if others {
                            self.upgrade(core, line, addr, now);
                        }
                        Mesi::Modified
                    } else if others {
                        Mesi::Shared
                    } else {
                        Mesi::Exclusive
                    };
                    self.cores[core].mesi[victim_frame] = state;
                    if is_store {
                        self.cores[core].l1.mark_dirty(victim_frame);
                    }
                    self.cores[core].fill_event(victim_frame, line, mref.pc, evicted, now);
                    (now + m.l1_hit_latency + 1, true)
                } else {
                    // Full miss: a bus transaction services it.
                    self.cores[core].stats.l2_accesses += 1;

                    // Close and clear the victim frame first, so inclusion
                    // recalls during the transaction cannot race with it.
                    if let Some(victim_line) = evicted {
                        let victim_addr = geom.addr_of_line(victim_line);
                        let dirty = self.cores[core].l1.frame_dirty(victim_frame);
                        self.cores[core].l1.invalidate(victim_frame);
                        self.cores[core].mesi[victim_frame] = Mesi::Invalid;
                        let ev = EvictEvent::new(
                            &geom,
                            victim_frame,
                            victim_line,
                            now,
                            EvictCause::Demand,
                            Some(geom.tag_of(addr)),
                            true,
                        );
                        let mut rx = Reactions::default();
                        self.cores[core].obs.evict(&ev, &mut rx);
                        self.coh.record_death(rx.generation.as_ref());
                        if dirty {
                            self.cores[core].stats.l1_writebacks += 1;
                            self.flush_to_l2(victim_addr);
                        }
                    }

                    let tx_kind = if is_store {
                        CoherenceKind::BusRdX
                    } else {
                        CoherenceKind::BusRd
                    };
                    let grant = self.transact(core, line, tx_kind, now);

                    let m_owner = self.m_owner(core, addr);
                    let others = self.other_copy_exists(core, addr, line);
                    let l2_probe = self.l2.probe(addr);

                    let data_ready = if let Some((owner, owner_frame)) = m_owner {
                        // Cache-to-cache supply from the modified copy;
                        // the flush also refreshes the L2's data.
                        self.snoop_bus.note_c2c();
                        self.coh.c2c_transfers += 1;
                        let c2c = C2cEvent {
                            line,
                            from: owner as u32,
                            to: core as u32,
                            at: grant,
                        };
                        let requester = &mut self.cores[core].obs;
                        requester.c2c(&c2c, &mut Reactions::default());
                        requester.service(SimLevel::CacheToCache);
                        if let ProbeResult::Hit(f2) = l2_probe {
                            self.l2.mark_dirty(f2);
                        }
                        if !is_store {
                            // BusRd: the owner keeps a now-clean copy.
                            // The flush cleaned it (a Shared line must
                            // not write back again on eviction), but a
                            // snoop is not a use by the owner, so its
                            // LRU position stays put.
                            self.cores[owner].stats.l1_writebacks += 1;
                            self.cores[owner].mesi[owner_frame] = Mesi::Shared;
                            self.cores[owner].l1.clean_frame(owner_frame);
                        }
                        grant + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy
                    } else if let ProbeResult::Hit(_) = l2_probe {
                        self.cores[core].stats.l2_hits += 1;
                        self.cores[core].obs.service(SimLevel::L2);
                        grant + m.l2_latency + m.l1l2_bus_occupancy
                    } else {
                        // True L2 miss (no cached copy anywhere, by
                        // inclusion): fetch from memory and fill the L2.
                        debug_assert!(!others, "inclusion: sharers imply an L2 copy");
                        self.cores[core].stats.mem_accesses += 1;
                        self.cores[core].obs.service(SimLevel::Mem);
                        let reply = self.backend.issue(addr, grant + m.l2_latency);
                        let xfer = self.l2mem_bus.schedule(reply.done);
                        let l2_at = xfer + m.l2mem_bus_occupancy;
                        let (l2_victim_frame, l2_evicted) = self.l2.peek_victim(addr);
                        if let Some(l2_line) = l2_evicted {
                            if self.l2.frame_dirty(l2_victim_frame) {
                                self.cores[core].stats.l2_writebacks += 1;
                                let wb_addr = m.l2.addr_of_line(l2_line);
                                self.backend.write(wb_addr, grant);
                                self.l2mem_bus.schedule(grant);
                            }
                            self.back_invalidate(l2_line, grant);
                        }
                        self.l2.fill(addr);
                        self.cores[core].obs.oracle.evt.l2_evicted = l2_evicted;
                        l2_at + m.l1l2_bus_occupancy
                    };

                    // Remote-state adjustment for the remaining copies.
                    if is_store {
                        if others {
                            self.invalidate_others(core, line, addr, grant);
                        }
                    } else {
                        // BusRd: surviving Exclusive copies degrade to
                        // Shared (the Modified owner was handled above).
                        for c in 0..self.cores.len() {
                            if c == core {
                                continue;
                            }
                            if let Some(f) = self.cores[c].l1.peek(addr) {
                                if self.cores[c].mesi[f] == Mesi::Exclusive {
                                    self.cores[c].mesi[f] = Mesi::Shared;
                                }
                            }
                        }
                    }

                    // Install the tag now (as the single-core model does);
                    // the data-ready time covers the in-flight window.
                    self.cores[core].l1.fill_frame(victim_frame, addr);
                    let state = if is_store {
                        self.cores[core].l1.mark_dirty(victim_frame);
                        Mesi::Modified
                    } else if self.other_copy_exists(core, addr, line) {
                        Mesi::Shared
                    } else {
                        Mesi::Exclusive
                    };
                    self.cores[core].mesi[victim_frame] = state;
                    self.cores[core].fill_event(victim_frame, line, mref.pc, evicted, now);
                    if data_ready > now {
                        self.cores[core]
                            .pending
                            .insert(line.get(), data_ready.get());
                    }
                    (data_ready, false)
                }
            }
        };

        if let Some(checker) = self.checker.as_deref_mut() {
            let plane = &self.cores[core];
            let l1_hit = matches!(probe, ProbeResult::Hit(_));
            let obs = plane
                .obs
                .oracle
                .evt
                .observation(core, addr, is_store, l1_hit, vc_hit);
            let vc_lines = plane.obs.victim.unit.as_ref().map(|v| v.cache.lines());
            checker.check_demand(&plane.l1, vc_lines.as_deref(), &obs);
        }
        ready
    }

    /// Closes every open generation and finalizes observers (each core's
    /// trace sink is flushed). Idempotent.
    pub fn finish(&mut self, now: Cycle) {
        for p in &mut self.cores {
            p.obs.flush(now);
            if let Some(t) = p.obs.trace.as_deref_mut() {
                t.finish();
            }
        }
    }

    /// Consumes the system into a [`RunResult`]: hierarchy counters,
    /// victim and correlation statistics summed over cores, metric
    /// distributions merged, plus the coherence plane.
    pub fn into_result(mut self, workload: &str, core: CoreStats) -> RunResult {
        self.finish(Cycle::new(core.cycles));
        let mut breakdown = MissBreakdown::default();
        let mut metrics = MetricsCollector::new();
        let mut victim = None;
        let mut victim_swap_fills = None;
        let mut correlation = None;
        let mut dbcp = None;
        for p in &self.cores {
            breakdown.add_weighted(&p.shadow.breakdown(), 1);
            metrics.merge(&p.obs.metrics.collector);
            let unit = p.obs.victim.unit.as_ref();
            victim.add_weighted(&unit.map(|v| v.cache.stats()), 1);
            victim_swap_fills.add_weighted(&unit.map(|v| v.swap_fills), 1);
            correlation.add_weighted(&p.obs.predictors.correlation_stats(), 1);
            dbcp.add_weighted(&p.obs.predictors.dbcp_stats(), 1);
        }
        RunResult {
            workload: workload.to_owned(),
            core,
            hierarchy: self.stats(),
            breakdown,
            metrics,
            victim,
            victim_swap_fills,
            timeliness: timekeeping::TimelinessStats::new(),
            correlation,
            dbcp,
            pf_queue_discards: 0,
            dram: self.backend.snapshot(),
            sampled: None,
            coherence: Some(self.coh),
        }
    }
}

/// The coherent hierarchy as the core driver's memory system. It has no
/// self-scheduled events: there is nothing to advance and no event to
/// wake for.
impl CoreMemory for MultiCoreSystem {
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle {
        MultiCoreSystem::access(self, core, mref, is_store, now)
    }

    fn advance(&mut self, _now: Cycle) {}

    fn next_event(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    fn finish(&mut self, now: Cycle) {
        MultiCoreSystem::finish(self, now);
    }
}

/// Runs `instructions` instructions of each of `streams` on its own
/// [`OooCore`] against `sys` (stream `i` on core `i`) and returns the
/// core statistics summed over cores, with `cycles` the last core's
/// finishing cycle.
///
/// # Panics
///
/// Panics if `streams.len() != cfg.cores`.
fn run_streams(
    sys: &mut MultiCoreSystem,
    streams: &mut [Box<dyn Workload>],
    instructions: u64,
) -> CoreStats {
    assert_eq!(
        streams.len(),
        sys.cores.len(),
        "one instruction stream per core"
    );
    let mut cores: Vec<OooCore> = streams.iter().map(|_| OooCore::new(&sys.cfg)).collect();
    OooCore::run_cores(&mut cores, sys, instructions, |c| streams[c].next_instr());
    let mut agg = CoreStats::default();
    for c in &cores {
        agg.add_weighted(&c.stats(), 1);
    }
    agg.cycles = cores.iter().map(|c| c.stats().cycles).max().unwrap_or(0);
    agg
}

/// Runs `instructions` instructions per core of `workload`'s per-core
/// streams under a multi-core configuration. [`crate::run_workload`]
/// routes here when `cfg.cores > 1`; `checked` installs the lockstep
/// checker ([`MultiCoreSystem::enable_lockstep_check`]).
///
/// Statistical sampling is ignored at `cores > 1` (the result carries no
/// `sampled` tag, the same fallback signal single-core unsupported
/// configurations use).
///
/// # Panics
///
/// Panics if the workload cannot be split into per-core streams (see
/// [`Workload::per_core_streams`]), or on checker divergence.
pub fn run_multicore<W: Workload + ?Sized>(
    workload: &mut W,
    cfg: SystemConfig,
    instructions: u64,
    checked: bool,
) -> RunResult {
    let mut streams = workload.per_core_streams(cfg.cores).unwrap_or_else(|| {
        panic!(
            "workload '{}' cannot be split into {} per-core streams (no fork)",
            workload.name(),
            cfg.cores
        )
    });
    assert_eq!(
        streams.len(),
        cfg.cores as usize,
        "per_core_streams must yield exactly cfg.cores streams"
    );
    let mut sys = MultiCoreSystem::new(cfg);
    if checked {
        sys.enable_lockstep_check();
    }
    let core = run_streams(&mut sys, &mut streams, instructions);
    sys.into_result(workload.name(), core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchMode, SystemConfig, VictimMode};
    use crate::trace::Instr;
    use timekeeping::snapshot::Snapshot;
    use timekeeping::{Addr, CacheGeometry, Pc};

    /// Per-core strided load stream over a private region.
    #[derive(Clone)]
    struct Private {
        next: u64,
        base: u64,
    }
    impl Workload for Private {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            Instr::Load(MemRef::new(
                Addr::new(self.base + (self.next % 512) * 32),
                Pc::new(4),
            ))
        }
        fn name(&self) -> &str {
            "private"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    /// Loads and stores ping-ponging over a small shared region: heavy
    /// coherence traffic when run on every core.
    #[derive(Clone)]
    struct SharedMix {
        next: u64,
        salt: u64,
    }
    impl Workload for SharedMix {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            let addr = Addr::new(((self.next * 7 + self.salt) % 64) * 32);
            if (self.next + self.salt).is_multiple_of(3) {
                Instr::Store(MemRef::new(addr, Pc::new(8)))
            } else {
                Instr::Load(MemRef::new(addr, Pc::new(4)))
            }
        }
        fn name(&self) -> &str {
            "shared-mix"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    fn streams_of(n: u32, mk: impl Fn(u64) -> Box<dyn Workload>) -> Vec<Box<dyn Workload>> {
        (0..n as u64).map(mk).collect()
    }

    fn dual() -> SystemConfig {
        SystemConfig::builder().cores(2).build().unwrap()
    }

    #[test]
    fn private_streams_have_no_coherence_traffic() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.enable_lockstep_check();
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        let agg = run_streams(&mut sys, &mut s, 5_000);
        assert_eq!(agg.instructions, 10_000);
        let coh = *sys.coherence();
        assert_eq!(coh.coherence_invalidations, 0);
        assert_eq!(coh.c2c_transfers, 0);
        assert_eq!(coh.bus_upgrades, 0);
        assert!(coh.bus_reads > 0);
    }

    #[test]
    fn store_sharing_invalidates_and_transfers() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.enable_lockstep_check();
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        let agg = run_streams(&mut sys, &mut s, 20_000);
        assert_eq!(agg.instructions, 40_000);
        let coh = *sys.coherence();
        assert!(coh.bus_read_exclusives > 0, "{coh:?}");
        assert!(coh.coherence_invalidations > 0, "{coh:?}");
        assert!(coh.c2c_transfers > 0, "{coh:?}");
        assert!(coh.inval_deaths > 0, "{coh:?}");
        assert!(coh.inval_refetches > 0, "{coh:?}");
        assert!(coh.invalidation_death_fraction().unwrap() > 0.0);
    }

    #[test]
    fn upgrades_fire_on_shared_write_hits() {
        // Both cores load the line (S everywhere), then one stores it.
        let mut sys = MultiCoreSystem::new(dual());
        sys.enable_lockstep_check();
        let a = MemRef::new(Addr::new(0x40), Pc::new(4));
        sys.access(0, &a, false, Cycle::new(0));
        sys.access(1, &a, false, Cycle::new(200));
        let coh_before = *sys.coherence();
        assert_eq!(coh_before.bus_upgrades, 0);
        sys.access(0, &a, true, Cycle::new(400));
        let coh = *sys.coherence();
        assert_eq!(coh.bus_upgrades, 1);
        assert_eq!(coh.coherence_invalidations, 1);
        assert_eq!(coh.inval_deaths, 1);
    }

    #[test]
    fn modified_remote_copy_supplies_cache_to_cache() {
        let mut sys = MultiCoreSystem::new(dual());
        sys.enable_lockstep_check();
        let a = MemRef::new(Addr::new(0x80), Pc::new(4));
        // Core 0 writes (M), core 1 then reads: c2c, and both end Shared.
        sys.access(0, &a, true, Cycle::new(0));
        let ready = sys.access(1, &a, false, Cycle::new(500));
        let coh = *sys.coherence();
        assert_eq!(coh.c2c_transfers, 1);
        // c2c latency beats an L2 round-trip.
        let m = SystemConfig::base().machine;
        assert_eq!(
            ready,
            Cycle::new(500) + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy
        );
        // A later write by core 1 needs an upgrade (both copies Shared).
        sys.access(1, &a, true, Cycle::new(1_000));
        assert_eq!(sys.coherence().bus_upgrades, 1);
    }

    #[test]
    fn c2c_owner_lru_matches_checker_with_assoc_l1() {
        // A 2-way L1 regression: a cache-to-cache transfer must leave
        // the *owner's* LRU stack as it is (a snoop is not a use), or the
        // owner later evicts the wrong way and diverges from the lockstep
        // oracle's mirror.
        let mut machine = crate::config::MachineConfig::paper_default();
        machine.l1d = timekeeping::CacheGeometry::new(32 * 1024, 2, 32).unwrap();
        let cfg = SystemConfig::builder()
            .machine(machine)
            .cores(2)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.enable_lockstep_check();

        let a = MemRef::new(Addr::new(0), Pc::new(4)); // set 0
        let x = MemRef::new(Addr::new(16 * 1024), Pc::new(4)); // same set, other way
        let y = MemRef::new(Addr::new(32 * 1024), Pc::new(4)); // same set, third line

        // Core 1: store A (M, MRU), then load X (X MRU, A LRU).
        sys.access(1, &a, true, Cycle::new(0));
        sys.access(1, &x, false, Cycle::new(200));
        // Core 0: load A -> c2c from core 1.
        sys.access(0, &a, false, Cycle::new(400));
        assert_eq!(sys.coherence().c2c_transfers, 1);
        // Core 1: load Y -> set full, must evict its LRU way; the
        // checker panics here if the model and mirror disagree on which
        // way that is.
        sys.access(1, &y, false, Cycle::new(600));
        assert_eq!(sys.coherence().c2c_transfers, 1);
    }

    #[test]
    fn hop_matches_per_cycle_stepping() {
        let run = |step: bool| {
            let cfg = {
                let b = SystemConfig::builder().cores(2);
                let b = if step { b.step_every_cycle() } else { b };
                b.build().unwrap()
            };
            let mut sys = MultiCoreSystem::new(cfg);
            let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
            let agg = run_streams(&mut sys, &mut s, 8_000);
            (agg, sys.stats(), *sys.coherence())
        };
        assert_eq!(run(false), run(true));
    }

    /// Three shared lines that conflict in the direct-mapped L1, plus an
    /// occasional store: misses swap through the victim cache, and remote
    /// stores invalidate buffered copies.
    #[derive(Clone)]
    struct ConflictShare {
        next: u64,
        salt: u64,
    }
    impl Workload for ConflictShare {
        fn next_instr(&mut self) -> Instr {
            self.next += 1;
            let addr = Addr::new(((self.next + self.salt) % 3) * 32 * 1024);
            if self.next.is_multiple_of(7) {
                Instr::Store(MemRef::new(addr, Pc::new(8)))
            } else {
                Instr::Load(MemRef::new(addr, Pc::new(4)))
            }
        }
        fn name(&self) -> &str {
            "conflict-share"
        }
        fn fork(&self) -> Option<Box<dyn Workload>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn victim_cache_participates_in_coherence() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .victim(VictimMode::Unfiltered)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.enable_lockstep_check();
        let mut s = streams_of(2, |i| Box::new(ConflictShare { next: 0, salt: i }));
        run_streams(&mut sys, &mut s, 20_000);
        let stats = sys.stats();
        let coh = *sys.coherence();
        assert!(stats.vc_hits > 0, "{stats:?}");
        assert!(coh.vc_invalidations > 0, "{coh:?}");
        // Over the whole run, only replacement closes on the full-miss
        // path reach the admission filter: each evict death is either
        // offered or a swap close, and invalidation closes (of which
        // there are some) are never offered.
        let (mut offered, mut swap_fills) = (0, 0);
        for p in &sys.cores {
            let v = p.obs.victim.unit.as_ref().expect("victim configured");
            offered += v.cache.stats().offered;
            swap_fills += v.swap_fills;
        }
        assert!(coh.inval_deaths > 0, "{coh:?}");
        assert_eq!(offered + swap_fills, coh.evict_deaths, "{coh:?}");
    }

    /// Each core at two cores writes its own trace. Summed over the
    /// cores, there is one snoop record per bus transaction, one c2c
    /// record per cache-to-cache transfer and one invalidate record per
    /// killed copy; each core's trace holds one reference record per
    /// access and one miss record per miss of that core; and tracing
    /// changes no count.
    #[test]
    fn coherence_trace_matches_the_coherence_counters() {
        use crate::obs::{TraceCategories, TraceCategory, TraceKind, TraceObserver};
        type Streams = fn() -> Vec<Box<dyn Workload>>;
        let cases: [(VictimMode, Streams); 2] = [
            (VictimMode::None, || {
                streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }))
            }),
            (VictimMode::Unfiltered, || {
                streams_of(2, |i| Box::new(ConflictShare { next: 0, salt: i }))
            }),
        ];
        for (victim, streams) in cases {
            let cfg = SystemConfig::builder()
                .cores(2)
                .victim(victim)
                .build()
                .unwrap();
            let run = |traced: bool| {
                let mut sys = MultiCoreSystem::new(cfg);
                if traced {
                    for p in &mut sys.cores {
                        let cats = TraceCategories::all().with(TraceCategory::Ref);
                        let t = TraceObserver::memory(cats, 1, cfg.machine.l1d);
                        p.obs.trace = Some(Box::new(t));
                    }
                }
                run_streams(&mut sys, &mut streams(), 20_000);
                let counts: Vec<_> = sys
                    .cores
                    .iter_mut()
                    .filter_map(|p| {
                        let recs = p.obs.trace.as_deref_mut()?.records();
                        let count = |k| recs.iter().filter(|r| r.kind == k).count() as u64;
                        Some(
                            [
                                TraceKind::Snoop,
                                TraceKind::C2c,
                                TraceKind::Invalidate,
                                TraceKind::Access,
                                TraceKind::Miss,
                            ]
                            .map(count),
                        )
                    })
                    .collect();
                (sys.stats(), *sys.coherence(), counts, sys)
            };
            let (stats, coh, untraced, _) = run(false);
            let (traced_stats, traced_coh, counts, sys) = run(true);
            assert!(untraced.is_empty());
            assert_eq!(stats, traced_stats, "{victim:?}");
            assert_eq!(coh, traced_coh, "{victim:?}");
            assert_eq!(counts.len(), 2, "one trace per core");
            let total = |k: usize| counts.iter().map(|c| c[k]).sum::<u64>();
            let [snoops, c2c, invalidates] = [0, 1, 2].map(total);
            assert!(
                snoops > 0 && c2c > 0 && invalidates > 0,
                "{victim:?}: {coh:?}"
            );
            assert_eq!(snoops, coh.transactions(), "{victim:?}");
            assert_eq!(c2c, coh.c2c_transfers, "{victim:?}");
            assert_eq!(
                invalidates,
                coh.coherence_invalidations + coh.inclusion_invalidations,
                "{victim:?}"
            );
            for (c, [_, _, _, refs, misses]) in counts.into_iter().enumerate() {
                let core = sys.core_stats(c);
                assert_eq!(refs, core.l1_accesses, "{victim:?} core {c}");
                assert_eq!(misses, core.l1_misses(), "{victim:?} core {c}");
                assert!(misses > 0, "{victim:?} core {c}");
            }
        }
    }

    #[test]
    fn inclusion_recalls_l1_copies_on_l2_eviction() {
        // Shrink the L2 to 8 KB so the 32 KB L1 working set forces L2
        // evictions whose halves are still L1-resident.
        let mut machine = crate::config::MachineConfig::paper_default();
        machine.l2 = CacheGeometry::new(8 * 1024, 4, 64).unwrap();
        let cfg = SystemConfig::builder()
            .machine(machine)
            .cores(2)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.enable_lockstep_check();
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        run_streams(&mut sys, &mut s, 20_000);
        assert!(sys.coherence().inclusion_invalidations > 0);
    }

    #[test]
    fn run_multicore_assembles_a_result() {
        let mut w = SharedMix { next: 0, salt: 0 };
        let r = run_multicore(&mut w, dual(), 5_000, true);
        assert_eq!(r.core.instructions, 10_000);
        assert_eq!(r.workload, "shared-mix");
        let coh = r.coherence.expect("multi-core result carries coherence");
        assert!(coh.transactions() > 0);
        assert!(r.hierarchy.l1_accesses > 0);
        assert!(r.breakdown.total() > 0);
        // Round-trips through JSON with the coherence block intact.
        let json = r.to_json();
        let back = RunResult::from_json(&json).unwrap();
        assert_eq!(back.coherence, r.coherence);
    }

    #[test]
    fn predict_only_tk_scores_addresses() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .prefetch(PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ))
            .predict_only()
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        run_streams(&mut sys, &mut s, 30_000);
        let stats = sys.stats();
        assert!(stats.addr_predictions > 0, "{stats:?}");
    }

    #[test]
    fn predict_only_dbcp_trains_at_two_cores() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .prefetch(PrefetchMode::Dbcp(timekeeping::DbcpConfig::PAPER_2MB))
            .predict_only()
            .build()
            .unwrap();
        let mut w = SharedMix { next: 0, salt: 0 };
        let r = run_multicore(&mut w, cfg, 20_000, true);
        let dbcp = r.dbcp.expect("DBCP statistics reach the result");
        assert!(dbcp.lookups > 0, "{dbcp:?}");
        assert!(dbcp.updates > 0, "{dbcp:?}");
        assert_eq!(r.hierarchy.pf_issued, 0, "predict-only issues nothing");
    }

    /// The multi-core half of the swap-accounting pin (the one-core half
    /// is `pipeline::tests::swap_closes_are_offered_at_one_core`): a
    /// victim-cache swap closes the displaced generation without offering
    /// it to the admission filter.
    #[test]
    fn swap_closes_are_not_offered_at_two_cores() {
        let cfg = SystemConfig::builder()
            .cores(2)
            .victim(VictimMode::Unfiltered)
            .build()
            .unwrap();
        let mut sys = MultiCoreSystem::new(cfg);
        sys.enable_lockstep_check();
        // Three lines conflicting in one direct-mapped set, in rotation.
        let rounds = 10u64;
        for i in 0..3 * rounds {
            let a = MemRef::new(Addr::new(0x1000 + (i % 3) * 32 * 1024), Pc::new(4));
            sys.access(0, &a, false, Cycle::new(i * 200));
        }
        let v = sys.cores[0]
            .obs
            .victim
            .unit
            .as_ref()
            .expect("victim configured");
        // Three cold misses, then every access swaps through the buffer.
        assert_eq!(v.swap_fills, 3 * rounds - 3);
        assert_eq!(sys.stats().vc_hits, v.swap_fills);
        // Only the two full-miss evictions are offered.
        let stats = v.cache.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut w = SharedMix { next: 0, salt: 1 };
            run_multicore(&mut w, dual(), 6_000, false)
        };
        assert_eq!(run(), run());
    }
}
