//! Multi-core MESI coherence: the coherence stage of the one
//! [`MemorySystem`], its counters ([`CoherenceStats`]), the per-frame
//! [`Mesi`] state, and [`run_multicore`], the per-core-stream entry to
//! the machine.
//!
//! At `--cores=N` (see [`SystemConfig::cores`]) the memory system keeps
//! one private L1 per core over the shared L2, and the coherence stage
//! keeps the L1s coherent with a snooping MESI protocol. It runs at
//! N > 1 only, at every demand fill of the pipeline (DESIGN.md §2b,
//! §2g):
//!
//! * **BusRd / BusRdX**: a demand fetch's L1↔L2 bus slot is its
//!   transaction (a merge with an outstanding fetch of the same line
//!   takes a slot of its own). A remote Modified copy supplies the line
//!   cache-to-cache, refreshing the L2's copy; a BusRd then leaves the
//!   other copies Shared, a BusRdX kills every other copy, L1 *and*
//!   victim cache.
//! * **Upgrade**: a store hit on a Shared copy, or a store that swaps
//!   its line back from the victim cache while other cores hold it,
//!   claims ownership on its own bus slot and kills the other copies.
//! * **Inclusion**: the shared L2 is inclusive
//!   (`oracle::l2_is_inclusive`): before a line leaves it, both
//!   L1-sized halves are recalled from every core's L1 and victim cache.
//!
//! The timekeeping consequence is a second way for a generation to die:
//! [`EvictCause::Invalidate`] (coherence or inclusion kill) versus
//! [`EvictCause::Demand`] (replacement). [`CoherenceStats`] splits
//! live/dead time along that axis, which is what the `mesi_compare`
//! report plots. A kill is an `InvalidateEvent` through the killed
//! core's observers: the generation and metrics observers close and
//! record the generation, and the victim observer ignores it, so an
//! invalidated generation is never offered to the admission filter.

use timekeeping::{Addr, Cycle, EvictCause, GenerationRecord, LineAddr, WeightedSum};

use crate::cache::ProbeResult;
use crate::config::SystemConfig;
use crate::core::{CoreStats, OooCore};
use crate::hierarchy::MemorySystem;
use crate::oracle::SimLevel;
use crate::pipeline::{C2cEvent, CoherenceKind, InvalidateEvent, Reactions, SnoopEvent};
use crate::system::RunResult;
use crate::trace::Workload;

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
    pub(crate) fn record_death(&mut self, rec: Option<&GenerationRecord>) {
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

// -------------------------------------------------------- coherence stage

impl MemorySystem {
    /// Whether the coherence stage runs: at N > 1.
    #[inline]
    pub(crate) fn coherent(&self) -> bool {
        self.cores.len() > 1
    }

    /// The coherence stage of core `c`'s demand fill of `addr`, whose
    /// bus transaction — a BusRd for a load, a BusRdX for a store — was
    /// granted at `grant`. A remote Modified copy supplies the line
    /// cache-to-cache; then a BusRdX kills every other copy and a BusRd
    /// leaves the others Shared. Returns the data-ready cycle of a
    /// cache-to-cache supply, `None` when the L2 or memory serves.
    pub(crate) fn stage_coherence(
        &mut self,
        c: usize,
        addr: Addr,
        is_store: bool,
        grant: Cycle,
    ) -> Option<Cycle> {
        let m = self.cfg.machine;
        let line = m.l1d.line_of(addr);
        let kind = if is_store {
            CoherenceKind::BusRdX
        } else {
            CoherenceKind::BusRd
        };
        self.transact(c, line, kind, grant);
        let mut supply = None;
        if let Some((owner, frame)) = self.m_owner(c, addr) {
            self.coh.c2c_transfers += 1;
            let ev = C2cEvent {
                line,
                from: owner as u32,
                to: c as u32,
                at: grant,
            };
            let obs = &mut self.cores[c].obs;
            obs.c2c(&ev, &mut Reactions::default());
            obs.service(SimLevel::CacheToCache);
            // The owner's flush also refreshes the L2's copy, which the
            // L2 holds by inclusion.
            if let ProbeResult::Hit(f2) = self.l2.probe(addr) {
                self.l2.mark_dirty(f2);
            }
            if !is_store {
                // BusRd: the owner keeps a now-clean Shared copy. A snoop
                // is not a use by the owner, so its LRU position stays.
                let o = &mut self.cores[owner];
                o.stats.l1_writebacks += 1;
                o.mesi[frame] = Mesi::Shared;
                o.l1d.clean_frame(frame);
            }
            supply = Some(grant + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy);
        }
        if is_store {
            self.invalidate_others(c, line, addr, grant);
        } else {
            for o in (0..self.cores.len()).filter(|&o| o != c) {
                let core = &mut self.cores[o];
                if let Some(f) = core.l1d.peek(addr) {
                    if core.mesi[f] == Mesi::Exclusive {
                        core.mesi[f] = Mesi::Shared;
                    }
                }
            }
        }
        supply
    }

    /// A store hit by core `c` on its L1 `frame` holding `line`: a
    /// Modified copy needs nothing, an Exclusive one upgrades silently,
    /// and a Shared one broadcasts an upgrade.
    pub(crate) fn store_hit(
        &mut self,
        c: usize,
        frame: usize,
        line: LineAddr,
        addr: Addr,
        now: Cycle,
    ) {
        match self.cores[c].mesi[frame] {
            Mesi::Modified => return,
            Mesi::Exclusive => {}
            Mesi::Shared | Mesi::Invalid => self.upgrade(c, line, addr, now),
        }
        self.cores[c].mesi[frame] = Mesi::Modified;
    }

    /// Sets the state of the line core `c` filled on a miss: Modified for
    /// a store, Shared for a load while another core holds a copy,
    /// Exclusive otherwise. A store finding other copies — it swapped
    /// its line back from the victim cache, which takes no bus slot —
    /// broadcasts an upgrade first.
    pub(crate) fn settle_fill(
        &mut self,
        c: usize,
        line: LineAddr,
        addr: Addr,
        is_store: bool,
        now: Cycle,
    ) {
        let others = self.other_copy_exists(c, addr, line);
        let state = if is_store {
            if others {
                self.upgrade(c, line, addr, now);
            }
            Mesi::Modified
        } else if others {
            Mesi::Shared
        } else {
            Mesi::Exclusive
        };
        let frame = self.cores[c]
            .l1d
            .peek(addr)
            .expect("the miss filled the line");
        self.cores[c].mesi[frame] = state;
    }

    /// Grants core `c` an upgrade for `line` on the L1↔L2 bus at or after
    /// `now`; it kills every other copy.
    fn upgrade(&mut self, c: usize, line: LineAddr, addr: Addr, now: Cycle) {
        let grant = self.l1l2_bus.schedule(now);
        self.transact(c, line, CoherenceKind::Upgrade, grant);
        self.invalidate_others(c, line, addr, grant);
    }

    /// Counts core `c`'s transaction of `kind` for `line`, granted at
    /// `at`, and emits its [`SnoopEvent`] through the requester's plane.
    fn transact(&mut self, c: usize, line: LineAddr, kind: CoherenceKind, at: Cycle) {
        match kind {
            CoherenceKind::BusRd => self.coh.bus_reads += 1,
            CoherenceKind::BusRdX => self.coh.bus_read_exclusives += 1,
            CoherenceKind::Upgrade => self.coh.bus_upgrades += 1,
        }
        let ev = SnoopEvent {
            line,
            requester: c as u32,
            kind,
            at,
        };
        self.cores[c].obs.snoop(&ev, &mut Reactions::default());
    }

    /// The core (and its L1 frame) holding a Modified copy of `addr`,
    /// other than `except`. At most one Modified copy can exist.
    fn m_owner(&self, except: usize, addr: Addr) -> Option<(usize, usize)> {
        self.cores
            .iter()
            .enumerate()
            .filter(|&(o, _)| o != except)
            .find_map(|(o, core)| {
                let f = core.l1d.peek(addr)?;
                (core.mesi[f] == Mesi::Modified).then_some((o, f))
            })
    }

    /// Whether any core other than `except` holds a copy of `line` (L1 or
    /// victim cache). Sharer discovery scans the actual structures —
    /// there is no directory to go stale.
    fn other_copy_exists(&self, except: usize, addr: Addr, line: LineAddr) -> bool {
        self.cores.iter().enumerate().any(|(o, core)| {
            o != except
                && (core.l1d.peek(addr).is_some()
                    || core
                        .obs
                        .victim
                        .unit
                        .as_ref()
                        .is_some_and(|v| v.cache.contains(line)))
        })
    }

    /// Invalidates every other core's copy of `line`, recording the
    /// killed cores in the requester's oracle tap. A killed Modified
    /// copy's data drains to the L2.
    fn invalidate_others(&mut self, except: usize, line: LineAddr, addr: Addr, at: Cycle) {
        for o in (0..self.cores.len()).filter(|&o| o != except) {
            let Some(was_modified) = self.kill_copy(o, line, addr, at, false) else {
                continue;
            };
            if was_modified {
                if let Some(f2) = self.l2.peek(addr) {
                    self.l2.mark_dirty(f2);
                }
            }
            self.cores[except].obs.oracle.evt.invalidated |= 1 << o;
        }
    }

    /// Recalls both L1-sized halves of `l2_line`, leaving the L2 from
    /// `l2_frame`, from every core's L1 and victim cache. A recalled
    /// Modified half drains into the departing line, whose write-back
    /// carries it to memory.
    pub(crate) fn recall(&mut self, l2_line: LineAddr, l2_frame: usize, at: Cycle) {
        let (l1_geom, l2_geom) = (self.cfg.machine.l1d, self.cfg.machine.l2);
        let base = l2_geom.addr_of_line(l2_line);
        for off in (0..l2_geom.block_bytes() as u64).step_by(l1_geom.block_bytes() as usize) {
            let half_addr = base.offset(off);
            let half = l1_geom.line_of(half_addr);
            for o in 0..self.cores.len() {
                if self.kill_copy(o, half, half_addr, at, true) == Some(true) {
                    self.l2.mark_dirty(l2_frame);
                }
            }
        }
    }

    /// Kills core `o`'s copy of `line` (L1 frame or victim-cache entry)
    /// and counts the kill: as an inclusion recall when `inclusion`, else
    /// as a coherence invalidation. The kill goes through the core's
    /// plane as an [`InvalidateEvent`], which closes an L1 copy's
    /// generation with [`EvictCause::Invalidate`] and traces the kill.
    /// Returns whether the killed copy was Modified, or `None` if the
    /// core holds no copy.
    fn kill_copy(
        &mut self,
        o: usize,
        line: LineAddr,
        addr: Addr,
        at: Cycle,
        inclusion: bool,
    ) -> Option<bool> {
        let core = &mut self.cores[o];
        let frame = core.l1d.peek(addr);
        let was_modified = frame.is_some_and(|f| core.mesi[f] == Mesi::Modified);
        if let Some(f) = frame {
            core.l1d.invalidate(f);
            core.mesi[f] = Mesi::Invalid;
        } else if !core
            .obs
            .victim
            .unit
            .as_mut()
            .is_some_and(|v| v.cache.invalidate(line))
        {
            return None;
        }
        core.inval_lost.insert(line.get());
        let ev = InvalidateEvent {
            line,
            owner: o as u32,
            frame,
            at,
        };
        let mut rx = Reactions::default();
        core.obs.invalidate(&ev, &mut rx);
        core.stats.l1_writebacks += u64::from(was_modified);
        let coh = &mut self.coh;
        if inclusion {
            coh.inclusion_invalidations += 1;
        } else {
            coh.coherence_invalidations += 1;
        }
        coh.vc_invalidations += u64::from(frame.is_none());
        coh.record_death(rx.generation.as_ref());
        Some(was_modified)
    }
}

/// Runs `instructions` instructions per core of `workload`'s per-core
/// streams on one [`OooCore`] each (stream `i` on core `i`) against one
/// [`MemorySystem`] of `cfg.cores` cores. [`crate::run_workload`] routes
/// here when `cfg.cores > 1`; `checked` installs the lockstep checker
/// ([`MemorySystem::enable_lockstep_check`]). The result sums the core
/// statistics over cores, with `cycles` the last core's finishing cycle.
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
    let mut mem = MemorySystem::new(cfg);
    if checked {
        mem.enable_lockstep_check();
    }
    let mut cores: Vec<OooCore> = streams.iter().map(|_| OooCore::new(&cfg)).collect();
    OooCore::run_cores(&mut cores, &mut mem, instructions, |c| {
        streams[c].next_instr()
    });
    let mut agg = CoreStats::default();
    for c in &cores {
        agg.add_weighted(&c.stats(), 1);
    }
    agg.cycles = cores.iter().map(|c| c.stats().cycles).max().unwrap_or(0);
    mem.take_result(workload.name(), agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PrefetchMode, SystemConfig, VictimMode};
    use crate::trace::{Instr, MemRef};
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

    /// Runs `n` instructions of stream `i` on core `i` of `sys` and
    /// returns the core statistics summed over cores.
    fn drive(sys: &mut MemorySystem, streams: &mut [Box<dyn Workload>], n: u64) -> CoreStats {
        let cfg = *sys.config();
        let mut cores: Vec<OooCore> = streams.iter().map(|_| OooCore::new(&cfg)).collect();
        OooCore::run_cores(&mut cores, sys, n, |c| streams[c].next_instr());
        let mut agg = CoreStats::default();
        for c in &cores {
            agg.add_weighted(&c.stats(), 1);
        }
        agg
    }

    /// A checked machine of `cfg`.
    fn checked(cfg: SystemConfig) -> MemorySystem {
        let mut sys = MemorySystem::new(cfg);
        assert!(sys.enable_lockstep_check());
        sys
    }

    fn dual() -> SystemConfig {
        SystemConfig::builder().cores(2).build().unwrap()
    }

    #[test]
    fn private_streams_have_no_coherence_traffic() {
        let mut sys = checked(dual());
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        let agg = drive(&mut sys, &mut s, 5_000);
        assert_eq!(agg.instructions, 10_000);
        let coh = *sys.coherence();
        assert_eq!(coh.coherence_invalidations, 0);
        assert_eq!(coh.c2c_transfers, 0);
        assert_eq!(coh.bus_upgrades, 0);
        assert!(coh.bus_reads > 0);
    }

    #[test]
    fn store_sharing_invalidates_and_transfers() {
        let mut sys = checked(dual());
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        let agg = drive(&mut sys, &mut s, 20_000);
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
        let mut sys = checked(dual());
        let a = MemRef::new(Addr::new(0x40), Pc::new(4));
        sys.access_by(0, &a, false, Cycle::new(0));
        sys.access_by(1, &a, false, Cycle::new(200));
        let coh_before = *sys.coherence();
        assert_eq!(coh_before.bus_upgrades, 0);
        sys.access_by(0, &a, true, Cycle::new(400));
        let coh = *sys.coherence();
        assert_eq!(coh.bus_upgrades, 1);
        assert_eq!(coh.coherence_invalidations, 1);
        assert_eq!(coh.inval_deaths, 1);
    }

    #[test]
    fn modified_remote_copy_supplies_cache_to_cache() {
        let mut sys = checked(dual());
        let a = MemRef::new(Addr::new(0x80), Pc::new(4));
        // Core 0 writes (M), core 1 then reads: c2c, and both end Shared.
        sys.access_by(0, &a, true, Cycle::new(0));
        let ready = sys.access_by(1, &a, false, Cycle::new(500)).ready_at;
        let coh = *sys.coherence();
        assert_eq!(coh.c2c_transfers, 1);
        // c2c latency beats an L2 round-trip.
        let m = SystemConfig::base().machine;
        assert_eq!(
            ready,
            Cycle::new(500) + m.l1_hit_latency + 2 * m.l1l2_bus_occupancy
        );
        // A later write by core 1 needs an upgrade (both copies Shared).
        sys.access_by(1, &a, true, Cycle::new(1_000));
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
        let mut sys = checked(cfg);

        let a = MemRef::new(Addr::new(0), Pc::new(4)); // set 0
        let x = MemRef::new(Addr::new(16 * 1024), Pc::new(4)); // same set, other way
        let y = MemRef::new(Addr::new(32 * 1024), Pc::new(4)); // same set, third line

        // Core 1: store A (M, MRU), then load X (X MRU, A LRU).
        sys.access_by(1, &a, true, Cycle::new(0));
        sys.access_by(1, &x, false, Cycle::new(200));
        // Core 0: load A -> c2c from core 1.
        sys.access_by(0, &a, false, Cycle::new(400));
        assert_eq!(sys.coherence().c2c_transfers, 1);
        // Core 1: load Y -> set full, must evict its LRU way; the
        // checker panics here if the model and mirror disagree on which
        // way that is.
        sys.access_by(1, &y, false, Cycle::new(600));
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
            let mut sys = MemorySystem::new(cfg);
            let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
            let agg = drive(&mut sys, &mut s, 8_000);
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
        let mut sys = checked(cfg);
        let mut s = streams_of(2, |i| Box::new(ConflictShare { next: 0, salt: i }));
        drive(&mut sys, &mut s, 20_000);
        let stats = sys.stats();
        let coh = *sys.coherence();
        assert!(stats.vc_hits > 0, "{stats:?}");
        assert!(coh.vc_invalidations > 0, "{coh:?}");
        // Over the whole run, every replacement close reaches the
        // admission filter, swap closes included, and invalidation closes
        // (of which there are some) never do.
        let offered = sys.victim_stats().expect("victim configured").offered;
        assert!(sys.victim_swap_fills().unwrap() > 0, "{stats:?}");
        assert!(coh.inval_deaths > 0, "{coh:?}");
        assert_eq!(offered, coh.evict_deaths, "{coh:?}");
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
                let mut sys = MemorySystem::new(cfg);
                if traced {
                    for p in &mut sys.cores {
                        let cats = TraceCategories::all().with(TraceCategory::Ref);
                        let t = TraceObserver::memory(cats, 1, cfg.machine.l1d);
                        p.obs.trace = Some(Box::new(t));
                    }
                }
                drive(&mut sys, &mut streams(), 20_000);
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
        let mut sys = checked(cfg);
        let mut s = streams_of(2, |i| {
            Box::new(Private {
                next: 0,
                base: i * 1024 * 1024,
            })
        });
        drive(&mut sys, &mut s, 20_000);
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
        let mut sys = MemorySystem::new(cfg);
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        drive(&mut sys, &mut s, 30_000);
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

    /// A merge with an outstanding fetch still snoops. Core 0 misses X;
    /// while X is in flight, core 0 loses X to a conflict, core 1 reads
    /// X (the only copy: Exclusive), and core 0 re-misses X, merging
    /// with its own outstanding fetch. The merge's BusRd leaves both
    /// copies Shared, so core 1's later store must invalidate core 0's
    /// copy — which the lockstep checker verifies.
    #[test]
    fn mshr_merge_snoops() {
        let mut sys = checked(dual());
        let x = MemRef::new(Addr::new(0x40), Pc::new(4));
        // Same direct-mapped L1 set as X, one L1 size away.
        let y = MemRef::new(Addr::new(0x40 + 32 * 1024), Pc::new(4));
        let state = |sys: &MemorySystem, c: usize| {
            let core = &sys.cores[c];
            core.l1d.peek(x.addr).map(|f| core.mesi[f])
        };
        let first = sys.access_by(0, &x, false, Cycle::new(0));
        sys.access_by(0, &y, false, Cycle::new(1));
        assert_eq!(state(&sys, 0), None, "core 0 lost X to the conflict");
        sys.access_by(1, &x, false, Cycle::new(2));
        assert_eq!(state(&sys, 1), Some(Mesi::Exclusive));
        let merged = sys.access_by(0, &x, false, Cycle::new(3));
        assert!(!merged.l1_hit && !merged.vc_hit);
        assert_eq!(merged.ready_at, first.ready_at, "merged with the fetch");
        assert_eq!(sys.coherence().bus_reads, 4, "the merge snooped");
        assert_eq!(
            (state(&sys, 0), state(&sys, 1)),
            (Some(Mesi::Shared), Some(Mesi::Shared))
        );
        sys.access_by(1, &x, true, Cycle::new(4));
        assert_eq!(sys.coherence().bus_upgrades, 1);
        assert_eq!(state(&sys, 0), None, "the upgrade killed core 0's copy");
    }

    /// `--profile` covers every core: the access stage counts one call
    /// per L1 access of either core.
    #[test]
    fn profiler_counts_every_cores_accesses() {
        let mut sys = MemorySystem::new(dual());
        sys.install_profiler();
        let mut s = streams_of(2, |i| Box::new(SharedMix { next: 0, salt: i }));
        drive(&mut sys, &mut s, 5_000);
        let rep = sys.profile_report().expect("profiler installed");
        let calls = rep
            .stages
            .iter()
            .find(|s| s.name == "access")
            .map_or(0, |s| s.calls);
        assert!((0..2).all(|c| sys.core_stats(c).l1_accesses > 0));
        assert_eq!(calls, sys.stats().l1_accesses);
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
