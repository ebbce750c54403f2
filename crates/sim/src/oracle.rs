//! Differential functional oracle for the memory hierarchy, at every
//! core count.
//!
//! [`FunctionalOracle`] is a deliberately naive, timing-free reference
//! model of the L1 / victim-cache / L2 hierarchy: per-set recency lists
//! for the tag arrays (true LRU, invalid-way-first) and a recency list
//! for the fully-associative victim buffer. It knows nothing about
//! MSHRs, buses, or latencies — exactly the behavioral core whose
//! decisions every figure of the paper depends on.
//!
//! One model serves every core count, with N = 1 as the degenerate
//! case. Each core has its own L1 tags, optional victim buffer and set
//! of *modified* L1 lines; one set of L2 tags is shared. Whether a
//! remote copy is modified is the only MESI fact any check reads: it is
//! what makes a miss [`SimLevel::CacheToCache`], and a load that takes
//! the line that way leaves the owner's copy clean. A store kills every
//! other core's copy (L1 and victim buffer). The inclusion rule is the
//! simulator's, given by `l2_is_inclusive`: at one core the
//! [`MemorySystem`](crate::hierarchy::MemorySystem) keeps a
//! non-inclusive L2, while at N > 1 the shared L2 recalls both L1-sized
//! halves of every line it evicts from every L1 and victim buffer.
//!
//! A miss is replayed in the simulator's stage order: the coherence
//! transaction (a cache-to-cache supply, or the L2 probe and fill with
//! its recall), then the L1 fill that evicts the missing core's victim.
//! So a recall that takes the requester's own L1 victim leaves that fill
//! with nothing to evict. A store's kills touch only other cores' copies
//! of the stored line, so where they fall in that order does not
//! matter.
//!
//! In lockstep check mode (see
//! [`MemorySystem::enable_lockstep_check`](crate::hierarchy::MemorySystem::enable_lockstep_check)
//! and [`SimSystem`](crate::system::SimSystem)), the cycle simulator
//! replays every demand access, prefetch fill, and prefetch L2 touch
//! into the oracle and asserts per-access agreement on:
//!
//! * **hit/miss classification** at the L1 and the victim cache,
//! * **level serviced** (L1, victim cache, another core's modified
//!   copy, L2, or memory),
//! * **evicted-line identity** at the L1 and, on a fill from memory, at
//!   the L2 (the true-LRU victim choice),
//! * **generation-boundary events** (a generation closes iff a valid
//!   line leaves the cache or decays),
//! * **the invalidation set** (which other cores lost their copy to a
//!   store), and
//! * **inclusion** (a cache-to-cache supply finds the line in the L2).
//!
//! On divergence the checker panics with one report, whatever the core
//! count, naming the first mismatching access: its index, core, kind,
//! address, line and set, the checks that failed, both models'
//! verdicts, and both models' set contents in LRU order.
//!
//! # What the oracle does *not* re-predict
//!
//! Two classes of events are consumed from the simulator rather than
//! re-derived, because they are functions of *time*, which the oracle
//! deliberately does not model:
//!
//! * **MSHR merges** ([`SimLevel::InFlight`]) — whether a second miss
//!   to a line finds the first still outstanding depends on latencies.
//!   The oracle still verifies the L1/VC classification and the
//!   eviction identity of such accesses, but does not touch its L2
//!   mirror (the simulator did not consult its L2 either). A merge
//!   still snoops, so one that finds a remote Modified copy is a
//!   cache-to-cache supply like any other miss.
//! * **Victim-cache admission** for timing-based filters (dead-time,
//!   reload-interval) — the admit bit is mirrored from the simulator
//!   so the buffer contents stay comparable; every *lookup* (the part
//!   with tag logic) is verified independently.

use std::fmt::Write as _;

use timekeeping::{Addr, CacheGeometry, LineAddr, LineSet};

use crate::cache::SetAssocCache;
use crate::config::{L1Mode, SystemConfig, VictimMode};

/// The hierarchy level that serviced a demand access, as observed by the
/// cycle simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimLevel {
    /// Hit in the L1 tag array.
    L1,
    /// L1 miss served by the victim cache (swap).
    Victim,
    /// L1 miss supplied by another core's modified copy (multi-core
    /// runs only).
    CacheToCache,
    /// L1 miss that hit in the L2.
    L2,
    /// L1 miss that missed the L2 and went to memory.
    Mem,
    /// L1 miss merged with an outstanding fetch (MSHR merge or demand
    /// takeover of an in-flight prefetch); no cache level was consulted.
    InFlight,
}

impl std::fmt::Display for SimLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimLevel::L1 => "L1",
            SimLevel::Victim => "victim cache",
            SimLevel::CacheToCache => "cache-to-cache",
            SimLevel::L2 => "L2",
            SimLevel::Mem => "memory",
            SimLevel::InFlight => "in-flight (MSHR merge)",
        })
    }
}

/// Everything the cycle simulator observed about one demand access, fed
/// to the oracle for comparison.
#[derive(Debug, Clone, Copy)]
pub struct SimObservation {
    /// The core that made the access (0 on a single-core machine).
    pub core: usize,
    /// The accessed address.
    pub addr: Addr,
    /// Whether the access was a store.
    pub is_store: bool,
    /// Level that serviced the access.
    pub level: SimLevel,
    /// Line evicted from the L1 by this access, if any.
    pub evicted: Option<LineAddr>,
    /// L2 line evicted by this access's fill from memory, if any.
    pub l2_evicted: Option<LineAddr>,
    /// The other cores whose copy this access's coherence transaction
    /// killed, one bit per core.
    pub invalidated: u32,
    /// Whether a generation-boundary event (tracker evict) fired.
    pub closed_generation: bool,
    /// Whether this was a decay refetch (tag resident, data switched
    /// off): the oracle expects its own L1 to *hit* while the simulator
    /// reports a refetch from below.
    pub decay_refetch: bool,
    /// The victim-filter admission decision for the evicted line, if an
    /// eviction was offered (`None` when nothing was offered).
    pub vc_admitted: Option<bool>,
}

/// A naive per-set recency-list tag array: index 0 is LRU, the back is
/// MRU. A set holds fewer than `assoc` entries while invalid ways
/// remain, which models the invalid-way-first fill rule.
#[derive(Debug, Clone)]
struct ShadowTags {
    geom: CacheGeometry,
    /// `assoc` slots per set, one contiguous row each: tags stored `+1`
    /// (0 = invalid way), occupied slots packed at the front of the row
    /// in LRU→MRU order. The sampling warmup runs [`touch`](Self::touch)
    /// on every memory reference, so a row must be one flat cache-line
    /// scan, not a heap-allocated `Vec` per set.
    slots: Vec<u64>,
    assoc: usize,
}

impl ShadowTags {
    fn new(geom: CacheGeometry) -> Self {
        let assoc = geom.assoc() as usize;
        ShadowTags {
            geom,
            slots: vec![0; geom.num_sets() as usize * assoc],
            assoc,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        self.geom.index_of_line(line) as usize
    }

    #[inline]
    fn tag1_of(&self, line: LineAddr) -> u64 {
        let t = self.geom.tag_of_line(line).wrapping_add(1);
        debug_assert!(t != 0, "tag u64::MAX is unsupported");
        t
    }

    #[inline]
    fn row(&self, set_idx: usize) -> &[u64] {
        &self.slots[set_idx * self.assoc..(set_idx + 1) * self.assoc]
    }

    /// Whether `line` is resident; moves it to MRU if so.
    #[inline]
    fn touch(&mut self, line: LineAddr) -> bool {
        let tag1 = self.tag1_of(line);
        let set_idx = self.set_of(line);
        let assoc = self.assoc;
        if assoc == 1 {
            // Direct-mapped fast path (the paper's L1): one compare, no
            // recency to maintain. The warm loop calls this for every
            // reference, so the generic runtime-`assoc` loop below is
            // worth bypassing.
            return self.slots[set_idx] == tag1;
        }
        let row = &mut self.slots[set_idx * assoc..(set_idx + 1) * assoc];
        for i in 0..assoc {
            let t = row[i];
            if t == 0 {
                return false; // packed: the first empty way ends the row
            }
            if t == tag1 {
                // Move to MRU (the last occupied slot), shifting the
                // younger entries down.
                let mut j = i;
                while j + 1 < assoc && row[j + 1] != 0 {
                    row[j] = row[j + 1];
                    j += 1;
                }
                row[j] = tag1;
                return true;
            }
        }
        false
    }

    /// Whether `line` is resident, without touching its recency.
    fn contains(&self, line: LineAddr) -> bool {
        self.row(self.set_of(line)).contains(&self.tag1_of(line))
    }

    /// Drops `line` if resident (a coherence or inclusion kill), keeping
    /// the rest of its set packed in LRU→MRU order.
    fn remove(&mut self, line: LineAddr) {
        let tag1 = self.tag1_of(line);
        let set_idx = self.set_of(line);
        let assoc = self.assoc;
        let row = &mut self.slots[set_idx * assoc..(set_idx + 1) * assoc];
        if let Some(i) = row.iter().position(|&t| t == tag1) {
            row.copy_within(i + 1.., i);
            row[assoc - 1] = 0;
        }
    }

    /// The line a fill into `line`'s set would evict (true LRU, invalid
    /// ways first), without modifying anything.
    fn peek_victim(&self, line: LineAddr) -> Option<LineAddr> {
        let set_idx = self.set_of(line);
        let row = self.row(set_idx);
        if row[self.assoc - 1] == 0 {
            None
        } else {
            Some(self.geom.line_from_parts(row[0] - 1, set_idx as u64))
        }
    }

    /// Fills `line` as MRU, returning the evicted line, if any. The
    /// line must not be resident.
    fn fill(&mut self, line: LineAddr) -> Option<LineAddr> {
        if self.assoc == 1 {
            let set_idx = self.set_of(line);
            let old = self.slots[set_idx];
            self.slots[set_idx] = self.tag1_of(line);
            return (old != 0).then(|| self.geom.line_from_parts(old - 1, set_idx as u64));
        }
        let evicted = self.peek_victim(line);
        let tag1 = self.tag1_of(line);
        let set_idx = self.set_of(line);
        let assoc = self.assoc;
        let row = &mut self.slots[set_idx * assoc..(set_idx + 1) * assoc];
        debug_assert!(!row.contains(&tag1), "fill of a resident line");
        if evicted.is_some() {
            // Row full: drop the LRU at slot 0, shift, insert at MRU.
            row.copy_within(1.., 0);
            row[assoc - 1] = tag1;
        } else {
            let free = row.iter().position(|&t| t == 0).expect("row not full");
            row[free] = tag1;
        }
        evicted
    }

    /// The set contents in LRU→MRU order, for divergence reports.
    fn set_lines(&self, set_idx: u64) -> Vec<LineAddr> {
        self.row(set_idx as usize)
            .iter()
            .take_while(|&&t| t != 0)
            .map(|&t| self.geom.line_from_parts(t - 1, set_idx))
            .collect()
    }

    /// Every resident line, set-major, LRU→MRU within each set — the
    /// order checkpoint injection replays fills in. One allocation for
    /// the whole array instead of one `Vec` per set.
    fn all_lines(&self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for set_idx in 0..self.geom.num_sets() as usize {
            for &t in self.row(set_idx).iter().take_while(|&&t| t != 0) {
                out.push(self.geom.line_from_parts(t - 1, set_idx as u64));
            }
        }
        out
    }
}

/// A naive fully-associative LRU victim buffer: index 0 is LRU.
#[derive(Debug, Clone)]
struct ShadowVictim {
    capacity: usize,
    entries: Vec<LineAddr>,
}

impl ShadowVictim {
    fn new(capacity: usize) -> Self {
        ShadowVictim {
            capacity,
            entries: Vec::new(),
        }
    }

    /// Probe-and-remove (the L1↔VC swap semantics of a hit).
    fn take(&mut self, line: LineAddr) -> bool {
        match self.entries.iter().position(|&l| l == line) {
            Some(pos) => {
                self.entries.remove(pos);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, line: LineAddr) {
        if let Some(pos) = self.entries.iter().position(|&l| l == line) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(line);
    }
}

/// Whether the L2 includes every L1 and victim-buffer copy — the rule
/// the simulator follows, as one function of the core count. At one
/// core the [`MemorySystem`](crate::hierarchy::MemorySystem) is
/// non-inclusive: an L2 eviction leaves L1 copies alone, and their
/// write-backs continue to memory. At N > 1 the shared L2 is inclusive:
/// an L2 eviction recalls both L1-sized halves of the departing line
/// from every core's L1 and victim buffer.
pub(crate) fn l2_is_inclusive(cfg: &SystemConfig) -> bool {
    cfg.cores > 1
}

/// One core's private slice of the mirror.
#[derive(Debug, Clone)]
struct ShadowCore {
    l1: ShadowTags,
    vc: Option<ShadowVictim>,
    /// L1 lines this core holds in the Modified state.
    modified: LineSet,
}

impl ShadowCore {
    /// Drops this core's copy of `line`, from the L1 or the victim
    /// buffer.
    fn kill(&mut self, line: LineAddr) {
        self.l1.remove(line);
        if let Some(vc) = self.vc.as_mut() {
            vc.take(line);
        }
        self.modified.remove(&line.get());
    }

    /// Whether this core holds a copy of `line` (L1 or victim buffer).
    fn holds(&self, line: LineAddr) -> bool {
        self.l1.contains(line)
            || self
                .vc
                .as_ref()
                .is_some_and(|vc| vc.entries.contains(&line))
    }
}

/// The oracle's own account of one demand access.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    level: SimLevel,
    evicted: Option<LineAddr>,
    l2_evicted: Option<LineAddr>,
    invalidated: u32,
    /// A cache-to-cache supply found no L2 copy of the line.
    inclusion_violated: bool,
}

/// The timing-free reference model of the L1 / victim-cache / L2
/// hierarchy of one or more cores. See the [module docs](self) for the
/// checked contract.
#[derive(Debug, Clone)]
pub struct FunctionalOracle {
    /// One private slice per core; core 0 alone on a single-core machine.
    cores: Vec<ShadowCore>,
    l2: ShadowTags,
    /// See [`l2_is_inclusive`].
    inclusive: bool,
}

impl FunctionalOracle {
    /// Builds the oracle mirroring the hierarchy that `cfg` describes.
    pub fn new(cfg: &SystemConfig) -> Self {
        let core = ShadowCore {
            l1: ShadowTags::new(cfg.machine.l1d),
            vc: (cfg.victim != VictimMode::None)
                .then(|| ShadowVictim::new(cfg.machine.victim_entries)),
            modified: LineSet::default(),
        };
        FunctionalOracle {
            cores: vec![core; cfg.cores as usize],
            l2: ShadowTags::new(cfg.machine.l2),
            inclusive: l2_is_inclusive(cfg),
        }
    }

    /// Whether `cfg` is checkable: the cold-miss-only L1 mode replaces
    /// the tag array with an infinite set and has no evictions to
    /// verify.
    pub fn supports(cfg: &SystemConfig) -> bool {
        cfg.l1_mode != L1Mode::ColdOnly
    }

    /// Replays one demand access and returns the oracle's verdict.
    /// Mutates the mirrors exactly as the simulator's decision procedure
    /// would, consuming only the timing-dependent facts (`InFlight`,
    /// decay, VC admission) from the observation.
    fn step_demand(&mut self, obs: &SimObservation) -> Verdict {
        let c = obs.core;
        let line = self.l1_geometry().line_of(obs.addr);
        let mut v = Verdict {
            level: SimLevel::L1,
            evicted: None,
            l2_evicted: None,
            invalidated: 0,
            inclusion_violated: false,
        };
        if obs.decay_refetch {
            // The tag stayed resident; only the data was switched off.
            // The simulator refetched from below without evicting. A
            // decay refetch of a non-resident line is itself a
            // divergence: the verdict keeps `L1`, the one level a
            // refetch can never report, so the comparison fails loudly.
            if self.cores[c].l1.touch(line) {
                (v.level, v.l2_evicted) = self.l2_fetch(obs.addr);
            }
            return v;
        }
        if obs.is_store {
            // A store's bus transaction (upgrade or BusRdX) kills every
            // other core's copy.
            v.invalidated = (0..self.cores.len())
                .filter(|&o| o != c && self.cores[o].holds(line))
                .fold(0, |mask, o| mask | 1 << o);
        }
        let core = &mut self.cores[c];
        if core.l1.touch(line) {
            // L1 hit.
        } else if core.vc.as_mut().is_some_and(|vc| vc.take(line)) {
            // Victim-cache hit: swap. The displaced block enters the
            // buffer unfiltered (it is an exchange, not eviction
            // traffic), and clean: its dirty data drained to the L2.
            v.level = SimLevel::Victim;
            v.evicted = core.l1.fill(line);
            if let Some(ev) = v.evicted {
                core.modified.remove(&ev.get());
                core.vc.as_mut().expect("swap").insert(ev);
            }
        } else {
            let owner = (0..self.cores.len())
                .find(|&o| o != c && self.cores[o].modified.contains(&line.get()));
            if let Some(owner) = owner {
                // The owner supplies the line, and the shared L2, which
                // holds it by inclusion, takes the flushed data.
                v.level = SimLevel::CacheToCache;
                v.inclusion_violated = !self.l2.touch(self.l2.geom.line_of(obs.addr));
                if !obs.is_store {
                    // BusRd: the owner keeps a clean, shared copy.
                    self.cores[owner].modified.remove(&line.get());
                }
            } else if obs.level == SimLevel::InFlight {
                // For in-flight merges the simulator consulted no cache
                // level; mirror the refill without touching the L2.
                v.level = SimLevel::InFlight;
            } else {
                (v.level, v.l2_evicted) = self.l2_fetch(obs.addr);
            }
            v.evicted = self.fill_l1(c, line, obs.vc_admitted);
        }
        if obs.is_store {
            for o in (0..self.cores.len()).filter(|&o| v.invalidated & 1 << o != 0) {
                self.cores[o].kill(line);
            }
            self.cores[c].modified.insert(line.get());
        }
        v
    }

    /// Fills `line` into core `c`'s L1 on a miss and mirrors the victim
    /// filter's admission decision for the displaced line (a dirty
    /// victim drains to the L2 first, so it leaves the Modified state
    /// either way). Returns the displaced line.
    fn fill_l1(&mut self, c: usize, line: LineAddr, admitted: Option<bool>) -> Option<LineAddr> {
        let core = &mut self.cores[c];
        let evicted = core.l1.fill(line);
        if let Some(ev) = evicted {
            core.modified.remove(&ev.get());
            if let (Some(true), Some(vc)) = (admitted, core.vc.as_mut()) {
                vc.insert(ev);
            }
        }
        evicted
    }

    /// Probes the L2 mirror for `addr`; fills on a miss, recalling the
    /// evicted line's L1-sized halves everywhere when the L2 is
    /// inclusive. Returns the level that serviced the fetch and the L2
    /// line the fill evicted.
    fn l2_fetch(&mut self, addr: Addr) -> (SimLevel, Option<LineAddr>) {
        let l2_line = self.l2.geom.line_of(addr);
        if self.l2.touch(l2_line) {
            return (SimLevel::L2, None);
        }
        let evicted = self.l2.fill(l2_line);
        if let (true, Some(gone)) = (self.inclusive, evicted) {
            let base = self.l2.geom.addr_of_line(gone);
            let l1_geom = *self.l1_geometry();
            for off in (0..self.l2.geom.block_bytes()).step_by(l1_geom.block_bytes() as usize) {
                let half = l1_geom.line_of(base.offset(u64::from(off)));
                for core in &mut self.cores {
                    core.kill(half);
                }
            }
        }
        (SimLevel::Mem, evicted)
    }

    // -- sampling warmup (see `crate::sample`) -------------------------

    /// One timing-free demand access, used by the statistical-sampling
    /// warmup to fast-forward cache-tag state through skipped intervals.
    /// Returns the line the L1 displaced, if the fill evicted one (the
    /// warm shadow clears its dirty bit: the writeback happens there).
    ///
    /// Walks the hierarchy exactly like [`step_demand`](Self::step_demand)
    /// but with no simulator observation to consume: there are no MSHRs
    /// (every repeat access to a resident tag is a hit, because tags
    /// allocate at miss time), no decay, and victim-cache admission
    /// admits every eviction (the timing-based filters cannot be
    /// evaluated without a clock — the sampled run clears the victim
    /// buffer at the representative boundary anyway, see
    /// `crate::sample`). Sampling runs one core, so neither stores nor
    /// other cores' copies are modelled.
    pub(crate) fn warm_access(&mut self, addr: Addr) -> Option<LineAddr> {
        let core = &mut self.cores[0];
        let line = core.l1.geom.line_of(addr);
        if core.l1.touch(line) {
            return None;
        }
        if let Some(vc) = core.vc.as_mut() {
            if vc.take(line) {
                let evicted = core.l1.fill(line);
                if let Some(ev) = evicted {
                    vc.insert(ev);
                }
                return evicted;
            }
        }
        let evicted = core.l1.fill(line);
        if let (Some(ev), Some(vc)) = (evicted, core.vc.as_mut()) {
            vc.insert(ev);
        }
        self.l2_fetch(addr);
        evicted
    }

    /// The L1 geometry this oracle mirrors.
    pub(crate) fn l1_geometry(&self) -> &CacheGeometry {
        &self.cores[0].l1.geom
    }

    /// The L2 geometry this oracle mirrors.
    pub(crate) fn l2_geometry(&self) -> &CacheGeometry {
        &self.l2.geom
    }

    /// Every resident L1 line of core 0 (set-major, LRU→MRU within each
    /// set), for checkpoint injection.
    pub(crate) fn l1_lines(&self) -> Vec<LineAddr> {
        self.cores[0].l1.all_lines()
    }

    /// Every resident L2 line (set-major, LRU→MRU within each set), for
    /// checkpoint injection.
    pub(crate) fn l2_lines(&self) -> Vec<LineAddr> {
        self.l2.all_lines()
    }

    /// Rebuilds a warm single-core oracle from exported line lists
    /// (set-major, LRU→MRU within each set, as produced by
    /// [`l1_lines`](Self::l1_lines)/[`l2_lines`](Self::l2_lines)):
    /// refilling an empty mirror in that order reproduces the exact tag
    /// state, and the victim buffer starts empty — precisely the state a
    /// representative's lockstep checker expects, since the timed
    /// machine's victim cache also starts empty. Used by the checkpoint
    /// plane, which stores line lists instead of live oracles.
    pub(crate) fn from_lines(cfg: &SystemConfig, l1: &[u64], l2: &[u64]) -> Self {
        let mut o = Self::new(cfg);
        for &l in l1 {
            let evicted = o.cores[0].l1.fill(LineAddr::new(l));
            debug_assert!(evicted.is_none(), "refill into an empty mirror");
        }
        for &l in l2 {
            let evicted = o.l2.fill(LineAddr::new(l));
            debug_assert!(evicted.is_none(), "refill into an empty mirror");
        }
        o
    }

    /// Empties the victim buffer. The sampled engine starts every
    /// representative interval with an empty victim cache (admission
    /// decisions are timing-based, so warm contents would be a guess);
    /// clearing the mirror keeps a lockstep checker cloned from the warm
    /// oracle in agreement with the freshly-built simulator.
    pub(crate) fn clear_vc(&mut self) {
        if let Some(vc) = self.cores[0].vc.as_mut() {
            vc.entries.clear();
        }
    }
}

/// Lines as a comma-separated list, for divergence reports.
fn join(lines: &[LineAddr]) -> String {
    let strs: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    strs.join(", ")
}

/// The simulator's L1 set `set` as `line@lru-stamp` entries, for
/// divergence reports.
fn sim_set(l1d: &SetAssocCache, set: u64) -> String {
    let strs: Vec<String> = l1d
        .set_lines(set)
        .into_iter()
        .map(|(l, stamp)| format!("{l}@{stamp}"))
        .collect();
    strs.join(", ")
}

/// Lockstep state: the oracle plus the access counter for reports.
#[derive(Debug)]
pub struct LockstepChecker {
    oracle: FunctionalOracle,
    accesses: u64,
}

impl LockstepChecker {
    /// Creates a checker for a fresh (empty-cache) memory system.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::from_oracle(FunctionalOracle::new(cfg))
    }

    /// Creates a checker around a pre-warmed oracle — used by the sampled
    /// engine, whose representative intervals start from injected
    /// (non-empty) cache state that the warm oracle mirrors exactly.
    pub(crate) fn from_oracle(oracle: FunctionalOracle) -> Self {
        LockstepChecker {
            oracle,
            accesses: 0,
        }
    }

    /// Checks one demand access against the oracle. `l1d` and
    /// `vc_lines` are the accessing core's L1 and victim-cache contents,
    /// shown in the divergence report.
    ///
    /// # Panics
    ///
    /// Panics with a divergence report on any disagreement.
    pub fn check_demand(
        &mut self,
        l1d: &SetAssocCache,
        vc_lines: Option<&[LineAddr]>,
        obs: &SimObservation,
    ) {
        let index = self.accesses;
        self.accesses += 1;
        let v = self.oracle.step_demand(obs);
        let closed_expected = v.evicted.is_some() || obs.decay_refetch;
        let failed: Vec<&str> = [
            ("level serviced", v.level != obs.level),
            ("evicted line", v.evicted != obs.evicted),
            ("L2 victim", v.l2_evicted != obs.l2_evicted),
            (
                "generation closed",
                obs.closed_generation != closed_expected,
            ),
            ("invalidated cores", v.invalidated != obs.invalidated),
            ("inclusion violation", v.inclusion_violated),
        ]
        .into_iter()
        .filter_map(|(what, bad)| bad.then_some(what))
        .collect();
        if failed.is_empty() {
            return;
        }
        let geom = *self.oracle.l1_geometry();
        let line = geom.line_of(obs.addr);
        let set = geom.index_of_line(line);
        let core = &self.oracle.cores[obs.core];
        let l2 = &self.oracle.l2;
        let set2 = l2.geom.index_of_line(l2.geom.line_of(obs.addr));
        let mut msg = format!(
            "oracle divergence at access #{index} [{}]\n  \
             core {} {} of address {:#x} = {line} (L1 set {set})\n  \
             level serviced: sim={}, oracle={}\n  \
             evicted line:   sim={:?}, oracle={:?}\n  \
             L2 victim:      sim={:?}, oracle={:?}\n  \
             generation closed: sim={}, oracle-expected={closed_expected}\n  \
             invalidated cores: sim={:#b}, oracle={:#b}\n  \
             sim L1 set {set} (line@lru-stamp): [{}]\n  \
             oracle L1 set {set} (LRU→MRU):      [{}]\n  \
             oracle L2 set {set2} (LRU→MRU):      [{}]",
            failed.join(", "),
            obs.core,
            if obs.is_store { "store" } else { "load" },
            obs.addr.get(),
            obs.level,
            v.level,
            obs.evicted,
            v.evicted,
            obs.l2_evicted,
            v.l2_evicted,
            obs.closed_generation,
            obs.invalidated,
            v.invalidated,
            sim_set(l1d, set),
            join(&core.l1.set_lines(set)),
            join(&l2.set_lines(set2)),
        );
        if let (Some(sim_vc), Some(vc)) = (vc_lines, core.vc.as_ref()) {
            let _ = write!(
                msg,
                "\n  sim victim cache:    [{}]\n  oracle victim cache: [{}]",
                join(sim_vc),
                join(&vc.entries)
            );
        }
        panic!("{msg}");
    }

    /// Checks a prefetch fill into `core`'s L1 (the simulator decided to
    /// land `line`; *when* a prefetch lands is timing).
    ///
    /// # Panics
    ///
    /// Panics with a divergence report if the eviction identity or
    /// generation boundary disagrees.
    pub fn check_prefetch_fill(
        &mut self,
        core: usize,
        l1d: &SetAssocCache,
        line: LineAddr,
        sim_evicted: Option<LineAddr>,
        closed_generation: bool,
        vc_admitted: Option<bool>,
    ) {
        let evicted = self.oracle.fill_l1(core, line, vc_admitted);
        if evicted == sim_evicted && closed_generation == evicted.is_some() {
            return;
        }
        let geom = *self.oracle.l1_geometry();
        let set = geom.index_of_line(line);
        panic!(
            "oracle divergence at prefetch fill after access #{}\n  \
             prefetched {line} (L1 set {set})\n  \
             evicted line: sim={sim_evicted:?}, oracle={evicted:?}\n  \
             generation closed: sim={closed_generation}, oracle-expected={}\n  \
             sim L1 set (line@lru-stamp): [{}]\n  \
             oracle L1 set (LRU→MRU):     [{}]",
            self.accesses,
            evicted.is_some(),
            sim_set(l1d, set),
            join(&self.oracle.cores[core].l1.set_lines(set)),
        );
    }

    /// Checks a prefetch's L2 probe outcome.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's L2 disagrees on hit/miss.
    pub fn check_prefetch_l2(&mut self, addr: Addr, sim_hit: bool) {
        let hit = self.oracle.l2_fetch(addr).0 == SimLevel::L2;
        if hit != sim_hit {
            let line = self.oracle.l2.geom.line_of(addr);
            let set = self.oracle.l2.geom.index_of_line(line);
            panic!(
                "oracle divergence at prefetch L2 probe after access #{}: \
                 {line} (L2 set {set}) sim_hit={sim_hit}, oracle_hit={hit}",
                self.accesses,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Instr, MemRef, Workload};
    use timekeeping::Pc;

    /// A deterministic xorshift mix of strided and conflicting refs.
    struct Mixed {
        state: u64,
        n: u64,
    }

    impl Workload for Mixed {
        fn next_instr(&mut self) -> Instr {
            self.n += 1;
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let addr = match self.n % 4 {
                0 => (self.n * 8) % (1 << 16),        // stream
                1 => (self.state % 64) * 32 * 1024,   // L1-set conflicts
                2 => (self.state % 4096) * 32,        // scattered lines
                _ => (self.n % 2) * 32 * 1024 + 0x40, // ping-pong
            };
            Instr::Load(MemRef::new(Addr::new(addr), Pc::new(0x100 + self.n % 31)))
        }

        fn name(&self) -> &str {
            "mixed"
        }
    }

    #[test]
    fn lockstep_passes_on_mixed_traffic_base() {
        let r = crate::system::run_workload_checked(
            &mut Mixed {
                state: 0x9e37,
                n: 0,
            },
            SystemConfig::base(),
            60_000,
        );
        assert!(r.hierarchy.l1_misses() > 0, "trace must exercise misses");
    }

    #[test]
    fn lockstep_passes_with_victim_cache() {
        for victim in [
            VictimMode::Unfiltered,
            VictimMode::Collins,
            VictimMode::paper_dead_time(),
        ] {
            let r = crate::system::run_workload_checked(
                &mut Mixed {
                    state: 0x51f1,
                    n: 0,
                },
                SystemConfig::with_victim(victim),
                60_000,
            );
            assert!(r.hierarchy.vc_hits > 0, "trace must exercise the VC");
        }
    }

    #[test]
    fn lockstep_passes_with_prefetcher() {
        let cfg = SystemConfig::with_prefetch(crate::config::PrefetchMode::Timekeeping(
            timekeeping::CorrelationConfig::PAPER_8KB,
        ));
        let r = crate::system::run_workload_checked(&mut Mixed { state: 0x2b, n: 0 }, cfg, 60_000);
        assert!(
            r.hierarchy.pf_issued > 0,
            "trace must exercise the prefetch path"
        );
    }

    // -- planted divergences ---------------------------------------------
    //
    // Each test below feeds the checker hand-built observations: a
    // correct simulator's account of every access but the last, whose
    // one planted fault must fire exactly one check.

    /// Address of line `i` of a conflict chain: every chain line maps to
    /// L1 set 2 and L2 set 1 of the paper geometry (32 KB direct-mapped
    /// L1, 1 MB 4-way L2 with 64 B lines, so 256 KB apart).
    fn chain(i: u64) -> u64 {
        0x40 + i * 256 * 1024
    }

    fn machine(cores: u32, victim: VictimMode) -> (LockstepChecker, SetAssocCache) {
        let cfg = SystemConfig::builder()
            .cores(cores)
            .victim(victim)
            .build()
            .expect("valid config");
        (
            LockstepChecker::new(&cfg),
            SetAssocCache::new(cfg.machine.l1d),
        )
    }

    /// What a correct simulator reports for `core`'s access to `addr`:
    /// the oracle's own verdict, computed on a copy.
    fn truth(chk: &LockstepChecker, core: usize, addr: u64, is_store: bool) -> SimObservation {
        let mut obs = SimObservation {
            core,
            addr: Addr::new(addr),
            is_store,
            level: SimLevel::L1,
            evicted: None,
            l2_evicted: None,
            invalidated: 0,
            closed_generation: false,
            decay_refetch: false,
            vc_admitted: Some(true),
        };
        let v = chk.oracle.clone().step_demand(&obs);
        obs.level = v.level;
        obs.evicted = v.evicted;
        obs.l2_evicted = v.l2_evicted;
        obs.invalidated = v.invalidated;
        obs.closed_generation = v.evicted.is_some();
        obs
    }

    /// Feeds the correct observation of each `(core, addr, is_store)`
    /// access in turn.
    fn agree(chk: &mut LockstepChecker, l1d: &SetAssocCache, accesses: &[(usize, u64, bool)]) {
        for &(core, addr, is_store) in accesses {
            let obs = truth(chk, core, addr, is_store);
            chk.check_demand(l1d, None, &obs);
        }
    }

    /// Feeds `addr`'s correct observation, as its level, with the level
    /// replaced by `sim`.
    fn plant_level(
        (mut chk, l1d): (LockstepChecker, SetAssocCache),
        setup: &[(usize, u64, bool)],
        (core, addr): (usize, u64),
        level: SimLevel,
        sim: SimLevel,
    ) {
        agree(&mut chk, &l1d, setup);
        let mut obs = truth(&chk, core, addr, false);
        assert_eq!(obs.level, level, "setup reaches the intended level");
        obs.level = sim;
        chk.check_demand(&l1d, None, &obs);
    }

    #[test]
    #[should_panic(expected = "[level serviced]")]
    fn planted_level_fires_on_an_l1_hit() {
        let m = machine(1, VictimMode::None);
        plant_level(
            m,
            &[(0, chain(0), false)],
            (0, chain(0)),
            SimLevel::L1,
            SimLevel::L2,
        );
    }

    #[test]
    #[should_panic(expected = "[level serviced]")]
    fn planted_level_fires_on_a_victim_cache_hit() {
        let m = machine(1, VictimMode::Unfiltered);
        let setup = [(0, chain(0), false), (0, chain(1), false)];
        plant_level(m, &setup, (0, chain(0)), SimLevel::Victim, SimLevel::L2);
    }

    #[test]
    #[should_panic(expected = "[level serviced]")]
    fn planted_level_fires_on_an_l2_hit() {
        let m = machine(1, VictimMode::None);
        let setup = [(0, chain(0), false), (0, chain(1), false)];
        plant_level(m, &setup, (0, chain(0)), SimLevel::L2, SimLevel::Mem);
    }

    #[test]
    #[should_panic(expected = "[level serviced]")]
    fn planted_level_fires_on_a_memory_fetch() {
        let m = machine(1, VictimMode::None);
        plant_level(m, &[], (0, chain(0)), SimLevel::Mem, SimLevel::L2);
    }

    #[test]
    #[should_panic(expected = "[level serviced]")]
    fn planted_level_fires_on_a_cache_to_cache_supply() {
        let m = machine(2, VictimMode::None);
        let setup = [(0, chain(0), true)];
        plant_level(
            m,
            &setup,
            (1, chain(0)),
            SimLevel::CacheToCache,
            SimLevel::L2,
        );
    }

    #[test]
    #[should_panic(expected = "[evicted line]")]
    fn planted_l1_victim_fires() {
        let (mut chk, l1d) = machine(2, VictimMode::None);
        agree(&mut chk, &l1d, &[(0, chain(0), false)]);
        let mut obs = truth(&chk, 0, chain(1), false);
        assert_eq!(
            obs.evicted,
            Some(l1d.geometry().line_of(Addr::new(chain(0))))
        );
        obs.evicted = Some(l1d.geometry().line_of(Addr::new(chain(2))));
        chk.check_demand(&l1d, None, &obs);
    }

    #[test]
    #[should_panic(expected = "[L2 victim]")]
    fn planted_l2_victim_fires() {
        let (mut chk, l1d) = machine(2, VictimMode::None);
        let fill_l2_set: Vec<_> = (0..4).map(|i| (0, chain(i), false)).collect();
        agree(&mut chk, &l1d, &fill_l2_set);
        let mut obs = truth(&chk, 0, chain(4), false);
        let l2_geom = SystemConfig::base().machine.l2;
        assert_eq!(obs.l2_evicted, Some(l2_geom.line_of(Addr::new(chain(0)))));
        obs.l2_evicted = Some(l2_geom.line_of(Addr::new(chain(1))));
        chk.check_demand(&l1d, None, &obs);
    }

    #[test]
    #[should_panic(expected = "[generation closed]")]
    fn planted_missing_generation_close_fires() {
        let (mut chk, l1d) = machine(1, VictimMode::None);
        agree(&mut chk, &l1d, &[(0, chain(0), false)]);
        let mut obs = truth(&chk, 0, chain(1), false);
        assert!(obs.closed_generation);
        obs.closed_generation = false;
        chk.check_demand(&l1d, None, &obs);
    }

    #[test]
    #[should_panic(expected = "[invalidated cores]")]
    fn planted_invalidation_set_fires() {
        let (mut chk, l1d) = machine(2, VictimMode::None);
        agree(
            &mut chk,
            &l1d,
            &[(0, chain(0), false), (1, chain(0), false)],
        );
        let mut obs = truth(&chk, 0, chain(0), true);
        assert_eq!(obs.invalidated, 0b10, "the store kills core 1's copy");
        obs.invalidated = 0;
        chk.check_demand(&l1d, None, &obs);
    }

    #[test]
    #[should_panic(expected = "[inclusion violation]")]
    fn planted_inclusion_violation_fires() {
        let (mut chk, l1d) = machine(2, VictimMode::None);
        agree(&mut chk, &l1d, &[(0, chain(0), true)]);
        // Core 0 holds the line Modified; drop the L2's copy behind the
        // mirror's back.
        let l2_line = chk.oracle.l2.geom.line_of(Addr::new(chain(0)));
        chk.oracle.l2.remove(l2_line);
        let obs = truth(&chk, 1, chain(0), false);
        assert_eq!(obs.level, SimLevel::CacheToCache);
        chk.check_demand(&l1d, None, &obs);
    }
}
