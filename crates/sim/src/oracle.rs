//! Differential functional oracle for the memory hierarchy.
//!
//! [`FunctionalOracle`] is a deliberately naive, timing-free reference
//! model of the L1 / victim-cache / L2 hierarchy: per-set recency lists
//! for the tag arrays (true LRU, invalid-way-first) and a recency list
//! for the fully-associative victim buffer. It knows nothing about
//! MSHRs, buses, or latencies — exactly the behavioral core whose
//! decisions every figure of the paper depends on.
//!
//! In lockstep check mode (see
//! [`MemorySystem::enable_lockstep_check`](crate::hierarchy::MemorySystem::enable_lockstep_check)
//! and [`SimSystem`](crate::system::SimSystem)), the cycle simulator
//! replays every demand access, prefetch fill, and prefetch L2 touch
//! into the oracle and asserts per-access agreement on:
//!
//! * **hit/miss classification** at the L1 and the victim cache,
//! * **level serviced** (L1, victim cache, L2, or memory),
//! * **evicted-line identity** (the true-LRU victim choice), and
//! * **generation-boundary events** (a generation closes iff a valid
//!   line leaves the cache or decays).
//!
//! On divergence the checker panics with a report naming the first
//! mismatching access: its index, address, line and set, both models'
//! verdicts, and both models' full set contents in LRU order.
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
//!   mirror (the simulator did not consult its L2 either).
//! * **Victim-cache admission** for timing-based filters (dead-time,
//!   reload-interval) — the admit bit is mirrored from the simulator
//!   so the buffer contents stay comparable; every *lookup* (the part
//!   with tag logic) is verified independently.

use std::fmt::Write as _;

use timekeeping::{Addr, CacheGeometry, LineAddr};

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
    /// The accessed address.
    pub addr: Addr,
    /// Level that serviced the access.
    pub level: SimLevel,
    /// Line evicted from the L1 by this access, if any.
    pub evicted: Option<LineAddr>,
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

/// The timing-free reference model of the L1 / victim-cache / L2
/// hierarchy. See the [module docs](self) for the checked contract.
#[derive(Debug, Clone)]
pub struct FunctionalOracle {
    l1: ShadowTags,
    l2: ShadowTags,
    vc: Option<ShadowVictim>,
}

impl FunctionalOracle {
    /// Builds the oracle mirroring the hierarchy that `cfg` describes.
    pub fn new(cfg: &SystemConfig) -> Self {
        let vc = match cfg.victim {
            VictimMode::None => None,
            _ => Some(ShadowVictim::new(cfg.machine.victim_entries)),
        };
        FunctionalOracle {
            l1: ShadowTags::new(cfg.machine.l1d),
            l2: ShadowTags::new(cfg.machine.l2),
            vc,
        }
    }

    /// Whether `cfg` is checkable: the cold-miss-only L1 mode replaces
    /// the tag array with an infinite set and has no evictions to
    /// verify.
    pub fn supports(cfg: &SystemConfig) -> bool {
        cfg.l1_mode != L1Mode::ColdOnly
    }

    /// Replays one demand access and returns the oracle's verdict:
    /// level serviced and evicted line. Mutates the mirrors exactly as
    /// the simulator's decision procedure would, consuming only the
    /// timing-dependent facts (`InFlight`, decay, VC admission) from
    /// the observation.
    fn step_demand(&mut self, obs: &SimObservation) -> (SimLevel, Option<LineAddr>) {
        let line = self.l1.geom.line_of(obs.addr);
        if obs.decay_refetch {
            // The tag stayed resident; only the data was switched off.
            // The simulator refetched from below without evicting.
            if self.l1.touch(line) {
                return (self.l2_fetch(line), None);
            }
            // A decay refetch of a non-resident line is itself a
            // divergence: return the one level a refetch can never
            // report so the comparison fails loudly.
            return (SimLevel::L1, None);
        }
        if self.l1.touch(line) {
            return (SimLevel::L1, None);
        }
        // L1 miss: probe the victim cache (swap semantics).
        if let Some(vc) = self.vc.as_mut() {
            if vc.take(line) {
                let evicted = self.l1.fill(line);
                if let Some(ev) = evicted {
                    // The displaced block enters the buffer unfiltered
                    // (it is an exchange, not eviction traffic).
                    self.vc.as_mut().expect("checked").insert(ev);
                }
                return (SimLevel::Victim, evicted);
            }
        }
        // Below the L1. For in-flight merges the simulator consulted no
        // cache level; mirror the refill without touching the L2.
        let level = if obs.level == SimLevel::InFlight {
            SimLevel::InFlight
        } else {
            self.l2_fetch(line)
        };
        let evicted = self.l1.fill(line);
        self.apply_admission(evicted, obs.vc_admitted);
        (level, evicted)
    }

    /// Probes the L2 mirror; fills on a miss. Returns the level that
    /// serviced the fetch.
    fn l2_fetch(&mut self, l1_line: LineAddr) -> SimLevel {
        let addr = self.l1.geom.addr_of_line(l1_line);
        let l2_line = self.l2.geom.line_of(addr);
        if self.l2.touch(l2_line) {
            SimLevel::L2
        } else {
            self.l2.fill(l2_line);
            SimLevel::Mem
        }
    }

    /// Mirrors the victim-filter admission decision for an eviction.
    fn apply_admission(&mut self, evicted: Option<LineAddr>, admitted: Option<bool>) {
        if let (Some(ev), Some(true), Some(vc)) = (evicted, admitted, self.vc.as_mut()) {
            vc.insert(ev);
        }
    }

    /// Replays a prefetch fill into the L1 (announced by the simulator;
    /// *when* a prefetch lands is timing). Returns the oracle's evicted
    /// line for comparison.
    fn step_prefetch_fill(
        &mut self,
        line: LineAddr,
        vc_admitted: Option<bool>,
    ) -> Option<LineAddr> {
        let evicted = self.l1.fill(line);
        self.apply_admission(evicted, vc_admitted);
        evicted
    }

    /// Replays a prefetch's L2 touch (announced by the simulator) and
    /// returns whether the oracle's L2 hit.
    fn step_prefetch_l2(&mut self, addr: Addr) -> bool {
        let l2_line = self.l2.geom.line_of(addr);
        if self.l2.touch(l2_line) {
            true
        } else {
            self.l2.fill(l2_line);
            false
        }
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
    /// `crate::sample`).
    pub(crate) fn warm_access(&mut self, addr: Addr) -> Option<LineAddr> {
        let line = self.l1.geom.line_of(addr);
        if self.l1.touch(line) {
            return None;
        }
        if let Some(vc) = self.vc.as_mut() {
            if vc.take(line) {
                let evicted = self.l1.fill(line);
                if let Some(ev) = evicted {
                    self.vc.as_mut().expect("checked").insert(ev);
                }
                return evicted;
            }
        }
        self.l2_fetch(line);
        let evicted = self.l1.fill(line);
        self.apply_admission(evicted, Some(true));
        evicted
    }

    /// The L1 geometry this oracle mirrors.
    pub(crate) fn l1_geometry(&self) -> &CacheGeometry {
        &self.l1.geom
    }

    /// The L2 geometry this oracle mirrors.
    pub(crate) fn l2_geometry(&self) -> &CacheGeometry {
        &self.l2.geom
    }

    /// Every resident L1 line (set-major, LRU→MRU within each set), for
    /// checkpoint injection.
    pub(crate) fn l1_lines(&self) -> Vec<LineAddr> {
        self.l1.all_lines()
    }

    /// Every resident L2 line (set-major, LRU→MRU within each set), for
    /// checkpoint injection.
    pub(crate) fn l2_lines(&self) -> Vec<LineAddr> {
        self.l2.all_lines()
    }

    /// Rebuilds a warm oracle from exported line lists (set-major,
    /// LRU→MRU within each set, as produced by
    /// [`l1_lines`](Self::l1_lines)/[`l2_lines`](Self::l2_lines)):
    /// refilling an empty mirror in that order reproduces the exact tag
    /// state, and the victim buffer starts empty — precisely the state a
    /// representative's lockstep checker expects, since the timed
    /// machine's victim cache also starts empty. Used by the checkpoint
    /// plane, which stores line lists instead of live oracles.
    pub(crate) fn from_lines(cfg: &SystemConfig, l1: &[u64], l2: &[u64]) -> Self {
        let mut o = Self::new(cfg);
        for &l in l1 {
            let evicted = o.l1.fill(LineAddr::new(l));
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
        if let Some(vc) = self.vc.as_mut() {
            vc.entries.clear();
        }
    }
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
        LockstepChecker {
            oracle: FunctionalOracle::new(cfg),
            accesses: 0,
        }
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

    /// Checks one demand access against the oracle.
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
        let (level, evicted) = self.oracle.step_demand(obs);
        let closed_expected = evicted.is_some() || obs.decay_refetch;
        if level == obs.level && evicted == obs.evicted && obs.closed_generation == closed_expected
        {
            return;
        }
        let mut msg = String::new();
        let _ = writeln!(msg, "oracle divergence at access #{index}");
        let geom = self.oracle.l1.geom;
        let line = geom.line_of(obs.addr);
        let set = geom.index_of_line(line);
        let _ = writeln!(
            msg,
            "  address {:#x} = {line} (L1 set {set})",
            obs.addr.get()
        );
        let _ = writeln!(msg, "  level serviced: sim={}, oracle={}", obs.level, level);
        let _ = writeln!(
            msg,
            "  evicted line:   sim={:?}, oracle={:?}",
            obs.evicted, evicted
        );
        let _ = writeln!(
            msg,
            "  generation closed: sim={}, oracle-expected={}",
            obs.closed_generation, closed_expected
        );
        let sim_set: Vec<String> = l1d
            .set_lines(set)
            .into_iter()
            .map(|(l, stamp)| format!("{l}@{stamp}"))
            .collect();
        let _ = writeln!(
            msg,
            "  sim L1 set {set} (line@lru-stamp): [{}]",
            sim_set.join(", ")
        );
        let oracle_set: Vec<String> = self
            .oracle
            .l1
            .set_lines(set)
            .into_iter()
            .map(|l| l.to_string())
            .collect();
        let _ = writeln!(
            msg,
            "  oracle L1 set {set} (LRU→MRU):      [{}]",
            oracle_set.join(", ")
        );
        if let (Some(sim_vc), Some(vc)) = (vc_lines, self.oracle.vc.as_ref()) {
            let fmt = |ls: &[LineAddr]| {
                ls.iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(msg, "  sim victim cache:    [{}]", fmt(sim_vc));
            let _ = writeln!(msg, "  oracle victim cache: [{}]", fmt(&vc.entries));
        }
        panic!("{msg}");
    }

    /// Checks a prefetch fill (the simulator decided to land `line`).
    ///
    /// # Panics
    ///
    /// Panics with a divergence report if the eviction identity or
    /// generation boundary disagrees.
    pub fn check_prefetch_fill(
        &mut self,
        l1d: &SetAssocCache,
        line: LineAddr,
        sim_evicted: Option<LineAddr>,
        closed_generation: bool,
        vc_admitted: Option<bool>,
    ) {
        let evicted = self.oracle.step_prefetch_fill(line, vc_admitted);
        if evicted == sim_evicted && closed_generation == evicted.is_some() {
            return;
        }
        let geom = self.oracle.l1.geom;
        let set = geom.index_of_line(line);
        let sim_set: Vec<String> = l1d
            .set_lines(set)
            .into_iter()
            .map(|(l, stamp)| format!("{l}@{stamp}"))
            .collect();
        let oracle_set: Vec<String> = self
            .oracle
            .l1
            .set_lines(set)
            .into_iter()
            .map(|l| l.to_string())
            .collect();
        panic!(
            "oracle divergence at prefetch fill after access #{}\n  \
             prefetched {line} (L1 set {set})\n  \
             evicted line: sim={sim_evicted:?}, oracle={evicted:?}\n  \
             generation closed: sim={closed_generation}, oracle-expected={}\n  \
             sim L1 set (line@lru-stamp): [{}]\n  \
             oracle L1 set (LRU→MRU):     [{}]",
            self.accesses,
            evicted.is_some(),
            sim_set.join(", "),
            oracle_set.join(", "),
        );
    }

    /// Checks a prefetch's L2 probe outcome.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's L2 disagrees on hit/miss.
    pub fn check_prefetch_l2(&mut self, addr: Addr, sim_hit: bool) {
        let hit = self.oracle.step_prefetch_l2(addr);
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
}
