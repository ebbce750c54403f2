//! Trace-driven out-of-order core timing model.
//!
//! An 8-wide, 128-entry-window machine in the style of the paper's
//! SimpleScalar configuration: instructions enter the window in program
//! order (up to `issue_width` per cycle, blocking when the window is
//! full), execute with their individual latencies (memory operations ask
//! the memory system for a completion time, which embeds cache, bus and
//! MSHR contention), and retire in order (up to `commit_width` per
//! cycle). Memory-level parallelism emerges naturally: independent misses
//! overlap until the window fills.
//!
//! One driver, `OooCore::run_cores`, runs any number of cores against
//! one `CoreMemory`, the [`MemorySystem`] of that many cores: through
//! [`OooCore::run`] at one core, through
//! [`run_multicore`](crate::multicore::run_multicore) at N. The issue,
//! retire and clock-hop rules live only here.

use timekeeping::Cycle;

use crate::config::SystemConfig;
use crate::hierarchy::MemorySystem;
use crate::trace::{Instr, MemRef, Workload};

/// Execution statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Software prefetches executed.
    pub sw_prefetches: u64,
    /// Cycles in which no instruction could enter the window
    /// (window-full stalls).
    pub window_full_cycles: u64,
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

timekeeping::counter_block!(CoreStats {
    cycles,
    instructions,
    loads,
    stores,
    sw_prefetches,
    window_full_cycles
});

/// The memory side of the core model: what the driver needs from a
/// memory system to time references and hop the clock.
pub(crate) trait CoreMemory {
    /// Performs one data reference by `core` at `now` and returns the
    /// cycle its data is available. Stores mark the line dirty; the core
    /// decides whether to wait.
    fn access(&mut self, core: usize, mref: &MemRef, is_store: bool, now: Cycle) -> Cycle;
    /// Replays the memory system's self-scheduled events up to `now`.
    fn advance(&mut self, now: Cycle);
    /// The earliest self-scheduled event after `now`, if any.
    fn next_event(&self, now: Cycle) -> Option<Cycle>;
    /// Ends the run at `now` (closes open generations, flushes sinks).
    fn finish(&mut self, now: Cycle);
}

/// One core's window. Drive a single core with [`run`](OooCore::run);
/// several share one memory system through `run_cores`.
#[derive(Debug)]
pub struct OooCore {
    issue_width: usize,
    window_size: usize,
    commit_width: usize,
    step_every_cycle: bool,
    /// Completion cycles of in-flight instructions, in program order.
    window: std::collections::VecDeque<Cycle>,
    /// A fetched chained load waiting for its address to become available.
    stalled: Option<Instr>,
    /// Completion time of the most recent chained load: the next chained
    /// load's address is not known before this.
    chain_ready: Cycle,
    /// Instructions fetched into the window so far this run.
    fetched: u64,
    /// Whether the core has retired its whole budget.
    done: bool,
    stats: CoreStats,
}

impl OooCore {
    /// Creates a core with the window parameters of `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let m = &cfg.machine;
        OooCore {
            issue_width: m.issue_width as usize,
            window_size: m.window_size as usize,
            commit_width: m.commit_width as usize,
            step_every_cycle: cfg.step_every_cycle,
            window: std::collections::VecDeque::with_capacity(m.window_size as usize),
            stalled: None,
            chain_ready: Cycle::ZERO,
            fetched: 0,
            done: false,
            stats: CoreStats::default(),
        }
    }

    /// Statistics of the last run.
    pub(crate) fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Runs `max_instructions` instructions of `workload` against `mem`
    /// as core 0, returning the core statistics. Deterministic for a
    /// given workload state.
    pub fn run<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        mem: &mut MemorySystem,
        max_instructions: u64,
    ) -> CoreStats {
        Self::run_cores(std::slice::from_mut(self), mem, max_instructions, |_| {
            workload.next_instr()
        });
        self.stats
    }

    /// Runs `max_instructions` instructions on every core of `cores`
    /// against the shared `mem`, fetching core `i`'s instructions from
    /// `fetch(i)`, and returns the cycle the last core finished. Each
    /// core's statistics are left in `stats`.
    ///
    /// Within a cycle, live cores are serviced in index order, which
    /// fixes the global order of memory references. When no live core
    /// can retire or issue, the clock hops to the earliest wake-up: the
    /// minimum over live cores of window-head retirement and stalled
    /// chained-load addresses, and the memory system's next event.
    /// Every skipped cycle is provably a no-op (completion times are
    /// fixed at issue, and `mem` replays its own events inside
    /// `advance`); `step_every_cycle` keeps the per-cycle reference loop
    /// for differential testing. All cores must share one configuration.
    pub(crate) fn run_cores<M: CoreMemory>(
        cores: &mut [OooCore],
        mem: &mut M,
        max_instructions: u64,
        mut fetch: impl FnMut(usize) -> Instr,
    ) -> Cycle {
        let step_every_cycle = cores.first().is_some_and(|c| c.step_every_cycle);
        for core in cores.iter_mut() {
            core.fetched = 0;
            core.chain_ready = Cycle::ZERO;
            core.done = false;
            core.stats = CoreStats::default();
        }
        let mut cycle = Cycle::ZERO;
        loop {
            mem.advance(cycle);
            let mut live = false;
            for (id, core) in cores.iter_mut().enumerate() {
                if !core.done {
                    live |= core.step(id, cycle, mem, max_instructions, &mut fetch);
                }
            }
            if !live {
                break;
            }

            let mut next = cycle + 1;
            if !step_every_cycle && cores.iter().all(|c| c.done || c.blocked(max_instructions)) {
                // The earliest cycle at which anything can happen.
                let mut wake = Cycle::new(u64::MAX);
                for core in cores.iter().filter(|c| !c.done) {
                    wake = wake.min(core.wake());
                }
                if let Some(e) = mem.next_event(cycle) {
                    wake = wake.min(e);
                }
                if wake > next {
                    // Every skipped cycle would have counted as a
                    // window-full stall iff the issue loop ran and hit a
                    // full window — exactly this condition.
                    for core in cores.iter_mut().filter(|c| !c.done) {
                        if core.window.len() >= core.window_size && core.fetched < max_instructions
                        {
                            core.stats.window_full_cycles += wake.get() - next.get();
                        }
                    }
                    next = wake;
                }
            }
            cycle = next;
        }
        mem.finish(cycle);
        cycle
    }

    /// One cycle of core `id`: retire in order, then issue in order while
    /// the window has room. Returns `false` once the core has retired its
    /// budget (it is then done and records its finishing cycle).
    #[inline]
    fn step<M: CoreMemory>(
        &mut self,
        id: usize,
        cycle: Cycle,
        mem: &mut M,
        max_instructions: u64,
        fetch: &mut impl FnMut(usize) -> Instr,
    ) -> bool {
        let mut retired = 0;
        while retired < self.commit_width {
            match self.window.front() {
                Some(&ready) if ready <= cycle => {
                    self.window.pop_front();
                    self.stats.instructions += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
        if self.stats.instructions >= max_instructions && self.window.is_empty() {
            self.done = true;
            self.stats.cycles = cycle.get();
            return false;
        }

        let mut issued = 0;
        let mut window_was_full = false;
        while issued < self.issue_width && self.fetched < max_instructions {
            if self.window.len() >= self.window_size {
                window_was_full = true;
                break;
            }
            let instr = match self.stalled.take() {
                Some(i) => i,
                None => fetch(id),
            };
            // A chained load cannot access the cache before the previous
            // chained load has produced its address; issue stalls until
            // then.
            if let Instr::ChainedLoad(_) = instr {
                if self.chain_ready > cycle {
                    self.stalled = Some(instr);
                    break;
                }
            }
            let ready = match instr {
                Instr::Op => cycle + 1,
                Instr::Load(m) => {
                    self.stats.loads += 1;
                    mem.access(id, &m, false, cycle)
                }
                Instr::ChainedLoad(m) => {
                    self.stats.loads += 1;
                    let ready = mem.access(id, &m, false, cycle);
                    self.chain_ready = ready;
                    ready
                }
                Instr::Store(m) => {
                    self.stats.stores += 1;
                    // Stores retire through the write buffer: the cache
                    // is updated but the core does not wait for data.
                    mem.access(id, &m, true, cycle);
                    cycle + 1
                }
                Instr::SwPrefetch(m) => {
                    self.stats.sw_prefetches += 1;
                    // Treated as a normal memory reference (§2.2) that
                    // does not block retirement.
                    mem.access(id, &m, false, cycle);
                    cycle + 1
                }
            };
            self.window.push_back(ready);
            self.fetched += 1;
            issued += 1;
        }
        if window_was_full {
            self.stats.window_full_cycles += 1;
        }
        true
    }

    /// Whether the next cycle can neither retire nor issue without
    /// something outside this core happening first: no more instructions
    /// to fetch, a full window, or a stalled chained load.
    #[inline]
    fn blocked(&self, max_instructions: u64) -> bool {
        self.fetched >= max_instructions
            || self.window.len() >= self.window_size
            || self.stalled.is_some()
    }

    /// The earliest cycle at which a blocked core can act: in-order
    /// retirement of the window head, or a stalled chained load's
    /// address becoming available.
    #[inline]
    fn wake(&self) -> Cycle {
        let mut wake = self.window.front().copied().unwrap_or(Cycle::new(u64::MAX));
        if self.stalled.is_some() {
            wake = wake.min(self.chain_ready);
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::MemorySystem;
    use timekeeping::{Addr, Pc};

    /// All-ALU workload: IPC should approach the issue width.
    struct AllOps;
    impl Workload for AllOps {
        fn next_instr(&mut self) -> Instr {
            Instr::Op
        }
        fn name(&self) -> &str {
            "all-ops"
        }
    }

    /// Pointer-chase-like: every instruction is a load to a new line,
    /// serialized by nothing but bandwidth. Strides one 64 B L2 block per
    /// access, so every reference opens a new line at both cache levels.
    struct MissStream(u64);
    impl Workload for MissStream {
        fn next_instr(&mut self) -> Instr {
            self.0 += 1;
            Instr::Load(MemRef::new(Addr::new(self.0 * 64), Pc::new(4)))
        }
        fn name(&self) -> &str {
            "miss-stream"
        }
    }

    /// Loads that always hit one cached line.
    struct HitStream;
    impl Workload for HitStream {
        fn next_instr(&mut self) -> Instr {
            Instr::Load(MemRef::new(Addr::new(0x40), Pc::new(4)))
        }
        fn name(&self) -> &str {
            "hit-stream"
        }
    }

    #[test]
    fn alu_ipc_approaches_issue_width() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut AllOps, &mut mem, 10_000);
        assert_eq!(stats.instructions, 10_000);
        assert!(
            stats.ipc() > 7.0,
            "ALU-only IPC must be near 8, got {}",
            stats.ipc()
        );
    }

    #[test]
    fn hit_stream_is_fast() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut HitStream, &mut mem, 10_000);
        assert!(
            stats.ipc() > 6.0,
            "L1-hit IPC must be high, got {}",
            stats.ipc()
        );
        assert_eq!(stats.loads, 10_000);
    }

    #[test]
    fn miss_stream_strides_exactly_one_l2_block() {
        // Pin the intended stride: one 64 B L2 block (and therefore a new
        // 32 B L1 line) per access. A double-scaling bug here once made the
        // stride 4096 B, turning the "new line every load" workload into an
        // 8-set conflict sweep.
        let mut w = MissStream(0);
        let addr_of = |i: Instr| match i {
            Instr::Load(m) => m.addr.get(),
            other => panic!("MissStream must produce loads, got {other:?}"),
        };
        let mut prev = addr_of(w.next_instr());
        for _ in 0..16 {
            let cur = addr_of(w.next_instr());
            assert_eq!(cur - prev, 64, "stride must be one 64 B L2 block");
            prev = cur;
        }
    }

    #[test]
    fn miss_stream_is_memory_bound() {
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut MissStream(0), &mut mem, 5_000);
        // Every load misses to memory; the window and MSHRs bound MLP.
        assert!(
            stats.ipc() < 4.0,
            "all-miss IPC must be memory-bound, got {}",
            stats.ipc()
        );
        assert!(mem.stats().l1_misses() >= 4_999);
        assert!(
            stats.window_full_cycles > 0,
            "the window must fill under misses"
        );
    }

    #[test]
    fn misses_overlap_up_to_window() {
        // With a 128-entry window and 64 MSHRs, independent misses overlap:
        // total time must be far below misses x full-latency.
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut MissStream(10_000), &mut mem, 2_000);
        let serial_estimate = 2_000u64 * 88; // full cold-miss latency each
        assert!(
            stats.cycles < serial_estimate / 4,
            "MLP must overlap misses: {} cycles vs serial {}",
            stats.cycles,
            serial_estimate
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = SystemConfig::base();
        let run = || {
            let mut core = OooCore::new(&cfg);
            let mut mem = MemorySystem::new(cfg);
            core.run(&mut MissStream(42), &mut mem, 3_000)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stores_do_not_block_retirement() {
        struct StoreMissStream(u64);
        impl Workload for StoreMissStream {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                Instr::Store(MemRef::new(Addr::new(self.0 * 64 * 1024), Pc::new(4)))
            }
            fn name(&self) -> &str {
                "store-miss"
            }
        }
        let cfg = SystemConfig::base();
        let mut core = OooCore::new(&cfg);
        let mut mem = MemorySystem::new(cfg);
        let stats = core.run(&mut StoreMissStream(0), &mut mem, 2_000);
        assert!(
            stats.ipc() > 4.0,
            "store misses retire through the write buffer, got {}",
            stats.ipc()
        );
        assert_eq!(stats.stores, 2_000);
    }
}
