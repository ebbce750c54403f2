//! Property tests of the simulator substrate: the set-associative
//! cache against a reference LRU model, MSHR bookkeeping, bus
//! serialization, and whole-system conservation laws, each on seeded
//! random inputs.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::collections::HashMap;

use cases::{check, Gen, CASES};
use timekeeping::snapshot::{Json, Snapshot};
use timekeeping::{Addr, CacheGeometry, Cycle, LineAddr, Pc};
use tk_sim::bus::Bus;
use tk_sim::cache::{ProbeResult, SetAssocCache};
use tk_sim::mshr::MshrFile;
use tk_sim::trace::{Instr, MemRef, Workload};
use tk_sim::{
    run_workload, CoherenceStats, DramStats, PrefetchMode, SampleStats, SystemConfig, VictimMode,
};

// ----------------------------------------------------- set-assoc cache LRU

/// Reference model: per-set ordered vectors of tags.
struct RefCache {
    geom: CacheGeometry,
    sets: Vec<Vec<u64>>,
}

impl RefCache {
    fn new(geom: CacheGeometry) -> Self {
        RefCache {
            geom,
            sets: vec![Vec::new(); geom.num_sets() as usize],
        }
    }

    /// Returns whether the access hit, applying LRU update + fill.
    fn access(&mut self, addr: Addr) -> bool {
        let set = &mut self.sets[self.geom.index_of(addr) as usize];
        let tag = self.geom.tag_of(addr);
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            set.remove(pos);
            set.push(tag);
            true
        } else {
            set.push(tag);
            if set.len() > self.geom.assoc() as usize {
                set.remove(0);
            }
            false
        }
    }
}

/// probe+fill agrees with the reference LRU model on hit/miss for
/// every access of any trace and any small geometry.
#[test]
fn cache_matches_reference_lru() {
    check(
        "cache_matches_reference_lru",
        CASES,
        |g| (g.vec(1..500, |g| g.range(0..4096)), g.range_u32(0..3)),
        |(trace, assoc_log)| {
            let geom = CacheGeometry::new(1024, 1 << assoc_log, 32).unwrap();
            let mut cache = SetAssocCache::new(geom);
            let mut reference = RefCache::new(geom);
            for &raw in trace {
                let addr = Addr::new(raw * 8);
                let expected_hit = reference.access(addr);
                match cache.probe(addr) {
                    ProbeResult::Hit(frame) => {
                        assert!(expected_hit, "model says miss, cache hit");
                        assert_eq!(cache.line_in_frame(frame), Some(geom.line_of(addr)));
                    }
                    ProbeResult::Miss { .. } => {
                        assert!(!expected_hit, "model says hit, cache missed");
                        cache.fill(addr);
                    }
                }
            }
            assert_eq!(cache.hits() + cache.misses(), trace.len() as u64);
        },
    );
}

/// The victim reported by a missing probe is exactly the line that a
/// subsequent fill evicts.
#[test]
fn probe_victim_prediction_matches_fill() {
    check(
        "probe_victim_prediction_matches_fill",
        CASES,
        |g| g.vec(1..200, |g| g.range(0..512)),
        |trace| {
            let geom = CacheGeometry::new(512, 2, 32).unwrap();
            let mut cache = SetAssocCache::new(geom);
            for &raw in trace {
                let addr = Addr::new(raw * 32);
                if let ProbeResult::Miss {
                    victim_frame,
                    evicted,
                } = cache.probe(addr)
                {
                    let (frame, evicted2) = cache.fill(addr);
                    assert_eq!(frame, victim_frame);
                    assert_eq!(evicted2, evicted);
                }
            }
        },
    );
}

/// probe/fill/invalidate agree with the reference model under a mixed
/// op stream: invalidated lines miss on re-access, and the cache never
/// resurrects a line the model dropped.
#[test]
fn cache_matches_reference_with_invalidate() {
    check(
        "cache_matches_reference_with_invalidate",
        CASES,
        |g| {
            (
                g.vec(1..400, |g| (g.range(0..512), g.bool())),
                g.range_u32(0..3),
            )
        },
        |(ops, assoc_log)| {
            let geom = CacheGeometry::new(1024, 1 << assoc_log, 32).unwrap();
            let mut cache = SetAssocCache::new(geom);
            let mut reference = RefCache::new(geom);
            for &(raw, is_invalidate) in ops {
                let addr = Addr::new(raw * 32);
                if is_invalidate {
                    let set = &mut reference.sets[geom.index_of(addr) as usize];
                    let tag = geom.tag_of(addr);
                    let expected = set.iter().position(|&t| t == tag).map(|i| {
                        set.remove(i);
                    });
                    match cache.peek(addr) {
                        Some(frame) => {
                            assert!(expected.is_some(), "cache holds a line the model dropped");
                            assert_eq!(cache.invalidate(frame), Some(geom.line_of(addr)));
                        }
                        None => assert!(expected.is_none(), "model holds a line the cache lost"),
                    }
                } else {
                    let expected_hit = reference.access(addr);
                    match cache.probe(addr) {
                        ProbeResult::Hit(_) => assert!(expected_hit),
                        ProbeResult::Miss { .. } => {
                            assert!(!expected_hit);
                            cache.fill(addr);
                        }
                    }
                }
            }
        },
    );
}

// ------------------------------------------------------------------- MSHRs

/// One MSHR schedule: (line, fill latency) per cycle, one allocation
/// attempt each.
fn mshr_case(allocs: &[(u64, u64)]) {
    let mut m = MshrFile::new(64);
    let mut expected: HashMap<u64, u64> = HashMap::new();
    let mut t = 0u64;
    for &(line, dur) in allocs {
        t += 1;
        let now = Cycle::new(t);
        expected.retain(|_, &mut ready| ready > t);
        m.expire(now);
        if let Some(ready) = m.lookup(LineAddr::new(line)) {
            assert_eq!(
                Some(&ready.get()),
                expected.get(&line),
                "line {line} at {t}"
            );
        } else if expected.len() < 64 {
            m.allocate(LineAddr::new(line), now + dur);
            expected.insert(line, t + dur);
        }
        assert_eq!(m.outstanding(now), expected.len(), "outstanding at {t}");
    }
}

/// Outstanding count tracks allocations minus expiries; merges find
/// exactly the outstanding lines.
#[test]
fn mshr_bookkeeping() {
    check(
        "mshr_bookkeeping",
        CASES,
        |g| g.vec(1..64, |g| (g.range(0..64), g.range(1..10_000))),
        |allocs| mshr_case(allocs),
    );
}

/// A recorded failing input of `mshr_bookkeeping`, kept as a fixed
/// case: a long-lived miss followed by a line that re-misses every
/// cycle.
#[test]
fn mshr_bookkeeping_recorded_case() {
    let mut allocs = vec![(47, 25)];
    allocs.extend(std::iter::repeat_n((0, 1), 25));
    mshr_case(&allocs);
}

// --------------------------------------------------------------------- bus

/// Bus grants are non-overlapping, in order, and never before the
/// request time.
#[test]
fn bus_serializes_without_overlap() {
    check(
        "bus_serializes_without_overlap",
        CASES,
        |g| (g.range(1..16), g.vec(1..100, |g| g.range(0..10_000))),
        |(occupancy, reqs)| {
            let occupancy = *occupancy;
            let mut sorted = reqs.clone();
            sorted.sort_unstable();
            let mut bus = Bus::new(occupancy);
            let mut last_end = 0u64;
            for &r in &sorted {
                let start = bus.schedule(Cycle::new(r));
                assert!(start.get() >= r, "grant before request");
                assert!(start.get() >= last_end, "overlapping transfers");
                last_end = start.get() + occupancy;
            }
            assert_eq!(bus.transfers(), sorted.len() as u64);
            assert_eq!(bus.busy_cycles(), occupancy * sorted.len() as u64);
        },
    );
}

// ---------------------------------------------------------- whole system

/// A small deterministic workload over a parameterized footprint.
struct ParamStream {
    pos: u64,
    stride: u64,
    footprint: u64,
}

impl ParamStream {
    fn new(stride_log: u32, footprint_log: u32) -> Self {
        ParamStream {
            pos: 0,
            stride: 1 << stride_log,
            footprint: 1 << footprint_log,
        }
    }
}

impl Workload for ParamStream {
    fn next_instr(&mut self) -> Instr {
        self.pos = (self.pos + self.stride) % self.footprint;
        Instr::Load(MemRef::new(Addr::new(0x1000_0000 + self.pos), Pc::new(4)))
    }
    fn name(&self) -> &str {
        "param-stream"
    }
}

/// (stride log, footprint log) for the whole-system properties.
fn stream_shape(g: &mut Gen, footprint_log: std::ops::Range<u32>) -> (u32, u32) {
    (g.range_u32(3..7), g.range_u32(footprint_log))
}

/// System-level conservation: hits + misses = accesses; classified
/// misses = L1 misses; L2 demand accesses = L1 misses (no victim
/// cache, no prefetch); memory accesses <= L2 accesses; cycles > 0 and
/// IPC <= issue width.
#[test]
fn system_conservation_laws() {
    check(
        "system_conservation_laws",
        8,
        |g| (g.range_u32(3..8), g.range_u32(12..22)),
        |&(stride_log, footprint_log)| {
            let mut w = ParamStream::new(stride_log, footprint_log);
            let r = run_workload(&mut w, SystemConfig::base(), 30_000);
            let h = r.hierarchy;
            assert_eq!(h.l1_accesses, 30_000);
            assert!(h.l1_hits <= h.l1_accesses);
            assert_eq!(r.breakdown.total(), h.l1_misses());
            assert_eq!(h.l2_accesses, h.l1_misses());
            assert!(h.mem_accesses <= h.l2_accesses);
            assert!(r.core.cycles > 0);
            assert!(r.ipc() <= 8.0 + 1e-9);
        },
    );
}

// ------------------------------------------------- core-model monotonicity

/// A wider issue width never slows the machine down (same workload,
/// same hierarchy).
#[test]
fn ipc_monotone_in_issue_width() {
    check(
        "ipc_monotone_in_issue_width",
        6,
        |g| stream_shape(g, 14..20),
        |&(stride_log, footprint_log)| {
            let run = |width: u32| {
                let mut cfg = SystemConfig::base();
                cfg.machine.issue_width = width;
                cfg.machine.commit_width = width;
                let mut w = ParamStream::new(stride_log, footprint_log);
                run_workload(&mut w, cfg, 20_000).ipc()
            };
            let (one, four, eight) = (run(1), run(4), run(8));
            assert!(four >= one - 1e-9, "4-wide {four} < 1-wide {one}");
            assert!(eight >= four - 1e-9, "8-wide {eight} < 4-wide {four}");
        },
    );
}

/// A larger instruction window never slows the machine down.
#[test]
fn ipc_monotone_in_window() {
    check(
        "ipc_monotone_in_window",
        6,
        |g| stream_shape(g, 14..20),
        |&(stride_log, footprint_log)| {
            let run = |window: u32| {
                let mut cfg = SystemConfig::base();
                cfg.machine.window_size = window;
                let mut w = ParamStream::new(stride_log, footprint_log);
                run_workload(&mut w, cfg, 20_000).ipc()
            };
            let (small, large) = (run(32), run(256));
            assert!(
                large >= small - 1e-9,
                "256-entry {large} < 32-entry {small}"
            );
        },
    );
}

// ------------------------------------------------- snapshot round-trip

/// Writes a snapshot with the streaming writer and asserts that the
/// typed reader gives the value back, that the text is canonical (the
/// tree view re-renders it byte for byte, so keys ascend and nothing is
/// padded), and that the tree defaults round-trip through it too.
fn assert_snapshot_roundtrips<T>(value: &T)
where
    T: Snapshot + PartialEq + std::fmt::Debug,
{
    let doc = value.to_json_string();
    let back = T::from_json_str(&doc).expect("snapshot shape matches");
    assert_eq!(&back, value, "read_json(write_json(x)) != x");
    let parsed = Json::parse(&doc).expect("written snapshots parse as trees");
    assert_eq!(
        parsed.render(),
        doc,
        "the writer's text is not canonical: keys out of order or not compact"
    );
    assert_eq!(&T::from_json(&parsed).expect("tree shape matches"), value);
    assert_eq!(value.to_json(), parsed);
}

/// A counter block with every field drawn from `g`, whatever its fields.
fn random_block<T: Snapshot + Default>(g: &mut Gen) -> T {
    let Json::Obj(mut fields) = T::default().to_json() else {
        panic!("counter blocks are objects");
    };
    for v in fields.values_mut() {
        *v = Json::U64(g.next_u64());
    }
    T::from_json(&Json::Obj(fields)).expect("every field is set")
}

fn random_sample_stats(g: &mut Gen) -> SampleStats {
    SampleStats {
        interval: g.next_u64(),
        k: g.next_u64() as u32,
        intervals: g.next_u64(),
        representatives: g.next_u64() as u32,
        timed_instructions: g.next_u64(),
    }
}

/// A complete `RunResult` — core, hierarchy, breakdown, metrics and
/// any victim/prefetch extras — serializes to JSON and back
/// bit-exactly, for runs on machines that populate the optional
/// sections as well as the base machine, and with the keys written only
/// when present (`coherence`, `dram`, `sampled`) filled in.
#[test]
fn run_result_snapshot_roundtrips() {
    check(
        "run_result_snapshot_roundtrips",
        6,
        |g| {
            (
                g.range_u32(3..8),
                g.range_u32(13..20),
                g.range_usize(0..3),
                g.next_u64(),
            )
        },
        |&(stride_log, footprint_log, machine, extras)| {
            let cfg = match machine {
                0 => SystemConfig::base(),
                1 => SystemConfig::with_victim(VictimMode::Collins),
                _ => SystemConfig::with_prefetch(PrefetchMode::Stride(
                    timekeeping::StrideConfig::default(),
                )),
            };
            let mut w = ParamStream::new(stride_log, footprint_log);
            let mut r = run_workload(&mut w, cfg, 20_000);
            assert_snapshot_roundtrips(&r);
            let mut g = Gen::new(extras);
            r.coherence = Some(random_block(&mut g));
            r.dram = Some(random_block(&mut g));
            r.sampled = Some(random_sample_stats(&mut g));
            r.victim_swap_fills = Some(g.next_u64());
            assert_snapshot_roundtrips(&r);
        },
    );
}

/// The blocks a `RunResult` carries only when present round-trip for
/// any counter values.
#[test]
fn optional_result_blocks_snapshot_roundtrip() {
    check(
        "optional_result_blocks_snapshot_roundtrip",
        CASES,
        |g| g.next_u64(),
        |&seed| {
            let mut g = Gen::new(seed);
            assert_snapshot_roundtrips(&random_sample_stats(&mut g));
            assert_snapshot_roundtrips(&random_block::<DramStats>(&mut g));
            assert_snapshot_roundtrips(&random_block::<CoherenceStats>(&mut g));
        },
    );
}

// --------------------------------------------------- event-driven advance

/// Advancing the memory system cycle-by-cycle from a to b is
/// indistinguishable from a single jump `advance(b)`: the event-driven
/// advance replays every intermediate wake-up (global tick, prefetch
/// arrival, issue-gate opening) at its true timestamp, so access
/// outcomes and every hierarchy statistic stay bit-equal under an
/// arbitrary access schedule with arbitrary idle gaps.
#[test]
fn advance_jump_equals_stepping() {
    check(
        "advance_jump_equals_stepping",
        48,
        |g| g.vec(1..80, |g| (g.range(1..1_500), g.range(0..16), g.bool())),
        |schedule| {
            let cfg = SystemConfig::with_prefetch(PrefetchMode::Timekeeping(
                timekeeping::CorrelationConfig::PAPER_8KB,
            ));
            let mut jump = tk_sim::MemorySystem::new(cfg);
            let mut step = tk_sim::MemorySystem::new(cfg);
            let mut now = 0u64;
            for &(gap, line, is_store) in schedule {
                let prev = now;
                now += gap;
                for c in prev + 1..=now {
                    step.advance(Cycle::new(c));
                }
                jump.advance(Cycle::new(now));
                // Sixteen lines 16 KB apart share two direct-mapped L1
                // sets, so generations keep closing and the correlation
                // table trains and fires prefetches whose arrivals the
                // jump must replay.
                let mref = MemRef::new(Addr::new(0x4_0000 + line * 16 * 1024), Pc::new(0x10));
                let a = jump.access(&mref, is_store, Cycle::new(now));
                let b = step.access(&mref, is_store, Cycle::new(now));
                assert_eq!(a, b, "outcome diverged at cycle {now}");
            }
            jump.finish(Cycle::new(now));
            step.finish(Cycle::new(now));
            assert_eq!(jump.stats(), step.stats());
            assert_eq!(jump.miss_breakdown(), step.miss_breakdown());
            assert_eq!(jump.pf_queue_discards(), step.pf_queue_discards());
        },
    );
}
