//! Property tests of the workload generators on seeded random inputs:
//! determinism, pattern containment, instruction-mix bounds, and the
//! full-period guarantee of the pointer chase.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::collections::HashSet;

use cases::{check, CASES};
use tk_sim::trace::{Instr, Workload};
use tk_workloads::patterns::{
    AccessKind, BlockedPattern, Pattern, PointerChasePattern, StreamPattern, TriadPattern,
};
use tk_workloads::rng::Rng;
use tk_workloads::{SpecBenchmark, SyntheticWorkload};

/// Every benchmark is deterministic per seed.
#[test]
fn benchmarks_deterministic_per_seed() {
    check(
        "benchmarks_deterministic_per_seed",
        CASES,
        |g| (g.range_usize(0..26), g.range(0..1000)),
        |&(bench_idx, seed)| {
            let b = SpecBenchmark::ALL[bench_idx];
            let sample = |s: u64| {
                let mut w = b.build(s);
                (0..256).map(|_| w.next_instr()).collect::<Vec<_>>()
            };
            assert_eq!(sample(seed), sample(seed));
        },
    );
}

/// The stream pattern never leaves its footprint and advances by its
/// stride.
#[test]
fn stream_stays_in_footprint() {
    check(
        "stream_stays_in_footprint",
        CASES,
        |g| {
            (
                g.range(0..1 << 40),
                g.range_u32(10..24),
                g.range_u32(3..7),
                g.range_usize(1..500),
            )
        },
        |&(base, footprint_log, stride_log, n)| {
            let footprint = 1u64 << footprint_log;
            let mut p = StreamPattern::new(base, footprint, 1 << stride_log, 0x400, 4);
            let mut rng = Rng::new(1);
            for _ in 0..n {
                let a = p.next_access(&mut rng);
                assert!(a.addr >= base && a.addr < base + footprint);
            }
        },
    );
}

/// The pointer chase visits every node exactly once per lap, for any
/// power-of-two node count and any seed (the full-period LCG
/// guarantee).
#[test]
fn chase_is_a_full_permutation() {
    check(
        "chase_is_a_full_permutation",
        CASES,
        |g| (g.range_u32(2..10), g.next_u64()),
        |&(nodes_log, seed)| {
            let nodes = 1u64 << nodes_log;
            let mut p = PointerChasePattern::new(0, nodes, 64, 0x400, seed, 1);
            let mut rng = Rng::new(2);
            let mut seen = HashSet::new();
            for _ in 0..nodes {
                seen.insert(p.next_access(&mut rng).addr);
            }
            assert_eq!(seen.len() as u64, nodes, "lap must cover all nodes");
            // Second lap repeats the identical order.
            let first_of_lap2 = p.next_access(&mut rng).addr;
            assert_eq!(first_of_lap2, 0, "laps must restart at node 0");
        },
    );
}

/// Blocked traversal stays within its footprint and revisits each tile
/// exactly `sweeps` times before moving on.
#[test]
fn blocked_tile_revisits() {
    check(
        "blocked_tile_revisits",
        CASES,
        |g| (g.range(1..5), g.range(1..6)),
        |&(sweeps, tiles)| {
            let tile = 4096u64;
            let footprint = tile * tiles;
            let mut p = BlockedPattern::new(0, footprint, tile, sweeps, 64, 0x400);
            let mut rng = Rng::new(3);
            let per_sweep = tile / 64;
            // First tile: all accesses below `tile` for sweeps * per_sweep.
            for _ in 0..sweeps * per_sweep {
                let a = p.next_access(&mut rng);
                assert!(a.addr < tile);
            }
            // Then the second tile (or wrap to the first if only one tile).
            let next = p.next_access(&mut rng);
            if tiles > 1 {
                assert!(next.addr >= tile && next.addr < 2 * tile);
            } else {
                assert!(next.addr < tile);
            }
        },
    );
}

/// Triads rotate load/load/store over three disjoint arrays.
#[test]
fn triad_mix_is_two_loads_one_store() {
    check(
        "triad_mix_is_two_loads_one_store",
        CASES,
        |g| g.range_usize(1..200),
        |&n| {
            let mut p = TriadPattern::new([0, 1 << 30, 2 << 30], 1 << 20, 8, 0x400);
            let mut rng = Rng::new(4);
            let mut stores = 0usize;
            for _ in 0..3 * n {
                if matches!(p.next_access(&mut rng).kind, AccessKind::Store) {
                    stores += 1;
                }
            }
            assert_eq!(stores, n, "exactly one store per triple");
        },
    );
}

/// The composite workload's memory fraction matches its compute gap
/// configuration within tolerance.
#[test]
fn workload_instruction_mix() {
    check(
        "workload_instruction_mix",
        CASES,
        |g| g.range(0..6),
        |&base_gap| {
            let mut w = SyntheticWorkload::builder("t", 5)
                .compute_per_mem(base_gap, 0)
                .pattern(1, Box::new(StreamPattern::new(0, 1 << 20, 8, 0x400, 0)))
                .build();
            let n = 4000usize;
            let mem = (0..n).filter(|_| w.next_instr().is_mem()).count();
            let expected = n as f64 / (1.0 + base_gap as f64);
            assert!(
                (mem as f64 - expected).abs() < expected * 0.1 + 10.0,
                "mem {mem} vs expected {expected}"
            );
        },
    );
}

/// The SPEC suite's instruction streams contain only well-formed
/// instructions (every memory reference has a nonzero PC region and the
/// suite mixes loads and stores). The walk is long enough to sample
/// several 64 K-access pattern phases per benchmark.
#[test]
fn suite_streams_are_well_formed() {
    for b in SpecBenchmark::ALL {
        let mut w = b.build(1);
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..2_000_000 {
            match w.next_instr() {
                Instr::Load(m) | Instr::ChainedLoad(m) | Instr::SwPrefetch(m) => {
                    assert!(m.pc.get() > 0, "{b}: zero PC");
                    loads += 1;
                }
                Instr::Store(m) => {
                    assert!(m.pc.get() > 0, "{b}: zero PC");
                    stores += 1;
                }
                Instr::Op => {}
            }
        }
        assert!(loads > 0, "{b} must load");
        assert!(stores > 0, "{b} must store");
    }
}
