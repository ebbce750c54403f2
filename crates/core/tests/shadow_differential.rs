//! Differential test of the miss-classification shadow.
//!
//! [`FullyAssocShadow`] is checked step by step against a naive
//! fully-associative LRU: a `Vec` kept in recency order and searched
//! linearly, with the ever-seen set as a plain sorted list. Every
//! classification, `len()`, `contains()` and `breakdown()` must agree,
//! from empty shadows and from shadows seeded with `from_parts` and
//! `from_parts_epoch` at several epoch cuts.

use std::sync::Arc;

use timekeeping::{FullyAssocShadow, LineAddr, LineMap, LineSet, MissBreakdown, MissKind};

/// Deterministic SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The frozen "seen before" prefix a seeded shadow starts from.
enum Base {
    None,
    Set(Vec<u64>),
    Epoch(Vec<(u64, u32)>, u32),
}

/// The obviously-correct model: residents in a `Vec`, LRU first.
struct NaiveLru {
    cap: usize,
    stack: Vec<u64>,
    seen: Vec<u64>,
    base: Base,
    breakdown: MissBreakdown,
}

impl NaiveLru {
    fn new(cap: usize) -> Self {
        Self::seeded(cap, Vec::new(), Base::None)
    }

    fn seeded(cap: usize, resident_lru_to_mru: Vec<u64>, base: Base) -> Self {
        let mut seen = resident_lru_to_mru.clone();
        seen.sort_unstable();
        NaiveLru {
            cap,
            stack: resident_lru_to_mru,
            seen,
            base,
            breakdown: MissBreakdown::default(),
        }
    }

    fn ever_seen(&self, line: u64) -> bool {
        self.seen.binary_search(&line).is_ok()
            || match &self.base {
                Base::None => false,
                Base::Set(lines) => lines.contains(&line),
                Base::Epoch(first, epoch) => first.iter().any(|&(l, e)| l == line && e < *epoch),
            }
    }

    fn touch(&mut self, line: u64) {
        if let Err(at) = self.seen.binary_search(&line) {
            self.seen.insert(at, line);
        }
        if let Some(pos) = self.stack.iter().position(|&l| l == line) {
            self.stack.remove(pos);
        } else if self.stack.len() == self.cap {
            self.stack.remove(0);
        }
        self.stack.push(line);
    }

    fn classify_miss(&mut self, line: u64) -> MissKind {
        let kind = if !self.ever_seen(line) {
            MissKind::Cold
        } else if self.stack.contains(&line) {
            MissKind::Conflict
        } else {
            MissKind::Capacity
        };
        self.breakdown.record(kind);
        self.touch(line);
        kind
    }
}

/// Drives both models through `steps` seeded references over lines
/// `0..footprint`, mixing hit and miss observations, and asserts they
/// agree after every step.
fn lockstep(
    shadow: &mut FullyAssocShadow,
    naive: &mut NaiveLru,
    footprint: u64,
    steps: u32,
    seed: u64,
) {
    let mut rng = SplitMix(seed);
    for step in 0..steps {
        let r = rng.next();
        let line = r % footprint;
        let ctx = format!(
            "cap {} footprint {footprint} seed {seed} step {step}",
            naive.cap
        );
        if r >> 62 == 0 {
            shadow.on_access(LineAddr::new(line));
            naive.touch(line);
        } else {
            let want = naive.classify_miss(line);
            assert_eq!(shadow.classify_miss(LineAddr::new(line)), want, "{ctx}");
        }
        assert_eq!(shadow.len(), naive.stack.len(), "{ctx}");
        assert_eq!(shadow.is_empty(), naive.stack.is_empty(), "{ctx}");
        assert_eq!(shadow.breakdown(), naive.breakdown, "{ctx}");
        assert!(shadow.contains(LineAddr::new(line)), "{ctx}");
        let probe = rng.next() % (footprint + 4);
        assert_eq!(
            shadow.contains(LineAddr::new(probe)),
            naive.stack.contains(&probe),
            "{ctx} probe {probe}"
        );
        if step % 97 == 0 {
            for &l in &naive.stack {
                assert!(shadow.contains(LineAddr::new(l)), "{ctx} resident {l}");
            }
        }
    }
}

/// Footprints below, at and several times above capacity.
fn footprints(cap: usize) -> [u64; 4] {
    let cap = cap as u64;
    [(cap / 2).max(1), cap, 3 * cap, 8 * cap]
}

const CAPACITIES: [usize; 4] = [1, 2, 8, 1024];

fn steps_for(cap: usize) -> u32 {
    if cap >= 1024 {
        12_000
    } else {
        4_000
    }
}

#[test]
fn fresh_shadow_matches_naive_lru() {
    for cap in CAPACITIES {
        for (i, footprint) in footprints(cap).into_iter().enumerate() {
            let seed = 0x5eed ^ ((cap as u64) << 8) ^ i as u64;
            let mut shadow = FullyAssocShadow::new(cap);
            let mut naive = NaiveLru::new(cap);
            lockstep(&mut shadow, &mut naive, footprint, steps_for(cap), seed);
            assert_eq!(shadow.capacity(), cap);
        }
    }
}

/// Runs a naive warm-up of `steps` references over lines `0..footprint`
/// and returns its (LRU → MRU resident stack, sorted seen set) at every
/// `interval` boundary, boundary 0 (the empty state) first.
fn warm(
    cap: usize,
    footprint: u64,
    steps: u32,
    interval: u32,
    seed: u64,
) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut naive = NaiveLru::new(cap);
    let mut rng = SplitMix(seed);
    let mut cuts = vec![(Vec::new(), Vec::new())];
    for step in 1..=steps {
        naive.touch(rng.next() % footprint);
        if step % interval == 0 {
            cuts.push((naive.stack.clone(), naive.seen.clone()));
        }
    }
    cuts
}

#[test]
fn from_parts_seeded_shadow_matches_naive_lru() {
    for cap in CAPACITIES {
        for (i, footprint) in footprints(cap).into_iter().enumerate() {
            let seed = 0xba5e ^ ((cap as u64) << 8) ^ i as u64;
            let cuts = warm(cap, footprint, 4 * cap as u32 + 64, cap as u32 + 16, seed);
            let (resident, seen) = cuts.last().expect("boundary 0 always present").clone();
            let base: Arc<LineSet> = Arc::new(seen.iter().copied().collect());
            let mut shadow = FullyAssocShadow::from_parts(
                cap,
                resident.iter().copied(),
                base,
                MissBreakdown::default(),
            );
            let mut naive = NaiveLru::seeded(cap, resident, Base::Set(seen));
            lockstep(&mut shadow, &mut naive, footprint, steps_for(cap), seed + 1);
        }
    }
}

#[test]
fn from_parts_residents_outside_the_base_count_as_seen() {
    // The residents join the seen overlay even when the frozen base does
    // not hold them, and base lines that are not resident stay seen.
    let base_lines = vec![100u64, 101, 102];
    let resident = vec![7u64, 8];
    let start = MissBreakdown {
        cold: 5,
        conflict: 3,
        capacity: 1,
    };
    let base: Arc<LineSet> = Arc::new(base_lines.iter().copied().collect());
    let mut shadow = FullyAssocShadow::from_parts(2, resident.iter().copied(), base, start);
    let mut naive = NaiveLru::seeded(2, resident, Base::Set(base_lines));
    naive.breakdown = start;
    assert_eq!(shadow.breakdown(), start);
    lockstep(&mut shadow, &mut naive, 110, 2_000, 3);
}

#[test]
fn from_parts_epoch_seeded_shadow_matches_naive_lru() {
    for cap in CAPACITIES {
        for (i, footprint) in footprints(cap).into_iter().enumerate() {
            let seed = 0xe90c ^ ((cap as u64) << 8) ^ i as u64;
            let interval = cap as u32 + 16;
            let cuts = warm(cap, footprint, 6 * interval, interval, seed);
            // First-touch interval of every line the whole warm-up saw.
            let mut first: Vec<(u64, u32)> = Vec::new();
            for (epoch, (_, seen)) in cuts.iter().enumerate().skip(1) {
                for &l in seen {
                    if !first.iter().any(|&(f, _)| f == l) {
                        first.push((l, epoch as u32 - 1));
                    }
                }
            }
            let shared: Arc<LineMap<u32>> = Arc::new(first.iter().copied().collect());
            let last = cuts.len() as u32 - 1;
            for epoch in [0, 1, last / 2, last] {
                let (resident, _) = cuts[epoch as usize].clone();
                let mut shadow = FullyAssocShadow::from_parts_epoch(
                    cap,
                    resident.iter().copied(),
                    Arc::clone(&shared),
                    epoch,
                    MissBreakdown::default(),
                );
                let mut naive = NaiveLru::seeded(cap, resident, Base::Epoch(first.clone(), epoch));
                lockstep(
                    &mut shadow,
                    &mut naive,
                    footprint,
                    steps_for(cap) / 2,
                    seed + u64::from(epoch),
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "duplicate resident line 0x5")]
fn from_parts_rejects_duplicate_resident() {
    let _ = FullyAssocShadow::from_parts(4, [5u64, 6, 5], Arc::default(), MissBreakdown::default());
}

#[test]
#[should_panic(expected = "duplicate resident line 0x2")]
fn from_parts_epoch_rejects_duplicate_resident() {
    let _ = FullyAssocShadow::from_parts_epoch(
        4,
        [2u64, 2],
        Arc::default(),
        1,
        MissBreakdown::default(),
    );
}

#[test]
#[should_panic(expected = "3 resident lines exceed capacity 2")]
fn from_parts_rejects_more_residents_than_capacity() {
    let _ = FullyAssocShadow::from_parts(2, [1u64, 2, 3], Arc::default(), MissBreakdown::default());
}

#[test]
#[should_panic(expected = "5 resident lines exceed capacity 1")]
fn from_parts_epoch_rejects_more_residents_than_capacity() {
    let _ = FullyAssocShadow::from_parts_epoch(
        1,
        10u64..15,
        Arc::default(),
        0,
        MissBreakdown::default(),
    );
}
