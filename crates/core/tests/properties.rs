//! Property tests of the core timekeeping structures: each checks a
//! structural invariant on seeded random inputs, several against
//! independent reference models.

#[path = "../../../tests/support/cases.rs"]
mod cases;

use std::collections::VecDeque;

use cases::{check, Gen, CASES};
use timekeeping::metrics::MetricsCollector;
use timekeeping::snapshot::{Json, Snapshot};
use timekeeping::{
    Addr, CacheGeometry, CoarseCounter, CorrelationConfig, CorrelationStats, CorrelationTable,
    Cycle, DbcpStats, EvictCause, GlobalTicker, Histogram, LineAddr, LineMeta, LinePlane,
    LiveTimeVariability, MissBreakdown, MissKind, PrefetchQueue, PrefetchRequest, Timeliness,
    TimelinessStats, VictimCache, VictimStats,
};

// ---------------------------------------------------------------- geometry

/// Tag/index decomposition round-trips for any power-of-two geometry.
#[test]
fn geometry_decomposition_roundtrips() {
    check(
        "geometry_decomposition_roundtrips",
        CASES,
        |g| {
            (
                g.range_u32(10..24),
                g.range_u32(0..4),
                g.range_u32(4..8),
                g.next_u64(),
            )
        },
        |&(size_log, assoc_log, block_log, addr)| {
            let geom = CacheGeometry::new(1 << size_log, 1 << assoc_log, 1 << block_log)
                .expect("valid geometry");
            let a = Addr::new(addr);
            let line = geom.line_of(a);
            assert_eq!(geom.line_from_parts(geom.tag_of(a), geom.index_of(a)), line);
            assert_eq!(geom.tag_of_line(line), geom.tag_of(a));
            assert_eq!(geom.index_of_line(line), geom.index_of(a));
            // The base address of the line contains the address's line.
            assert_eq!(geom.line_of(geom.addr_of_line(line)), line);
            // Index is always within the set count.
            assert!(geom.index_of(a) < geom.num_sets());
        },
    );
}

/// Two addresses in the same block always share tag and index.
#[test]
fn same_block_same_decomposition() {
    check(
        "same_block_same_decomposition",
        CASES,
        |g| (g.next_u64(), g.range(0..32)),
        |&(base, off)| {
            let geom = CacheGeometry::new(32 * 1024, 1, 32).unwrap();
            let a = Addr::new(base & !31);
            let b = a.offset(off);
            assert_eq!(geom.tag_of(a), geom.tag_of(b));
            assert_eq!(geom.index_of(a), geom.index_of(b));
        },
    );
}

// --------------------------------------------------------------- histogram

/// Bucket counts plus overflow always equal the number of samples, and
/// cumulative fractions are monotone in the threshold.
#[test]
fn histogram_conservation_and_monotonicity() {
    check(
        "histogram_conservation_and_monotonicity",
        CASES,
        |g| {
            (
                g.vec(1..200, |g| g.range(0..200_000)),
                g.range(1..5_000),
                g.range_usize(1..64),
            )
        },
        |(values, width, buckets)| {
            let (width, buckets) = (*width, *buckets);
            let mut h = Histogram::new(width, buckets);
            for &v in values {
                h.record(v);
            }
            let bucket_sum: u64 = (0..buckets).map(|i| h.bucket_count(i)).sum();
            assert_eq!(bucket_sum + h.overflow_count(), values.len() as u64);
            assert_eq!(h.total(), values.len() as u64);
            assert_eq!(h.min(), values.iter().copied().min());
            assert_eq!(h.max(), values.iter().copied().max());

            let mut prev = 0.0;
            for t in (0..10).map(|i| i * width * buckets as u64 / 8) {
                let f = h.fraction_below(t);
                assert!(f >= prev - 1e-12, "fraction_below must be monotone");
                prev = f;
            }
        },
    );
}

/// `fraction_below` at a bucket boundary equals the exact fraction of
/// samples below that value.
#[test]
fn histogram_fraction_below_is_exact_on_boundaries() {
    check(
        "histogram_fraction_below_is_exact_on_boundaries",
        CASES,
        |g| (g.vec(1..200, |g| g.range(0..10_000)), g.range(0..100)),
        |(values, bucket_idx)| {
            let mut h = Histogram::new(100, 100);
            for &v in values {
                h.record(v);
            }
            let t = bucket_idx * 100;
            let expected = values.iter().filter(|&&v| v < t).count() as f64 / values.len() as f64;
            assert!((h.fraction_below(t) - expected).abs() < 1e-12);
        },
    );
}

/// Merging two histograms equals recording the concatenated samples.
#[test]
fn histogram_merge_is_concatenation() {
    check(
        "histogram_merge_is_concatenation",
        CASES,
        |g| {
            (
                g.vec(0..100, |g| g.range(0..50_000)),
                g.vec(0..100, |g| g.range(0..50_000)),
            )
        },
        |(a, b)| {
            let mut ha = Histogram::new(100, 64);
            let mut hb = Histogram::new(100, 64);
            let mut hall = Histogram::new(100, 64);
            for &v in a {
                ha.record(v);
                hall.record(v);
            }
            for &v in b {
                hb.record(v);
                hall.record(v);
            }
            ha.merge(&hb);
            assert_eq!(ha, hall);
        },
    );
}

// ------------------------------------------------------------ time helpers

/// Tick arithmetic: ticks_in and cycles round-trip within one period.
#[test]
fn ticker_roundtrip() {
    check(
        "ticker_roundtrip",
        CASES,
        |g| (g.range(1..10_000), g.range(0..10_000_000)),
        |&(period, cycles)| {
            let t = GlobalTicker::new(period);
            let ticks = t.ticks_in(cycles);
            assert!(t.cycles(ticks) <= cycles);
            assert!(cycles - t.cycles(ticks) < period);
        },
    );
}

/// Jump arithmetic used by the event-driven clock: `cycle_of_tick` is
/// the exact left inverse of `tick_of`, and the boundary it names is
/// the first cycle of its tick — hopping the clock straight to it
/// crosses exactly one tick, never zero and never two.
#[test]
fn ticker_jump_boundaries() {
    check(
        "ticker_jump_boundaries",
        CASES,
        |g| (g.range(1..10_000), g.range(0..10_000_000)),
        |&(period, cycle)| {
            let t = GlobalTicker::new(period);
            let c = Cycle::new(cycle);
            let tick = t.tick_of(c);
            let boundary = t.cycle_of_tick(tick);
            assert_eq!(t.tick_of(boundary), tick);
            assert!(
                boundary <= c,
                "a tick starts at or before any cycle inside it"
            );
            let next = t.cycle_of_tick(tick + 1);
            assert!(c < next, "cycle lies before the next boundary");
            assert_eq!(
                t.ticks_between(c, next),
                1,
                "hopping to the boundary crosses one tick"
            );
            assert!(
                !t.ticked_between(boundary, Cycle::new(next.get() - 1)),
                "no tick strictly inside the span"
            );
        },
    );
}

/// A coarse counter never exceeds its width's maximum regardless of
/// the advance sequence.
#[test]
fn coarse_counter_saturates() {
    check(
        "coarse_counter_saturates",
        CASES,
        |g| (g.range_u32(1..16), g.vec(0..50, |g| g.range(0..1000))),
        |(bits, steps)| {
            let mut c = CoarseCounter::new(*bits);
            let max = c.max_value();
            for &s in steps {
                c.advance(s);
                assert!(c.get() <= max);
            }
        },
    );
}

// ------------------------------------------------------------ victim cache

/// The victim cache holds at most `capacity` entries, and `take`
/// matches a brute-force LRU reference.
#[test]
fn victim_cache_matches_reference() {
    check(
        "victim_cache_matches_reference",
        CASES,
        |g| {
            (
                g.vec(1..300, |g| (g.range(0..32), g.bool())),
                g.range_usize(1..16),
            )
        },
        |(ops, cap)| {
            let cap = *cap;
            let mut vc = VictimCache::new(cap);
            let mut reference: Vec<u64> = Vec::new();
            for &(line, is_insert) in ops {
                if is_insert {
                    vc.insert(LineAddr::new(line));
                    reference.retain(|&l| l != line);
                    reference.push(line);
                    if reference.len() > cap {
                        reference.remove(0);
                    }
                } else {
                    let expected = reference.iter().position(|&l| l == line).map(|i| {
                        reference.remove(i);
                    });
                    assert_eq!(vc.take(LineAddr::new(line)), expected.is_some());
                }
                assert!(vc.len() <= cap);
                assert_eq!(vc.len(), reference.len());
            }
        },
    );
}

// ------------------------------------------------------ generation tracker

/// For any fill/hit/evict schedule: live + dead spans the generation,
/// live time is the last-hit offset, and access counts match.
#[test]
fn tracker_time_accounting() {
    check(
        "tracker_time_accounting",
        CASES,
        |g| (g.vec(0..20, |g| g.range(1..1_000)), g.range(1..100_000)),
        |(hit_gaps, tail)| {
            let mut t = LinePlane::new(1);
            let start = Cycle::new(17);
            t.fill(0, LineAddr::new(5), start);
            let mut now = start;
            let mut max_gap = 0;
            for &gap in hit_gaps {
                now += gap;
                assert_eq!(t.hit(0, now), gap);
                max_gap = max_gap.max(gap);
            }
            let evict_at = now + *tail;
            let rec = t
                .evict(0, evict_at, EvictCause::Demand)
                .expect("open generation");
            assert_eq!(rec.live_time, now - start);
            assert_eq!(rec.dead_time, *tail);
            assert_eq!(rec.generation_time(), evict_at - start);
            assert_eq!(rec.accesses as usize, hit_gaps.len() + 1);
            assert_eq!(rec.max_access_interval, max_gap);
            assert_eq!(rec.zero_live_time(), hit_gaps.is_empty());
        },
    );
}

/// Reload intervals chain: consecutive generations of the same line
/// measure exactly the gap between their fills.
#[test]
fn tracker_reload_interval_chain() {
    check(
        "tracker_reload_interval_chain",
        CASES,
        |g| g.vec(1..20, |g| g.range(1..100_000)),
        |gaps| {
            let mut t = LinePlane::new(1);
            let mut now = Cycle::new(0);
            t.fill(0, LineAddr::new(9), now);
            for &gap in gaps {
                t.evict(0, now + gap / 2 + 1, EvictCause::Demand);
                let prev = now;
                now += gap;
                assert_eq!(t.fill(0, LineAddr::new(9), now), Some(now - prev));
            }
        },
    );
}

// -------------------------------------------------------- correlation table

/// A lookup immediately after an update with the same key returns that
/// update's payload (no silent loss within a set's capacity of one).
#[test]
fn correlation_last_update_wins() {
    check(
        "correlation_last_update_wins",
        CASES,
        |g| {
            (
                g.next_u64(),
                g.next_u64(),
                g.range(0..1024),
                g.next_u64(),
                g.next_u64(),
                g.range(0..32) as u8,
            )
        },
        |&(hist, cur, index, next1, next2, lt)| {
            let mut t = CorrelationTable::new(CorrelationConfig::PAPER_8KB);
            t.update(hist, cur, index, next1, lt, lt);
            t.update(hist, cur, index, next2, lt, lt);
            let p = t.lookup(hist, cur, index).expect("just updated");
            assert_eq!(p.next_tag, next2);
            assert_eq!(p.live_time_ticks, lt.min(31));
        },
    );
}

/// Occupancy never exceeds the configured entry count.
#[test]
fn correlation_occupancy_bounded() {
    check(
        "correlation_occupancy_bounded",
        CASES,
        |g| g.vec(1..500, |g| (g.next_u64(), g.next_u64(), g.range(0..1024))),
        |ops| {
            let cfg = CorrelationConfig {
                m_bits: 3,
                n_bits: 1,
                ways: 2,
            };
            let mut t = CorrelationTable::new(cfg);
            for &(h, c, i) in ops {
                t.update(h, c, i, h ^ c, 1, 1);
                assert!(t.occupancy() <= cfg.num_entries());
            }
        },
    );
}

// ------------------------------------------------- live-time variability

/// The exact integer log2-ratio bucketing agrees with the
/// floating-point computation.
#[test]
fn variability_ratio_matches_float() {
    check(
        "variability_ratio_matches_float",
        CASES,
        |g| (g.range(1..1_000_000), g.range(1..1_000_000)),
        |&(prev, cur)| {
            let mut v = LiveTimeVariability::new();
            v.record(prev, cur);
            let expected = (cur as f64 / prev as f64).log2().floor() as i32;
            let expected_bucket = (12 + expected).clamp(0, 24) as usize;
            assert_eq!(
                v.ratio_buckets()[expected_bucket],
                1,
                "prev={prev} cur={cur} expected bucket {expected_bucket}"
            );
        },
    );
}

/// `fraction_within_2x` counts exactly the pairs with cur < 2*prev
/// (for nonzero pairs away from clamp extremes).
#[test]
fn variability_within_2x_exact() {
    check(
        "variability_within_2x_exact",
        CASES,
        |g| g.vec(1..100, |g| (g.range(1..100_000), g.range(1..100_000))),
        |pairs| {
            let mut v = LiveTimeVariability::new();
            let mut expected = 0usize;
            for &(p, c) in pairs {
                v.record(p, c);
                if c < 2 * p {
                    expected += 1;
                }
            }
            let frac = v.fraction_within_2x();
            assert!((frac - expected as f64 / pairs.len() as f64).abs() < 1e-9);
        },
    );
}

// ---------------------------------------------------- snapshot round-trip

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

/// `count` timeliness events: (address correct, timeliness class index).
fn timeliness_events(g: &mut Gen, count: std::ops::Range<usize>) -> Vec<(bool, usize)> {
    g.vec(count, |g| (g.bool(), g.range_usize(0..5)))
}

/// Flat counter statistics round-trip for arbitrary counter values.
#[test]
fn snapshot_roundtrips_counter_stats() {
    check(
        "snapshot_roundtrips_counter_stats",
        CASES,
        |g| (g.next_u64(), g.next_u64(), g.next_u64(), g.next_u64()),
        |&(a, b, c, d)| {
            assert_snapshot_roundtrips(&MissBreakdown {
                cold: a,
                conflict: b,
                capacity: c,
            });
            assert_snapshot_roundtrips(&VictimStats {
                offered: a,
                admitted: b,
                probes: c,
                hits: d,
            });
            assert_snapshot_roundtrips(&CorrelationStats {
                lookups: a,
                hits: b,
                updates: c,
                allocations: d,
            });
            assert_snapshot_roundtrips(&DbcpStats {
                lookups: a,
                predictions: b,
                prefetches: c,
                updates: d,
            });
        },
    );
}

/// Histograms round-trip for any geometry and sample set (including
/// overflow and the min/max extremes).
#[test]
fn snapshot_roundtrips_histogram() {
    check(
        "snapshot_roundtrips_histogram",
        CASES,
        |g| {
            (
                g.vec(0..200, Gen::next_u64),
                g.range(1..5_000),
                g.range_usize(1..64),
            )
        },
        |(values, width, buckets)| {
            let mut h = Histogram::new(*width, *buckets);
            for &v in values {
                h.record(v);
            }
            assert_snapshot_roundtrips(&h);
        },
    );
}

/// Live-time variability round-trips for any recorded pair set.
#[test]
fn snapshot_roundtrips_variability() {
    check(
        "snapshot_roundtrips_variability",
        CASES,
        |g| g.vec(0..100, |g| (g.range(1..1_000_000), g.range(1..1_000_000))),
        |pairs| {
            let mut v = LiveTimeVariability::new();
            for &(p, c) in pairs {
                v.record(p, c);
            }
            assert_snapshot_roundtrips(&v);
        },
    );
}

/// Timeliness statistics round-trip for any event mix.
#[test]
fn snapshot_roundtrips_timeliness() {
    check(
        "snapshot_roundtrips_timeliness",
        CASES,
        |g| timeliness_events(g, 0..200),
        |events| {
            let mut s = TimelinessStats::new();
            for &(correct, class_idx) in events {
                s.record(correct, Timeliness::ALL[class_idx]);
            }
            assert_snapshot_roundtrips(&s);
        },
    );
}

/// The full metrics collector — histograms per miss kind, generation
/// accounting, variability — round-trips after arbitrary activity.
#[test]
fn snapshot_roundtrips_metrics_collector() {
    check(
        "snapshot_roundtrips_metrics_collector",
        CASES,
        |g| {
            (
                g.vec(0..30, |g| (g.range(1..10_000), g.range(1..10_000))),
                g.vec(0..100, |g| (g.range(0..200_000), g.range_usize(0..3))),
                g.vec(0..50, |g| g.range(0..1_000_000)),
            )
        },
        |(gens, misses, intervals)| {
            let mut m = MetricsCollector::new();
            let mut t = LinePlane::new(1);
            let mut now = Cycle::new(0);
            for &(live, tail) in gens {
                t.fill(0, LineAddr::new(3), now);
                t.hit(0, now + live);
                let rec = t
                    .evict(0, now + live + tail, EvictCause::Demand)
                    .expect("open");
                m.on_generation(&rec);
                now += live + tail;
            }
            let kinds = [MissKind::Cold, MissKind::Conflict, MissKind::Capacity];
            for &(ri, k) in misses {
                let h = LineMeta {
                    last_start: Cycle::new(0),
                    last_live_time: ri / 2,
                    last_dead_time: ri / 3,
                    completed: true,
                    ..LineMeta::default()
                };
                m.on_miss(kinds[k], Some(&h), Some(ri));
            }
            for &i in intervals {
                m.on_access_interval(i);
            }
            assert_snapshot_roundtrips(&m);
        },
    );
}

// ------------------------------------------------------- prefetch queue

/// The queue is FIFO, bounded, and conserves requests:
/// enqueued = popped + discarded + still-pending.
#[test]
fn prefetch_queue_conserves_requests() {
    check(
        "prefetch_queue_conserves_requests",
        CASES,
        |g| {
            (
                g.vec(1..300, |g| (g.range(0..64), g.bool())),
                g.range_usize(1..16),
            )
        },
        |(ops, cap)| {
            let cap = *cap;
            let mut q = PrefetchQueue::new(cap);
            let mut reference: VecDeque<u64> = VecDeque::new();
            let mut popped = 0u64;
            for &(line, push) in ops {
                if push {
                    q.push(PrefetchRequest {
                        line: LineAddr::new(line),
                        frame: 0,
                        need_in_ticks: None,
                    });
                    reference.push_back(line);
                    if reference.len() > cap {
                        reference.pop_front();
                    }
                } else {
                    let got = q.pop().map(|r| r.line.get());
                    assert_eq!(got, reference.pop_front());
                    if got.is_some() {
                        popped += 1;
                    }
                }
                assert!(q.len() <= cap);
                assert_eq!(q.len(), reference.len());
            }
            assert_eq!(q.enqueued(), popped + q.discarded() + q.len() as u64);
        },
    );
}

// --------------------------------------------- conflict sweep soundness

/// The threshold-sweep accuracy/coverage computed from histograms
/// agrees with a brute-force evaluation over the raw samples.
#[test]
fn conflict_sweep_matches_bruteforce() {
    check(
        "conflict_sweep_matches_bruteforce",
        CASES,
        |g| {
            (
                g.vec(1..150, |g| (g.range(0..200_000), g.bool())),
                g.range(1..64),
            )
        },
        |(samples, threshold_k)| {
            let threshold = threshold_k * 1000;
            let mut m = MetricsCollector::new();
            for &(ri, is_conflict) in samples {
                let kind = if is_conflict {
                    MissKind::Conflict
                } else {
                    MissKind::Capacity
                };
                let h = LineMeta {
                    last_start: Cycle::new(0),
                    last_live_time: 1,
                    last_dead_time: 1,
                    completed: true,
                    ..LineMeta::default()
                };
                m.on_miss(kind, Some(&h), Some(ri));
            }
            let pts = m.conflict_sweep_reload(&[threshold]);
            let tp = samples
                .iter()
                .filter(|&&(ri, c)| c && ri < threshold)
                .count();
            let fp = samples
                .iter()
                .filter(|&&(ri, c)| !c && ri < threshold)
                .count();
            let pos = samples.iter().filter(|&&(_, c)| c).count();
            let expect_acc = (tp + fp > 0).then(|| tp as f64 / (tp + fp) as f64);
            let expect_cov = (pos > 0).then(|| tp as f64 / pos as f64);
            for (got, want) in [(pts[0].accuracy, expect_acc), (pts[0].coverage, expect_cov)] {
                match (got, want) {
                    (Some(a), Some(e)) => assert!((a - e).abs() < 1e-12, "{a} vs {e}"),
                    (a, e) => assert_eq!(a, e),
                }
            }
        },
    );
}

// ------------------------------------------------------ timeliness stats

/// Per-correctness fractions sum to one over the five classes whenever
/// anything was recorded, and merge adds counts cell-wise.
#[test]
fn timeliness_fractions_partition() {
    check(
        "timeliness_fractions_partition",
        CASES,
        |g| timeliness_events(g, 1..200),
        |events| {
            let mut s = TimelinessStats::new();
            for &(correct, class_idx) in events {
                s.record(correct, Timeliness::ALL[class_idx]);
            }
            for correct in [true, false] {
                if s.total(correct) > 0 {
                    let sum: f64 = Timeliness::ALL
                        .iter()
                        .map(|&c| s.fraction(correct, c))
                        .sum();
                    assert!((sum - 1.0).abs() < 1e-9);
                }
            }
            let mut doubled = s;
            doubled.merge(&s);
            assert_eq!(doubled.total(true), 2 * s.total(true));
            assert_eq!(doubled.total(false), 2 * s.total(false));
        },
    );
}
