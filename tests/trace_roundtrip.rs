//! Differential net over the capture→replay loop: a TKTRACE1 capture
//! exported with `tk_trace_export` and replayed through `--trace-file`
//! must reproduce the source run's hit/miss stream exactly.
//!
//! The capture is taken hermetically (a `Ref`-category observer
//! installed directly on the [`MemorySystem`], not via the
//! process-global `--trace` flags), so these tests cannot race other
//! tests over the global observability configuration. The engine-level
//! tests do touch the process-global trace registry and engine memo,
//! so they serialize on a local lock.

use std::sync::Mutex;

use tk_bench::engine::{self, Job};
use tk_bench::workload::{self, WorkloadId};
use tk_sim::obs::{TraceCategories, TraceCategory, TraceKind};
use tk_sim::trace::{Instr, Workload};
use tk_sim::{run_workload, HierarchyStats, MemorySystem, OooCore, RunResult, SystemConfig};
use tk_workloads::{capture_to_trace_text, gzip, SpecBenchmark, TraceFileWorkload};

/// The trace registry and the engine memo and counters are process
/// globals; tests that touch them must not interleave.
static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

const CAPTURE_INSTRUCTIONS: u64 = 60_000;
/// The base machine's L1 block size — the granularity of captured lines.
const BLOCK_BYTES: u64 = 32;

/// Runs the pinned source simulation with a `Ref` observer installed
/// and returns (exported trace text, source hierarchy stats).
fn captured_trace() -> (String, HierarchyStats) {
    let cfg = SystemConfig::base();
    let mut w = SpecBenchmark::Gzip.build(1);
    let mut core = OooCore::new(&cfg);
    let mut mem = MemorySystem::new(cfg);
    mem.install_trace(TraceCategories::none().with(TraceCategory::Ref), 1);
    let stats = core.run(&mut w, &mut mem, CAPTURE_INSTRUCTIONS);
    assert_eq!(stats.instructions, CAPTURE_INSTRUCTIONS);
    let hier = mem.stats();
    let records = mem.trace_records().expect("memory trace installed");
    let accesses = records
        .iter()
        .filter(|r| r.kind == TraceKind::Access)
        .count() as u64;
    assert_eq!(
        accesses, hier.l1_accesses,
        "--trace=ref must record exactly one Access per L1 access"
    );
    let text = capture_to_trace_text(records, BLOCK_BYTES).expect("capture holds refs");
    (text, hier)
}

fn replay(text: &str, budget: u64) -> RunResult {
    let mut w =
        TraceFileWorkload::from_reader("replay", text.as_bytes()).expect("exported text parses");
    run_workload(&mut w, SystemConfig::base(), budget)
}

/// The headline invariant: on the timing-free base configuration, the
/// replayed reference stream produces the same hit/miss counts at every
/// level of the hierarchy as the run it was captured from.
#[test]
fn replay_reproduces_the_source_hit_miss_stream() {
    let (text, src) = captured_trace();
    let refs = text.lines().count() as u64;
    assert_eq!(refs, src.l1_accesses);

    let r = replay(&text, refs);
    assert_eq!(r.hierarchy.l1_accesses, src.l1_accesses, "l1_accesses");
    assert_eq!(r.hierarchy.l1_hits, src.l1_hits, "l1_hits");
    assert_eq!(r.hierarchy.vc_hits, src.vc_hits, "vc_hits");
    assert_eq!(r.hierarchy.l2_accesses, src.l2_accesses, "l2_accesses");
    assert_eq!(r.hierarchy.l2_hits, src.l2_hits, "l2_hits");
    assert_eq!(r.hierarchy.mem_accesses, src.mem_accesses, "mem_accesses");
    assert_eq!(
        r.hierarchy.l1_writebacks, src.l1_writebacks,
        "l1_writebacks"
    );
    assert_eq!(
        r.hierarchy.l2_writebacks, src.l2_writebacks,
        "l2_writebacks"
    );
}

/// Replaying the same trace twice is bit-identical, end to end.
#[test]
fn replay_is_deterministic() {
    let (text, _) = captured_trace();
    let refs = text.lines().count() as u64;
    assert_eq!(replay(&text, refs), replay(&text, refs));
}

/// Capture→replay→re-capture is a fixed point: tracing the replay run
/// with the same `Ref` observer and re-exporting reproduces the trace
/// text byte for byte.
#[test]
fn re_export_of_a_replay_is_a_fixed_point() {
    let (text, _) = captured_trace();
    let refs = text.lines().count() as u64;

    let cfg = SystemConfig::base();
    let mut w =
        TraceFileWorkload::from_reader("replay", text.as_bytes()).expect("exported text parses");
    let mut core = OooCore::new(&cfg);
    let mut mem = MemorySystem::new(cfg);
    mem.install_trace(TraceCategories::none().with(TraceCategory::Ref), 1);
    core.run(&mut w, &mut mem, refs);
    let again = capture_to_trace_text(mem.trace_records().expect("trace installed"), BLOCK_BYTES)
        .expect("re-capture holds refs");
    assert_eq!(text, again, "re-exported capture diverged from its source");
}

/// A trace past its end wraps to the beginning: the second pass of a
/// looping replay replays the first pass exactly.
#[test]
fn looping_replay_wraps_to_the_start() {
    let (text, _) = captured_trace();
    let refs = text.lines().count();
    let mut w =
        TraceFileWorkload::from_reader("replay", text.as_bytes()).expect("exported text parses");
    let stream: Vec<Instr> = (0..refs * 2).map(|_| w.next_instr()).collect();
    assert_eq!(
        stream[..refs],
        stream[refs..],
        "second pass must replay the first"
    );
}

/// `--trace-once` mode pads with architectural no-ops instead of
/// wrapping, so a replay never re-touches the cache after one pass.
#[test]
fn once_mode_pads_instead_of_wrapping() {
    let (text, _) = captured_trace();
    let refs = text.lines().count();
    let mut w =
        TraceFileWorkload::from_reader("replay", text.as_bytes()).expect("exported text parses");
    w.set_once(true);
    for _ in 0..refs {
        assert!(!matches!(w.next_instr(), Instr::Op));
    }
    for _ in 0..refs {
        assert!(matches!(w.next_instr(), Instr::Op), "once mode must pad");
    }
    assert!(w.exhausted());
}

/// Registering an exported (and gzipped) trace makes it a first-class
/// engine workload: the digest-qualified cache key never aliases a
/// synthetic benchmark, and the engine's result equals the direct
/// serial run bit for bit.
#[test]
fn registered_trace_runs_through_the_engine() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    let (text, src) = captured_trace();
    let refs = text.lines().count() as u64;

    let dir = std::env::temp_dir().join(format!("tk-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("roundtrip.trace.gz");
    std::fs::write(&path, gzip::gzip_store(text.as_bytes())).expect("write gz trace");

    let h = workload::register_trace(path.to_str().expect("utf-8 temp path"))
        .expect("registering an exported trace");
    let id = WorkloadId::Trace(h);
    let info = workload::trace_info(h);
    assert!(info.compressed, "a .gz trace must register as compressed");
    assert_eq!(info.records, refs);

    let job = Job::new(id, SystemConfig::base(), 1, refs);
    assert!(
        job.cache_key()
            .starts_with(&format!("trace={:016x};", info.digest)),
        "cache key must carry the content digest: {}",
        job.cache_key()
    );
    engine::reset_stats();
    let via_engine = engine::run_jobs(&[job], 2);
    let direct = run_workload(&mut id.build(1), SystemConfig::base(), refs);
    assert_eq!(&*via_engine[0], &direct, "engine diverged from serial run");
    assert_eq!(direct.hierarchy.l1_hits, src.l1_hits);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// `--trace-once` is part of the experiment identity: the same trace in
/// once mode names itself differently, keys its results separately and
/// simulates separately, so looped and single-pass runs never alias in
/// the memo, the disk cache, or a golden digest.
#[test]
fn once_mode_changes_the_cache_key() {
    let _guard = GLOBAL_LOCK.lock().unwrap();
    let (full, _) = captured_trace();
    // A distinct prefix, so this registration cannot dedupe against the
    // full trace registered by the engine test above.
    let text: String = full.lines().take(1_000).fold(String::new(), |mut s, l| {
        s.push_str(l);
        s.push('\n');
        s
    });
    let dir = std::env::temp_dir().join(format!("tk-roundtrip-once-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("once.trace");
    std::fs::write(&path, &text).expect("write trace");

    let spec = path.to_str().expect("utf-8 temp path");
    let looped = WorkloadId::Trace(workload::register_trace(spec).expect("registering the trace"));
    let once =
        WorkloadId::Trace(workload::register_trace_with(spec, true).expect("registering once"));
    let looped_job = Job::new(looped, SystemConfig::base(), 1, 10_000);
    let once_job = Job::new(once, SystemConfig::base(), 1, 10_000);

    let (looped_key, once_key) = (looped_job.cache_key(), once_job.cache_key());
    assert_ne!(looped_key, once_key);
    assert!(once_key.contains(";once"));
    assert_ne!(looped.name(), once.name());
    assert!(once.name().ends_with("+once"));

    // One process, one engine: the once run must be simulated, not
    // served the looped run's memo entry.
    engine::reset_stats();
    let looped_r = engine::run_jobs(&[looped_job], 1)
        .pop()
        .expect("one result");
    let once_r = engine::run_jobs(&[once_job], 1).pop().expect("one result");
    assert_eq!(engine::memo_stats(), (0, 0, 2), "two distinct simulations");
    assert_ne!(looped_r, once_r);
    // The 1,000 records play once, then only non-memory padding.
    assert_eq!(
        once_r.hierarchy.l1_accesses,
        run_workload(&mut once.build(1), SystemConfig::base(), 10_000)
            .hierarchy
            .l1_accesses
    );
    assert!(once_r.hierarchy.l1_accesses < looped_r.hierarchy.l1_accesses);

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}
