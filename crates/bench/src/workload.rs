//! Workload identity for the engine: synthetic benchmarks and
//! registered external trace files, unified behind one cheap,
//! hashable [`WorkloadId`].
//!
//! The `--trace-file=PATH[:fmt]` flag ([`register_trace`]) opens and
//! validates a [`TraceFileWorkload`] once and parks the prototype in a
//! process-global registry; every [`Job`](crate::Job) referring to it
//! carries only the small [`TraceHandle`]. Clones of the prototype are
//! cheap (the eager backend shares its instruction vector; the
//! streaming backend reopens the file), so building a job's workload
//! never re-validates the trace.
//!
//! Cache-key discipline: a trace job's key fragment is
//! `trace={digest:016x}` — the FNV-1a digest of the decoded
//! instruction stream, plus `;once` for a single-pass registration —
//! where a synthetic job's is `bench={name}`.
//! Digests are format- and compression-independent but sensitive to
//! any one-record change, so memo entries, disk-cache files, sampling
//! fingerprints and golden digests can never alias across traces, and
//! never collide with a benchmark name.

use std::sync::Mutex;

use tk_sim::trace::{Instr, Workload};
use tk_workloads::{SpecBenchmark, SyntheticWorkload, TraceFileWorkload};

/// A registered external trace (see [`register_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceHandle(u32);

/// What a [`Job`](crate::Job) simulates: a calibrated synthetic
/// benchmark, or an external trace registered with `--trace-file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// One of the calibrated SPEC2000-like generators.
    Spec(SpecBenchmark),
    /// A registered external trace file.
    Trace(TraceHandle),
}

impl From<SpecBenchmark> for WorkloadId {
    fn from(b: SpecBenchmark) -> Self {
        WorkloadId::Spec(b)
    }
}

impl PartialEq<SpecBenchmark> for WorkloadId {
    fn eq(&self, other: &SpecBenchmark) -> bool {
        matches!(self, WorkloadId::Spec(b) if b == other)
    }
}

impl WorkloadId {
    /// The workload's report name. Trace names are digest-qualified
    /// (`stem@{digest:016x}`, plus `+once` for a single-pass
    /// registration) so two different captures sharing a file stem stay
    /// distinguishable in reports and sampling fingerprints.
    pub fn name(&self) -> String {
        match self {
            WorkloadId::Spec(b) => b.name().to_owned(),
            WorkloadId::Trace(h) => {
                let info = trace_info(*h);
                let once = if info.once { "+once" } else { "" };
                format!("{}@{:016x}{}", info.name, info.digest, once)
            }
        }
    }

    /// The workload half of [`Job::cache_key`](crate::Job::cache_key):
    /// `bench={name}` for synthetics (byte-identical to the pre-trace
    /// key format, so existing disk caches and golden digests survive),
    /// `trace={digest:016x}` for traces, with `;once` appended for a
    /// single-pass registration (padding with `O` ops after one pass
    /// changes the result, so it must change the key).
    pub fn key_fragment(&self) -> String {
        match self {
            WorkloadId::Spec(b) => format!("bench={}", b.name()),
            WorkloadId::Trace(h) => {
                let info = trace_info(*h);
                let once = if info.once { ";once" } else { "" };
                format!("trace={:016x}{}", info.digest, once)
            }
        }
    }

    /// Builds the instruction stream. Trace replays are
    /// seed-independent: the file *is* the stream.
    pub fn build(&self, seed: u64) -> BuiltWorkload {
        match self {
            WorkloadId::Spec(b) => BuiltWorkload::Spec(b.build(seed)),
            WorkloadId::Trace(h) => {
                let reg = registry().lock().expect("trace registry poisoned");
                let e = reg
                    .get(h.0 as usize)
                    .unwrap_or_else(|| panic!("unregistered trace handle {}", h.0));
                BuiltWorkload::Trace(e.proto.clone())
            }
        }
    }
}

/// A built instruction stream — static dispatch over the two sources so
/// the synthetic path keeps its monomorphized hot loop.
#[derive(Debug, Clone)]
pub enum BuiltWorkload {
    /// A synthetic generator.
    Spec(SyntheticWorkload),
    /// An external trace replay.
    Trace(TraceFileWorkload),
}

impl Workload for BuiltWorkload {
    fn next_instr(&mut self) -> Instr {
        match self {
            BuiltWorkload::Spec(w) => w.next_instr(),
            BuiltWorkload::Trace(w) => w.next_instr(),
        }
    }

    fn name(&self) -> &str {
        match self {
            BuiltWorkload::Spec(w) => w.name(),
            BuiltWorkload::Trace(w) => w.name(),
        }
    }

    fn fork(&self) -> Option<Box<dyn Workload>> {
        match self {
            BuiltWorkload::Spec(w) => w.fork(),
            BuiltWorkload::Trace(w) => w.fork(),
        }
    }

    fn per_core_streams(&self, cores: u32) -> Option<Vec<Box<dyn Workload>>> {
        match self {
            BuiltWorkload::Spec(w) => w.per_core_streams(cores),
            BuiltWorkload::Trace(w) => w.per_core_streams(cores),
        }
    }
}

// -- the trace registry ------------------------------------------------------

struct TraceEntry {
    spec: String,
    /// The validated trace, in the play mode it was registered with.
    proto: TraceFileWorkload,
}

fn registry() -> &'static Mutex<Vec<TraceEntry>> {
    static REGISTRY: Mutex<Vec<TraceEntry>> = Mutex::new(Vec::new());
    &REGISTRY
}

/// Opens, fully validates and registers a looping trace from the CLI
/// `PATH[:fmt]` syntax, returning its handle. Registering the same
/// instruction stream twice (by digest, so even via different paths,
/// formats or compression) dedupes onto the first handle.
///
/// # Errors
///
/// Returns the rendered [`tk_workloads::ParseTraceError`] for
/// unreadable, malformed or empty traces.
pub fn register_trace(spec: &str) -> Result<TraceHandle, String> {
    register_trace_with(spec, false)
}

/// Like [`register_trace`], but with `once` (`--trace-once`) the trace
/// plays a single pass and then pads with non-memory `O` ops instead of
/// looping. The play mode is part of the workload's identity: a
/// single-pass registration gets its own handle, name and key, and never
/// dedupes onto a looping one.
///
/// # Errors
///
/// As [`register_trace`].
pub fn register_trace_with(spec: &str, once: bool) -> Result<TraceHandle, String> {
    let mut proto = TraceFileWorkload::open_spec(spec).map_err(|e| format!("{spec}: {e}"))?;
    proto.set_once(once);
    let mut reg = registry().lock().expect("trace registry poisoned");
    if let Some(i) = reg
        .iter()
        .position(|e| e.proto.digest() == proto.digest() && e.proto.once() == once)
    {
        return Ok(TraceHandle(i as u32));
    }
    reg.push(TraceEntry {
        spec: spec.to_owned(),
        proto,
    });
    Ok(TraceHandle((reg.len() - 1) as u32))
}

/// Every registered trace, in registration order.
pub fn registered_traces() -> Vec<TraceHandle> {
    let reg = registry().lock().expect("trace registry poisoned");
    (0..reg.len() as u32).map(TraceHandle).collect()
}

/// Empties the registry (test hook — handles from before the clear
/// dangle, so only use it between self-contained test phases).
pub fn clear_registered_traces() {
    registry().lock().expect("trace registry poisoned").clear();
}

/// Manifest-facing description of one registered trace.
#[derive(Debug, Clone)]
pub struct TraceInfo {
    /// The `PATH[:fmt]` string the trace was registered from.
    pub spec: String,
    /// The file-stem workload name.
    pub name: String,
    /// FNV-1a digest of the decoded instruction stream.
    pub digest: u64,
    /// On-disk format name (`text` / `champsim`).
    pub format: &'static str,
    /// Events per loop of the trace.
    pub records: u64,
    /// Whether the source bytes were gzip-compressed.
    pub compressed: bool,
    /// Whether the constant-memory streaming backend is in use.
    pub streaming: bool,
    /// Whether the trace plays a single pass (`--trace-once`).
    pub once: bool,
}

/// Describes a registered trace.
///
/// # Panics
///
/// Panics on a dangling handle (only possible after
/// [`clear_registered_traces`]).
pub fn trace_info(h: TraceHandle) -> TraceInfo {
    let reg = registry().lock().expect("trace registry poisoned");
    let e = reg
        .get(h.0 as usize)
        .unwrap_or_else(|| panic!("unregistered trace handle {}", h.0));
    TraceInfo {
        spec: e.spec.clone(),
        name: e.proto.name().to_owned(),
        digest: e.proto.digest(),
        format: e.proto.format().name(),
        records: e.proto.len() as u64,
        compressed: e.proto.is_compressed(),
        streaming: e.proto.is_streaming(),
        once: e.proto.once(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace registry is process-global; every test that touches it
    // serializes here and leaves it empty on exit.
    static REGISTRY_GUARD: Mutex<()> = Mutex::new(());

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _g = REGISTRY_GUARD.lock().unwrap_or_else(|p| p.into_inner());
        clear_registered_traces();
        let r = f();
        clear_registered_traces();
        r
    }

    fn write_trace(name: &str, text: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tk_workload_id_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn spec_fragment_matches_the_legacy_key_format() {
        let id = WorkloadId::from(SpecBenchmark::Gzip);
        assert_eq!(id.key_fragment(), "bench=gzip");
        assert_eq!(id.name(), "gzip");
        assert_eq!(id, SpecBenchmark::Gzip);
        assert_ne!(id, SpecBenchmark::Mcf);
    }

    #[test]
    fn registration_dedupes_by_digest_and_describes_the_trace() {
        with_clean_registry(|| {
            let p1 = write_trace("reg_a.trace", "L 10 1\nS 20 2\n");
            let p2 = write_trace("reg_b.trace", "# same stream\nL 10 1\nS 20 2\n");
            let p3 = write_trace("reg_c.trace", "L 10 1\nS 20 3\n");
            let h1 = register_trace(&p1.display().to_string()).unwrap();
            let h2 = register_trace(&p2.display().to_string()).unwrap();
            let h3 = register_trace(&p3.display().to_string()).unwrap();
            assert_eq!(h1, h2, "identical streams share one handle");
            assert_ne!(h1, h3);
            assert_eq!(registered_traces(), vec![h1, h3]);

            let info = trace_info(h1);
            assert_eq!(info.name, "reg_a");
            assert_eq!(info.records, 2);
            assert_eq!(info.format, "text");
            assert!(!info.compressed);
            assert!(!info.streaming);

            let id = WorkloadId::Trace(h1);
            assert_eq!(id.key_fragment(), format!("trace={:016x}", info.digest));
            assert_eq!(id.name(), format!("reg_a@{:016x}", info.digest));
            assert_ne!(
                id.key_fragment(),
                WorkloadId::Trace(h3).key_fragment(),
                "one differing record must change the key"
            );

            // Building replays the file; the seed is irrelevant.
            let mut w = id.build(7);
            assert!(matches!(w.next_instr(), Instr::Load(_)));
            assert!(matches!(w.next_instr(), Instr::Store(_)));
        });
    }

    #[test]
    fn once_mode_changes_key_name_and_stream() {
        with_clean_registry(|| {
            let p = write_trace("once.trace", "L 10 1\n");
            let spec = p.display().to_string();
            let looped = WorkloadId::Trace(register_trace(&spec).unwrap());
            let h = register_trace_with(&spec, true).unwrap();
            assert_eq!(register_trace_with(&spec, true).unwrap(), h);
            let id = WorkloadId::Trace(h);
            assert_ne!(id, looped, "once mode is a distinct workload");
            assert_eq!(id.key_fragment(), format!("{};once", looped.key_fragment()));
            assert!(id.name().ends_with("+once"));
            assert!(!looped.name().ends_with("+once"));
            let mut w = id.build(1);
            assert!(matches!(w.next_instr(), Instr::Load(_)));
            assert_eq!(w.next_instr(), Instr::Op, "padding after one pass");
        });
    }

    #[test]
    fn register_trace_surfaces_parse_errors() {
        with_clean_registry(|| {
            let p = write_trace("bad.trace", "L zzz 1\n");
            let e = register_trace(&p.display().to_string()).unwrap_err();
            assert!(e.contains("bad address"), "{e}");
            assert!(register_trace("/nonexistent/path.trace").is_err());
            assert!(
                registered_traces().is_empty(),
                "failed opens never register"
            );
        });
    }
}
