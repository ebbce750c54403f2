//! Run manifests: the audit record written beside every report.
//!
//! A manifest makes a committed figure auditable after the fact — it
//! pins the exact simulations behind it (config fingerprints via
//! [`Job::cache_key`]), the seed and instruction budget, the crate
//! versions that produced it, the wall time, and the cache-hit
//! provenance from the [`engine`](crate::engine) (how many results were
//! memo hits, disk hits, or freshly simulated).
//!
//! The figure binaries write `<obs-out>/<name>.manifest.json` when
//! `--obs-out DIR` is given; the `report` binary writes
//! `<dir>/<name>.manifest.json` beside every report it regenerates.

use std::path::{Path, PathBuf};
use std::time::Duration;

use timekeeping::snapshot::Json;

use crate::engine::Job;
use crate::FigureOpts;

/// Checkpoint-plane provenance for one report: how many sampling
/// checkpoints the run served from each tier, and the functional
/// fingerprints of every checkpoint it touched (see `tk_sim::ckpt`).
#[derive(Debug, Clone, Default)]
pub struct CkptDelta {
    /// Whether the checkpoint store was enabled for the run.
    pub enabled: bool,
    /// Checkpoints served from the in-process tier.
    pub mem_hits: u64,
    /// Checkpoints loaded from the on-disk tier.
    pub disk_hits: u64,
    /// Checkpoints built from scratch.
    pub builds: u64,
    /// Functional fingerprints, deduplicated and sorted.
    pub fingerprints: Vec<String>,
}

impl CkptDelta {
    /// Computes the counter delta since `before` and drains the
    /// fingerprints recorded by `tk_sim::record_checkpoints(true)`.
    pub fn since(before: tk_sim::CkptStats) -> Self {
        let now = tk_sim::checkpoint_stats();
        CkptDelta {
            enabled: tk_sim::checkpoints_enabled(),
            // Saturating: a mid-run `reset_checkpoint_store` (benchmark
            // harnesses do this) zeroes the monotonic counters.
            mem_hits: now.mem_hits.saturating_sub(before.mem_hits),
            disk_hits: now.disk_hits.saturating_sub(before.disk_hits),
            builds: now.builds.saturating_sub(before.builds),
            fingerprints: tk_sim::take_recorded_checkpoints(),
        }
    }
}

/// The engine counters behind one report: the
/// [`memo_stats`](crate::engine::memo_stats) buckets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Jobs answered by the in-process memo.
    pub memo_hits: u64,
    /// Jobs loaded from the disk cache.
    pub disk_hits: u64,
    /// Jobs the engine simulated.
    pub sims_run: u64,
}

impl Provenance {
    /// The counters now, to be passed to [`since`](Self::since) after the
    /// report is generated.
    pub fn now() -> Self {
        let (memo_hits, disk_hits, sims_run) = crate::engine::memo_stats();
        Provenance {
            memo_hits,
            disk_hits,
            sims_run,
        }
    }

    /// The counter delta since `before`.
    pub fn since(before: Self) -> Self {
        let now = Self::now();
        Provenance {
            memo_hits: now.memo_hits - before.memo_hits,
            disk_hits: now.disk_hits - before.disk_hits,
            sims_run: now.sims_run - before.sims_run,
        }
    }
}

/// Snapshot of the checkpoint-store counters, taken before a figure
/// runs so [`CkptDelta::since`] can attribute activity to it.
pub fn ckpt_snapshot() -> tk_sim::CkptStats {
    tk_sim::checkpoint_stats()
}

/// Builds the manifest JSON for one generated report.
///
/// `jobs` is the engine's job log for the run (see
/// [`engine::take_recorded_jobs`](crate::engine::take_recorded_jobs));
/// `provenance` is the counter delta for the run; `ckpt` is the
/// checkpoint-plane delta.
pub fn manifest_json(
    name: &str,
    opts: &FigureOpts,
    wall: Duration,
    jobs: &[Job],
    provenance: Provenance,
    ckpt: &CkptDelta,
) -> Json {
    let mut fingerprints: Vec<String> = jobs.iter().map(Job::cache_key).collect();
    fingerprints.sort();
    fingerprints.dedup();
    Json::obj([
        ("name", Json::Str(name.to_owned())),
        ("instructions", Json::U64(opts.instructions)),
        ("seed", Json::U64(opts.seed)),
        ("jobs", Json::U64(opts.jobs as u64)),
        ("check", Json::Bool(opts.check)),
        ("trace", Json::Bool(opts.trace)),
        ("profile", Json::Bool(opts.profile)),
        ("trace_once", Json::Bool(opts.trace_once)),
        (
            "trace_files",
            Json::Arr(
                crate::workload::registered_traces()
                    .into_iter()
                    .map(|h| {
                        let t = crate::workload::trace_info(h);
                        Json::obj([
                            ("spec", Json::Str(t.spec)),
                            ("name", Json::Str(t.name)),
                            ("digest", Json::Str(format!("{:016x}", t.digest))),
                            ("format", Json::Str(t.format.to_owned())),
                            ("records", Json::U64(t.records)),
                            ("gzip", Json::Bool(t.compressed)),
                            ("streaming", Json::Bool(t.streaming)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("dram", Json::Str(opts.dram.describe())),
        (
            "sample",
            Json::Str(match opts.sample {
                None => "off".to_owned(),
                Some(s) => format!("interval={},k={}", s.interval, s.k),
            }),
        ),
        ("wall_ms", Json::U64(wall.as_millis() as u64)),
        (
            "crate_versions",
            Json::obj([
                ("timekeeping", Json::Str(timekeeping::VERSION.to_owned())),
                ("tk-sim", Json::Str(tk_sim::VERSION.to_owned())),
                ("tk-workloads", Json::Str(tk_workloads::VERSION.to_owned())),
                ("tk-bench", Json::Str(env!("CARGO_PKG_VERSION").to_owned())),
            ]),
        ),
        (
            "provenance",
            Json::obj([
                ("memo_hits", Json::U64(provenance.memo_hits)),
                ("disk_hits", Json::U64(provenance.disk_hits)),
                ("simulations_run", Json::U64(provenance.sims_run)),
            ]),
        ),
        (
            "checkpoints",
            Json::obj([
                ("enabled", Json::Bool(ckpt.enabled)),
                ("mem_hits", Json::U64(ckpt.mem_hits)),
                ("disk_hits", Json::U64(ckpt.disk_hits)),
                ("builds", Json::U64(ckpt.builds)),
                (
                    "fingerprints",
                    Json::Arr(ckpt.fingerprints.iter().cloned().map(Json::Str).collect()),
                ),
            ]),
        ),
        ("simulations", Json::U64(jobs.len() as u64)),
        (
            "config_fingerprints",
            Json::Arr(fingerprints.into_iter().map(Json::Str).collect()),
        ),
    ])
}

/// Writes `<dir>/<name>.manifest.json` and returns its path.
///
/// # Errors
///
/// Returns the I/O error when the directory or file cannot be written.
pub fn write_manifest(
    dir: &Path,
    name: &str,
    opts: &FigureOpts,
    wall: Duration,
    jobs: &[Job],
    provenance: Provenance,
    ckpt: &CkptDelta,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.manifest.json"));
    let json = manifest_json(name, opts, wall, jobs, provenance, ckpt);
    std::fs::write(&path, json.render())?;
    Ok(path)
}

/// The manifest hook used by [`figure_main!`](crate::figure_main): arms
/// the engine's job log and the checkpoint-fingerprint log when
/// `--obs-out` is configured, so the finished run can be described.
/// Returns whether manifests are enabled.
pub fn arm_for_figure() -> bool {
    if tk_sim::obs::out_dir().is_none() {
        return false;
    }
    crate::engine::record_jobs(true);
    tk_sim::record_checkpoints(true);
    true
}

/// Completes the [`arm_for_figure`] cycle: drains the job and
/// checkpoint logs and writes the manifest into the configured
/// `--obs-out` directory. `before` is the [`Provenance::now`] snapshot
/// taken before the run; `ckpt_before` the [`ckpt_snapshot`] one.
pub fn finish_for_figure(
    name: &str,
    opts: &FigureOpts,
    wall: Duration,
    before: Provenance,
    ckpt_before: tk_sim::CkptStats,
) {
    let jobs = crate::engine::take_recorded_jobs();
    crate::engine::record_jobs(false);
    let ckpt = CkptDelta::since(ckpt_before);
    tk_sim::record_checkpoints(false);
    let Some(dir) = tk_sim::obs::out_dir() else {
        return;
    };
    let delta = Provenance::since(before);
    match write_manifest(&dir, name, opts, wall, &jobs, delta, &ckpt) {
        Ok(path) => eprintln!("manifest written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write manifest for {name}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tk_sim::SystemConfig;
    use tk_workloads::SpecBenchmark;

    #[test]
    fn manifest_pins_the_run() {
        let mut opts = FigureOpts::quick();
        // Pin the backend and sampling mode rather than inheriting the
        // process globals, which a parallel CLI test may be toggling.
        opts.dram = tk_sim::MemBackendConfig::Fixed;
        opts.sample = Some(tk_sim::SampleConfig {
            interval: 50_000,
            k: 7,
        });
        let jobs = vec![
            Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 1, 10_000),
            Job::new(SpecBenchmark::Mcf, SystemConfig::base(), 1, 10_000),
            // A duplicate submission dedupes in the fingerprint list.
            Job::new(SpecBenchmark::Gzip, SystemConfig::base(), 1, 10_000),
        ];
        let ckpt = CkptDelta {
            enabled: true,
            mem_hits: 3,
            disk_hits: 1,
            builds: 2,
            fingerprints: vec!["v1 wl=gzip/0000000000000000 budget=10000".to_owned()],
        };
        let j = manifest_json(
            "fig99",
            &opts,
            Duration::from_millis(250),
            &jobs,
            Provenance {
                memo_hits: 2,
                disk_hits: 0,
                sims_run: 1,
            },
            &ckpt,
        );
        assert_eq!(j.get("name").unwrap().as_str().unwrap(), "fig99");
        assert_eq!(
            j.u64_field("instructions").unwrap(),
            FigureOpts::QUICK_INSTRUCTIONS
        );
        assert_eq!(j.u64_field("wall_ms").unwrap(), 250);
        assert_eq!(j.u64_field("simulations").unwrap(), 3);
        assert_eq!(j.get("dram").unwrap().as_str().unwrap(), "fixed");
        assert_eq!(
            j.get("sample").unwrap().as_str().unwrap(),
            "interval=50000,k=7"
        );
        opts.sample = None;
        let off = manifest_json(
            "fig99",
            &opts,
            Duration::ZERO,
            &[],
            Provenance::default(),
            &CkptDelta::default(),
        );
        assert_eq!(off.get("sample").unwrap().as_str().unwrap(), "off");
        let ck = j.get("checkpoints").unwrap();
        assert!(matches!(ck.get("enabled").unwrap(), Json::Bool(true)));
        assert_eq!(ck.u64_field("mem_hits").unwrap(), 3);
        assert_eq!(ck.u64_field("disk_hits").unwrap(), 1);
        assert_eq!(ck.u64_field("builds").unwrap(), 2);
        let fps = ck.get("fingerprints").unwrap().as_arr().unwrap();
        assert_eq!(fps.len(), 1);
        assert!(fps[0].as_str().unwrap().starts_with("v1 wl=gzip/"));
        let fps = j.get("config_fingerprints").unwrap().as_arr().unwrap();
        assert_eq!(fps.len(), 2, "duplicate job tuples dedupe");
        assert!(fps[0].as_str().unwrap().contains("bench="));
        let prov = j.get("provenance").unwrap();
        assert_eq!(prov.u64_field("memo_hits").unwrap(), 2);
        assert_eq!(prov.u64_field("simulations_run").unwrap(), 1);
        let vers = j.get("crate_versions").unwrap();
        assert_eq!(
            vers.get("tk-sim").unwrap().as_str().unwrap(),
            tk_sim::VERSION
        );
    }

    #[test]
    fn write_manifest_round_trips() {
        let dir = std::env::temp_dir().join(format!("tk_manifest_{}", std::process::id()));
        let opts = FigureOpts::quick();
        let path = write_manifest(
            &dir,
            "figX",
            &opts,
            Duration::ZERO,
            &[],
            Provenance::default(),
            &CkptDelta::default(),
        )
        .unwrap();
        assert!(path.ends_with("figX.manifest.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str().unwrap(), "figX");
        assert_eq!(back.u64_field("simulations").unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
