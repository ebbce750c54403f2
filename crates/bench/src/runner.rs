//! Experiment plumbing shared by all figure binaries.
//!
//! [`FigureOpts`] carries the knobs every binary understands and
//! [`FigureOpts::from_args`] parses the shared command line:
//!
//! ```text
//! <binary> [INSTRUCTIONS] [--instructions N] [--seed S] [--quick]
//!          [--jobs J] [--cache[=DIR]] [--no-cache] [--check]
//!          [--trace[=CATS]] [--trace-sample N] [--profile] [--obs-out DIR]
//! ```
//!
//! A bare leading number is accepted as the instruction budget for
//! backward compatibility with the original positional interface.
//! Unrecognized arguments are an error (exit code 2), not silently
//! ignored. Binaries with their own positional operands (`report`'s
//! output directory, `quickcheck`'s benchmark names) use
//! [`FigureOpts::from_args_with_positionals`].
//!
//! The run helpers ([`run_bench`], [`run_suite`], [`suite_metrics`]) sit
//! on the [`engine`]: results are memoized per job tuple
//! and suites fan out across `opts.jobs` workers.
//!
//! The run-wide choices that change a result (`--dram`, `--sample`,
//! `--cores`, `--check`) live only in [`FigureOpts`]. They reach a
//! simulation through [`FigureOpts::config`], [`FigureOpts::job`] and
//! [`FigureOpts::simulate`]; `SystemConfig::builder()` itself always
//! starts from the Table 1 machine.

use std::sync::Arc;

use timekeeping::MetricsCollector;
use tk_sim::trace::Workload;
use tk_sim::{RunResult, SystemConfig};
use tk_workloads::SpecBenchmark;

use crate::engine::{self, Job};
use crate::workload::{self, WorkloadId};

/// Options common to every figure run.
#[derive(Debug, Clone, Copy)]
pub struct FigureOpts {
    /// Instructions simulated per benchmark per configuration.
    pub instructions: u64,
    /// Workload seed (figures are bit-reproducible per seed).
    pub seed: u64,
    /// Worker threads for independent simulations (default: all cores).
    pub jobs: usize,
    /// Whether the budget came from the command line (as opposed to the
    /// default) — lets binaries with a non-standard default budget
    /// ([`or_default_budget`](Self::or_default_budget)) respect an
    /// explicit `--instructions`.
    pub instructions_explicit: bool,
    /// Whether `--check` was given: every simulation runs in lockstep
    /// with the functional oracle (see `tk_sim::oracle`), carried to the
    /// engine in each [`Job`].
    pub check: bool,
    /// Whether `--trace[=CATS]` was given: memory systems stream typed
    /// event records (see `tk_sim::obs`). Tracing cannot change a
    /// result, so the parser sets it process-wide; this field records
    /// it for manifests.
    pub trace: bool,
    /// Whether `--profile` was given: memory systems time their own
    /// pipeline stages and report the breakdown.
    pub profile: bool,
    /// The `--dram` memory backend (default fixed latency), applied to
    /// every simulated config by [`config`](Self::config).
    pub dram: tk_sim::MemBackendConfig,
    /// The `--sample[=interval,k]` statistical-sampling mode (`None` =
    /// full simulation), applied by [`config`](Self::config).
    pub sample: Option<tk_sim::SampleConfig>,
    /// The `--cores=N` timing-core count (default 1, the single-core
    /// paper machine), applied by [`config`](Self::config); multi-core
    /// configs run the MESI-coherent hierarchy (`tk_sim::multicore`).
    pub cores: u32,
    /// Whether `--trace-once` was given: the `--trace-file` workloads
    /// are registered single-pass ([`workload::register_trace_with`]),
    /// padding with `O` ops instead of looping; this field records it
    /// for manifests.
    pub trace_once: bool,
}

impl FigureOpts {
    /// The default figure budget: 8 M instructions per run — enough for
    /// every workload's footprint to be traversed several times.
    pub const DEFAULT_INSTRUCTIONS: u64 = 8_000_000;

    /// The reduced `--quick` budget.
    pub const QUICK_INSTRUCTIONS: u64 = 300_000;

    /// The default disk-cache location of `--cache`.
    pub const DEFAULT_CACHE_DIR: &'static str = "reports/.cache";

    /// The default checkpoint-store location of `--ckpt`.
    pub const DEFAULT_CKPT_DIR: &'static str = "reports/.ckpt";

    /// Creates options with the default budget.
    pub fn new() -> Self {
        FigureOpts {
            instructions: Self::DEFAULT_INSTRUCTIONS,
            seed: 1,
            jobs: engine::default_jobs(),
            instructions_explicit: false,
            check: false,
            trace: false,
            profile: false,
            dram: tk_sim::MemBackendConfig::Fixed,
            sample: None,
            cores: 1,
            trace_once: false,
        }
    }

    /// `cfg` with this run's `--dram`, `--sample` and `--cores` choices
    /// applied, re-validated through the builder.
    ///
    /// # Panics
    ///
    /// Panics when the combination is invalid, e.g. cache decay or the
    /// cold-miss oracle at `--cores=2`.
    pub fn config(&self, cfg: SystemConfig) -> SystemConfig {
        let b = cfg.to_builder().memory(self.dram).cores(self.cores);
        match self.sample {
            Some(sc) => b.sample(sc),
            None => b.no_sample(),
        }
        .build()
        .unwrap_or_else(|e| panic!("invalid run configuration: {e}"))
    }

    /// The engine job that runs `bench` under [`config`](Self::config)`(cfg)`
    /// at this run's seed, budget and `--check`.
    pub fn job(&self, bench: impl Into<WorkloadId>, cfg: SystemConfig) -> Job {
        Job {
            check: self.check,
            ..Job::new(bench, self.config(cfg), self.seed, self.instructions)
        }
    }

    /// Runs `workload` directly, outside the engine (for workloads a
    /// [`Job`] cannot name, like concurrent mixes), under
    /// [`config`](Self::config)`(cfg)` for this run's budget, in lockstep
    /// with the functional oracle under `--check`. The run is counted in
    /// [`engine::direct_runs`], which manifests add to their simulations.
    pub fn simulate<W: Workload + ?Sized>(&self, workload: &mut W, cfg: SystemConfig) -> RunResult {
        engine::count_direct_run();
        let cfg = self.config(cfg);
        if self.check {
            tk_sim::run_workload_checked(workload, cfg, self.instructions)
        } else {
            tk_sim::run_workload(workload, cfg, self.instructions)
        }
    }

    /// Replaces the budget with `n` unless one was given explicitly on
    /// the command line (for binaries whose default differs from
    /// [`DEFAULT_INSTRUCTIONS`](Self::DEFAULT_INSTRUCTIONS)).
    pub fn or_default_budget(mut self, n: u64) -> Self {
        if !self.instructions_explicit {
            self.instructions = n;
        }
        self
    }

    /// A reduced budget for smoke tests.
    pub fn quick() -> Self {
        FigureOpts {
            instructions: Self::QUICK_INSTRUCTIONS,
            instructions_explicit: true,
            ..Self::new()
        }
    }

    /// Parses the shared flags from the process arguments. Leftover
    /// positional operands (beyond the legacy leading instruction count)
    /// are an error; binaries that take positionals use
    /// [`from_args_with_positionals`](Self::from_args_with_positionals).
    ///
    /// On a parse error, prints the error and usage to stderr and exits
    /// with status 2.
    pub fn from_args() -> Self {
        let (opts, positionals) = Self::from_args_with_positionals();
        if let Some(p) = positionals.first() {
            usage_error(&format!("unexpected argument `{p}`"));
        }
        opts
    }

    /// Like [`from_args`](Self::from_args), but hands back non-flag
    /// positional operands for the binary to interpret.
    pub fn from_args_with_positionals() -> (Self, Vec<String>) {
        match Self::parse(std::env::args().skip(1)) {
            Ok(parsed) => parsed,
            Err(e) => usage_error(&e),
        }
    }

    /// The pure parser behind [`from_args`](Self::from_args).
    ///
    /// A bare number in first position is the instruction budget (the
    /// legacy interface). Flags that cannot change a result apply their
    /// side effect immediately: `--cache`/`--ckpt` (the engine's disk
    /// cache, the checkpoint store) and the observability flags.
    /// `--trace-file` registers its traces once all flags are read, so
    /// a `--trace-once` anywhere on the line applies to them.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument on unknown flags,
    /// missing or malformed flag values.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<(Self, Vec<String>), String> {
        let mut opts = Self::new();
        let mut positionals = Vec::new();
        let mut trace_files = Vec::new();
        let mut args = args.peekable();
        let mut first = true;

        fn value_of(
            flag: &str,
            inline: Option<&str>,
            args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
        ) -> Result<String, String> {
            match inline {
                Some(v) => Ok(v.to_owned()),
                None => args.next().ok_or_else(|| format!("{flag} needs a value")),
            }
        }

        fn parse_u64(flag: &str, v: &str) -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs an unsigned integer, got `{v}`"))
        }

        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (arg.as_str(), None),
            };
            match flag {
                "--instructions" => {
                    let v = value_of(flag, inline, &mut args)?;
                    opts.instructions = parse_u64(flag, &v)?;
                    opts.instructions_explicit = true;
                }
                "--seed" => {
                    let v = value_of(flag, inline, &mut args)?;
                    opts.seed = parse_u64(flag, &v)?;
                }
                "--jobs" => {
                    let v = value_of(flag, inline, &mut args)?;
                    let n = parse_u64(flag, &v)?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_owned());
                    }
                    opts.jobs = n as usize;
                }
                "--quick" => {
                    opts.instructions = Self::QUICK_INSTRUCTIONS;
                    opts.instructions_explicit = true;
                }
                "--cache" => {
                    let dir = inline
                        .map(str::to_owned)
                        .unwrap_or_else(|| Self::DEFAULT_CACHE_DIR.to_owned());
                    engine::set_disk_cache(Some(dir.into()));
                }
                "--no-cache" => engine::set_disk_cache(None),
                "--ckpt" => {
                    // Like `--cache`: the in-process checkpoint tier is
                    // on by default; this flag adds the on-disk tier so
                    // profiling/clustering/warmup survive the process.
                    let dir = inline
                        .map(str::to_owned)
                        .unwrap_or_else(|| Self::DEFAULT_CKPT_DIR.to_owned());
                    tk_sim::set_checkpoints_enabled(true);
                    tk_sim::set_checkpoint_dir(Some(dir.into()));
                }
                "--no-ckpt" => {
                    tk_sim::set_checkpoints_enabled(false);
                    tk_sim::set_checkpoint_dir(None);
                }
                "--check" => opts.check = true,
                "--dram" => {
                    let v = value_of(flag, inline, &mut args)?;
                    opts.dram = tk_sim::parse_backend_arg(&v)?;
                }
                "--cores" => {
                    let v = value_of(flag, inline, &mut args)?;
                    let n = parse_u64(flag, &v)?;
                    if n == 0 || n > u64::from(tk_sim::MAX_CORES) {
                        return Err(format!(
                            "--cores must be between 1 and {}, got {n}",
                            tk_sim::MAX_CORES
                        ));
                    }
                    opts.cores = n as u32;
                }
                "--trace-file" => trace_files.push(value_of(flag, inline, &mut args)?),
                "--trace-once" => opts.trace_once = true,
                "--sample" => {
                    // Bare `--sample` selects the default parameters
                    // rather than consuming the next argument (like
                    // `--cache`).
                    let sc = match inline {
                        Some(v) => tk_sim::parse_sample_arg(v)?,
                        None => tk_sim::SampleConfig::DEFAULT,
                    };
                    opts.sample = Some(sc);
                }
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                _ if flag.starts_with('-') => {
                    // Observability flags are parsed by
                    // tk_sim::obs::apply_cli_flag — their side effects
                    // are process-global, like --cache.
                    let mut next = || args.next();
                    if tk_sim::obs::apply_cli_flag(flag, inline, &mut next)? {
                        match flag {
                            "--trace" => opts.trace = true,
                            "--profile" => opts.profile = true,
                            _ => {}
                        }
                        first = false;
                        continue;
                    }
                    return Err(format!("unknown flag `{flag}`"));
                }
                _ => {
                    // Legacy positional interface: a bare leading number
                    // is the instruction budget.
                    if first && inline.is_none() {
                        if let Ok(n) = arg.parse::<u64>() {
                            opts.instructions = n;
                            opts.instructions_explicit = true;
                            first = false;
                            continue;
                        }
                    }
                    positionals.push(arg);
                }
            }
            first = false;
        }
        // Registered traces join the process-wide suite: every
        // suite-driving helper and figure picks them up as first-class
        // workloads.
        for spec in trace_files {
            workload::register_trace_with(&spec, opts.trace_once)
                .map_err(|e| format!("--trace-file: {e}"))?;
        }
        Ok((opts, positionals))
    }
}

/// The shared usage text.
fn usage() -> String {
    format!(
        "usage: <binary> [INSTRUCTIONS] [options]\n\
         \n\
         options:\n\
         \x20 --instructions N   instruction budget per run (default {instr})\n\
         \x20 --seed S           workload seed (default 1)\n\
         \x20 --quick            reduced {quick}-instruction budget for smoke runs\n\
         \x20 --jobs J           worker threads (default: all cores)\n\
         \x20 --cache[=DIR]      persist results as JSON (default dir {cache})\n\
         \x20 --no-cache         disable the disk cache\n\
         \x20 --ckpt[=DIR]       persist sampling checkpoints (profile +\n\
         \x20                    clustering + warm state) on disk (default\n\
         \x20                    dir {ckpt}); sweeps over timing knobs\n\
         \x20                    reuse them across runs\n\
         \x20 --no-ckpt          disable checkpoint sharing entirely\n\
         \x20                    (results are bit-identical either way)\n\
         \x20 --check            self-verify: run every simulation in\n\
         \x20                    lockstep with the functional oracle\n\
         \x20 --dram=BACKEND     memory model: fixed (default, the paper's\n\
         \x20                    constant latency) or banked[:ddr2|:ddr4]\n\
         \x20                    (row buffers, banks, channel buses)\n\
         \x20 --cores=N          timing cores (default 1; 2..8 runs the\n\
         \x20                    MESI-coherent multi-core hierarchy with\n\
         \x20                    private L1s over the shared L2)\n\
         \x20 --sample[=I,K]     statistical sampling: split the budget into\n\
         \x20                    I-instruction intervals, k-means them into K\n\
         \x20                    clusters, time only the representatives with\n\
         \x20                    functional warmup (default {interval},{k}; results\n\
         \x20                    carry a `sampled` tag and separate cache keys)\n\
         \x20 --trace-file=SPEC  register an external trace (PATH[:fmt], fmt\n\
         \x20                    among text/champsim/auto/stream; gzip sniffed\n\
         \x20                    by magic) as a first-class workload in every\n\
         \x20                    suite-driven figure; repeatable\n\
         \x20 --trace-once       registered traces play one pass then pad\n\
         \x20                    with non-memory ops instead of looping\n\
         \x20 --trace[=CATS]     stream typed memory events (binary + JSONL);\n\
         \x20                    CATS filters categories, e.g. miss,fill,pf\n\
         \x20                    (add `ref` to capture the raw reference\n\
         \x20                    stream for tk_trace_export)\n\
         \x20 --trace-sample N   keep 1-in-N L1 sets in the trace\n\
         \x20 --profile          time the simulator's own pipeline stages\n\
         \x20 --obs-out DIR      directory for trace/profile/manifest files\n\
         \x20 --help             this text\n\
         \n\
         A bare leading number is accepted as INSTRUCTIONS (legacy\n\
         interface). Clear the disk cache with: rm -rf {cache}",
        instr = FigureOpts::DEFAULT_INSTRUCTIONS,
        quick = FigureOpts::QUICK_INSTRUCTIONS,
        interval = tk_sim::SampleConfig::DEFAULT.interval,
        k = tk_sim::SampleConfig::DEFAULT.k,
        cache = FigureOpts::DEFAULT_CACHE_DIR,
        ckpt = FigureOpts::DEFAULT_CKPT_DIR,
    )
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    std::process::exit(2);
}

impl Default for FigureOpts {
    fn default() -> Self {
        Self::new()
    }
}

/// The full workload suite: every synthetic benchmark, then every
/// trace registered with `--trace-file`, in registration order — the
/// iteration set of every suite-driven figure.
pub fn suite_workloads() -> Vec<WorkloadId> {
    SpecBenchmark::ALL
        .iter()
        .copied()
        .map(WorkloadId::Spec)
        .chain(
            workload::registered_traces()
                .into_iter()
                .map(WorkloadId::Trace),
        )
        .collect()
}

/// The best-performer subset plus every registered trace (external
/// traces always ride along: the user asked for them by path).
pub fn best_workloads() -> Vec<WorkloadId> {
    SpecBenchmark::BEST_PERFORMERS
        .iter()
        .copied()
        .map(WorkloadId::Spec)
        .chain(
            workload::registered_traces()
                .into_iter()
                .map(WorkloadId::Trace),
        )
        .collect()
}

/// Runs one workload under one configuration, with the run-wide
/// choices of `opts` applied ([`FigureOpts::job`]; memoized).
pub fn run_bench(
    bench: impl Into<WorkloadId>,
    cfg: SystemConfig,
    opts: FigureOpts,
) -> Arc<RunResult> {
    engine::run_jobs(&[opts.job(bench, cfg)], 1)
        .pop()
        .expect("one job in, one result out")
}

/// Runs every suite workload (benchmarks plus registered traces) under
/// `cfg` with the run-wide choices of `opts` applied, on `opts.jobs`
/// workers, returning per-workload results in suite order.
pub fn run_suite(cfg: SystemConfig, opts: FigureOpts) -> Vec<(WorkloadId, Arc<RunResult>)> {
    let suite = suite_workloads();
    let jobs: Vec<Job> = suite.iter().map(|&b| opts.job(b, cfg)).collect();
    let results = engine::run_jobs(&jobs, opts.jobs);
    suite.into_iter().zip(results).collect()
}

/// Runs the base machine on every suite workload and merges the
/// timekeeping metrics into one suite-wide collector (the "all
/// SPEC2000" aggregate of Figures 4, 5, 7–10 and 14).
pub fn suite_metrics(opts: FigureOpts) -> (Vec<(WorkloadId, Arc<RunResult>)>, MetricsCollector) {
    let results = run_suite(SystemConfig::base(), opts);
    let mut merged = MetricsCollector::new();
    for (_, r) in &results {
        merged.merge(&r.metrics);
    }
    (results, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tk_sim::SystemConfig;

    fn parse(args: &[&str]) -> Result<(FigureOpts, Vec<String>), String> {
        FigureOpts::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn opts_default_and_quick() {
        assert_eq!(FigureOpts::new().instructions, 8_000_000);
        assert!(FigureOpts::quick().instructions < 1_000_000);
        assert!(FigureOpts::new().jobs >= 1);
    }

    #[test]
    fn parses_flags_in_any_form() {
        let (o, pos) = parse(&["--instructions", "123", "--seed=7", "--jobs", "3"]).unwrap();
        assert_eq!(o.instructions, 123);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);
        assert!(pos.is_empty());
    }

    #[test]
    fn quick_flag_sets_budget() {
        let (o, _) = parse(&["--quick"]).unwrap();
        assert_eq!(o.instructions, FigureOpts::QUICK_INSTRUCTIONS);
        // Explicit budget after --quick wins (last flag wins).
        let (o, _) = parse(&["--quick", "--instructions", "42"]).unwrap();
        assert_eq!(o.instructions, 42);
    }

    #[test]
    fn legacy_positional_budget_still_works() {
        let (o, pos) = parse(&["2000000"]).unwrap();
        assert_eq!(o.instructions, 2_000_000);
        assert!(pos.is_empty());
        // ...but only in first position; later numbers are positionals.
        let (o, pos) = parse(&["--seed", "2", "5"]).unwrap();
        assert_eq!(o.instructions, FigureOpts::DEFAULT_INSTRUCTIONS);
        assert_eq!(o.seed, 2);
        assert_eq!(pos, vec!["5"]);
    }

    #[test]
    fn positionals_are_returned() {
        let (o, pos) = parse(&["1000", "out-dir", "gzip"]).unwrap();
        assert_eq!(o.instructions, 1000);
        assert_eq!(pos, vec!["out-dir", "gzip"]);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--instructions"]).is_err());
        assert!(parse(&["--instructions", "many"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--seed=-1"]).is_err());
    }

    #[test]
    fn jobs_zero_error_states_minimum() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.contains("at least 1"), "{err}");
        // Inline form hits the same validation.
        assert_eq!(parse(&["--jobs=0"]).unwrap_err(), err);
    }

    #[test]
    fn unknown_flag_error_names_the_flag() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        // The inline `=value` part is not blamed, only the flag itself.
        let err = parse(&["--frobnicate=3"]).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        assert!(!err.contains("=3"), "{err}");
    }

    #[test]
    fn cache_flag_path_handling() {
        let prev = engine::disk_cache_dir();

        let (_, pos) = parse(&["--cache=/tmp/tk-golden-test-cache"]).unwrap();
        assert!(pos.is_empty());
        assert_eq!(
            engine::disk_cache_dir(),
            Some(std::path::PathBuf::from("/tmp/tk-golden-test-cache"))
        );

        // Bare `--cache` falls back to the default directory rather than
        // consuming the next argument as a value.
        let (o, pos) = parse(&["--cache", "777"]).unwrap();
        assert_eq!(
            engine::disk_cache_dir(),
            Some(std::path::PathBuf::from(FigureOpts::DEFAULT_CACHE_DIR))
        );
        assert_eq!(o.instructions, FigureOpts::DEFAULT_INSTRUCTIONS);
        assert_eq!(pos, vec!["777"]); // not first position → positional

        parse(&["--no-cache"]).unwrap();
        assert_eq!(engine::disk_cache_dir(), None);

        engine::set_disk_cache(prev);
    }

    #[test]
    fn ckpt_flag_toggles_the_checkpoint_plane() {
        // Mutates the process-global checkpoint store: save and restore,
        // like cache_flag_path_handling does for the disk cache.
        let prev_on = tk_sim::checkpoints_enabled();
        let prev_dir = tk_sim::checkpoint_dir();

        let (_, pos) = parse(&["--ckpt=/tmp/tk-ckpt-flag-test"]).unwrap();
        assert!(pos.is_empty());
        assert!(tk_sim::checkpoints_enabled());
        assert_eq!(
            tk_sim::checkpoint_dir(),
            Some(std::path::PathBuf::from("/tmp/tk-ckpt-flag-test"))
        );

        // Bare `--ckpt` falls back to the default directory rather than
        // consuming the next argument as a value.
        let (_, pos) = parse(&["--ckpt", "777"]).unwrap();
        assert_eq!(
            tk_sim::checkpoint_dir(),
            Some(std::path::PathBuf::from(FigureOpts::DEFAULT_CKPT_DIR))
        );
        assert_eq!(pos, vec!["777"]);

        parse(&["--no-ckpt"]).unwrap();
        assert!(!tk_sim::checkpoints_enabled());
        assert_eq!(tk_sim::checkpoint_dir(), None);

        tk_sim::set_checkpoints_enabled(prev_on);
        tk_sim::set_checkpoint_dir(prev_dir);
    }

    #[test]
    fn quick_and_instructions_last_one_wins() {
        let (o, _) = parse(&["--instructions", "42", "--quick"]).unwrap();
        assert_eq!(o.instructions, FigureOpts::QUICK_INSTRUCTIONS);
        assert!(o.instructions_explicit);
        let (o, _) = parse(&["--quick", "--instructions=42"]).unwrap();
        assert_eq!(o.instructions, 42);
        assert!(o.instructions_explicit);
    }

    /// The job `run_bench`/`run_suite` build from `o` for the base
    /// machine.
    fn base_job(o: &FigureOpts) -> Job {
        o.job(SpecBenchmark::Gzip, SystemConfig::base())
    }

    #[test]
    fn check_flag_arms_the_lockstep_oracle() {
        assert!(!FigureOpts::new().check);
        assert!(!base_job(&FigureOpts::new()).check);
        let (o, _) = parse(&["--check"]).unwrap();
        assert!(o.check);
        let job = base_job(&o);
        assert!(job.check);
        // Checking never changes a result, so it never changes the key.
        assert_eq!(job.cache_key(), base_job(&FigureOpts::new()).cache_key());
    }

    #[test]
    fn obs_flags_share_the_sim_parser() {
        // Mutates the process-global obs config: save and restore, like
        // cache_flag_path_handling does for the disk cache.
        let prev = tk_sim::obs_config();

        let (o, pos) = parse(&["--trace=miss,fill", "--trace-sample=4", "--profile"]).unwrap();
        assert!(pos.is_empty());
        assert!(o.trace);
        assert!(o.profile);
        let cfg = tk_sim::obs_config();
        assert_eq!(
            cfg.trace,
            Some(tk_sim::TraceCategories::parse("miss,fill").unwrap())
        );
        assert_eq!(cfg.sample, 4);
        assert!(cfg.profile);

        // Space-separated value form and --obs-out.
        let (o, pos) = parse(&["--obs-out", "/tmp/tk-obs-runner-test", "--trace"]).unwrap();
        assert!(pos.is_empty());
        assert!(o.trace && !o.profile);
        let cfg = tk_sim::obs_config();
        assert_eq!(cfg.trace, Some(tk_sim::TraceCategories::all()));
        assert_eq!(
            cfg.out_dir,
            Some(std::path::PathBuf::from("/tmp/tk-obs-runner-test"))
        );

        // Malformed values surface as parse errors, not panics.
        assert!(parse(&["--trace=bogus"]).is_err());
        assert!(parse(&["--trace-sample=0"]).is_err());
        assert!(parse(&["--obs-out"]).is_err());

        tk_sim::set_obs_config(prev);
    }

    #[test]
    fn dram_flag_reaches_every_job() {
        let (o, pos) = parse(&["--dram=banked"]).unwrap();
        assert!(pos.is_empty());
        assert_eq!(
            o.dram,
            tk_sim::MemBackendConfig::Banked(tk_sim::BankedDramConfig::DDR2)
        );
        // Jobs built from the options carry the backend; the builder
        // itself stays on the paper's fixed latency.
        assert_eq!(base_job(&o).cfg.memory, o.dram);
        assert_eq!(SystemConfig::base().memory, tk_sim::MemBackendConfig::Fixed);

        // Space-separated value form, explicit presets, and fixed.
        let (o, _) = parse(&["--dram", "banked:ddr4"]).unwrap();
        assert_eq!(
            o.dram,
            tk_sim::MemBackendConfig::Banked(tk_sim::BankedDramConfig::DDR4)
        );
        assert_eq!(base_job(&o).cfg.memory, o.dram);
        let (o, _) = parse(&["--dram=fixed"]).unwrap();
        assert_eq!(o.dram, tk_sim::MemBackendConfig::Fixed);
        assert_eq!(base_job(&o).cfg, SystemConfig::base());

        // Malformed values surface as parse errors naming the value.
        assert!(parse(&["--dram=warp-core"])
            .unwrap_err()
            .contains("warp-core"));
        assert!(parse(&["--dram"]).is_err());
    }

    #[test]
    fn sample_flag_reaches_every_job() {
        let (o, pos) = parse(&["--sample"]).unwrap();
        assert!(pos.is_empty());
        assert_eq!(o.sample, Some(tk_sim::SampleConfig::DEFAULT));
        // Jobs built from the options carry the sampling mode (and their
        // cache keys gain the fragment).
        let job = base_job(&o);
        assert_eq!(job.cfg.sample, o.sample);
        assert!(job.cache_key().contains("sample={"));
        assert_eq!(SystemConfig::base().sample, None);

        // Explicit parameters, both argument forms.
        let (o, _) = parse(&["--sample=50000,8"]).unwrap();
        assert_eq!(
            o.sample,
            Some(tk_sim::SampleConfig {
                interval: 50_000,
                k: 8
            })
        );
        assert_eq!(base_job(&o).cfg.sample, o.sample);
        // Bare `--sample` does not consume the next argument.
        let (o, pos) = parse(&["--sample", "777"]).unwrap();
        assert_eq!(o.sample, Some(tk_sim::SampleConfig::DEFAULT));
        assert_eq!(pos, vec!["777"]);

        // Malformed values surface as parse errors.
        assert!(parse(&["--sample=0,4"]).is_err());
        assert!(parse(&["--sample=10,0"]).is_err());
        assert!(parse(&["--sample=nope"]).is_err());

        // Without the flag, jobs run full detail.
        assert!(!base_job(&FigureOpts::new()).cache_key().contains("sample="));
    }

    #[test]
    fn cores_flag_reaches_every_job() {
        let (o, pos) = parse(&["--cores=4"]).unwrap();
        assert!(pos.is_empty());
        assert_eq!(o.cores, 4);
        // Jobs built from the options carry the core count (and their
        // cache keys gain the fragment).
        let job = base_job(&o);
        assert_eq!(job.cfg.cores, 4);
        assert!(job.cache_key().contains("cores=4"));
        assert_eq!(SystemConfig::base().cores, 1);

        // Space-separated form; cores=1 keeps the single-core key.
        let (o, _) = parse(&["--cores", "2"]).unwrap();
        assert_eq!(o.cores, 2);
        let (o, _) = parse(&["--cores=1"]).unwrap();
        assert_eq!(o.cores, 1);
        assert!(!base_job(&o).cache_key().contains("cores="));

        // Out-of-range and malformed values surface as parse errors.
        assert!(parse(&["--cores=0"]).unwrap_err().contains("between"));
        assert!(parse(&["--cores=9"]).unwrap_err().contains("between"));
        assert!(parse(&["--cores=two"]).is_err());
        assert!(parse(&["--cores"]).is_err());
    }

    #[test]
    #[should_panic(expected = "cores > 1")]
    fn config_rejects_single_core_mechanisms_under_cores() {
        let (o, _) = parse(&["--cores=2"]).unwrap();
        let _ = o.config(SystemConfig::ideal());
    }

    #[test]
    fn run_bench_produces_result() {
        let r = run_bench(
            SpecBenchmark::Gzip,
            SystemConfig::base(),
            FigureOpts::quick(),
        );
        assert_eq!(r.core.instructions, FigureOpts::quick().instructions);
        assert!(r.ipc() > 0.0);
    }
}
