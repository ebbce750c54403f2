//! # tk-sim — the simulation substrate for the timekeeping reproduction
//!
//! A deterministic, trace-driven, cycle-stepped model of the machine in
//! Table 1 of *Timekeeping in the Memory System* (ISCA 2002): an 8-issue
//! out-of-order core with a 128-entry instruction window, a 32 KB
//! direct-mapped L1 data cache, an optional 32-entry victim cache, a 1 MB
//! 4-way L2, contended L1/L2 and L2/memory buses with demand-over-prefetch
//! priority, 64 demand + 32 prefetch MSHRs and a 128-entry prefetch queue.
//!
//! The hierarchy embeds the `timekeeping` crate's machinery: per-frame
//! generation tracking, ground-truth miss classification, the filtered
//! victim cache, and both prefetchers (timekeeping and DBCP).
//!
//! Entry point: [`run_workload`] simulates N instructions of a
//! [`trace::Workload`] under a [`SystemConfig`] and returns a
//! [`RunResult`] with IPC, miss breakdowns, metric distributions,
//! predictor scores and prefetch timeliness.
//!
//! ```
//! use tk_sim::{run_workload, SystemConfig};
//! use tk_sim::trace::{Instr, MemRef, Workload};
//! use timekeeping::{Addr, Pc};
//!
//! /// A tiny streaming workload.
//! struct Stream(u64);
//! impl Workload for Stream {
//!     fn next_instr(&mut self) -> Instr {
//!         self.0 += 4;
//!         Instr::Load(MemRef::new(Addr::new(self.0), Pc::new(0x100)))
//!     }
//!     fn name(&self) -> &str { "stream" }
//! }
//!
//! let result = run_workload(&mut Stream(0), SystemConfig::base(), 10_000);
//! assert!(result.ipc() > 0.0);
//! assert!(result.hierarchy.l1_accesses >= 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod cache;
pub mod ckpt;
pub mod config;
pub mod core;
pub mod dram;
pub mod hierarchy;
pub mod mshr;
pub mod multicore;
pub mod obs;
pub mod oracle;
pub mod pipeline;
pub mod sample;
pub mod system;
pub mod trace;

pub use ckpt::{
    checkpoint_dir, checkpoint_stats, checkpoints_enabled, job_fingerprint, obtain_keyed,
    record_checkpoints, reset_checkpoint_store, set_checkpoint_dir, set_checkpoints_enabled,
    stream_probe, take_recorded_checkpoints, CkptStats,
};
pub use config::{
    ConfigError, L1Mode, MachineConfig, PrefetchMode, SampleConfig, SystemConfig,
    SystemConfigBuilder, VictimMode, MAX_CORES,
};
pub use core::{CoreStats, OooCore};
pub use dram::{
    parse_backend_arg, BankedDram, BankedDramConfig, DramConfigError, DramStats, FixedLatency,
    MemBackend, MemBackendConfig, MemReply, RowOutcome,
};
pub use hierarchy::{AccessOutcome, HierarchyStats, MemorySystem};
pub use multicore::{run_multicore, CoherenceStats, Mesi};
pub use obs::{
    obs_config, set_obs_config, set_out_dir, set_profile, set_trace, set_trace_sample,
    trace_enabled, ObsConfig, ProfileReport, TraceCategories, TraceCategory, TraceKind,
    TraceRecord,
};
pub use oracle::{FunctionalOracle, LockstepChecker};
pub use sample::{
    assemble_shards, parse_sample_arg, run_shard, run_shard_group, SampleCheckpoint, SampleStats,
};
pub use system::{run_workload, run_workload_checked, RunResult, SimSystem};
pub use trace::{Instr, MemRef, Workload};

/// The crate version, for run manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
