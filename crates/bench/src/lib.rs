//! # tk-bench — figure and table regeneration harness
//!
//! One report generator per table/figure of the paper's evaluation
//! ([`figures`]), plus the shared experiment plumbing ([`runner`]) and
//! plain-text rendering ([`fmt`]). Every `src/bin/figNN` binary prints the
//! corresponding report; pass an instruction budget as the first argument
//! (default 8,000,000 per run):
//!
//! ```text
//! cargo run --release -p tk-bench --bin fig19            # paper budget
//! cargo run --release -p tk-bench --bin fig19 -- 2000000 # quick look
//! ```
//!
//! All runs are deterministic: the same budget and seed reproduce a report
//! bit-for-bit.

#![warn(missing_docs)]

pub mod engine;
pub mod figures;
pub mod fmt;
pub mod golden;
pub mod manifest;
pub mod runner;
pub mod workload;

pub use engine::{memo_stats, run_jobs, set_disk_cache, Job};
pub use runner::{
    best_workloads, run_bench, run_suite, suite_metrics, suite_workloads, FigureOpts,
};
pub use workload::{register_trace, registered_traces, TraceHandle, WorkloadId};

/// Asserts that `actual` is within `pct` percent of `expected`
/// (relative, symmetric: `|actual - expected| <= pct/100 * |expected|`).
///
/// The calibration tests pin paper-replication numbers and sampling
/// error bounds with this one helper so every tolerance check fails
/// with the same self-describing message.
///
/// # Panics
///
/// Panics when the relative difference exceeds `pct`, or when exactly
/// one of the two values is zero (the relative error is undefined, and
/// a hard zero against a nonzero pin is always a regression).
#[track_caller]
pub fn assert_within_pct(actual: f64, expected: f64, pct: f64, what: &str) {
    if expected == 0.0 && actual == 0.0 {
        return;
    }
    assert!(
        expected != 0.0,
        "{what}: expected value pinned at 0 but got {actual}"
    );
    let rel = ((actual - expected) / expected).abs() * 100.0;
    assert!(
        rel <= pct,
        "{what}: {actual} is {rel:.2}% from {expected} (allowed {pct}%)"
    );
}

/// Expands to the `main` of a figure/table binary.
///
/// Every `src/bin/figNN` stub is this one macro call, so the CLI contract
/// (one optional instruction-budget argument plus the shared
/// [`FigureOpts`] flags) cannot drift between figures:
///
/// ```ignore
/// tk_bench::figure_main!(fig19);
/// ```
///
/// Argument-free reports (Table 1) use the `no_args` form, which rejects
/// any command-line argument with exit code 2:
///
/// ```ignore
/// tk_bench::figure_main!(table1, no_args);
/// ```
#[macro_export]
macro_rules! figure_main {
    ($fig:ident) => {
        fn main() {
            let opts = $crate::FigureOpts::from_args();
            // When --obs-out is configured, describe the run in a
            // manifest beside the trace/profile files.
            let manifest = $crate::manifest::arm_for_figure();
            let before = $crate::manifest::Provenance::now();
            let ckpt_before = $crate::manifest::ckpt_snapshot();
            let started = std::time::Instant::now();
            println!("{}", $crate::figures::$fig(opts));
            if manifest {
                $crate::manifest::finish_for_figure(
                    stringify!($fig),
                    &opts,
                    started.elapsed(),
                    before,
                    ckpt_before,
                );
            }
        }
    };
    ($fig:ident, no_args) => {
        fn main() {
            if let Some(arg) = std::env::args().nth(1) {
                eprintln!(
                    concat!(
                        "error: ",
                        stringify!($fig),
                        " takes no arguments (got `{}`)"
                    ),
                    arg
                );
                std::process::exit(2);
            }
            println!("{}", $crate::figures::$fig());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::assert_within_pct;

    #[test]
    fn within_pct_accepts_close_values() {
        assert_within_pct(1.015, 1.0, 2.0, "well inside, high");
        assert_within_pct(0.985, 1.0, 2.0, "well inside, low");
        assert_within_pct(0.0, 0.0, 1.0, "both zero");
        assert_within_pct(-1.01, -1.0, 2.0, "negative pins work");
    }

    #[test]
    #[should_panic(expected = "drifted metric")]
    fn within_pct_rejects_drift() {
        assert_within_pct(1.05, 1.0, 2.0, "drifted metric");
    }

    #[test]
    #[should_panic(expected = "expected value pinned at 0")]
    fn within_pct_rejects_zero_pin_mismatch() {
        assert_within_pct(0.5, 0.0, 2.0, "zero pin");
    }
}
