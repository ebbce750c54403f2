//! Golden-figure regression harness.
//!
//! Pins the full stats digest behind every figure/table binary (see
//! `tk_bench::golden`) against `tests/golden/<name>.json`, compared
//! bit-exactly. Any stat-level change to a figure's simulations — a new
//! counter value, a reordered job, a changed render — fails here with a
//! message naming the figure and the first differing line.
//!
//! To accept an intentional change, re-bless and commit the results:
//!
//! ```text
//! TK_BLESS=1 cargo test --test golden_figures
//! ```

use tk_bench::golden;

fn blessing() -> bool {
    std::env::var("TK_BLESS").map(|v| v == "1").unwrap_or(false)
}

#[test]
fn golden_figures_match() {
    let opts = golden::golden_opts();
    let dir = golden::golden_dir();
    let bless = blessing();
    if bless {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut failures = Vec::new();
    for (name, generate) in golden::figure_manifest() {
        let doc = golden::digest(name, generate, opts).render();
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::write(&path, &doc).expect("write golden file");
            continue;
        }
        let expected = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => {
                failures.push(format!(
                    "{name}: missing golden file {} — generate it with \
                     TK_BLESS=1 cargo test --test golden_figures",
                    path.display()
                ));
                continue;
            }
        };
        if expected != doc {
            failures.push(format!("{name}: {}", golden::first_diff(&expected, &doc)));
        }
    }
    assert!(
        failures.is_empty(),
        "golden digests diverged for {} figure(s); if the change is \
         intentional, re-bless with TK_BLESS=1 cargo test --test \
         golden_figures\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

/// The digest of a figure must not depend on the worker-pool size: a
/// serial (`--jobs 1`) regeneration reproduces the blessed file that the
/// (parallel) main test checks, for a single-core figure and for a
/// multi-core one.
#[test]
fn golden_digest_pool_size_invariant() {
    if blessing() {
        return; // the main test is rewriting the files right now
    }
    let mut opts = golden::golden_opts();
    opts.jobs = 1;
    for want in ["fig04", "fig22_mp"] {
        let (name, generate) = golden::figure_manifest()
            .into_iter()
            .find(|(name, _)| *name == want)
            .expect("figure is in the golden manifest");
        let doc = golden::digest(name, generate, opts).render();
        let path = golden::golden_dir().join(format!("{name}.json"));
        let Ok(expected) = std::fs::read_to_string(&path) else {
            panic!("missing golden file {}; bless first", path.display());
        };
        assert_eq!(
            expected,
            doc,
            "{name}: serial digest diverged: {}",
            golden::first_diff(&expected, &doc)
        );
    }
}
