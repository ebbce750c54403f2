//! Smoke tests: every figure report generates successfully at a reduced
//! instruction budget and contains its key structural elements.

use tk_bench::{figures, FigureOpts};

fn tiny() -> FigureOpts {
    let mut o = FigureOpts::quick();
    o.instructions = 120_000;
    o
}

#[test]
fn table1_renders() {
    let t = figures::table1();
    assert!(t.contains("Table 1"));
    assert!(t.contains("70 cycles"));
}

#[test]
fn fig01_sorted_potentials() {
    let r = figures::fig01(tiny());
    assert!(r.contains("Figure 1"));
    for b in ["ammp", "eon", "mcf"] {
        assert!(r.contains(b), "missing {b}");
    }
}

#[test]
fn fig02_breakdown_rows() {
    let r = figures::fig02(tiny());
    assert!(r.contains("%conflict"));
    assert!(r.lines().count() > 26);
}

#[test]
fn fig04_05_distributions() {
    let r4 = figures::fig04(tiny());
    assert!(r4.contains("live times"));
    assert!(r4.contains('#'));
    let r5 = figures::fig05(tiny());
    assert!(r5.contains("Reload interval"));
}

#[test]
fn fig07_09_split_distributions() {
    let r7 = figures::fig07(tiny());
    assert!(r7.contains("Conflict misses"));
    let r9 = figures::fig09(tiny());
    assert!(r9.contains("Capacity misses"));
}

#[test]
fn fig08_10_sweeps() {
    let r8 = figures::fig08(tiny());
    assert!(r8.contains("16k"));
    let r10 = figures::fig10(tiny());
    assert!(r10.contains("accuracy"));
}

#[test]
fn fig11_zero_live_time() {
    let r = figures::fig11(tiny());
    assert!(r.contains("[geomean]"));
}

#[test]
fn fig13_victim_filters() {
    let r = figures::fig13(tiny());
    assert!(r.contains("unfiltered"));
    assert!(r.contains("traffic reduction"));
}

#[test]
fn fig14_15_16_dead_block() {
    assert!(figures::fig14(tiny()).contains(">5120"));
    assert!(figures::fig15(tiny()).contains("ammp"));
    assert!(figures::fig16(tiny()).contains("[all]"));
}

#[test]
fn fig19_prefetch_comparison() {
    let r = figures::fig19(tiny());
    assert!(r.contains("dbcp 2MB"));
    assert!(r.contains("timekeeping 8KB"));
    assert!(r.contains("[geomean]"));
}

#[test]
fn fig20_21_address_and_timeliness() {
    assert!(figures::fig20(tiny()).contains("coverage"));
    let r21 = figures::fig21(tiny());
    assert!(r21.contains("Correct address predictions"));
    assert!(r21.contains("Wrong address predictions"));
}

#[test]
fn fig22_venn_summary() {
    let r = figures::fig22(tiny());
    assert!(r.contains("few memory stalls"));
    assert!(r.contains("helped by prefetch"));
}

/// A multi-core figure's concurrent mixes are engine jobs: its manifest
/// counts and fingerprints all 18 of them, and a second run with the
/// same `--cache` directory prints the same figure from 18 disk hits.
#[test]
fn fig22_mp_manifest_counts_direct_runs() {
    let tmp = std::env::temp_dir().join(format!("tk-fig22mp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let cache = format!("--cache={}", tmp.join("cache").display());
    let run = |obs: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig22_mp"))
            .args(["--cores=2", "--quick", &cache, "--obs-out"])
            .arg(tmp.join(obs))
            .stderr(std::process::Stdio::null())
            .output()
            .expect("fig22_mp runs");
        assert!(out.status.success());
        let path = tmp.join(obs).join("fig22_mp.manifest.json");
        let text = std::fs::read_to_string(path).expect("manifest");
        let m = timekeeping::Json::parse(&text).expect("manifest is JSON");
        (out.stdout, m, text)
    };
    let (first, m, text) = run("obs1");
    let (second, m2, text2) = run("obs2");
    let _ = std::fs::remove_dir_all(&tmp);

    assert!(m.u64_field("simulations").unwrap() > 0, "{text}");
    let sims_run = m.get("provenance").unwrap().u64_field("simulations_run");
    let sims_run = sims_run.unwrap();
    assert!(sims_run > 0, "{text}");
    assert_eq!(m.u64_field("simulations").unwrap(), 18, "{text}");
    assert_eq!(sims_run, 18, "{text}");
    let fps = m.get("config_fingerprints").unwrap().as_arr().unwrap();
    assert_eq!(fps.len(), 18, "{text}");
    assert!(
        fps.iter().all(|f| f.as_str().unwrap().contains("mix=")),
        "{text}"
    );

    assert_eq!(first, second, "a cached run must print the same figure");
    let prov = m2.get("provenance").unwrap();
    assert_eq!(prov.u64_field("disk_hits").unwrap(), 18, "{text2}");
    assert_eq!(prov.u64_field("simulations_run").unwrap(), 0, "{text2}");
}

/// `multiprog` builds its co-schedules at `--seed`: two seeds print two
/// different reports.
#[test]
fn multiprog_honours_the_seed() {
    let run = |seed: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_multiprog"))
            .args(["--instructions", "20000", "--seed", seed])
            .stderr(std::process::Stdio::null())
            .output()
            .expect("multiprog runs");
        assert!(out.status.success());
        out.stdout
    };
    assert_ne!(run("1"), run("2"), "--seed must change the report");
}
