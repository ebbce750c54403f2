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

/// A multi-core figure runs its concurrent mixes outside the engine; its
/// manifest still counts those runs.
#[test]
fn fig22_mp_manifest_counts_direct_runs() {
    let dir = std::env::temp_dir().join(format!("tk-fig22mp-obs-{}", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_fig22_mp"))
        .args(["--cores=2", "--quick", "--obs-out"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("fig22_mp runs");
    assert!(status.success());
    let text = std::fs::read_to_string(dir.join("fig22_mp.manifest.json")).expect("manifest");
    let m = timekeeping::Json::parse(&text).expect("manifest is JSON");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(m.u64_field("simulations").unwrap() > 0, "{text}");
    let sims_run = m.get("provenance").unwrap().u64_field("simulations_run");
    assert!(sims_run.unwrap() > 0, "{text}");
}
