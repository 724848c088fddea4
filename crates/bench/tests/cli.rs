//! Smoke tests for the `cds` command-line tool (each subcommand runs end to
//! end, and schedule/table files roundtrip through `inspect`) and for the
//! `paper` binary's reports.

use std::process::Command;

fn cds() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cds"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cds-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn schedule_then_inspect_roundtrip() {
    let file = tmp("sched.txt");
    let out = cds()
        .args(["schedule", "--models", "2", "--out"])
        .arg(&file)
        .output()
        .expect("run cds schedule");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&file).unwrap();
    assert!(text.starts_with("schedule v1"));

    let out = cds().arg("inspect").arg(&file).output().expect("inspect");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 schedule(s)"), "{stdout}");
    assert!(stdout.contains("Digitizer"), "{stdout}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn table_roundtrip_and_entries() {
    let file = tmp("table.txt");
    let out = cds()
        .args(["table", "--states", "1..2", "--out"])
        .arg(&file)
        .output()
        .expect("run cds table");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cds().arg("inspect").arg(&file).output().expect("inspect");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 schedule(s)"), "{stdout}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn simulate_reports_metrics() {
    let out = cds()
        .args([
            "simulate",
            "--models",
            "1",
            "--period-ms",
            "2000",
            "--frames",
            "6",
        ])
        .output()
        .expect("run cds simulate");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("latency"), "{stdout}");
    assert!(stdout.contains("precomputed optimal"), "{stdout}");
}

#[test]
fn surveillance_graph_variant_works() {
    let file = tmp("surv.txt");
    let out = cds()
        .args([
            "schedule",
            "--models",
            "1",
            "--graph",
            "surveillance",
            "--no-dp",
            "--out",
        ])
        .arg(&file)
        .output()
        .expect("run cds schedule surveillance");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&file);
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = cds().output().expect("run cds");
    assert!(!out.status.success());
    let out = cds().args(["frobnicate"]).output().expect("run cds");
    assert!(!out.status.success());
    let out = cds()
        .args(["table", "--states", "nonsense"])
        .output()
        .expect("run cds");
    assert!(!out.status.success());
}

/// The cheap paper reports print the same bytes on every run (the sweep
/// drivers' wall-clock lines go to stderr, every printed search is serial)
/// and pass their own shape checks. `table1`, `multinode` and
/// `surveillance_sweep` are left to `paper all` in CI: the first times real
/// kernels, the other two take seconds each.
#[test]
fn paper_reports_are_deterministic() {
    for report in [
        "fig3",
        "fig4",
        "fig5",
        "regime_switch",
        "ablation",
        "robustness",
    ] {
        let run = || {
            let out = Command::new(env!("CARGO_BIN_EXE_paper"))
                .arg(report)
                .output()
                .expect("run paper");
            assert!(
                out.status.success(),
                "{report}: {}",
                String::from_utf8_lossy(&out.stdout)
            );
            out.stdout
        };
        assert_eq!(run(), run(), "{report} differs between two runs");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("fig99")
        .output()
        .expect("run paper");
    assert!(!out.status.success(), "unknown report must be refused");
}
