//! Exit statuses of the experiment binaries on bad input and on lost
//! output: neither may pass for a successful run.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env("NTI_EXP_FAST", "1")
        .output()
        .expect("spawn experiment")
}

#[test]
fn failed_trace_export_exits_one() {
    let dir = std::env::temp_dir().join(format!("nti-bench-cli-{}", std::process::id()));
    let path = dir.join("missing").join("t.jsonl");
    let out = run(
        env!("CARGO_BIN_EXE_e11_rtt_measurement"),
        &["--trace-out", path.to_str().expect("utf-8 path")],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {err}");
    assert!(err.contains("t.jsonl"), "the error names the file: {err}");
    assert!(!dir.exists());
}

/// A run that exits 2 with a one-line usage on stderr and prints nothing.
fn assert_usage_exit(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {err}");
    assert!(err.starts_with("usage: e"), "{bin}: {err}");
    assert_eq!(err.lines().count(), 1, "{bin}: one-line usage");
    assert!(out.stdout.is_empty(), "{bin} ran anyway");
}

#[test]
fn argument_free_experiments_reject_arguments() {
    for bin in [
        env!("CARGO_BIN_EXE_e2_granularity"),
        env!("CARGO_BIN_EXE_e3_fosc_crossover"),
        env!("CARGO_BIN_EXE_e4_rate_sync"),
        env!("CARGO_BIN_EXE_e5_gps_validation"),
        env!("CARGO_BIN_EXE_e6_class_table"),
        env!("CARGO_BIN_EXE_e7_adder_clock"),
        env!("CARGO_BIN_EXE_e8_lower_bound"),
    ] {
        assert_usage_exit(bin, &["--obs-summary"]);
    }
}

#[test]
fn engine_perf_rejects_anything_but_smoke() {
    let bin = env!("CARGO_BIN_EXE_e17_engine_perf");
    for args in [&["--smokee"][..], &["--obs-summary"], &["--smoke", "x"]] {
        assert_usage_exit(bin, args);
    }
}
