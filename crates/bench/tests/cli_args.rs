//! Bad command-line counts fail fast with the usage exit code (2) instead
//! of printing an all-zero figure or panicking deep in the engine.

use std::process::{Command, Output};

/// Runs a figure binary from a scratch directory, so nothing it might
/// write lands in the source tree.
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("figure binary starts")
}

fn assert_usage_exit(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "printed a figure: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn zero_seeds_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_fig07_service_delay");
    assert_usage_exit(&run(bin, &["--seeds", "0"]));
    assert_usage_exit(&run(bin, &["--jobs", "0"]));
}

#[test]
fn zero_mega_size_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_fig_mega");
    assert_usage_exit(&run(bin, &["--sizes", "0"]));
    assert_usage_exit(&run(bin, &["--sizes", "1000,0"]));
}

#[test]
fn non_numeric_fail_above_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_rom-prof");
    assert_usage_exit(&run(bin, &["diff", "a", "b", "--fail-above", "nan"]));
    assert_usage_exit(&run(bin, &["diff", "a", "b", "--fail-above", "inf"]));
    assert_usage_exit(&run(bin, &["diff", "a", "b", "--fail-above", "-5"]));
}

#[test]
fn bad_perf_smoke_tolerance_or_missing_path_is_a_usage_error() {
    let bin = env!("CARGO_BIN_EXE_perf_smoke");
    let smoke = |args: &[&str], env_tolerance: Option<&str>| {
        let mut cmd = Command::new(bin);
        cmd.args(args).current_dir(env!("CARGO_TARGET_TMPDIR"));
        match env_tolerance {
            Some(value) => cmd.env("ROM_PERF_TOLERANCE", value),
            None => cmd.env_remove("ROM_PERF_TOLERANCE"),
        };
        cmd.output().expect("perf_smoke starts")
    };
    for tolerance in ["nan", "NaN", "fast", "-0.1", "1", "1.5", "inf"] {
        assert_usage_exit(&smoke(&["--fresh", "f.json", "--tolerance", tolerance], None));
        assert_usage_exit(&smoke(&["--fresh", "f.json"], Some(tolerance)));
    }
    assert_usage_exit(&smoke(&["--fresh", "f.json", "--tolerance"], None));
    assert_usage_exit(&smoke(&["--fresh"], None));
    assert_usage_exit(&smoke(&["--fresh", "f.json", "--baseline"], None));
}
