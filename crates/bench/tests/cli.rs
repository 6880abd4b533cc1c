//! The `repro` binary's usage errors and the exit codes and lines of
//! `repro check`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run the repro binary")
}

/// A fresh directory private to one test of this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory");
    dir
}

#[test]
fn no_experiment_is_a_usage_error() {
    let absent = std::env::temp_dir().join(format!("repro-cli-{}-absent", std::process::id()));
    let absent = absent.to_str().expect("utf-8 temp path");
    for args in [
        &[][..],
        &["--quick"],
        &["--threads", "2"],
        &["--quick", "--out", absent],
        &["list", "--figures"],
        &["check"],
        &["check", absent],
        &["check", absent, absent],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} printed to stdout");
    }
    assert!(
        !std::path::Path::new(absent).exists(),
        "a usage error created --out"
    );
}

#[test]
fn check_prints_one_line_per_band_and_fails_missing_figures() {
    let dir = scratch_dir("check");
    let report = "# savings per KB: 178.3 ms/KB vs 16 ms/KB break-even (paper: >= 170)\n";
    std::fs::write(dir.join("tcp.txt"), report).expect("write tcp.txt");
    let out = repro(&["check", dir.to_str().expect("utf-8 temp path")]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout
            .lines()
            .all(|l| l.starts_with("ok   ") || l.starts_with("FAIL ")),
        "{stdout}"
    );
    assert!(stdout.contains("ok   tcp: "), "{stdout}");
    let missing = format!("FAIL thm1: missing {}", dir.join("thm1.txt").display());
    assert!(stdout.lines().any(|l| l == missing), "{stdout}");
    assert_eq!(
        stdout.matches(": missing ").count(),
        repro_bench::ALL_IDS.len() - 1,
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("remove the scratch directory");
}
