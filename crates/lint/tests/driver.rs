//! Fixture-based negative tests: every rule must catch its bad fixture,
//! respect its scope and allowlist, and stay silent on the clean and
//! lexer-stress fixtures. The real workspace is linted at the end — the
//! same check `cargo run -p lint` performs in CI.

#![forbid(unsafe_code)]

use lint::{check_file, check_workspace, Violation, CRATE_ROOTS, RULES};
use std::path::PathBuf;

fn fired(path: &str, src: &str) -> Vec<Violation> {
    check_file(path, src)
}

fn lines_of(violations: &[Violation], rule: &str) -> Vec<u32> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| v.line)
        .collect()
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

#[test]
fn rule_table_is_well_formed() {
    assert_eq!(RULES.len(), 5);
    let mut ids: Vec<_> = RULES.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 5, "duplicate rule ids");
}

#[test]
fn crate_root_table_matches_the_tree() {
    let root = workspace_root();
    for path in CRATE_ROOTS {
        assert!(
            root.join(path).is_file(),
            "CRATE_ROOTS lists {path}, which does not exist — update the table"
        );
    }
}

#[test]
fn map_iteration_fixture_fails() {
    let src = include_str!("fixtures/map_iteration_bad.rs");
    let v = fired("crates/simcore/src/fixture.rs", src);
    let lines = lines_of(&v, "map-iteration");
    assert_eq!(
        lines.len(),
        6,
        "expected the 6 marked traversals, got {v:#?}"
    );
    assert!(v.iter().all(|x| x.rule == "map-iteration"), "{v:#?}");
    // Out of scope (bench crate): the same source must pass.
    assert!(fired("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn wall_clock_fixture_fails() {
    let src = include_str!("fixtures/wall_clock_bad.rs");
    let v = fired("crates/netsim/src/fixture.rs", src);
    let lines = lines_of(&v, "wall-clock");
    // The import line, Instant::now, and the SystemTime::now call.
    assert_eq!(lines.len(), 3, "{v:#?}");
    // Allowlisted paths: executors, the bench crate, and the one
    // wall-clock storesim module (the rt runtime).
    assert!(fired("crates/core/src/sync_exec.rs", src).is_empty());
    assert!(fired("crates/core/src/tokio_exec.rs", src).is_empty());
    assert!(fired("crates/bench/src/fixture.rs", src).is_empty());
    assert!(fired("crates/storesim/src/rt.rs", src).is_empty());
    // The rt allowlist entry is for that file alone: every *other*
    // storesim module — the simulated-time side — still fires.
    for other in [
        "crates/storesim/src/service.rs",
        "crates/storesim/src/sharded.rs",
        "crates/storesim/src/cluster.rs",
    ] {
        assert_eq!(
            lines_of(&fired(other, src), "wall-clock").len(),
            3,
            "{other} must not inherit rt's wall-clock exemption"
        );
    }
}

#[test]
fn float_total_order_fixture_fails() {
    let src = include_str!("fixtures/float_total_order_bad.rs");
    let v = fired("crates/queuesim/src/fixture.rs", src);
    let lines = lines_of(&v, "float-total-order");
    assert_eq!(lines.len(), 2, "the two marked comparators: {v:#?}");
    assert!(v.iter().all(|x| x.rule == "float-total-order"), "{v:#?}");
}

#[test]
fn forbid_unsafe_fixture_fails() {
    let src = include_str!("fixtures/forbid_unsafe_bad.rs");
    // Checked as a crate root: must fire.
    let v = fired("src/lib.rs", src);
    assert_eq!(lines_of(&v, "forbid-unsafe"), vec![1], "{v:#?}");
    // The same content as a non-root module: the rule does not apply.
    assert!(fired("crates/simcore/src/some_module.rs", src).is_empty());
}

#[test]
fn allow_justification_fixture_fails() {
    let src = include_str!("fixtures/allow_justification_bad.rs");
    let v = fired("crates/wansim/src/fixture.rs", src);
    assert_eq!(
        lines_of(&v, "allow-justification"),
        vec![10, 17],
        "exactly the two unjustified attributes: {v:#?}"
    );
}

#[test]
fn clean_fixture_passes() {
    let src = include_str!("fixtures/clean.rs");
    let v = fired("crates/simcore/src/clean.rs", src);
    assert!(v.is_empty(), "clean fixture must not fire: {v:#?}");
}

#[test]
fn lexer_stress_fixture_passes() {
    let src = include_str!("fixtures/lexer_edges.rs");
    let v = fired("crates/queuesim/src/edges.rs", src);
    assert!(v.is_empty(), "lexer stress fixture must not fire: {v:#?}");
}

/// The gate itself: the real workspace must be violation-free. This is
/// the same scan `cargo run -p lint` performs, so a regression fails
/// root `cargo test` even before CI's dedicated lint job runs.
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let (violations, files) = check_workspace(&root).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "determinism lint violations:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(files > 40, "suspiciously few files scanned: {files}");
}
