//! The analyzer's own acceptance gate: each seeded fixture must fail with
//! the right lint name, and the real workspace must analyze clean.

use analyzer::lints::{analyze_file, Finding};
use std::path::Path;

/// Load a fixture and analyze it under a synthetic repo path (fixtures under
/// `tests/fixtures/` are never compiled and never scanned by the walk; the
/// synthetic path puts them in the residue scope like real kernel code).
fn analyze_fixture(name: &str) -> Vec<Finding> {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
    analyze_file(&format!("crates/ntt-ref/src/fixtures/{name}"), &src).findings
}

fn lint_names(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.lint).collect()
}

#[test]
fn raw_residue_fixture_fails_with_the_right_lint() {
    let f = analyze_fixture("raw_residue.rs");
    assert!(!f.is_empty());
    assert!(
        lint_names(&f).iter().all(|&l| l == "raw_residue_op"),
        "{f:?}"
    );
    // All three leak shapes are caught: `% q`, `wrapping_*`, `as u128`.
    let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert!(msgs.iter().any(|m| m.contains("% q")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("wrapping_mul")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("as u128")), "{msgs:?}");
}

#[test]
fn malformed_marker_fixture_fails_with_the_right_lint() {
    let f = analyze_fixture("malformed_marker.rs");
    // Both broken markers are reported, and the residue ops they failed to
    // suppress surface as findings of their own.
    assert_eq!(
        f.iter().filter(|x| x.lint == "malformed_allow").count(),
        2,
        "{f:?}"
    );
    assert_eq!(
        f.iter().filter(|x| x.lint == "raw_residue_op").count(),
        2,
        "{f:?}"
    );
}

#[test]
fn missing_sibling_fixture_fails_with_the_right_lint() {
    let f = analyze_fixture("missing_sibling.rs");
    assert_eq!(lint_names(&f), ["missing_portable_sibling"], "{f:?}");
}

#[test]
fn missing_assert_fixture_fails_with_the_right_lint() {
    let f = analyze_fixture("missing_assert.rs");
    assert_eq!(lint_names(&f), ["missing_bound_assert"], "{f:?}");
}

#[test]
fn clean_fixture_passes() {
    let f = analyze_fixture("clean.rs");
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn the_workspace_itself_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = analyzer::analyze_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned > 50,
        "walk looks truncated: {} files",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "workspace has unsuppressed findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}: {}:{}: {}", f.lint, f.path, f.line, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
