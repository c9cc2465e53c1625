//! End-to-end coverage of every rule over the fixture corpus in
//! `tests/fixtures/` — true positives, true negatives and both suppression
//! paths — plus CLI-level exit-code checks against the built binary.
//!
//! Fixtures are scanned with `context_crate = "assign"` so they masquerade
//! as production code of a deterministic crate; the corpus itself is never
//! compiled (the engine's workspace walk skips `tests/fixtures`).

use datawa_lint::{run, Options, Report};
use std::path::PathBuf;
use std::process::Command;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn scan(file: &str) -> Report {
    let opts = Options {
        root: fixtures_dir(),
        workspace: false,
        paths: vec![PathBuf::from(file)],
        context_crate: Some("assign".to_string()),
    };
    run(&opts).expect("fixture scan")
}

fn rules_of(report: &Report) -> Vec<&str> {
    report.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unordered_iteration_positive_negative_and_suppressed() {
    let report = scan("unordered_iteration.rs");
    assert_eq!(
        rules_of(&report),
        ["unordered-iteration", "unordered-iteration"],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 8, "the bare `m.iter()` loop");
    assert_eq!(
        report.findings[1].line, 37,
        "the `.keys()` chain-continuation line"
    );
    assert_eq!(report.suppressed, 1, "the rationale-carrying loop");
    assert!(report.failed());
}

#[test]
fn relaxed_atomic_positive_negative_suppressed_and_missing_reason() {
    let report = scan("relaxed_atomic.rs");
    // The reasonless suppression silences its finding but raises the
    // meta-lint, so it can never land silently.
    assert_eq!(
        rules_of(&report),
        ["relaxed-atomic-audit", "missing-suppression-reason"],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 6, "the unsuppressed fetch_add");
    assert_eq!(report.suppressed, 2);
}

#[test]
fn float_ordering_positive_negative_and_suppressed() {
    let report = scan("float_ordering.rs");
    assert_eq!(
        rules_of(&report),
        ["unchecked-float-ordering"],
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings[0].line, 5, "the partial_cmp sort key");
    assert_eq!(report.suppressed, 1);
}

#[test]
fn invalid_suppressions_are_findings() {
    let report = scan("bad_suppression.rs");
    assert_eq!(
        rules_of(&report),
        ["invalid-suppression", "invalid-suppression"],
        "{:?}",
        report.findings
    );
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("unknown rule")));
    assert!(messages.iter().any(|m| m.contains("unparsable")));
}

#[test]
fn file_level_suppression_covers_every_line() {
    let report = scan("allow_file.rs");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 2, "both Relaxed sites");
    assert!(!report.failed());
}

#[test]
fn cli_exits_nonzero_on_fixtures_and_prints_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_datawa-lint"))
        .arg("--root")
        .arg(fixtures_dir())
        .arg("--context")
        .arg("assign")
        .arg("unordered_iteration.rs")
        .arg("relaxed_atomic.rs")
        .output()
        .expect("run datawa-lint on fixtures");
    assert_eq!(out.status.code(), Some(1), "unsuppressed findings exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in [
        "unordered-iteration",
        "relaxed-atomic-audit",
        "missing-suppression-reason",
    ] {
        assert!(stdout.contains(&format!("error[{rule}]")), "{stdout}");
    }
}

#[test]
fn cli_exits_cleanly_on_a_clean_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_datawa-lint"))
        .arg("--root")
        .arg(fixtures_dir())
        .arg("--context")
        .arg("assign")
        .arg("allow_file.rs")
        .output()
        .expect("run datawa-lint on a clean fixture");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn cli_usage_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_datawa-lint"))
        .arg("--no-such-flag")
        .output()
        .expect("run datawa-lint with a bad flag");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn cli_lists_the_three_rules_and_the_two_meta_lints() {
    let out = Command::new(env!("CARGO_BIN_EXE_datawa-lint"))
        .arg("--list")
        .output()
        .expect("run datawa-lint --list");
    assert_eq!(out.status.code(), Some(0));
    let names: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split(':').next().map(str::to_string))
        .collect();
    assert_eq!(
        names,
        [
            "unordered-iteration",
            "relaxed-atomic-audit",
            "unchecked-float-ordering",
            "missing-suppression-reason",
            "invalid-suppression",
        ]
    );
}
