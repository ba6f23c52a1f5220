//! Per-rule fixture tests: feed each fixture to `check_file` under a
//! scoped fake path and pin down exactly which lines are flagged.

use acqp_lint::rules::{check_file, FileCtx, Finding, Severity};
use acqp_lint::scan::ScannedFile;

const VIOLATIONS: &str = include_str!("fixtures/violations.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const ALLOWED: &str = include_str!("fixtures/allowed.rs");
const BENCH_WRITER: &str = include_str!("fixtures/bench_writer.rs");

fn run(relpath: &str, source: &str) -> (Vec<Finding>, Vec<usize>) {
    let scan = ScannedFile::new(source);
    check_file(&FileCtx { relpath, source, scan: &scan })
}

/// 1-based line of the first line containing `marker`.
fn line_of(source: &str, marker: &str) -> usize {
    source
        .lines()
        .position(|l| l.contains(marker))
        .unwrap_or_else(|| panic!("marker {marker:?} not in fixture"))
        + 1
}

fn lines_for(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings.iter().filter(|f| f.rule == rule).map(|f| f.line).collect()
}

#[test]
fn violations_fixture_flags_every_rule_in_planner_scope() {
    // planner path: wallclock + nondet + mutex + panic + float all apply.
    let (findings, _) = run("crates/acqp-core/src/planner/fixture.rs", VIOLATIONS);
    assert_eq!(
        lines_for(&findings, "wallclock-in-planner"),
        vec![line_of(VIOLATIONS, "MARK:wallclock")]
    );
    assert_eq!(
        lines_for(&findings, "nondeterministic-iteration"),
        vec![line_of(VIOLATIONS, "MARK:nondet-import"), line_of(VIOLATIONS, "&HashMap<u32")]
    );
    assert_eq!(
        lines_for(&findings, "raw-mutex"),
        vec![
            line_of(VIOLATIONS, "MARK:mutex-grouped"),
            line_of(VIOLATIONS, "-> std::sync::Mutex<u32>"),
            line_of(VIOLATIONS, "MARK:mutex-qualified"),
        ]
    );
    // `.unwrap()` on the Option probe plus the one chained after partial_cmp.
    assert_eq!(
        lines_for(&findings, "panic-in-lib"),
        vec![line_of(VIOLATIONS, "MARK:unwrap"), line_of(VIOLATIONS, "MARK:partial-cmp")]
    );
    assert_eq!(
        lines_for(&findings, "float-partial-cmp"),
        vec![line_of(VIOLATIONS, "MARK:partial-cmp")]
    );
    for f in &findings {
        assert_eq!(f.severity, Severity::Error, "{f:?}");
        assert!(!f.snippet.is_empty(), "{f:?}");
    }
}

#[test]
fn rule_scopes_follow_the_path_not_the_content() {
    // budget.rs is the one sanctioned wall-clock site.
    let (findings, _) = run("crates/acqp-core/src/planner/budget.rs", VIOLATIONS);
    assert!(lines_for(&findings, "wallclock-in-planner").is_empty());

    // Outside the deterministic result path, HashMap is fine; outside
    // the panic scope, unwrap is clippy's problem, not ours.
    let (findings, _) = run("crates/acqp-bench/src/lib.rs", VIOLATIONS);
    assert!(lines_for(&findings, "nondeterministic-iteration").is_empty());
    assert!(lines_for(&findings, "panic-in-lib").is_empty());
    // raw-mutex and float-partial-cmp still apply everywhere in lib code.
    assert!(!lines_for(&findings, "raw-mutex").is_empty());
    assert!(!lines_for(&findings, "float-partial-cmp").is_empty());

    // Test paths are entirely out of scope.
    let (findings, _) = run("crates/acqp-core/tests/fixture.rs", VIOLATIONS);
    assert!(findings.is_empty(), "{findings:?}");
    let (findings, _) = run("crates/acqp-bench/benches/fixture.rs", VIOLATIONS);
    assert!(findings.is_empty(), "{findings:?}");
    let (findings, _) = run("servebench/src/fixture.rs", VIOLATIONS);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn clean_fixture_produces_no_findings() {
    // The harshest scope: every rule active.
    let (findings, used) = run("crates/acqp-core/src/planner/fixture.rs", CLEAN);
    assert!(findings.is_empty(), "strings/doc comments/test code leaked: {findings:?}");
    assert!(used.is_empty());
}

#[test]
fn allow_comments_suppress_and_their_hygiene_is_checked() {
    let (findings, used) = run("crates/acqp-persist/src/fixture.rs", ALLOWED);

    // Both justified allows suppressed their finding and are marked used.
    assert!(lines_for(&findings, "float-partial-cmp").is_empty());
    assert_eq!(
        lines_for(&findings, "panic-in-lib"),
        Vec::<usize>::new(),
        "suppressed unwrap leaked: {findings:?}"
    );
    let same = line_of(ALLOWED, "allow(panic-in-lib): fixture");
    let above = line_of(ALLOWED, "allow(float-partial-cmp): fixture");
    assert!(used.contains(&same) && used.contains(&above), "used={used:?}");

    // A reasonless allow and an unknown rule id are hard errors.
    let bare = ALLOWED
        .lines()
        .position(|l| l.trim() == "// acqp-lint: allow(panic-in-lib)")
        .expect("bare allow line in fixture")
        + 1;
    assert_eq!(lines_for(&findings, "bare-allow"), vec![bare]);
    assert_eq!(lines_for(&findings, "unknown-allow"), vec![line_of(ALLOWED, "no-such-rule")]);

    // The stale allow is NOT reported by check_file (the workspace pass
    // owns unused-allow), but it is also not in the used set.
    let stale = line_of(ALLOWED, "allow(raw-mutex): nothing");
    assert!(!used.contains(&stale));
}

#[test]
fn bench_writer_advisory_outside_report_rs() {
    let (findings, _) = run("crates/acqp-sensornet/src/fixture.rs", BENCH_WRITER);
    let lines = lines_for(&findings, "duplicate-bench-writer");
    assert_eq!(
        lines,
        vec![
            line_of(BENCH_WRITER, "pub fn write_bench_json"),
            line_of(BENCH_WRITER, "MARK:bench-literal")
        ]
    );
    for f in findings.iter().filter(|f| f.rule == "duplicate-bench-writer") {
        assert_eq!(f.severity, Severity::Advisory);
    }

    // The canonical home is exempt.
    let (findings, _) = run("crates/acqp-bench/src/report.rs", BENCH_WRITER);
    assert!(lines_for(&findings, "duplicate-bench-writer").is_empty());
}
