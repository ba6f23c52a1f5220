//! The named invariant rules and the pattern engine that runs them.
//!
//! Each rule guards an invariant established by an earlier PR (see
//! `DESIGN.md` §11): bitwise-deterministic plan search, poison-free
//! locking, planning that is infallible by construction, total float
//! orderings and the stable observability taxonomy. Rules scan the
//! *masked* source produced by [`crate::scan`], so comments, strings
//! and char literals can never trip a pattern, and `#[cfg(test)]`
//! items are exempt wholesale.

use crate::scan::ScannedFile;

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint (nonzero exit).
    Error,
    /// Reported, but does not fail the lint.
    Advisory,
}

impl Severity {
    /// Stable lower-case label used in output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Advisory => "advisory",
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`raw-mutex`, `metric-taxonomy`, …).
    pub rule: &'static str,
    /// Error or advisory.
    pub severity: Severity,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The trimmed source line.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// Static description of a rule, for `--explain` and `--rules`.
pub struct RuleInfo {
    /// Stable rule id.
    pub id: &'static str,
    /// Error or advisory.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Long-form rationale: which invariant, which PR, how to fix.
    pub explain: &'static str,
}

/// Every rule, including the meta rules guarding the suppression
/// mechanism itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wallclock-in-planner",
        severity: Severity::Error,
        summary: "no Instant::now/SystemTime::now outside planner/budget.rs and bench/test code",
        explain: "Plan selection is P* = argmin_P E[C(P,x)] over a deterministic search; the \
                  repo guarantees bitwise-identical plans for identical inputs on every run. A \
                  wall clock read on a search path makes results depend on machine load. All \
                  deadline handling belongs in acqp-core/src/planner/budget.rs (SearchLimits / \
                  Deadline), which confines clock reads to the cooperative budget that may only \
                  *truncate* a search, never reorder it. Benches, tests and examples are \
                  exempt. Suppress with `// acqp-lint: allow(wallclock-in-planner): <reason>` \
                  only for observational timing that is never read back into a decision.",
    },
    RuleInfo {
        id: "nondeterministic-iteration",
        severity: Severity::Error,
        summary: "no std HashMap/HashSet in planner/estimator/sensornet/persist code",
        explain: "std's HashMap and HashSet use a randomly seeded hasher: iteration order \
                  changes run to run. Any result that is built by iterating one — float \
                  accumulation order, tie-breaks, serialized output — silently loses the \
                  bitwise determinism PRs 1–4 promise. Use BTreeMap/BTreeSet in \
                  acqp-core, acqp-gm, acqp-sensornet and acqp-persist. A lookup-only table \
                  whose iteration order provably never escapes may keep a HashMap under \
                  `// acqp-lint: allow(nondeterministic-iteration): <why order cannot escape>`.",
    },
    RuleInfo {
        id: "raw-mutex",
        severity: Severity::Error,
        summary: "library code is single-owner: use Cell/RefCell, not std::sync::Mutex",
        explain: "Library code runs on one thread: planners, estimators, executors, the \
                  simulator and the serve loop each own their state, so interior mutability \
                  is a Cell or RefCell, never a lock. A std::sync::Mutex in library code is \
                  either dead weight or a sign that state is being shared across threads, and \
                  it poisons on panic, turning one caught failure into an abort on every later \
                  lock().unwrap(). A Mutex that must stay (an I/O sink shared through \
                  `Arc<dyn Sink>`) needs `// acqp-lint: allow(raw-mutex): <reason>`.",
    },
    RuleInfo {
        id: "panic-in-lib",
        severity: Severity::Error,
        summary: "no .unwrap()/.expect()/panic! in planner and recovery paths",
        explain: "Planning is infallible by construction (PR 4's fallback ladder ends in a \
                  rung that cannot fail) and recovery must survive arbitrarily corrupt \
                  on-disk state (PR 4's checkpoint/WAL scanner reports corruption instead of \
                  dying). A reachable unwrap/expect/panic! in acqp-core/src/planner, \
                  acqp-persist or acqp-sensornet/src/recovery.rs breaks both guarantees. \
                  Return an error, degrade, or restructure so the invariant is checked by \
                  types (slice patterns instead of try_into().unwrap()). assert!/debug_assert! \
                  are permitted — they state invariants rather than handle errors. A genuinely \
                  unreachable case may stay under \
                  `// acqp-lint: allow(panic-in-lib): <the invariant that makes it unreachable>`.",
    },
    RuleInfo {
        id: "float-partial-cmp",
        severity: Severity::Error,
        summary: "f64 comparisons and sorts must go through planner::OrdF64",
        explain: "partial_cmp on f64 is not total: NaN compares as None, and the customary \
                  `.unwrap_or(Ordering::Equal)` makes sorts and min_by silently \
                  order-dependent — the same failure that collapses cost-model comparisons \
                  (Eq. 1–3) and P* = argmin selection. acqp_core::planner::OrdF64 is the one \
                  total order (NaN compares smallest, so a NaN priority can never displace a \
                  finite one in the planners' max-heaps); compare with \
                  OrdF64(a).cmp(&OrdF64(b)). The only legitimate partial_cmp call sites \
                  are inside OrdF64's own impl, marked with \
                  `// acqp-lint: allow(float-partial-cmp): <reason>`.",
    },
    RuleInfo {
        id: "metric-taxonomy",
        severity: Severity::Error,
        summary:
            "every Recorder dot-path must appear in DESIGN.md §8's taxonomy table, and vice versa",
        explain: "The observability taxonomy (PR 2) is a contract: CI smoke tests, bench JSON \
                  artifacts and downstream dashboards parse these names. This rule collects \
                  every dot-path string literal passed to Recorder::counter/float_counter/\
                  hist/gauge/span (including through format!, with `{…}` normalized to `<*>`) \
                  plus every flight-recorder event name (the third argument of \
                  FlightRecorder::emit/emit_owned, documented as kind `event` — DESIGN.md \
                  §13) and checks them against the table between the acqp-lint:taxonomy \
                  markers in DESIGN.md §8 — in both directions, so documentation can neither \
                  lag nor lead the code.",
    },
    RuleInfo {
        id: "duplicate-bench-writer",
        severity: Severity::Advisory,
        summary: "bench artifact (BENCH_*.json) stamping belongs in acqp-bench/src/report.rs",
        explain: "Every bench emits its machine-readable artifact through \
                  acqp_bench::report::emit_bench_json, so artifact naming, number formatting \
                  and error handling stay in one place. A second `fn write_bench_json` or a \
                  stray `BENCH_`-prefixed literal outside report.rs means the helper is being \
                  re-grown in place — call the shared one instead. Advisory: reported, but \
                  does not fail the lint.",
    },
    RuleInfo {
        id: "unchecked-wire-access",
        severity: Severity::Error,
        summary: "wire-format decoders must use slice patterns or .get(), not scalar indexing",
        explain: "The plan wire format and the persistence frames are parsed from untrusted \
                  bytes: checkpoint files survive torn writes, and the static verifier's whole \
                  job (PR 10) is rejecting corrupt plans with typed errors. A scalar index \
                  expression (`buf[pos]`) in decode code panics on truncated input — the exact \
                  failure the BadWireFormat/VerifyError paths exist to prevent. Destructure \
                  with slice patterns (`let [tag, rest @ ..] = …`) or call `.get(..)` and \
                  handle `None`. Range slicing (`buf[a..b]`) is exempt: it is the idiom \
                  directly after an explicit length check, and a panic there is caught by the \
                  same length discipline. acqp-persist/src/codec.rs, the one sanctioned \
                  bounds-checked reader, is exempt wholesale. Suppress with \
                  `// acqp-lint: allow(unchecked-wire-access): <why the index is in bounds>`.",
    },
    RuleInfo {
        id: "bare-allow",
        severity: Severity::Error,
        summary: "every acqp-lint allow comment must carry a reason",
        explain: "Suppressions are part of the invariant record: an allow without a reason \
                  cannot be audited or re-litigated when the code changes. Write \
                  `// acqp-lint: allow(<rule>): <one-line reason>`.",
    },
    RuleInfo {
        id: "unknown-allow",
        severity: Severity::Error,
        summary: "allow comments must name an existing rule",
        explain: "An allow naming a rule that does not exist suppresses nothing and usually \
                  means a typo is silently disarming a real suppression. Check the id against \
                  `acqp-lint --rules`.",
    },
    RuleInfo {
        id: "unused-allow",
        severity: Severity::Advisory,
        summary: "allow comments that suppress nothing should be removed",
        explain: "A suppression that no longer matches a finding is stale documentation: the \
                  violating code moved or was fixed. Remove the comment so the next reader \
                  does not assume the violation is still there.",
    },
];

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// Whether `relpath` is test/bench/example code, exempt from the
/// library-code rules. `servebench/` is the end-to-end benchmark
/// package: it times calls with the wall clock by design.
pub fn is_test_path(relpath: &str) -> bool {
    let p = relpath;
    p.starts_with("servebench/")
        || p.starts_with("tests/")
        || p.contains("/tests/")
        || p.starts_with("benches/")
        || p.contains("/benches/")
        || p.starts_with("examples/")
        || p.contains("/examples/")
        || p.ends_with("build.rs")
}

/// Deterministic-path crates covered by `nondeterministic-iteration`.
pub(crate) fn in_deterministic_scope(relpath: &str) -> bool {
    [
        "crates/acqp-core/src/",
        "crates/acqp-gm/src/",
        "crates/acqp-sensornet/src/",
        "crates/acqp-persist/src/",
        "crates/acqp-verify/src/",
    ]
    .iter()
    .any(|p| relpath.starts_with(p))
}

/// Paths covered by `panic-in-lib`: planner, recovery and verifier code.
pub(crate) fn in_panic_scope(relpath: &str) -> bool {
    relpath.starts_with("crates/acqp-core/src/planner/")
        || relpath.starts_with("crates/acqp-persist/src/")
        || relpath.starts_with("crates/acqp-verify/src/")
        || relpath == "crates/acqp-sensornet/src/recovery.rs"
}

/// Paths covered by `unchecked-wire-access`: code that parses the plan
/// wire format or the persistence frames from raw bytes. codec.rs is
/// the sanctioned bounds-checked reader and is exempt.
pub(crate) fn in_wire_scope(relpath: &str) -> bool {
    (relpath.starts_with("crates/acqp-persist/src/")
        && relpath != "crates/acqp-persist/src/codec.rs")
        || relpath == "crates/acqp-core/src/plan.rs"
        || relpath == "crates/acqp-sensornet/src/interp.rs"
        || relpath.starts_with("crates/acqp-verify/src/")
        || relpath.rsplit('/').next().is_some_and(|f| f.contains("wire"))
}

/// One file's lint context.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub relpath: &'a str,
    /// Raw source.
    pub source: &'a str,
    /// Lexed view.
    pub scan: &'a ScannedFile,
}

impl FileCtx<'_> {
    fn finding(
        &self,
        rule: &'static str,
        severity: Severity,
        line: usize,
        message: String,
    ) -> Finding {
        Finding {
            rule,
            severity,
            file: self.relpath.to_string(),
            line,
            snippet: self.scan.line_text(self.source, line).to_string(),
            message,
        }
    }
}

/// Byte offsets of every occurrence of `pat` in `hay` that is not
/// embedded in a longer identifier (checked when the pattern starts or
/// ends with an identifier character).
pub(crate) fn occurrences(hay: &str, pat: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let first_ident =
        pat.as_bytes().first().is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let last_ident = pat.as_bytes().last().is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_');
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(p) = hay[from..].find(pat) {
        let at = from + p;
        from = at + 1;
        if first_ident && at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        if last_ident {
            if let Some(&next) = bytes.get(at + pat.len()) {
                if next.is_ascii_alphanumeric() || next == b'_' {
                    continue;
                }
            }
        }
        out.push(at);
    }
    out
}

/// Runs one pattern list as a rule over a file, honouring test regions
/// and allow comments. `used_allow_lines` collects the lines of allow
/// comments that actually suppressed something.
fn pattern_rule(
    ctx: &FileCtx<'_>,
    rule: &'static str,
    patterns: &[&str],
    message: impl Fn(&str) -> String,
    findings: &mut Vec<Finding>,
    used_allow_lines: &mut Vec<usize>,
) {
    for pat in patterns {
        for at in occurrences(&ctx.scan.masked, pat) {
            if ctx.scan.in_test_code(at) {
                continue;
            }
            let line = ctx.scan.line_of(at);
            if let Some(allow) = ctx.scan.allow_for(rule, line) {
                used_allow_lines.push(allow.line);
                continue;
            }
            findings.push(ctx.finding(rule, Severity::Error, line, message(pat)));
        }
    }
}

/// Runs every per-file rule. Returns the findings plus the lines of
/// allow comments that suppressed at least one of them.
pub fn check_file(ctx: &FileCtx<'_>) -> (Vec<Finding>, Vec<usize>) {
    let mut findings = Vec::new();
    let mut used = Vec::new();
    let lib = !is_test_path(ctx.relpath);

    if lib && !ctx.relpath.ends_with("planner/budget.rs") {
        pattern_rule(
            ctx,
            "wallclock-in-planner",
            &["Instant::now", "SystemTime::now"],
            |p| {
                format!("{p} outside planner/budget.rs — wall-clock reads make search behaviour load-dependent; use planner::budget (SearchLimits/Deadline)")
            },
            &mut findings,
            &mut used,
        );
    }

    if lib && in_deterministic_scope(ctx.relpath) {
        pattern_rule(
            ctx,
            "nondeterministic-iteration",
            &["HashMap", "HashSet"],
            |p| {
                format!("std {p} in a deterministic result path — iteration order is randomly seeded; use BTreeMap/BTreeSet")
            },
            &mut findings,
            &mut used,
        );
    }

    if lib {
        check_raw_mutex(ctx, &mut findings, &mut used);
    }

    if lib && in_panic_scope(ctx.relpath) {
        pattern_rule(
            ctx,
            "panic-in-lib",
            &[".unwrap()", ".expect(", "panic!", "unreachable!", "todo!", "unimplemented!"],
            |p| {
                format!("{p} in an infallible-by-construction path — return an error or degrade instead of panicking")
            },
            &mut findings,
            &mut used,
        );
    }

    if lib {
        pattern_rule(
            ctx,
            "float-partial-cmp",
            &[".partial_cmp("],
            |_| {
                "partial_cmp is not a total order (NaN ⇒ None) — compare through planner::OrdF64"
                    .to_string()
            },
            &mut findings,
            &mut used,
        );
    }

    if ctx.relpath != "crates/acqp-bench/src/report.rs" {
        check_duplicate_bench_writer(ctx, &mut findings, &mut used);
    }

    if lib && in_wire_scope(ctx.relpath) {
        check_unchecked_wire_access(ctx, &mut findings, &mut used);
    }

    check_allow_hygiene(ctx, &mut findings);
    (findings, used)
}

/// `raw-mutex`: fully qualified `std::sync::Mutex` paths plus `use
/// std::sync::…` imports that bring in the bare `Mutex` name.
fn check_raw_mutex(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>, used: &mut Vec<usize>) {
    const RULE: &str = "raw-mutex";
    let masked = &ctx.scan.masked;
    let mut sites: Vec<usize> = occurrences(masked, "std::sync::Mutex");
    // Grouped imports (`use std::sync::{Arc, Mutex}`) never contain the
    // qualified path the scan above looks for; inspect the statement.
    for at in occurrences(masked, "use std::sync::") {
        let stmt_end = masked[at..].find(';').map_or(masked.len(), |p| at + p);
        let stmt = &masked[at..stmt_end];
        if !stmt.contains('{') {
            continue; // plain import — already caught as a qualified path
        }
        if let Some(rel) = occurrences(stmt, "Mutex").first() {
            sites.push(at + rel);
        }
    }
    sites.sort_unstable();
    sites.dedup();
    for at in sites {
        if ctx.scan.in_test_code(at) {
            continue;
        }
        let line = ctx.scan.line_of(at);
        if let Some(allow) = ctx.scan.allow_for(RULE, line) {
            used.push(allow.line);
            continue;
        }
        findings.push(ctx.finding(
            RULE,
            Severity::Error,
            line,
            "library code is single-owner — use Cell/RefCell, or justify the Mutex with an allow"
                .to_string(),
        ));
    }
}

/// `duplicate-bench-writer`: a re-grown writer function or a stray
/// `BENCH_` artifact literal outside `acqp-bench/src/report.rs`.
fn check_duplicate_bench_writer(
    ctx: &FileCtx<'_>,
    findings: &mut Vec<Finding>,
    used: &mut Vec<usize>,
) {
    const RULE: &str = "duplicate-bench-writer";
    let mut sites: Vec<usize> =
        occurrences(&ctx.scan.masked, "fn write_bench_json").into_iter().collect();
    for lit in &ctx.scan.strings {
        // acqp-lint: allow(duplicate-bench-writer): this is the rule's own detection pattern
        if lit.content.starts_with("BENCH_") {
            sites.push(lit.start);
        }
    }
    sites.sort_unstable();
    for at in sites {
        if ctx.scan.in_test_code(at) {
            continue;
        }
        let line = ctx.scan.line_of(at);
        if let Some(allow) = ctx.scan.allow_for(RULE, line) {
            used.push(allow.line);
            continue;
        }
        findings.push(ctx.finding(
            RULE,
            Severity::Advisory,
            line,
            "bench artifact stamping outside acqp-bench/src/report.rs — call report::emit_bench_json".to_string(),
        ));
    }
}

/// `unchecked-wire-access`: a scalar index expression (`buf[pos]`) in
/// wire-parsing code. Range slicing (`buf[a..b]`, `buf[..n]`) is exempt
/// — see the rule's `explain`.
fn check_unchecked_wire_access(
    ctx: &FileCtx<'_>,
    findings: &mut Vec<Finding>,
    used: &mut Vec<usize>,
) {
    const RULE: &str = "unchecked-wire-access";
    let masked = ctx.scan.masked.as_bytes();
    for i in 1..masked.len() {
        if masked[i] != b'[' || !(masked[i - 1].is_ascii_alphanumeric() || masked[i - 1] == b'_') {
            continue;
        }
        let Some(end) = crate::scan::match_delim(masked, i, b'[', b']') else { continue };
        let content = ctx.scan.masked[i + 1..end - 1].trim();
        // `buf[a..b]` is range slicing; an empty index never parses.
        if content.is_empty() || content.contains("..") {
            continue;
        }
        if ctx.scan.in_test_code(i) {
            continue;
        }
        let line = ctx.scan.line_of(i);
        if let Some(allow) = ctx.scan.allow_for(RULE, line) {
            used.push(allow.line);
            continue;
        }
        findings.push(ctx.finding(
            RULE,
            Severity::Error,
            line,
            format!(
                "scalar index `[{content}]` in wire-parsing code panics on truncated input — use a slice pattern or .get()"
            ),
        ));
    }
}

/// Meta rules over the suppression comments themselves.
fn check_allow_hygiene(ctx: &FileCtx<'_>, findings: &mut Vec<Finding>) {
    for allow in &ctx.scan.allows {
        if rule_info(&allow.rule).is_none() {
            findings.push(ctx.finding(
                "unknown-allow",
                Severity::Error,
                allow.line,
                format!("allow names unknown rule `{}` — see acqp-lint --rules", allow.rule),
            ));
        } else if allow.reason.is_empty() {
            findings.push(ctx.finding(
                "bare-allow",
                Severity::Error,
                allow.line,
                format!(
                    "allow({}) carries no reason — write `// acqp-lint: allow({}): <why>`",
                    allow.rule, allow.rule
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(relpath: &str, src: &str) -> Vec<Finding> {
        let scan = ScannedFile::new(src);
        let ctx = FileCtx { relpath, source: src, scan: &scan };
        check_file(&ctx).0
    }

    #[test]
    fn word_boundaries_hold() {
        assert_eq!(occurrences("HashMap NoHashMap HashMapX x::HashMap", "HashMap"), vec![0, 30]);
        assert_eq!(occurrences("a.partial_cmp(b)", ".partial_cmp("), vec![1]);
    }

    #[test]
    fn qualified_mutex_and_grouped_import_both_flag() {
        let f = run("crates/acqp-obs/src/fake.rs", "use std::sync::{Arc, Mutex};\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-mutex");
        let f = run("crates/acqp-bench/src/fake.rs", "let c = std::sync::Mutex::new(());\n");
        assert_eq!(f.len(), 1);
        let f = run(
            "x/src/a.rs",
            "use std::sync::{Arc, MutexGuard, PoisonError};\nuse std::cell::RefCell;\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_with_reason_suppresses_and_bare_allow_flags() {
        let src = "use std::sync::Mutex; // acqp-lint: allow(raw-mutex): dependency root\n";
        assert!(run("crates/x/src/a.rs", src).is_empty());
        let src = "use std::sync::Mutex; // acqp-lint: allow(raw-mutex)\n";
        let f = run("crates/x/src/a.rs", src);
        assert_eq!(f.iter().map(|f| f.rule).collect::<Vec<_>>(), vec!["bare-allow"]);
    }

    #[test]
    fn unknown_allow_flags() {
        let f = run("crates/x/src/a.rs", "// acqp-lint: allow(no-such-rule): because\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unknown-allow");
    }
}
