//! acqp-lint: the workspace invariant checker.
//!
//! PRs 1–4 established guarantees — plans that are a deterministic
//! function of their inputs, poison-free locking, planning that is
//! infallible by construction, and a stable metrics taxonomy — that example-based
//! tests can only sample. This crate makes them structural: a
//! zero-dependency scanner ([`scan`]) lexes every `.rs` file in the
//! workspace, the named rules ([`rules`]) pattern-match the masked
//! source, and [`taxonomy`] checks the observability contract against
//! DESIGN.md §8 in both directions. `cargo run -p acqp-lint --
//! --workspace` exits nonzero on any unsuppressed finding; see
//! `--explain <rule>` for the rationale behind each rule and DESIGN.md
//! §11 for the suppression mechanism.

pub mod callgraph;
pub mod rules;
pub mod scan;
pub mod taxonomy;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rules::{Finding, Severity};

/// Result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the lint.
    pub fn errors(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Error).count()
    }

    /// Findings that are reported but do not fail the lint.
    pub fn advisories(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Advisory).count()
    }
}

/// Lints every `.rs` file under `root` plus the DESIGN.md taxonomy.
///
/// `Err` is reserved for environmental problems (unreadable files, a
/// missing taxonomy table); findings — however many — are `Ok`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let files = collect_rs_files(root)?;
    let mut report = Report { findings: Vec::new(), files_scanned: files.len() };
    let mut emits: Vec<taxonomy::MetricEmit> = Vec::new();
    // Allow comments that suppressed at least one finding, and the full
    // set, both keyed by (file, line); the difference is stale.
    let mut used_allows: BTreeSet<(String, usize)> = BTreeSet::new();
    let mut all_allows: Vec<(String, usize, String)> = Vec::new();

    let mut scanned_files: Vec<(String, String, scan::ScannedFile)> = Vec::new();
    for path in &files {
        let relpath = rel(root, path);
        let source = std::fs::read_to_string(path).map_err(|e| format!("{relpath}: {e}"))?;
        let scanned = scan::ScannedFile::new(&source);
        scanned_files.push((relpath, source, scanned));
    }

    for (relpath, source, scanned) in &scanned_files {
        let ctx = rules::FileCtx { relpath, source, scan: scanned };
        let (findings, used) = rules::check_file(&ctx);
        report.findings.extend(findings);
        for line in used {
            used_allows.insert((relpath.clone(), line));
        }
        for a in &scanned.allows {
            all_allows.push((relpath.clone(), a.line, a.rule.clone()));
        }
        // The linter's own crate is full of deliberately violating
        // fixture names; its emits are not part of the taxonomy.
        if !relpath.starts_with("crates/acqp-lint/") && !rules::is_test_path(relpath) {
            emits.extend(taxonomy::collect_metric_emits(relpath, source, scanned));
        }
    }

    // The v2 cross-file pass: violations reached through helpers in
    // rule-exempt code (see `callgraph`).
    let graph_files: Vec<callgraph::GraphFile<'_>> = scanned_files
        .iter()
        .map(|(relpath, source, scanned)| callgraph::GraphFile { relpath, source, scan: scanned })
        .collect();
    let (graph_findings, graph_used) = callgraph::check_workspace(&graph_files);
    report.findings.extend(graph_findings);
    used_allows.extend(graph_used);

    check_taxonomy(root, &emits, &mut used_allows, &mut report.findings)?;

    for (file, line, rule) in all_allows {
        if rules::rule_info(&rule).is_some() && !used_allows.contains(&(file.clone(), line)) {
            report.findings.push(Finding {
                rule: "unused-allow",
                severity: Severity::Advisory,
                file,
                line,
                snippet: String::new(),
                message: format!("allow({rule}) suppresses nothing — remove the stale comment"),
            });
        }
    }

    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Both directions of the `metric-taxonomy` contract.
fn check_taxonomy(
    root: &Path,
    emits: &[taxonomy::MetricEmit],
    used_allows: &mut BTreeSet<(String, usize)>,
    findings: &mut Vec<Finding>,
) -> Result<(), String> {
    let design_path = root.join("DESIGN.md");
    let design = std::fs::read_to_string(&design_path).map_err(|e| format!("DESIGN.md: {e}"))?;
    let entries = taxonomy::parse_taxonomy(&design)?;

    let mut covered = vec![false; entries.len()];
    for emit in emits {
        let mut matched = false;
        for (i, entry) in entries.iter().enumerate() {
            if taxonomy::pattern_matches(&entry.pattern, &emit.normalized) {
                covered[i] = true;
                matched = true;
            }
        }
        if matched {
            continue;
        }
        if let Some(allow_line) = emit.allowed_at {
            used_allows.insert((emit.file.clone(), allow_line));
            continue;
        }
        findings.push(Finding {
            rule: "metric-taxonomy",
            severity: Severity::Error,
            file: emit.file.clone(),
            line: emit.line,
            snippet: emit.snippet.clone(),
            message: format!(
                "metric `{}` is not documented in the DESIGN.md §8 taxonomy table",
                emit.normalized
            ),
        });
    }

    for (entry, covered) in entries.iter().zip(&covered) {
        if *covered {
            continue;
        }
        findings.push(Finding {
            rule: "metric-taxonomy",
            severity: Severity::Error,
            file: "DESIGN.md".to_string(),
            line: entry.line,
            snippet: format!("`{}` ({})", entry.pattern, entry.kind),
            message: format!(
                "documented metric `{}` is emitted nowhere in the workspace — stale row?",
                entry.pattern
            ),
        });
    }
    Ok(())
}

/// Every `.rs` file under `root`, sorted, skipping build output,
/// vendored crates, VCS metadata and the lint fixtures (which violate
/// on purpose).
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.')
                    || name == "target"
                    || name == "vendor"
                    || name == "fixtures"
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Workspace-relative path with `/` separators (rule scopes and output
/// stay stable across platforms).
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Human-readable rendering, one block per finding.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!("{}[{}]: {}\n", f.severity.as_str(), f.rule, f.message));
        out.push_str(&format!("  --> {}:{}\n", f.file, f.line));
        if !f.snippet.is_empty() {
            out.push_str(&format!("   | {}\n", f.snippet));
        }
    }
    out.push_str(&format!(
        "{} file(s) scanned: {} error(s), {} advisory(ies)\n",
        report.files_scanned,
        report.errors(),
        report.advisories()
    ));
    out
}

/// JSON rendering for the CI artifact.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"severity\": {}, \"file\": {}, \"line\": {}, \"snippet\": {}, \"message\": {}}}",
            json_str(f.rule),
            json_str(f.severity.as_str()),
            json_str(&f.file),
            f.line,
            json_str(&f.snippet),
            json_str(&f.message)
        ));
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"files_scanned\": {},\n  \"errors\": {},\n  \"advisories\": {}\n}}\n",
        report.files_scanned,
        report.errors(),
        report.advisories()
    ));
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_output_parses_shape() {
        let report = Report {
            findings: vec![Finding {
                rule: "raw-mutex",
                severity: Severity::Error,
                file: "crates/x/src/a.rs".to_string(),
                line: 3,
                snippet: "use std::sync::Mutex;".to_string(),
                message: "msg".to_string(),
            }],
            files_scanned: 1,
        };
        let json = render_json(&report);
        assert!(json.contains("\"rule\": \"raw-mutex\""));
        assert!(json.contains("\"line\": 3"));
        assert!(json.contains("\"errors\": 1"));
    }
}
