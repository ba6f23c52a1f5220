//! The `metric-taxonomy` rule: DESIGN.md §8's table is the contract.
//!
//! Source side, every dot-path string literal handed to a
//! `Recorder` method (`counter`, `float_counter`, `hist`, `gauge`,
//! `span` — directly or through `format!`) is collected, with `{…}`
//! interpolations normalized to the `<*>` wildcard. Flight-recorder
//! event names — the third argument of `FlightRecorder::emit` /
//! `emit_owned` — are collected the same way and documented as rows of
//! kind `event` (DESIGN.md §13). Doc side, the markdown table between
//! the `acqp-lint:taxonomy:begin/end` markers in DESIGN.md is parsed
//! into patterns. The rule then checks both directions: no emitted
//! name may be undocumented, and no documented name may be dead.

use crate::scan::ScannedFile;

/// Comment markers delimiting the canonical table in DESIGN.md.
pub const BEGIN_MARKER: &str = "<!-- acqp-lint:taxonomy:begin -->";
/// See [`BEGIN_MARKER`].
pub const END_MARKER: &str = "<!-- acqp-lint:taxonomy:end -->";

/// Recorder methods whose first argument names a metric.
const METHODS: &[&str] = &[".counter(", ".float_counter(", ".hist(", ".gauge(", ".span("];

/// One metric name found at a Recorder call site.
#[derive(Debug, Clone)]
pub struct MetricEmit {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the literal.
    pub line: usize,
    /// The literal as written (`exec.pred{j}.passed`).
    pub raw: String,
    /// With `{…}` replaced by `<*>` (`exec.pred<*>.passed`).
    pub normalized: String,
    /// Trimmed source line, for snippets.
    pub snippet: String,
    /// Line of a `// acqp-lint: allow(metric-taxonomy)` comment
    /// covering this emit, if any.
    pub allowed_at: Option<usize>,
}

/// One row of the DESIGN.md taxonomy table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyEntry {
    /// Name pattern, `<*>` as a within-segment wildcard.
    pub pattern: String,
    /// Instrument kind (`counter`, `gauge`, `hist`, `float_counter`,
    /// `span`, `event`).
    pub kind: String,
    /// 1-based line of the row in DESIGN.md.
    pub line: usize,
}

/// Collects every metric name emitted by non-test code in one file.
pub fn collect_metric_emits(relpath: &str, source: &str, scan: &ScannedFile) -> Vec<MetricEmit> {
    let mut out = Vec::new();
    for lit in &scan.strings {
        if scan.in_test_code(lit.start) || !is_metric_name(&lit.content) {
            continue;
        }
        let prefix = &scan.masked[..lit.start];
        if !is_recorder_call(prefix) && !is_emit_call(prefix) {
            continue;
        }
        out.push(MetricEmit {
            file: relpath.to_string(),
            line: lit.line,
            raw: lit.content.clone(),
            normalized: normalize(&lit.content),
            snippet: scan.line_text(source, lit.line).to_string(),
            allowed_at: scan.allow_for("metric-taxonomy", lit.line).map(|a| a.line),
        });
    }
    out
}

/// A metric name is a lowercase dot-path, possibly with `{…}` format
/// interpolations: `planner.memo.shard{i}.hits`.
fn is_metric_name(s: &str) -> bool {
    if !s.contains('.') || s.starts_with('.') || s.ends_with('.') {
        return false;
    }
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth > 0 => {}
            'a'..='z' | '0'..='9' | '_' | '.' => {}
            _ => return false,
        }
    }
    depth == 0
}

/// Whether the masked text before a literal ends in a Recorder metric
/// method call, directly (`rec.gauge("…`) or through format
/// (`rec.gauge(&format!("…`). Works across line breaks.
fn is_recorder_call(prefix: &str) -> bool {
    let mut p = prefix.trim_end();
    if let Some(stripped) = p.strip_suffix("format!(") {
        p = stripped.trim_end();
        p = p.strip_suffix('&').unwrap_or(p).trim_end();
    }
    METHODS.iter().any(|m| p.ends_with(m))
}

/// Whether the masked text before a literal places it as the *name*
/// argument (third position) of a `FlightRecorder::emit` /
/// `emit_owned` call: the prefix since the call opener must hold
/// exactly two top-level commas (`epoch`, `cause`) and no statement
/// boundary.
fn is_emit_call(prefix: &str) -> bool {
    for marker in [".emit(", ".emit_owned("] {
        let Some(i) = prefix.rfind(marker) else { continue };
        let tail = &prefix[i + marker.len()..];
        let mut depth = 0usize;
        let mut commas = 0usize;
        let mut open = true;
        for c in tail.chars() {
            match c {
                '(' | '[' | '{' => depth += 1,
                ')' | ']' | '}' => {
                    if depth == 0 {
                        open = false;
                        break;
                    }
                    depth -= 1;
                }
                ',' if depth == 0 => commas += 1,
                ';' if depth == 0 => {
                    open = false;
                    break;
                }
                _ => {}
            }
        }
        if open && commas == 2 {
            return true;
        }
    }
    false
}

/// `{…}` → `<*>`.
pub fn normalize(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut depth = 0usize;
    for c in raw.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push_str("<*>");
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

/// Parses the marker-delimited table out of DESIGN.md. Errors if the
/// markers are missing — the contract must exist to be checked.
pub fn parse_taxonomy(design: &str) -> Result<Vec<TaxonomyEntry>, String> {
    let begin =
        design.find(BEGIN_MARKER).ok_or_else(|| format!("DESIGN.md: missing {BEGIN_MARKER}"))?;
    let end = design.find(END_MARKER).ok_or_else(|| format!("DESIGN.md: missing {END_MARKER}"))?;
    if end < begin {
        return Err("DESIGN.md: taxonomy end marker precedes begin marker".to_string());
    }
    let mut entries = Vec::new();
    let first_line = design[..begin].lines().count() + 1;
    for (i, row) in design[begin..end].lines().enumerate() {
        let row = row.trim();
        if !row.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let Some(pattern) =
            cells.first().and_then(|c| c.strip_prefix('`')).and_then(|c| c.strip_suffix('`'))
        else {
            continue; // header or separator row
        };
        entries.push(TaxonomyEntry {
            pattern: pattern.to_string(),
            kind: cells.get(1).unwrap_or(&"").to_string(),
            line: first_line + i,
        });
    }
    if entries.is_empty() {
        return Err("DESIGN.md: taxonomy table between markers has no rows".to_string());
    }
    Ok(entries)
}

/// Segment-wise match of a table pattern against an emitted name.
/// `<*>` wildcards within a segment: `exec.pred<*>.passed` matches
/// `exec.pred0.passed` (and the normalized `exec.pred<*>.passed`).
pub fn pattern_matches(pattern: &str, name: &str) -> bool {
    let ps: Vec<&str> = pattern.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    ps.len() == ns.len() && ps.iter().zip(&ns).all(|(p, n)| segment_matches(p, n))
}

fn segment_matches(p: &str, n: &str) -> bool {
    match p.find("<*>") {
        None => p == n,
        Some(i) => {
            let (pre, suf) = (&p[..i], &p[i + 3..]);
            n.len() >= pre.len() + suf.len() && n.starts_with(pre) && n.ends_with(suf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emits(src: &str) -> Vec<MetricEmit> {
        let scan = ScannedFile::new(src);
        collect_metric_emits("crates/x/src/a.rs", src, &scan)
    }

    #[test]
    fn direct_and_format_calls_collect() {
        let src = r#"
fn f(rec: &Recorder) {
    let c = rec.counter("planner.memo.hit");
    rec.gauge(&format!("planner.memo.shard{i}.hits"), 1.0);
    rec.gauge(
        &format!("planner.memo.shard{i}.entries"),
        2.0,
    );
}
"#;
        let e = emits(src);
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].normalized, "planner.memo.hit");
        assert_eq!(e[1].normalized, "planner.memo.shard<*>.hits");
        assert_eq!(e[2].normalized, "planner.memo.shard<*>.entries", "multiline call collects");
    }

    #[test]
    fn flight_emit_names_collect_from_the_third_argument() {
        let src = r#"
fn f(flight: &FlightRecorder) {
    flight.emit(0, 0, "plan.search.start", &[("preds", 2.into())]);
    flight.emit(
        e as u64,
        down_seq,
        "crash.recover",
        &[("cold_start", true.into())],
    );
    let seq = flight.emit_owned(e as u64, root, "epoch.tick", fields);
}
"#;
        let e = emits(src);
        assert_eq!(e.len(), 3, "{e:#?}");
        assert_eq!(e[0].normalized, "plan.search.start");
        assert_eq!(e[1].normalized, "crash.recover", "multiline emit collects");
        assert_eq!(e[2].normalized, "epoch.tick");
    }

    #[test]
    fn emit_field_keys_and_later_arguments_do_not_collect() {
        let src = r#"
fn f(flight: &FlightRecorder) {
    flight.emit(0, 0, "sim.start", &[("a.dotted.key", 1.into())]);
    let far = 1; // an unrelated statement after an emit call
    other("plan.search.end");
}
"#;
        let e = emits(src);
        assert_eq!(e.len(), 1, "{e:#?}");
        assert_eq!(e[0].normalized, "sim.start");
    }

    #[test]
    fn non_metric_literals_are_ignored() {
        let src = r#"
fn f(rec: &Recorder, est: &E) {
    println!("planner.memo.hit");          // not a Recorder call
    rec.counter("no dots here");           // not a dot-path
    let h = est.hist(&root, 0);            // no literal argument
    out.push_str(&format!("  {v:>12.3}")); // format noise, wrong prefix
}
"#;
        assert!(emits(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f(r: &R) { r.counter(\"made.up.name\"); } }\n";
        assert!(emits(src).is_empty());
    }

    #[test]
    fn wildcard_matching_is_segment_wise() {
        assert!(pattern_matches("exec.pred<*>.passed", "exec.pred0.passed"));
        assert!(pattern_matches("exec.pred<*>.passed", "exec.pred<*>.passed"));
        assert!(pattern_matches("fallback.descend.<*>.<*>", "fallback.descend.exhaustive.panic"));
        assert!(!pattern_matches("exec.pred<*>.passed", "exec.pred0.evaluated"));
        assert!(!pattern_matches("exec.pred<*>", "exec.pred0.passed"), "segment counts must agree");
        assert!(!pattern_matches("exec.tuples", "exec.outputs"));
        assert!(pattern_matches("exec.tuples", "exec.tuples"));
    }

    #[test]
    fn taxonomy_table_parses_rows_and_lines() {
        let md = "intro\n<!-- acqp-lint:taxonomy:begin -->\n\n| name | kind | meaning |\n|---|---|---|\n| `planner.memo.hit` | counter | memo hits |\n| `planner.exhaustive` | span | exhaustive search |\n<!-- acqp-lint:taxonomy:end -->\n";
        let t = parse_taxonomy(md).expect("parses");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].pattern, "planner.memo.hit");
        assert_eq!(t[0].kind, "counter");
        assert_eq!(t[0].line, 6);
        assert_eq!(t[1].kind, "span");
        assert!(parse_taxonomy("no markers").is_err());
    }
}
