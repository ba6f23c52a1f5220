//! Pins lint v2 against v1 on the seeded transitive wall-clock case,
//! and both directions of the `unchecked-wire-access` rule.
//!
//! The wall-clock fixture is the exact blind spot the call-graph pass
//! exists for: `budget.rs` is wholesale exempt from the per-file
//! `wallclock-in-planner` rule, so a clock read hidden in a budget.rs
//! helper *outside* the sanctioned `Deadline`/`SearchLimits` impls is
//! invisible to v1 — `rules::check_file` returns nothing for either
//! file — while the workspace pass taints the helper and flags the
//! planner's call site with the witness chain.

use std::path::PathBuf;

use acqp_lint::lint_workspace;
use acqp_lint::rules::{self, FileCtx, Finding};
use acqp_lint::scan::ScannedFile;

/// budget.rs with sanctioned impls plus one sneaky free helper.
const BUDGET: &str = concat!(
    "use std::time::{Duration, Instant};\n\n",
    "pub struct Deadline(Option<Instant>);\n\n",
    "impl Deadline {\n",
    "    pub fn after(budget: Option<Duration>) -> Self {\n",
    "        Deadline(budget.map(|d| Instant::now() + d))\n",
    "    }\n",
    "    pub fn expired(&self) -> bool {\n",
    "        self.0.is_some_and(|d| Instant::now() >= d)\n",
    "    }\n",
    "}\n\n",
    "pub fn sneaky_now() -> Instant {\n",
    "    Instant::now()\n",
    "}\n",
);

/// A planner file calling both the sanctioned impl and the sneaky
/// helper. Only the latter may be flagged. The sneaky call sits on
/// line 2.
const PLANNER: &str = concat!(
    "pub fn search_started() -> std::time::Instant {\n",
    "    sneaky_now()\n",
    "}\n\n",
    "pub fn within_budget(d: &Deadline) -> bool {\n",
    "    !d.expired()\n",
    "}\n",
);

const WIRE_VIOLATING: &str = include_str!("fixtures/wire_access_violating.rs");
const WIRE_CLEAN: &str = include_str!("fixtures/wire_access_clean.rs");

fn per_file(relpath: &str, src: &str) -> Vec<Finding> {
    let scan = ScannedFile::new(src);
    let ctx = FileCtx { relpath, source: src, scan: &scan };
    rules::check_file(&ctx).0
}

#[test]
fn v1_per_file_pass_misses_the_transitive_wallclock() {
    // budget.rs is exempt from the per-file rule wholesale…
    let budget = per_file("crates/acqp-core/src/planner/budget.rs", BUDGET);
    assert!(budget.iter().all(|f| f.rule != "wallclock-in-planner"), "{budget:#?}");
    // …and the planner file contains no clock pattern of its own.
    let planner = per_file("crates/acqp-core/src/planner/search.rs", PLANNER);
    assert!(planner.is_empty(), "{planner:#?}");
}

#[test]
fn v2_workspace_pass_catches_it_with_a_witness_chain() {
    let dir = fake_workspace("wallclock");
    let planner_dir = dir.join("crates/acqp-core/src/planner");
    std::fs::create_dir_all(&planner_dir).unwrap();
    std::fs::write(planner_dir.join("budget.rs"), BUDGET).unwrap();
    std::fs::write(planner_dir.join("search.rs"), PLANNER).unwrap();

    let report = lint_workspace(&dir).expect("lint runs");
    let wc: Vec<&Finding> =
        report.findings.iter().filter(|f| f.rule == "wallclock-in-planner").collect();
    assert_eq!(wc.len(), 1, "{:#?}", report.findings);
    assert_eq!(wc[0].file, "crates/acqp-core/src/planner/search.rs");
    assert_eq!(wc[0].line, 2);
    assert!(wc[0].message.contains("sneaky_now"), "{}", wc[0].message);
    assert!(wc[0].message.contains("Instant::now"), "{}", wc[0].message);
    // The sanctioned Deadline::expired call produced nothing else.
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unchecked_wire_access_flags_scalar_indexing_in_wire_scope() {
    let f = per_file("crates/acqp-verify/src/decode.rs", WIRE_VIOLATING);
    let wire: Vec<&Finding> = f.iter().filter(|f| f.rule == "unchecked-wire-access").collect();
    assert_eq!(wire.len(), 3, "{f:#?}");
    assert!(wire.iter().all(|f| f.file == "crates/acqp-verify/src/decode.rs"));
    // The same code outside wire scope is not this rule's business.
    let elsewhere = per_file("crates/acqp-core/src/schema.rs", WIRE_VIOLATING);
    assert!(elsewhere.iter().all(|f| f.rule != "unchecked-wire-access"), "{elsewhere:#?}");
}

#[test]
fn slice_pattern_decoders_lint_clean() {
    for relpath in [
        "crates/acqp-verify/src/decode.rs",
        "crates/acqp-persist/src/frames.rs",
        "crates/acqp-sensornet/src/interp.rs",
        "crates/acqp-gm/src/wire_shadow.rs",
    ] {
        let f = per_file(relpath, WIRE_CLEAN);
        assert!(f.is_empty(), "{relpath}: {f:#?}");
    }
    // codec.rs is the sanctioned bounds-checked reader.
    let f = per_file("crates/acqp-persist/src/codec.rs", WIRE_VIOLATING);
    assert!(f.iter().all(|f| f.rule != "unchecked-wire-access"), "{f:#?}");
}

fn fake_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acqp_lint_cg_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("DESIGN.md"),
        concat!(
            "# fake\n\n<!-- acqp-lint:taxonomy:begin -->\n",
            "| name | kind | meaning |\n|---|---|---|\n",
            // One row the fixture crate below registers keeps the table
            // non-empty without adding findings of its own.
            "| `fixture.rows` | counter | keeps the table non-empty |\n",
            "<!-- acqp-lint:taxonomy:end -->\n",
        ),
    )
    .unwrap();
    let fixture = dir.join("crates/fixture/src");
    std::fs::create_dir_all(&fixture).unwrap();
    std::fs::write(
        fixture.join("lib.rs"),
        "pub fn record(rec: &Recorder) {\n    rec.counter(\"fixture.rows\").incr(1);\n}\n",
    )
    .unwrap();
    dir
}
