//! End-to-end binary test: seed a violation in a throwaway workspace,
//! run the built `acqp-lint` binary on it, and pin the exit code and
//! the JSON finding down to file and line.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fake_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("acqp_lint_seed_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let planner = dir.join("crates/acqp-core/src/planner");
    std::fs::create_dir_all(&planner).unwrap();
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

fn lint(root: &Path) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_acqp-lint"))
        .args(["--root", root.to_str().unwrap(), "--json", "-"])
        .output()
        .expect("run acqp-lint");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn seeded_wallclock_violation_fails_with_exact_location() {
    let dir = fake_workspace("hot");
    // Line 4 of the seeded file reads the wall clock inside the planner.
    std::fs::write(
        dir.join("crates/acqp-core/src/planner/search.rs"),
        "use std::time::Instant;\n\npub fn tick() -> Instant {\n    Instant::now()\n}\n",
    )
    .unwrap();

    let (code, stdout, stderr) = lint(&dir);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("\"rule\": \"wallclock-in-planner\""), "{stdout}");
    assert!(
        stdout.contains("\"file\": \"crates/acqp-core/src/planner/search.rs\", \"line\": 4"),
        "{stdout}"
    );
    assert!(stdout.contains("\"severity\": \"error\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn allowed_violation_and_advisories_exit_zero() {
    let dir = fake_workspace("ok");
    std::fs::write(
        dir.join("crates/acqp-core/src/planner/search.rs"),
        concat!(
            "use std::time::Instant;\n\npub fn tick() -> Instant {\n",
            "    // acqp-lint: allow(wallclock-in-planner): seeded fixture justifies itself\n",
            "    Instant::now()\n}\n",
        ),
    )
    .unwrap();
    // An advisory alone must not fail the run.
    std::fs::write(
        dir.join("crates/acqp-core/src/planner/extra.rs"),
        "pub fn name() -> &'static str {\n    \"BENCH_rogue.json\"\n}\n",
    )
    .unwrap();

    let (code, stdout, stderr) = lint(&dir);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("\"rule\": \"duplicate-bench-writer\""), "{stdout}");
    assert!(!stdout.contains("\"severity\": \"error\""), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_taxonomy_markers_are_an_environment_error() {
    let dir = fake_workspace("env");
    std::fs::write(dir.join("DESIGN.md"), "# no markers here\n").unwrap();
    let (code, _, stderr) = lint(&dir);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("taxonomy"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
