//! Both directions of the `metric-taxonomy` contract, one fixture pair
//! per instrumented subtree: the batch executor's `exec.batch.*`
//! (DESIGN.md §8), flight-recorder events (§13), the service's
//! `serve.*` names (§14) and its fault/shed/degradation names (§14.5),
//! and the static verifier's `verify.*` (§8). Each violating fixture
//! must be flagged for exactly its undocumented emits (code leads docs)
//! and its stale rows (docs lead code); each clean fixture must lint to
//! zero findings against the same table.

use std::path::{Path, PathBuf};

use acqp_lint::lint_workspace;
use acqp_lint::rules::Severity;

/// One fixture pair and the findings its violating half must produce.
struct Case {
    /// Names the fake workspace and the fixture's file in it.
    name: &'static str,
    /// Crate whose `src/` the fixture is written into.
    krate: &'static str,
    /// The minimal taxonomy table rows the fake DESIGN.md holds.
    rows: &'static [&'static str],
    violating: &'static str,
    clean: &'static str,
    /// Names the violating fixture emits with no table row.
    undocumented: &'static [&'static str],
    /// Table rows the violating fixture emits nowhere.
    stale: &'static [&'static str],
}

const CASES: &[Case] = &[
    Case {
        name: "batch",
        krate: "acqp-core",
        rows: &[
            "| `exec.batch.batches` | counter | column batches executed |",
            "| `exec.batch.rows` | counter | tuples run through the batch path |",
            "| `exec.batch.partitions` | counter | selection-vector partitions at split nodes |",
            "| `exec.batch.fill` | hist | valid tuples per executed batch |",
        ],
        violating: include_str!("fixtures/batch_metrics_violating.rs"),
        clean: include_str!("fixtures/batch_metrics_clean.rs"),
        undocumented: &["exec.batch.bogus"],
        stale: &["exec.batch.partitions"],
    },
    Case {
        name: "flight",
        krate: "acqp-sensornet",
        rows: &[
            "| `sim.start` | event | run opened |",
            "| `sim.end` | event | run closed |",
            "| `epoch.tick` | event | per-epoch time series |",
        ],
        violating: include_str!("fixtures/flight_events_violating.rs"),
        clean: include_str!("fixtures/flight_events_clean.rs"),
        undocumented: &["sim.bogus"],
        stale: &["epoch.tick"],
    },
    Case {
        name: "serve",
        krate: "acqp-sensornet",
        rows: &[
            "| `serve.run` | span | whole service run |",
            "| `serve.cache.hits` | counter | admissions served from the cache |",
            "| `serve.latency_epochs` | hist | admission-to-first-result latency |",
            "| `serve.stats_epoch` | gauge | policy statistics epoch |",
            "| `serve.admit` | event | one admission |",
            "| `serve.complete` | event | one completion |",
        ],
        violating: include_str!("fixtures/serve_metrics_violating.rs"),
        clean: include_str!("fixtures/serve_metrics_clean.rs"),
        undocumented: &["serve.bogus", "serve.vanish"],
        stale: &["serve.latency_epochs", "serve.complete"],
    },
    Case {
        name: "serve_fault",
        krate: "acqp-sensornet",
        rows: &[
            "| `serve.fault.result.lost` | counter | result packets dropped after retry |",
            "| `serve.shed.queries` | counter | entries shed by admission control |",
            "| `serve.degraded.timeouts` | counter | queries cut at their deadline |",
            "| `serve.latency.degraded` | hist | shed/timed-out latency (epochs) |",
            "| `serve.shed` | event | one entry shed |",
            "| `serve.timeout` | event | one deadline crossing |",
            "| `serve.readmit` | event | one in-flight re-plan |",
        ],
        violating: include_str!("fixtures/serve_fault_metrics_violating.rs"),
        clean: include_str!("fixtures/serve_fault_metrics_clean.rs"),
        undocumented: &["serve.shed.bogus", "serve.degraded.vanish"],
        stale: &["serve.latency.degraded", "serve.readmit"],
    },
    Case {
        name: "verify",
        krate: "acqp-sensornet",
        rows: &[
            "| `verify.checked` | counter | wire plans run through the three passes |",
            "| `verify.rejected` | counter | plans rejected with a typed error |",
            "| `verify.recovery.demoted` | counter | recovered plans demoted to a re-plan |",
            "| `verify.cost.clamped` | counter | claimed costs clamped into the bound |",
            "| `verify.wire_bytes` | hist | wire size of each verified plan |",
        ],
        violating: include_str!("fixtures/verify_metrics_violating.rs"),
        clean: include_str!("fixtures/verify_metrics_clean.rs"),
        undocumented: &["verify.bogus"],
        stale: &["verify.cost.clamped", "verify.wire_bytes"],
    },
];

impl Case {
    /// Path of the fixture inside its fake workspace.
    fn fixture_path(&self) -> String {
        format!("crates/{}/src/{}_fixture.rs", self.krate, self.name)
    }

    /// A throwaway workspace holding `fixture` and a DESIGN.md whose
    /// marker-delimited taxonomy table has exactly this case's rows.
    fn fake_workspace(&self, tag: &str, fixture: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "acqp_lint_{}_{tag}_{}",
            self.name,
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join(format!("crates/{}/src", self.krate))).unwrap();
        let mut design = String::from(
            "# fake\n\n<!-- acqp-lint:taxonomy:begin -->\n| name | kind | meaning |\n|---|---|---|\n",
        );
        for row in self.rows {
            design.push_str(row);
            design.push('\n');
        }
        design.push_str("<!-- acqp-lint:taxonomy:end -->\n");
        std::fs::write(dir.join("DESIGN.md"), design).unwrap();
        std::fs::write(dir.join(self.fixture_path()), fixture).unwrap();
        dir
    }
}

fn taxonomy_messages(root: &Path) -> Vec<String> {
    let report = lint_workspace(root).expect("lint runs");
    report
        .findings
        .iter()
        .inspect(|f| assert_eq!(f.severity, Severity::Error, "{f:?}"))
        .filter(|f| f.rule == "metric-taxonomy")
        .map(|f| format!("{}: {}", f.file, f.message))
        .collect()
}

#[test]
fn violating_fixtures_are_flagged_in_both_directions() {
    for case in CASES {
        let dir = case.fake_workspace("viol", case.violating);
        let messages = taxonomy_messages(&dir);
        let file = case.fixture_path();
        // Code leads docs: every undocumented emit is flagged in the
        // fixture.
        for name in case.undocumented {
            let needle = format!("`{name}` is not documented");
            assert!(
                messages.iter().any(|m| m.starts_with(&format!("{file}:")) && m.contains(&needle)),
                "{}: missing undocumented-emit finding for {name}: {messages:#?}",
                case.name
            );
        }
        // Docs lead code: every stale row is flagged in DESIGN.md.
        for name in case.stale {
            let needle = format!("`{name}` is emitted nowhere");
            assert!(
                messages.iter().any(|m| m.starts_with("DESIGN.md:") && m.contains(&needle)),
                "{}: missing stale-row finding for {name}: {messages:#?}",
                case.name
            );
        }
        assert_eq!(
            messages.len(),
            case.undocumented.len() + case.stale.len(),
            "{}: {messages:#?}",
            case.name
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn clean_fixtures_lint_to_zero_findings() {
    for case in CASES {
        let dir = case.fake_workspace("clean", case.clean);
        let report = lint_workspace(&dir).expect("lint runs");
        assert!(report.findings.is_empty(), "{}: {:#?}", case.name, report.findings);
        std::fs::remove_dir_all(&dir).ok();
    }
}
