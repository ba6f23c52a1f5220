//! Runtime half of the `metric-taxonomy` contract: run instrumented
//! planning and execution, drain the observability snapshot, and check
//! the DESIGN.md §8 table against what actually fired — both ways.
//!
//! The static rule (`acqp-lint --workspace`) matches emit *call sites*;
//! this test matches *materialized* names, catching format!-built names
//! the static pass can only see as `<*>` wildcards.

use std::path::PathBuf;
use std::sync::Arc;

use acqp_core::prelude::*;
use acqp_lint::taxonomy::{parse_taxonomy, pattern_matches};
use acqp_obs::{NoopSink, Recorder};

fn taxonomy() -> Vec<acqp_lint::taxonomy::TaxonomyEntry> {
    let design = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md");
    let design = std::fs::read_to_string(design).expect("read DESIGN.md");
    parse_taxonomy(&design).expect("parse taxonomy table")
}

/// Snapshot with planner + executor activity on a small correlated
/// instance, exercising the exhaustive, greedy and fallback
/// planners plus a metered execution pass.
fn instrumented_snapshot() -> acqp_obs::Snapshot {
    let schema = Schema::new(vec![
        Attribute::new("temp", 4, 100.0),
        Attribute::new("light", 4, 100.0),
        Attribute::new("hour", 4, 1.0),
    ])
    .unwrap();
    let mut rows = Vec::new();
    for hour in 0..4u16 {
        for rep in 0..6 {
            let hot = u16::from(hour >= 2);
            rows.push(vec![hot * 3, (hot ^ (rep & 1)) * 3, hour]);
        }
    }
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 2, 3), Pred::in_range(1, 0, 1)]).unwrap();
    let est = CountingEstimator::new(&data);

    let rec = Recorder::new(Arc::new(NoopSink));
    ExhaustivePlanner::new()
        .with_recorder(rec.clone())
        .plan_with_report(&schema, &query, &est)
        .unwrap();
    let plan =
        GreedyPlanner::new(4).with_recorder(rec.clone()).plan(&schema, &query, &est).unwrap();
    FallbackPlanner::new().with_recorder(rec.clone()).plan_with_report(&schema, &query, &est);

    let metrics = ExecMetrics::new(&rec, &schema, &query);
    let model = CostModel::PerAttribute;
    measure_metered(&plan, &query, &schema, &model, &data, 0..data.len(), &metrics);
    // Vectorized pass so the exec.batch.* subtree carries real values,
    // not just its unconditional registrations.
    measure_metered_mode(
        &plan,
        &query,
        &schema,
        &model,
        &data,
        0..data.len(),
        ExecMode::Vectorized,
        &metrics,
    );

    rec.drain()
}

#[test]
fn every_runtime_metric_is_documented() {
    let entries = taxonomy();
    let snap = instrumented_snapshot();
    let mut keys: Vec<String> = Vec::new();
    keys.extend(snap.counters.keys().cloned());
    keys.extend(snap.values.keys().cloned());
    keys.extend(snap.hists.keys().cloned());
    keys.extend(snap.spans.keys().cloned());
    assert!(keys.len() > 10, "instrumented run recorded only {keys:?}");

    let undocumented: Vec<&String> =
        keys.iter().filter(|k| !entries.iter().any(|e| pattern_matches(&e.pattern, k))).collect();
    assert!(
        undocumented.is_empty(),
        "runtime metrics missing from the DESIGN.md §8 taxonomy: {undocumented:#?}"
    );
}

#[test]
fn exercised_table_rows_are_hit_by_the_run() {
    let entries = taxonomy();
    let snap = instrumented_snapshot();
    let mut keys: Vec<String> = Vec::new();
    keys.extend(snap.counters.keys().cloned());
    keys.extend(snap.values.keys().cloned());
    keys.extend(snap.hists.keys().cloned());
    keys.extend(snap.spans.keys().cloned());

    // The reverse direction on the subset this run must exercise: if
    // one of these rows stops matching any runtime key, either the
    // metric was renamed without updating the table or the emit died.
    let must_hit = [
        "planner.subproblems.opened",
        "planner.memo.hit",
        "planner.split.evaluated",
        "planner.exhaustive",
        "planner.greedy",
        "exec.tuples",
        "exec.outputs",
        "exec.cost_total",
        "exec.cost_per_tuple",
        "exec.acquisitions_per_tuple",
        "exec.acquire.<*>",
        "exec.pred<*>.evaluated",
        "exec.pred<*>.passed",
        "exec.batch.batches",
        "exec.batch.rows",
        "exec.batch.partitions",
        "exec.batch.fill",
    ];
    for pattern in must_hit {
        assert!(
            entries.iter().any(|e| e.pattern == pattern),
            "expected `{pattern}` as a taxonomy row — table edited?"
        );
        assert!(
            keys.iter().any(|k| pattern_matches(pattern, k)),
            "taxonomy row `{pattern}` matched no runtime metric; keys: {keys:#?}"
        );
    }
}
