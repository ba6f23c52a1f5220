//! Differential harness: the vectorized columnar executor against the
//! scalar per-tuple interpreter (`DESIGN.md` §12).
//!
//! The batch path is not "approximately" the scalar path — every
//! per-row outcome (verdict, `f64` cost to the bit, acquisition order),
//! every measured report and every metered `exec.*` series must be
//! *identical*, because the prepared plan replays the scalar charge
//! kernel once per node at build time rather than re-deriving costs.
//! These tests hold that equivalence over randomized instances, every
//! planner family, both cost models, and the edge geometry (empty
//! batches, batch-boundary remainders, all-pass / all-fail predicates,
//! single-tuple batches). `ExecMode::Scalar` must additionally be
//! bitwise-transparent: selecting it changes nothing at all versus the
//! seed entry points.

// Bitwise f64 equality is the entire point of this suite.
#![allow(clippy::float_cmp)]

use std::sync::Arc;

use acqp::core::batch::{BatchExecutor, BatchOutcome, ColumnBatch, PreparedPlan};
use acqp::core::costmodel::CostModel;
use acqp::core::exec::{execute_model, ExecMetrics, ExecMode, RowSource};
use acqp::core::prelude::*;
use acqp::obs::{NoopSink, Recorder, Snapshot};
use proptest::prelude::*;

mod common;
use common::{instance_strategy, Instance};

/// Honors a `PROPTEST_CASES` override, so a slow build can run fewer cases.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

/// The plan families a random instance exercises: both sequential
/// planners, the conditional heuristic, and the decided corners.
fn plans_for(schema: &Schema, query: &Query, data: &Dataset) -> Vec<Plan> {
    let est = CountingEstimator::with_ranges(data, Ranges::root(schema));
    let mut plans = vec![Plan::pass(), Plan::fail()];
    plans.push(SeqPlanner::naive().plan(schema, query, &est).unwrap());
    plans.push(SeqPlanner::auto().plan(schema, query, &est).unwrap());
    plans.push(GreedyPlanner::new(5).plan(schema, query, &est).unwrap());
    plans
}

/// Cost models under test: the paper's per-attribute pricing and an
/// order-dependent board model grouping the first attributes.
fn models_for(schema: &Schema) -> Vec<CostModel> {
    let shared: Vec<AttrId> = (0..schema.len().min(2)).collect();
    vec![CostModel::PerAttribute, CostModel::boards(schema.len(), &[(shared, 25.0)])]
}

/// Asserts slot-by-slot bitwise agreement between the batch outcomes
/// and the scalar executor on `rows`.
#[allow(clippy::too_many_arguments)]
fn assert_rows_bitwise(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &CostModel,
    data: &Dataset,
    batch: &ColumnBatch<'_>,
    out: &BatchOutcome,
    prepared: &PreparedPlan,
    first_row: usize,
) {
    for slot in 0..batch.rows() {
        if !batch.is_valid(slot) {
            continue;
        }
        let row = first_row + slot;
        let scalar = execute_model(plan, query, schema, model, &mut RowSource::new(data, row));
        assert_eq!(scalar.verdict, out.verdict(slot), "row {row}: verdict");
        assert_eq!(
            scalar.cost.to_bits(),
            out.cost(slot).to_bits(),
            "row {row}: cost {} vs {}",
            scalar.cost,
            out.cost(slot)
        );
        assert_eq!(scalar.acquired, out.acquired(prepared, slot), "row {row}: chain");
    }
}

/// A snapshot reduced to comparable form: counters and bit-cast float
/// values by name, hists rendered to strings.
type SeriesView = (Vec<(String, u64)>, Vec<(String, u64)>, Vec<String>);

/// Drops the `exec.batch.*` subtree — the only series the vectorized
/// path is allowed to add on top of the scalar ledger.
fn without_batch_series(snap: &Snapshot) -> SeriesView {
    let counters = snap
        .counters
        .iter()
        .filter(|(k, _)| !k.starts_with("exec.batch."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    let values = snap.values.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect();
    let hists = snap
        .hists
        .iter()
        .filter(|(k, _)| !k.starts_with("exec.batch."))
        .map(|(k, v)| format!("{k}:{v:?}"))
        .collect();
    (counters, values, hists)
}

fn metered_snapshot(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &CostModel,
    data: &Dataset,
    mode: ExecMode,
) -> (CostReport, Snapshot) {
    let rec = Recorder::new(Arc::new(NoopSink));
    let m = ExecMetrics::new(&rec, schema, query);
    let r = measure_metered_mode(plan, query, schema, model, data, 0..data.len(), mode, &m);
    (r, rec.drain())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(24), ..ProptestConfig::default() })]

    /// Per-row outcomes: verdict, bitwise cost, and the acquisition
    /// chain (order included) agree for every plan family and both cost
    /// models, over full-dataset batches.
    #[test]
    fn batch_outcomes_match_scalar_bitwise(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let mut exec = BatchExecutor::new();
        let mut out = BatchOutcome::default();
        for plan in plans_for(&schema, &query, &data) {
            for model in models_for(&schema) {
                let prepared = PreparedPlan::new(&plan, &query, &schema, &model);
                let batch = ColumnBatch::from_dataset(&data);
                exec.execute_batch(&prepared, &batch, None, &mut out);
                assert_rows_bitwise(
                    &plan, &query, &schema, &model, &data, &batch, &out, &prepared, 0,
                );
            }
        }
    }

    /// The one-row walk of a prepared plan — the serve engine's slot
    /// kernel in scalar mode — returns the scalar executor's verdict,
    /// cost bits and acquisition order on every row, for every plan
    /// family and both cost models.
    #[test]
    fn row_walk_matches_scalar_bitwise(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        for plan in plans_for(&schema, &query, &data) {
            for model in models_for(&schema) {
                let prepared = PreparedPlan::new(&plan, &query, &schema, &model);
                for row in 0..data.len() {
                    let scalar =
                        execute_model(&plan, &query, &schema, &model, &mut RowSource::new(&data, row));
                    let walk = prepared.walk_row(&data, row);
                    prop_assert_eq!(scalar.verdict, walk.verdict, "row {}: verdict", row);
                    prop_assert_eq!(scalar.cost.to_bits(), walk.cost.to_bits(), "row {}: cost", row);
                    prop_assert_eq!(
                        scalar.acquired.as_slice(),
                        prepared.chain(walk.chain.0, walk.chain.1),
                        "row {}: chain",
                        row
                    );
                }
            }
        }
    }

    /// Measured reports are bitwise-identical across modes, and
    /// `ExecMode::Scalar` is bitwise-transparent against the seed
    /// measurement entry point.
    #[test]
    fn measured_reports_bitwise_equal(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        for plan in plans_for(&schema, &query, &data) {
            for model in models_for(&schema) {
                let seed = measure_model(&plan, &query, &schema, &model, &data);
                let s = measure_mode(
                    &plan, &query, &schema, &model, &data, 0..data.len(), ExecMode::Scalar);
                let v = measure_mode(
                    &plan, &query, &schema, &model, &data, 0..data.len(), ExecMode::Vectorized);
                for (a, b) in [(&seed, &s), (&s, &v)] {
                    prop_assert_eq!(a.tuples, b.tuples);
                    prop_assert_eq!(a.all_correct, b.all_correct);
                    prop_assert_eq!(a.mean_cost.to_bits(), b.mean_cost.to_bits());
                    prop_assert_eq!(a.max_cost.to_bits(), b.max_cost.to_bits());
                    prop_assert_eq!(a.pass_rate.to_bits(), b.pass_rate.to_bits());
                }
            }
        }
    }

    /// Metered runs: the scalar-mode snapshot equals the seed metered
    /// path exactly; the vectorized snapshot matches on every series
    /// except the `exec.batch.*` subtree it adds (scalar runs carry the
    /// subtree registered at zero).
    #[test]
    fn metered_series_bitwise_equal(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let plan = GreedyPlanner::new(5)
            .plan(&schema, &query, &CountingEstimator::new(&data))
            .unwrap();
        let model = CostModel::PerAttribute;

        let rec = Recorder::new(Arc::new(NoopSink));
        let m = ExecMetrics::new(&rec, &schema, &query);
        let seed_r = measure_metered(&plan, &query, &schema, &model, &data, 0..data.len(), &m);
        let seed_snap = rec.drain();

        let (s_r, s_snap) =
            metered_snapshot(&plan, &query, &schema, &model, &data, ExecMode::Scalar);
        let (v_r, v_snap) =
            metered_snapshot(&plan, &query, &schema, &model, &data, ExecMode::Vectorized);
        prop_assert_eq!(seed_r.mean_cost.to_bits(), s_r.mean_cost.to_bits());
        prop_assert_eq!(s_r.mean_cost.to_bits(), v_r.mean_cost.to_bits());

        // Scalar mode: byte-for-byte the seed metered path (including
        // the zero-valued exec.batch.* registrations).
        prop_assert_eq!(&seed_snap.counters, &s_snap.counters);
        prop_assert_eq!(&seed_snap.hists, &s_snap.hists);

        // Vectorized: identical outside the exec.batch.* subtree.
        prop_assert_eq!(without_batch_series(&s_snap), without_batch_series(&v_snap));
        prop_assert_eq!(v_snap.counter("exec.batch.rows"), data.len() as u64);
        let expect_batches = data.len().div_ceil(BATCH_ROWS).max(1) as u64;
        prop_assert_eq!(v_snap.counter("exec.batch.batches"), expect_batches);
    }

    /// Single-tuple batches: each row replayed through a one-row
    /// `ColumnBatch` window agrees with the scalar executor bitwise.
    #[test]
    fn single_tuple_batches_match(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let plan = GreedyPlanner::new(5)
            .plan(&schema, &query, &CountingEstimator::new(&data))
            .unwrap();
        let model = CostModel::PerAttribute;
        let prepared = PreparedPlan::new(&plan, &query, &schema, &model);
        let mut exec = BatchExecutor::new();
        let mut out = BatchOutcome::default();
        for row in (0..data.len()).step_by(7) {
            let batch = ColumnBatch::slice(&data, row, 1);
            exec.execute_batch(&prepared, &batch, None, &mut out);
            assert_rows_bitwise(
                &plan, &query, &schema, &model, &data, &batch, &out, &prepared, row,
            );
        }
    }
}

/// A ramp dataset: `rows` tuples over two sensors and one cheap clock,
/// values chosen so predicates split the population unevenly.
fn ramp(rows: usize) -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 8, 10.0),
        Attribute::new("b", 8, 20.0),
        Attribute::new("t", 8, 1.0),
    ])
    .unwrap();
    let data = Dataset::from_rows(
        &schema,
        (0..rows)
            .map(|i| vec![(i % 8) as u16, ((i / 3) % 8) as u16, ((i * 5) % 8) as u16])
            .collect(),
    )
    .unwrap();
    let query = Query::new(vec![Pred::in_range(0, 2, 5), Pred::not_in_range(1, 3, 6)]).unwrap();
    (schema, data, query)
}

fn assert_reports_bitwise(plan: &Plan, query: &Query, schema: &Schema, data: &Dataset) {
    let model = CostModel::PerAttribute;
    let s = measure_mode(plan, query, schema, &model, data, 0..data.len(), ExecMode::Scalar);
    let v = measure_mode(plan, query, schema, &model, data, 0..data.len(), ExecMode::Vectorized);
    assert_eq!(s.tuples, v.tuples);
    assert_eq!(s.all_correct, v.all_correct);
    assert_eq!(s.mean_cost.to_bits(), v.mean_cost.to_bits());
    assert_eq!(s.max_cost.to_bits(), v.max_cost.to_bits());
    assert_eq!(s.pass_rate.to_bits(), v.pass_rate.to_bits());
}

/// Empty datasets: both modes return the zero report and the batch path
/// tolerates zero-row windows.
#[test]
fn empty_dataset_is_equal_and_safe() {
    let (schema, data, query) = ramp(16);
    let empty = Dataset::from_rows(&schema, Vec::new()).unwrap();
    let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
    assert_reports_bitwise(&plan, &query, &schema, &empty);

    let prepared = PreparedPlan::new(&plan, &query, &schema, &CostModel::PerAttribute);
    let mut exec = BatchExecutor::new();
    let mut out = BatchOutcome::default();
    let batch = ColumnBatch::slice(&data, 0, 0);
    exec.execute_batch(&prepared, &batch, None, &mut out);
    assert_eq!(out.rows(), 0);
}

/// Row counts straddling the batch width: one short, exact, one over —
/// the remainder window must fold identically.
#[test]
fn batch_boundary_remainders_are_bitwise_equal() {
    for rows in [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1, 2 * BATCH_ROWS + 3] {
        let (schema, data, query) = ramp(rows);
        let est = CountingEstimator::new(&data);
        for plan in [
            GreedyPlanner::new(4).plan(&schema, &query, &est).unwrap(),
            SeqPlanner::auto().plan(&schema, &query, &est).unwrap(),
        ] {
            assert_reports_bitwise(&plan, &query, &schema, &data);
        }
    }
}

/// Degenerate selectivities: predicates that accept everything and
/// predicates that reject everything, plus the decided plans.
#[test]
fn all_pass_and_all_fail_predicates_are_bitwise_equal() {
    let (schema, data, _) = ramp(BATCH_ROWS + 17);
    let all_pass = Query::new(vec![Pred::in_range(0, 0, 7), Pred::in_range(1, 0, 7)]).unwrap();
    let all_fail = Query::new(vec![Pred::not_in_range(0, 0, 7), Pred::in_range(1, 0, 7)]).unwrap();
    for query in [&all_pass, &all_fail] {
        for plan in [
            Plan::pass(),
            Plan::fail(),
            Plan::Seq(SeqOrder::new(vec![0, 1])),
            Plan::split(
                2,
                4,
                Plan::Seq(SeqOrder::new(vec![0, 1])),
                Plan::Seq(SeqOrder::new(vec![1, 0])),
            ),
        ] {
            let model = CostModel::PerAttribute;
            let s =
                measure_mode(&plan, query, &schema, &model, &data, 0..data.len(), ExecMode::Scalar);
            let v = measure_mode(
                &plan,
                query,
                &schema,
                &model,
                &data,
                0..data.len(),
                ExecMode::Vectorized,
            );
            assert_eq!(s.mean_cost.to_bits(), v.mean_cost.to_bits());
            assert_eq!(s.pass_rate.to_bits(), v.pass_rate.to_bits());
            assert_eq!(s.all_correct, v.all_correct);
        }
    }
}

/// Gappy row subsets exercise the validity-mask path; non-monotone
/// subsets exercise the documented scalar fallback. Either way the
/// report is bitwise the scalar loop's.
#[test]
fn row_subsets_and_fallback_are_bitwise_equal() {
    let (schema, data, query) = ramp(BATCH_ROWS + 100);
    let plan = Plan::Seq(SeqOrder::new(vec![1, 0]));
    let model = CostModel::PerAttribute;
    let gappy: Vec<usize> = (0..data.len()).filter(|i| i % 3 != 1).collect();
    let backwards: Vec<usize> = (0..data.len()).rev().collect();
    for rows in [&gappy, &backwards] {
        let s = measure_mode(
            &plan,
            &query,
            &schema,
            &model,
            &data,
            rows.iter().copied(),
            ExecMode::Scalar,
        );
        let v = measure_mode(
            &plan,
            &query,
            &schema,
            &model,
            &data,
            rows.iter().copied(),
            ExecMode::Vectorized,
        );
        assert_eq!(s.tuples, v.tuples);
        assert_eq!(s.mean_cost.to_bits(), v.mean_cost.to_bits());
        assert_eq!(s.max_cost.to_bits(), v.max_cost.to_bits());
        assert_eq!(s.pass_rate.to_bits(), v.pass_rate.to_bits());
    }
}
