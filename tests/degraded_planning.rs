//! The degraded-mode fallback ladder, end to end: [`FallbackPlanner`]
//! lands on each rung — `None`, `GreedyPlan`, `GreedySeq`, `Naive` —
//! under the failure that forces it, always returning a plan that
//! answers the query correctly.

use std::cell::Cell;

use acqp::core::prelude::*;
use acqp::obs::{MemorySink, Recorder};

/// A counting estimator whose first `fuse` cut-sweep calls panic, then
/// behaves normally — a transient bug inside the greedy cut sweep.
struct FlakyEstimator<'d> {
    inner: CountingEstimator<'d>,
    fuse: Cell<usize>,
}

impl<'d> Estimator for FlakyEstimator<'d> {
    type Ctx = <CountingEstimator<'d> as Estimator>::Ctx;

    fn root(&self) -> Self::Ctx {
        self.inner.root()
    }
    fn refine(&self, ctx: &Self::Ctx, attr: AttrId, r: Range) -> Self::Ctx {
        self.inner.refine(ctx, attr, r)
    }
    fn ranges<'c>(&self, ctx: &'c Self::Ctx) -> &'c Ranges {
        self.inner.ranges(ctx)
    }
    fn mass(&self, ctx: &Self::Ctx) -> f64 {
        self.inner.mass(ctx)
    }
    fn support(&self, ctx: &Self::Ctx) -> usize {
        self.inner.support(ctx)
    }
    fn hist(&self, ctx: &Self::Ctx, attr: AttrId) -> Vec<f64> {
        self.inner.hist(ctx, attr)
    }
    fn truth_table(&self, ctx: &Self::Ctx, query: &Query) -> TruthTable {
        self.inner.truth_table(ctx, query)
    }
    fn truth_by_value(&self, ctx: &Self::Ctx, attr: AttrId, query: &Query) -> Vec<TruthTable> {
        if let Some(left) = self.fuse.get().checked_sub(1) {
            self.fuse.set(left);
            panic!("injected transient estimator fault");
        }
        self.inner.truth_by_value(ctx, attr, query)
    }
    fn prob_below(&self, ctx: &Self::Ctx, attr: AttrId, cut: u16) -> f64 {
        self.inner.prob_below(ctx, attr, cut)
    }
}

/// An estimator whose every statistics call panics — total failure of
/// the probability model, the condition that drives the ladder to its
/// estimator-free bottom rung.
struct PoisonedEstimator<'d> {
    inner: CountingEstimator<'d>,
}

impl<'d> Estimator for PoisonedEstimator<'d> {
    type Ctx = <CountingEstimator<'d> as Estimator>::Ctx;

    fn root(&self) -> Self::Ctx {
        self.inner.root()
    }
    fn refine(&self, ctx: &Self::Ctx, attr: AttrId, r: Range) -> Self::Ctx {
        self.inner.refine(ctx, attr, r)
    }
    fn ranges<'c>(&self, ctx: &'c Self::Ctx) -> &'c Ranges {
        self.inner.ranges(ctx)
    }
    fn mass(&self, _ctx: &Self::Ctx) -> f64 {
        panic!("poisoned estimator: mass")
    }
    fn support(&self, _ctx: &Self::Ctx) -> usize {
        panic!("poisoned estimator: support")
    }
    fn hist(&self, _ctx: &Self::Ctx, _attr: AttrId) -> Vec<f64> {
        panic!("poisoned estimator: hist")
    }
    fn truth_table(&self, _ctx: &Self::Ctx, _query: &Query) -> TruthTable {
        panic!("poisoned estimator: truth_table")
    }
}

/// Three attributes with distinct costs and a correlated grid of rows:
/// rich enough that the greedy search splits and the ladder's rungs
/// produce different (but all correct) plans.
fn setup() -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 4, 10.0),
        Attribute::new("b", 4, 5.0),
        Attribute::new("t", 4, 0.5),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..64).map(|i| vec![i % 4, (i / 4) % 4, (i / 16) % 4]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![
        Pred::in_range(0, 0, 1),
        Pred::in_range(1, 2, 3),
        Pred::not_in_range(2, 1, 2),
    ])
    .unwrap();
    (schema, data, query)
}

/// Rung `None`: a healthy estimator keeps the ladder on the exhaustive
/// planner with no degradation.
#[test]
fn ladder_rung_none_on_healthy_statistics() {
    let (schema, data, query) = setup();
    let report = FallbackPlanner::new().plan_data(&schema, &query, &data);
    assert_eq!(report.degradation, DegradationLevel::None);
    assert_eq!(report.worker_panics, 0);
    assert!(measure(&report.plan, &query, &schema, &data).all_correct);
}

/// Rung `GreedyPlan`: a starved exhaustive stage (subproblem budget 1)
/// truncates, and the ladder lands on the greedy conditional planner.
#[test]
fn ladder_rung_greedy_plan_when_exhaustive_is_starved() {
    let (schema, data, query) = setup();
    let rec = Recorder::new(std::sync::Arc::new(MemorySink::new()));
    let report = FallbackPlanner::new()
        .max_subproblems(1)
        .with_recorder(rec.clone())
        .plan_data(&schema, &query, &data);
    assert_eq!(report.degradation, DegradationLevel::GreedyPlan);
    assert!(measure(&report.plan, &query, &schema, &data).all_correct);
    let snap = rec.drain();
    assert_eq!(snap.counter("fallback.descend.exhaustive.truncated"), 1);
    assert_eq!(snap.counter("fallback.stage.greedy_plan"), 1);
}

/// Rung `GreedySeq`: the exhaustive stage truncates under a
/// subproblem budget of one, the greedy stage dies on a poisoned cut
/// sweep (an infinite fuse makes every sweep panic; only the greedy
/// search uses [`Estimator::truth_by_value`]), and the sweep-free
/// sequential orderer still plans.
#[test]
fn ladder_rung_greedy_seq_when_both_conditional_stages_fail() {
    let (schema, data, query) = setup();
    let est = FlakyEstimator {
        inner: CountingEstimator::with_ranges(&data, Ranges::root(&schema)),
        fuse: Cell::new(usize::MAX),
    };
    let rec = Recorder::new(std::sync::Arc::new(MemorySink::new()));
    let report = FallbackPlanner::new()
        .max_subproblems(1)
        .with_recorder(rec.clone())
        .plan_with_report(&schema, &query, &est);
    assert_eq!(report.degradation, DegradationLevel::GreedySeq);
    assert!(report.worker_panics >= 1);
    assert!(measure(&report.plan, &query, &schema, &data).all_correct);
    let snap = rec.drain();
    assert_eq!(snap.counter("fallback.stage.greedy_seq"), 1);
    assert_eq!(snap.counter("fallback.descend.exhaustive.truncated"), 1);
}

/// Rung `Naive`: when every statistics call panics, all three
/// estimator-backed rungs are caught and abandoned, and the ladder
/// bottoms out on the estimator-free cost-ascending sequence — still a
/// correct plan.
#[test]
fn ladder_rung_naive_survives_a_poisoned_estimator() {
    let (schema, data, query) = setup();
    let est =
        PoisonedEstimator { inner: CountingEstimator::with_ranges(&data, Ranges::root(&schema)) };
    let rec = Recorder::new(std::sync::Arc::new(MemorySink::new()));
    let report =
        FallbackPlanner::new().with_recorder(rec.clone()).plan_with_report(&schema, &query, &est);

    assert_eq!(report.degradation, DegradationLevel::Naive);
    assert!(report.worker_panics >= 3, "one caught panic per estimator-backed rung");
    // t (0.5) before b (5) before a (10): predicates in cost order.
    assert_eq!(report.plan, Plan::Seq(SeqOrder::new(vec![2, 1, 0])));
    assert!(measure(&report.plan, &query, &schema, &data).all_correct);

    let snap = rec.drain();
    assert!(snap.counter("fallback.panic.caught") >= 3);
    assert_eq!(snap.counter("fallback.descend.exhaustive.panic"), 1);
    assert_eq!(snap.counter("fallback.descend.greedy_plan.panic"), 1);
    assert_eq!(snap.counter("fallback.descend.greedy_seq.panic"), 1);
    assert_eq!(snap.counter("fallback.stage.naive"), 1);
}
