//! The degraded-mode fallback chain: planning that never fails.
//!
//! A deployed basestation cannot afford a planner that errors, panics,
//! or runs unbounded — a query with no plan acquires nothing. The
//! [`FallbackPlanner`] therefore descends a ladder of strictly simpler
//! plan producers until one succeeds within its stage budget:
//!
//! ```text
//! Exhaustive  — optimal DP (Fig. 5); needs estimator + search budget
//!    ↓ truncated / panicked / errored
//! GreedyPlan  — polynomial conditional heuristic (Figs. 6–7)
//!    ↓ truncated / panicked / errored
//! GreedySeq   — greedy sequential ordering (§4.1.2); no search loop
//!    ↓ panicked / errored
//! Naive       — cost-ascending predicate sequence; pure function of
//!               the schema, cannot fail
//! ```
//!
//! Every rung yields an *executable, correct* plan — correctness of a
//! conditional plan never depends on the estimator, only its expected
//! cost does — so descending trades efficiency for survival. The rung
//! that produced the final plan is recorded in
//! [`PlanReport::degradation`] and in the `fallback.*` obs taxonomy;
//! each abandoned rung increments a `fallback.descend.*` counter naming
//! why (budget truncation, caught panic, or error).
//!
//! Estimator health is handled one level up: [`FallbackPlanner::plan_data`]
//! inspects the historical dataset and substitutes uniform-independence
//! priors ([`IndependenceEstimator`] over an empty fit) when the
//! statistics are missing, so corrupt or absent history degrades the
//! plan, never the process.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use acqp_obs::Recorder;

use crate::attr::Schema;
use crate::costmodel::CostModel;
use crate::dataset::Dataset;
use crate::error::Result;
use crate::plan::{Plan, SeqOrder};
use crate::prob::{CountingEstimator, Estimator, IndependenceEstimator};
use crate::query::Query;
use crate::range::Ranges;

use super::budget::{DegradationLevel, PlanReport};
use super::exhaustive::ExhaustivePlanner;
use super::greedy::GreedyPlanner;
use super::seq::SeqPlanner;
use super::spsf::SplitGrid;
use super::OrdF64;

/// A planner that walks the degradation ladder and always returns a
/// plan (note: [`FallbackPlanner::plan_with_report`] returns a bare
/// [`PlanReport`], not a `Result`).
#[derive(Debug, Clone)]
pub struct FallbackPlanner {
    grid: Option<SplitGrid>,
    max_splits: usize,
    stage_subproblems: usize,
    stage_budget: Option<Duration>,
    cost_model: CostModel,
    recorder: Recorder,
}

impl Default for FallbackPlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl FallbackPlanner {
    /// A ladder with generous defaults: an exhaustive stage capped at
    /// 1M subproblems, a greedy stage allowing 8 conditioning splits,
    /// no wall-clock deadline.
    pub fn new() -> Self {
        FallbackPlanner {
            grid: None,
            max_splits: 8,
            stage_subproblems: 1_000_000,
            stage_budget: None,
            cost_model: CostModel::PerAttribute,
            recorder: Recorder::disabled(),
        }
    }

    /// Restricts candidate split points for the conditional stages.
    pub fn with_grid(mut self, grid: SplitGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Split budget of the greedy conditional stage.
    pub fn max_splits(mut self, k: usize) -> Self {
        self.max_splits = k;
        self
    }

    /// Subproblem cap applied to the exhaustive stage; exceeding it
    /// descends a rung instead of returning the truncated plan.
    pub fn max_subproblems(mut self, n: usize) -> Self {
        self.stage_subproblems = n;
        self
    }

    /// Per-stage wall-clock deadline: each conditional stage gets this
    /// long before the ladder descends past it.
    pub fn stage_budget(mut self, d: Duration) -> Self {
        self.stage_budget = Some(d);
        self
    }

    /// Order-dependent acquisition costs (§7).
    pub fn with_cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Attaches an observability recorder for the `fallback.*` taxonomy.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Plans against a historical dataset, first checking estimator
    /// health: an empty dataset (statistics deleted, corrupt, or never
    /// collected) cannot support counting estimation, so the ladder
    /// runs over uniform-independence priors instead
    /// (`fallback.uniform_priors` counts the substitution).
    pub fn plan_data(&self, schema: &Schema, query: &Query, data: &Dataset) -> PlanReport {
        if data.is_empty() {
            self.recorder.counter("fallback.uniform_priors").incr(1);
            let est = IndependenceEstimator::new(data, Ranges::root(schema));
            return self.plan_with_report(schema, query, &est);
        }
        let est = CountingEstimator::with_ranges(data, Ranges::root(schema));
        self.plan_with_report(schema, query, &est)
    }

    /// Walks the ladder over an arbitrary estimator. Infallible: the
    /// bottom rung is a pure function of schema and query.
    pub fn plan_with_report<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
    ) -> PlanReport {
        let mut panics = 0usize;

        // Rung 1 — exhaustive DP under the stage budget.
        let mut ex = match &self.grid {
            Some(g) => ExhaustivePlanner::with_grid(g.clone()),
            None => ExhaustivePlanner::new(),
        }
        .max_subproblems(self.stage_subproblems)
        .with_cost_model(self.cost_model.clone())
        .with_recorder(self.recorder.clone());
        if let Some(d) = self.stage_budget {
            ex = ex.time_budget(d);
        }
        match self.try_stage("exhaustive", &mut panics, || ex.plan_with_report(schema, query, est))
        {
            Some(r) if !r.truncated => {
                return self.finish(r, DegradationLevel::None, panics);
            }
            Some(_) => self.descend("exhaustive", "truncated"),
            None => {}
        }

        // Rung 2 — greedy conditional heuristic.
        let mut gr = GreedyPlanner::new(self.max_splits)
            .with_cost_model(self.cost_model.clone())
            .with_recorder(self.recorder.clone());
        if let Some(g) = &self.grid {
            gr = gr.with_grid(g.clone());
        }
        if let Some(d) = self.stage_budget {
            gr = gr.time_budget(d);
        }
        match self.try_stage("greedy_plan", &mut panics, || gr.plan_with_report(schema, query, est))
        {
            Some(r) if !r.truncated => {
                return self.finish(r, DegradationLevel::GreedyPlan, panics);
            }
            Some(_) => self.descend("greedy_plan", "truncated"),
            None => {}
        }

        // Rung 3 — greedy sequential ordering; no search loop left to
        // budget, only estimator failures can push past it.
        let seq = SeqPlanner::greedy().with_cost_model(self.cost_model.clone());
        if let Some((plan, cost)) =
            self.try_stage("greedy_seq", &mut panics, || seq.plan_with_cost(schema, query, est))
        {
            let report = PlanReport {
                plan,
                expected_cost: cost,
                subproblems: 0,
                truncated: false,
                worker_panics: 0,
                degradation: DegradationLevel::GreedySeq,
            };
            return self.finish(report, DegradationLevel::GreedySeq, panics);
        }

        // Rung 4 — naive cost-ascending sequence. Never consults the
        // estimator, so nothing below the ladder can take it down.
        let report = self.naive_report(schema, query);
        self.finish(report, DegradationLevel::Naive, panics)
    }

    /// Runs one rung under panic isolation. `None` means the rung was
    /// abandoned (panicked or errored) and the appropriate
    /// `fallback.descend.*` counter has been recorded.
    fn try_stage<T>(
        &self,
        stage: &str,
        panics: &mut usize,
        f: impl FnOnce() -> Result<T>,
    ) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(_)) => {
                self.descend(stage, "error");
                None
            }
            Err(_) => {
                *panics += 1;
                self.recorder.counter("fallback.panic.caught").incr(1);
                self.descend(stage, "panic");
                None
            }
        }
    }

    fn descend(&self, stage: &str, why: &str) {
        self.recorder.counter(&format!("fallback.descend.{stage}.{why}")).incr(1);
        self.recorder.flight().emit(
            0,
            0,
            "plan.fallback.descend",
            &[("stage", stage.into()), ("why", why.into())],
        );
    }

    fn finish(&self, mut report: PlanReport, level: DegradationLevel, panics: usize) -> PlanReport {
        report.degradation = level;
        report.worker_panics += panics;
        let stage = match level {
            DegradationLevel::None => "exhaustive",
            DegradationLevel::GreedyPlan => "greedy_plan",
            DegradationLevel::GreedySeq => "greedy_seq",
            DegradationLevel::Naive => "naive",
        };
        self.recorder.counter(&format!("fallback.stage.{stage}")).incr(1);
        self.recorder.flight().emit(
            0,
            0,
            "plan.fallback.stage",
            &[("stage", stage.into()), ("cost", report.expected_cost.into())],
        );
        if level != DegradationLevel::None {
            self.recorder.gauge("fallback.degradation_level", level as u8 as f64);
        }
        report
    }

    /// The bottom rung: evaluate every predicate in ascending
    /// acquisition-cost order (ties by predicate index). The reported
    /// expected cost is the worst case — every predicate evaluated on
    /// every tuple — which is the only sound estimate available without
    /// an estimator.
    fn naive_report(&self, schema: &Schema, query: &Query) -> PlanReport {
        let mut order: Vec<usize> = (0..query.len()).collect();
        order.sort_by(|&a, &b| {
            let ca = self.cost_model.cost(schema, query.pred(a).attr(), 0);
            let cb = self.cost_model.cost(schema, query.pred(b).attr(), 0);
            OrdF64(ca).cmp(&OrdF64(cb)).then(a.cmp(&b))
        });
        let mut mask = 0u64;
        let mut cost = 0.0;
        for &j in &order {
            let attr = query.pred(j).attr();
            cost += self.cost_model.cost(schema, attr, mask);
            mask |= 1u64 << attr;
        }
        PlanReport {
            plan: Plan::Seq(SeqOrder::new(order)),
            expected_cost: cost,
            subproblems: 0,
            truncated: false,
            worker_panics: 0,
            degradation: DegradationLevel::Naive,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::cost::measure;
    use crate::query::Pred;

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 4, 10.0),
            Attribute::new("b", 4, 5.0),
            Attribute::new("t", 4, 0.5),
        ])
        .unwrap();
        let rows: Vec<Vec<u16>> = (0..64).map(|i| vec![i % 4, (i / 4) % 4, (i / 16) % 4]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 2, 3)]).unwrap();
        (schema, data, query)
    }

    #[test]
    fn healthy_ladder_stays_on_top_rung() {
        let (schema, data, query) = setup();
        let report = FallbackPlanner::new().plan_data(&schema, &query, &data);
        assert_eq!(report.degradation, DegradationLevel::None);
        assert_eq!(report.worker_panics, 0);
        assert!(measure(&report.plan, &query, &schema, &data).all_correct);
    }

    #[test]
    fn empty_statistics_use_uniform_priors_but_still_plan() {
        use acqp_obs::{NoopSink, Recorder};
        let (schema, _, query) = setup();
        let empty = Dataset::from_rows(&schema, vec![]).unwrap();
        let rec = Recorder::new(std::sync::Arc::new(NoopSink));
        let report =
            FallbackPlanner::new().with_recorder(rec.clone()).plan_data(&schema, &query, &empty);
        // Uniform priors still drive a full ladder; the top rung works.
        assert_eq!(report.degradation, DegradationLevel::None);
        let (_, data, _) = setup();
        assert!(measure(&report.plan, &query, &schema, &data).all_correct);
        assert_eq!(rec.drain().counter("fallback.uniform_priors"), 1);
    }

    #[test]
    fn naive_rung_is_estimator_free_and_cost_ordered() {
        let (schema, data, query) = setup();
        let report = FallbackPlanner::new().naive_report(&schema, &query);
        assert_eq!(report.degradation, DegradationLevel::Naive);
        // b (cost 5) before a (cost 10): predicate 1 first.
        assert_eq!(report.plan, Plan::Seq(SeqOrder::new(vec![1, 0])));
        assert!((report.expected_cost - 15.0).abs() < 1e-12);
        assert!(measure(&report.plan, &query, &schema, &data).all_correct);
    }

    #[test]
    fn degradation_levels_order_by_severity() {
        assert!(DegradationLevel::None < DegradationLevel::GreedyPlan);
        assert!(DegradationLevel::GreedyPlan < DegradationLevel::GreedySeq);
        assert!(DegradationLevel::GreedySeq < DegradationLevel::Naive);
        assert_eq!(DegradationLevel::default(), DegradationLevel::None);
        assert_eq!(DegradationLevel::Naive.as_str(), "naive");
    }
}
