//! The optimal conditional planner — Fig. 5's `EXHAUSTIVEPLAN`.
//!
//! A dynamic program over range subproblems `Subproblem(φ, R_1, …, R_n)`:
//!
//! * **Base cases** — the ranges alone determine `φ` (leaf `Decided`),
//!   or every query attribute has already been acquired (leaf `Seq` over
//!   the undecided predicates, which costs nothing at runtime because
//!   their attributes are in hand).
//! * **Recursive case** — try every candidate conditioning predicate
//!   `T(X_i ≥ x)` allowed by the split grid, recursing into the two
//!   induced subproblems, weighting by `P(X_i ∈ [a, x−1] | R_1…R_n)`
//!   (Eq. 5).
//! * **Memoization** — optimal results are cached by range vector in
//!   one table owned by the search.
//! * **Pruning** — all pruning is *local to a subproblem* and uses only
//!   canonical quantities: the greedy sequential plan seeds an incumbent
//!   upper bound, candidates whose admissible lower bound
//!   `C'_i + P_lo·lb(lo) + P_hi·lb(hi)` cannot strictly beat it are
//!   skipped, and a candidate is abandoned as soon as its accumulated
//!   cost plus the remaining branch's lower bound reaches the incumbent.
//!
//! ## Determinism
//!
//! Unlike classic branch-and-bound, no caller-supplied cost bound flows
//! into recursive calls. That makes [`Search::solve`] a *pure function
//! of the subproblem*: every skip decision compares canonical values
//! (child optima, admissible bounds, the local incumbent) that do not
//! depend on what the rest of the tree is doing, so the `(cost, plan)`
//! computed for a given range vector is identical whichever path first
//! reaches it, and a memo hit returns exactly what recomputation would.
//! The only escape hatch is the cooperative budget: once it trips,
//! subproblems close with sequential fallbacks whose placement depends
//! on when it tripped (truncated plans remain valid and can only cost
//! more than the optimum).
//!
//! The worst-case complexity is exponential in the number of attributes
//! (the problem is #P-hard, Thm 3.1), so a `max_subproblems` cap and an
//! optional wall-clock deadline bound the effort: past the budget,
//! remaining subproblems are closed with greedy sequential leaves (the
//! result degrades gracefully toward the heuristic planner instead of
//! running forever).

// acqp-lint: allow(nondeterministic-iteration): the memo is probed by key only — see Memo
use std::collections::HashMap;
use std::time::Duration;

use acqp_obs::{Counter, Recorder};

use crate::attr::Schema;
use crate::error::Result;
use crate::plan::{Plan, SeqOrder};
use crate::prob::Estimator;
use crate::query::Query;
use crate::range::{Range, Ranges};

use super::budget::{DegradationLevel, PlanReport, SearchLimits};
use super::seq::SeqPlanner;
use super::spsf::SplitGrid;
use super::OrdF64;

/// The exhaustive dynamic-programming planner of Fig. 5.
#[derive(Debug, Clone)]
pub struct ExhaustivePlanner {
    grid: Option<SplitGrid>,
    max_subproblems: usize,
    time_budget: Option<Duration>,
    cost_model: crate::costmodel::CostModel,
    recorder: Recorder,
}

impl Default for ExhaustivePlanner {
    fn default() -> Self {
        Self::new()
    }
}

impl ExhaustivePlanner {
    /// Planner over the unrestricted split grid (every cut of every
    /// attribute) with a default effort budget.
    pub fn new() -> Self {
        ExhaustivePlanner {
            grid: None,
            max_subproblems: 2_000_000,
            time_budget: None,
            cost_model: crate::costmodel::CostModel::PerAttribute,
            recorder: Recorder::disabled(),
        }
    }

    /// Planner restricted to the given candidate split grid (§4.3).
    pub fn with_grid(grid: SplitGrid) -> Self {
        ExhaustivePlanner { grid: Some(grid), ..Self::new() }
    }

    /// Uses order-dependent acquisition costs (§7 "Complex acquisition
    /// costs"), e.g. shared-board power-ups.
    pub fn with_cost_model(mut self, model: crate::costmodel::CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Sets the subproblem budget; past it, open subproblems are closed
    /// with greedy sequential leaves.
    pub fn max_subproblems(mut self, n: usize) -> Self {
        self.max_subproblems = n;
        self
    }

    /// Adds a wall-clock deadline: once elapsed, the search degrades to
    /// sequential fallbacks exactly like an exhausted subproblem cap.
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Attaches an observability recorder. The search records memo
    /// hits/misses, prune and split-evaluation counts, budget events and
    /// the search's wall time through it; see `DESIGN.md` §8 for the
    /// metric taxonomy. Metrics never feed back into search decisions,
    /// so recording cannot perturb the chosen plan.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Finds the minimum expected-cost conditional plan.
    pub fn plan<E: Estimator>(&self, schema: &Schema, query: &Query, est: &E) -> Result<Plan> {
        self.plan_with_report(schema, query, est).map(|r| r.plan)
    }

    /// Like [`ExhaustivePlanner::plan`], also returning the model-expected cost.
    pub fn plan_with_cost<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
    ) -> Result<(Plan, f64)> {
        self.plan_with_report(schema, query, est).map(|r| (r.plan, r.expected_cost))
    }

    /// Like [`ExhaustivePlanner::plan_with_cost`], also returning the
    /// number of subproblem expansions attempted (for effort studies).
    pub fn plan_with_stats<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
    ) -> Result<(Plan, f64, usize)> {
        self.plan_with_report(schema, query, est).map(|r| (r.plan, r.expected_cost, r.subproblems))
    }

    /// Full search outcome: plan, expected cost, effort, truncation.
    pub fn plan_with_report<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
    ) -> Result<PlanReport> {
        let grid = match &self.grid {
            Some(g) => g.clone(),
            None => SplitGrid::all(schema),
        };
        let mut search = Search {
            schema,
            query,
            est,
            grid,
            memo: Memo::new(),
            seq: SeqPlanner::greedy().with_cost_model(self.cost_model.clone()),
            model: self.cost_model.clone(),
            limits: SearchLimits::new(self.max_subproblems, self.time_budget),
            metrics: SearchMetrics::new(&self.recorder),
        };
        let root = est.root();
        let flight = self.recorder.flight().clone();
        let start_seq = flight.emit(
            0,
            0,
            "plan.search.start",
            &[("planner", "exhaustive".into()), ("preds", query.len().into())],
        );
        let span = self.recorder.span("planner.exhaustive");
        let (cost, plan, _) = search.solve(&root)?;
        drop(span);
        if search.limits.truncated() {
            search.metrics.budget_truncated.incr(1);
            flight.emit(
                0,
                start_seq,
                "plan.search.truncated",
                &[("subproblems", search.limits.used().into())],
            );
        }
        // Search-effort summary: like the plan, every tally is a
        // deterministic function of the inputs (unless a deadline tripped).
        flight.emit(
            0,
            start_seq,
            "plan.search.end",
            &[
                ("cost", cost.into()),
                ("subproblems", search.limits.used().into()),
                ("truncated", search.limits.truncated().into()),
                ("memo_hits", search.metrics.memo_hit.value().into()),
                ("memo_misses", search.metrics.memo_miss.value().into()),
                (
                    "pruned",
                    (search.metrics.prune_attr_cost.value()
                        + search.metrics.prune_lower_bound.value())
                    .into(),
                ),
                ("budget_denied", search.metrics.budget_denied.value().into()),
            ],
        );
        Ok(PlanReport {
            plan,
            expected_cost: cost,
            subproblems: search.limits.used(),
            truncated: search.limits.truncated(),
            worker_panics: 0,
            degradation: DegradationLevel::None,
        })
    }
}

/// Pre-hoisted instrument handles for one plan search: looked up once
/// per search so the hot DP loop records through lock-free handles. All
/// handles are detached no-ops under [`Recorder::disabled`].
struct SearchMetrics {
    /// Incremented adjacent to every `SearchLimits::try_expand` call, so
    /// its total equals [`PlanReport::subproblems`] exactly.
    opened: Counter,
    memo_hit: Counter,
    memo_miss: Counter,
    /// Attributes skipped because their bare acquisition cost already
    /// meets the incumbent.
    prune_attr_cost: Counter,
    /// Candidate cuts abandoned by an admissible lower-bound check.
    prune_lower_bound: Counter,
    /// Candidate split points evaluated (cut loop iterations).
    split_evaluated: Counter,
    /// Expansions denied by the cooperative budget.
    budget_denied: Counter,
    /// 1 when the search ended truncated.
    budget_truncated: Counter,
}

impl SearchMetrics {
    fn new(rec: &Recorder) -> Self {
        SearchMetrics {
            opened: rec.counter("planner.subproblems.opened"),
            memo_hit: rec.counter("planner.memo.hit"),
            memo_miss: rec.counter("planner.memo.miss"),
            prune_attr_cost: rec.counter("planner.prune.attr_cost"),
            prune_lower_bound: rec.counter("planner.prune.lower_bound"),
            split_evaluated: rec.counter("planner.split.evaluated"),
            budget_denied: rec.counter("planner.budget.denied"),
            budget_truncated: rec.counter("planner.budget.truncated"),
        }
    }
}

/// The memo: the optimal `(cost, plan)` per range vector. A hash map is
/// safe here despite the determinism rules: the table is probed by key
/// only, so iteration order never reaches planner output, and lookups
/// are the hottest operation in the whole search.
// acqp-lint: allow(nondeterministic-iteration): lookup-only table — iteration order never reaches planner output
type Memo = HashMap<Ranges, (f64, Plan)>;

struct Search<'a, E: Estimator> {
    schema: &'a Schema,
    query: &'a Query,
    est: &'a E,
    grid: SplitGrid,
    memo: Memo,
    seq: SeqPlanner,
    model: crate::costmodel::CostModel,
    limits: SearchLimits,
    metrics: SearchMetrics,
}

impl<E: Estimator> Search<'_, E> {
    /// Solves one subproblem to optimality (or to a sequential fallback
    /// once the budget trips). Returns `(cost, plan, exact)`; `exact`
    /// is false when any subproblem in this subtree was closed by the
    /// budget, in which case the value is an upper bound on the optimum
    /// and is not memoized.
    fn solve(&mut self, ctx: &E::Ctx) -> Result<(f64, Plan, bool)> {
        let ranges = self.est.ranges(ctx).clone();

        // Base case 1: ranges decide the query.
        if let Some(b) = self.query.truth_given(&ranges) {
            return Ok((0.0, Plan::Decided(b), true));
        }
        // Base case 2: every query attribute acquired — the residual
        // predicates evaluate for free on values already in hand.
        if self.query.preds().iter().all(|p| !ranges.attr_unacquired(self.schema, p.attr())) {
            let order = self.query.undecided(&ranges);
            return Ok((0.0, Plan::Seq(SeqOrder::new(order)), true));
        }
        match self.memo.get(&ranges) {
            Some((c, p)) => {
                self.metrics.memo_hit.incr(1);
                return Ok((*c, p.clone(), true));
            }
            None => self.metrics.memo_miss.incr(1),
        }

        // `opened` tracks expansion *attempts* exactly like
        // `SearchLimits::used`, so it always equals the report's
        // `subproblems` (asserted in `tests/plan_search.rs`).
        self.metrics.opened.incr(1);
        if !self.limits.try_expand() {
            // Effort budget exhausted: close this subproblem with a
            // greedy sequential leaf. Not cached (it is not optimal).
            self.metrics.budget_denied.incr(1);
            let (cost, plan) = self.seq_leaf(ctx, &ranges)?;
            return Ok((cost, plan, false));
        }

        // Incumbent: a sequential leaf is itself a valid plan for this
        // subproblem (it is expressible as a chain of splits at
        // predicate endpoints), so its cost is a sound upper bound that
        // makes the admissible lower-bound skips below bite. This is
        // the "more elaborate pruning" §3.2 alludes to.
        let (seq_cost, seq_plan) = self.seq_leaf(ctx, &ranges)?;
        let mut best_cost = seq_cost;
        let mut best_plan = seq_plan;
        let mut exact = true;

        // Try cheap conditioning attributes first: good incumbents found
        // early make the admissible lower-bound pruning bite sooner.
        let mask = crate::costmodel::acquired_mask(self.schema, &ranges);
        let mut attr_order: Vec<usize> =
            (0..self.schema.len()).filter(|&a| !ranges.get(a).is_point()).collect();
        attr_order.sort_by(|&a, &b| {
            OrdF64(self.model.cost(self.schema, a, mask))
                .cmp(&OrdF64(self.model.cost(self.schema, b, mask)))
                .then(a.cmp(&b))
        });

        for attr in attr_order {
            let r = ranges.get(attr);
            let c0 = self.model.cost(self.schema, attr, mask);
            // Child costs are non-negative, so no split on this
            // attribute can strictly beat the incumbent.
            if c0 >= best_cost {
                self.metrics.prune_attr_cost.incr(1);
                continue;
            }
            let mut hist: Option<Vec<f64>> = None;
            let cuts: Vec<u16> = self.grid.cuts_in(attr, r).collect();
            for cut in cuts {
                self.metrics.split_evaluated.incr(1);
                let h = hist.get_or_insert_with(|| self.est.hist(ctx, attr));
                let p_lo: f64 =
                    h[usize::from(r.lo())..usize::from(cut)].iter().sum::<f64>().clamp(0.0, 1.0);
                let p_hi = 1.0 - p_lo;
                let lo_ranges = ranges.with(attr, Range::new(r.lo(), cut - 1));
                let hi_ranges = ranges.with(attr, Range::new(cut, r.hi()));
                // Admissible lower bounds: every completion of a
                // subproblem with an undecided predicate must acquire at
                // least its cheapest undecided predicate attribute.
                let lb_lo = self.lower_bound(&lo_ranges);
                let lb_hi = self.lower_bound(&hi_ranges);
                let mut acc = c0;
                if acc + p_lo * lb_lo + p_hi * lb_hi >= best_cost {
                    self.metrics.prune_lower_bound.incr(1);
                    continue;
                }

                let lo_plan;
                if p_lo > 0.0 {
                    let child = self.est.refine(ctx, attr, Range::new(r.lo(), cut - 1));
                    let (c, p, e) = self.solve(&child)?;
                    acc += p_lo * c;
                    lo_plan = p;
                    exact &= e;
                } else {
                    // Zero-mass branch (a "grayed out" region): still
                    // needs a valid plan in case the test distribution
                    // reaches it.
                    lo_plan = self.zero_mass_leaf(&lo_ranges);
                }
                if acc + p_hi * lb_hi >= best_cost {
                    self.metrics.prune_lower_bound.incr(1);
                    continue;
                }

                let hi_plan;
                if p_hi > 0.0 {
                    let child = self.est.refine(ctx, attr, Range::new(cut, r.hi()));
                    let (c, p, e) = self.solve(&child)?;
                    acc += p_hi * c;
                    hi_plan = p;
                    exact &= e;
                } else {
                    hi_plan = self.zero_mass_leaf(&hi_ranges);
                }
                if acc < best_cost {
                    best_cost = acc;
                    best_plan = Plan::split(attr, cut, lo_plan, hi_plan);
                }
            }
        }

        if exact {
            self.memo.insert(ranges, (best_cost, best_plan.clone()));
        }
        Ok((best_cost, best_plan, exact))
    }

    /// Admissible lower bound on the optimal completion cost of a
    /// subproblem: unless the ranges already decide `φ`, every path to a
    /// decided leaf must acquire at least the cheapest attribute of an
    /// undecided predicate.
    fn lower_bound(&self, ranges: &Ranges) -> f64 {
        if self.query.truth_given(ranges).is_some() {
            return 0.0;
        }
        let mask = crate::costmodel::acquired_mask(self.schema, ranges);
        let lb = self
            .query
            .preds()
            .iter()
            .filter(|p| p.truth_given(ranges.get(p.attr())).is_none())
            .map(|p| self.model.min_cost(self.schema, p.attr(), mask))
            .fold(f64::INFINITY, f64::min);
        if lb.is_finite() {
            lb
        } else {
            0.0
        }
    }

    fn seq_leaf(&self, ctx: &E::Ctx, ranges: &Ranges) -> Result<(f64, Plan)> {
        let table = self.est.truth_table(ctx, self.query);
        let (order, cost) = self.seq.order_for(self.schema, self.query, ranges, &table)?;
        Ok((cost, Plan::Seq(SeqOrder::new(order))))
    }

    fn zero_mass_leaf(&self, ranges: &Ranges) -> Plan {
        match self.query.truth_given(ranges) {
            Some(b) => Plan::Decided(b),
            None => Plan::Seq(SeqOrder::new(self.query.undecided(ranges))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::cost::measure;
    use crate::dataset::Dataset;
    use crate::prob::CountingEstimator;
    use crate::query::Pred;

    /// The motivating example of §2.1 / Fig. 2: temp and light predicates
    /// with selectivity 1/2 each, costs 1; an extra free "time" attribute
    /// skews selectivities to 1/10 by day/night. The conditional plan
    /// must cost ~1.1 versus 1.5 sequential.
    #[test]
    fn fig2_motivating_example() {
        let schema = Schema::new(vec![
            Attribute::new("temp", 2, 1.0),  // bit: temp > 20C
            Attribute::new("light", 2, 1.0), // bit: light < 100 lux
            Attribute::new("time", 2, 0.0),  // 0 = night, 1 = day; free
        ])
        .unwrap();
        // Night: P(temp-pred)=1/10, P(light-pred)=9/10.
        // Day:   P(temp-pred)=9/10, P(light-pred)=1/10.
        // Marginals are 1/2 each. Encode with 20 rows (10 night, 10 day).
        let mut rows = Vec::new();
        for i in 0..10u16 {
            rows.push(vec![u16::from(i < 1), u16::from(i < 9), 0]); // night
            rows.push(vec![u16::from(i < 9), u16::from(i < 1), 1]); // day
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) = ExhaustivePlanner::new().plan_with_cost(&schema, &query, &est).unwrap();
        // Expected: observe time (free); at night evaluate temp first
        // (cost 1 + 1/10·1 = 1.1), by day light first (1.1). Total 1.1.
        assert!((cost - 1.1).abs() < 1e-9, "cost {cost}");
        let rep = measure(&plan, &query, &schema, &data);
        assert!(rep.all_correct);
        assert!((rep.mean_cost - 1.1).abs() < 1e-9);
    }

    #[test]
    fn expected_cost_matches_measured_cost_on_training_data() {
        // With a counting estimator, the model expectation *is* the
        // empirical mean on the training set.
        let schema = Schema::new(vec![
            Attribute::new("a", 4, 7.0),
            Attribute::new("b", 4, 3.0),
            Attribute::new("t", 4, 0.5),
        ])
        .unwrap();
        let mut x = 42u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % 4) as u16
        };
        let rows: Vec<Vec<u16>> = (0..200)
            .map(|_| {
                let t = rng();
                vec![(t + rng() % 2) % 4, (3 - t + rng() % 2) % 4, t]
            })
            .collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 2, 3)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) = ExhaustivePlanner::new().plan_with_cost(&schema, &query, &est).unwrap();
        let rep = measure(&plan, &query, &schema, &data);
        assert!(rep.all_correct);
        assert!((cost - rep.mean_cost).abs() < 1e-9, "model {cost} vs measured {}", rep.mean_cost);
    }

    #[test]
    fn never_worse_than_optimal_sequential() {
        let schema =
            Schema::new(vec![Attribute::new("a", 3, 5.0), Attribute::new("b", 3, 5.0)]).unwrap();
        let rows: Vec<Vec<u16>> = (0..27).map(|i| vec![i % 3, (i / 3) % 3]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 1, 2)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (_, ex) = ExhaustivePlanner::new().plan_with_cost(&schema, &query, &est).unwrap();
        let (_, seq) = SeqPlanner::optimal().plan_with_cost(&schema, &query, &est).unwrap();
        assert!(ex <= seq + 1e-9, "exhaustive {ex} > optseq {seq}");
    }

    #[test]
    fn budget_exhaustion_degrades_gracefully() {
        let schema = Schema::new(vec![
            Attribute::new("a", 8, 5.0),
            Attribute::new("b", 8, 5.0),
            Attribute::new("c", 8, 1.0),
        ])
        .unwrap();
        let rows: Vec<Vec<u16>> = (0..64).map(|i| vec![i % 8, (i / 8) % 8, i % 8]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 2, 5), Pred::in_range(1, 0, 3)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let planner = ExhaustivePlanner::new().max_subproblems(3);
        let report = planner.plan_with_report(&schema, &query, &est).unwrap();
        assert!(report.truncated, "a 3-subproblem budget must truncate here");
        let rep = measure(&report.plan, &query, &schema, &data);
        assert!(rep.all_correct, "budget fallback must stay correct");
    }

    #[test]
    fn zero_time_budget_degrades_gracefully() {
        let schema =
            Schema::new(vec![Attribute::new("a", 6, 2.0), Attribute::new("b", 6, 2.0)]).unwrap();
        let rows: Vec<Vec<u16>> = (0..36).map(|i| vec![i % 6, (i / 6) % 6]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 4), Pred::in_range(1, 2, 5)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let report = ExhaustivePlanner::new()
            .time_budget(Duration::ZERO)
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        assert!(report.truncated);
        assert!(measure(&report.plan, &query, &schema, &data).all_correct);
    }

    #[test]
    fn coarse_grid_dead_end_still_correct() {
        let schema = Schema::new(vec![Attribute::new("a", 16, 5.0)]).unwrap();
        let rows: Vec<Vec<u16>> = (0..16).map(|i| vec![i]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        // Grid with zero candidate cuts: the planner must fall back to a
        // sequential leaf at the root.
        let grid = SplitGrid::per_attr(&schema, &[0]);
        let query = Query::new(vec![Pred::in_range(0, 3, 9)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) =
            ExhaustivePlanner::with_grid(grid).plan_with_cost(&schema, &query, &est).unwrap();
        assert_eq!(plan, Plan::Seq(SeqOrder::new(vec![0])));
        assert!((cost - 5.0).abs() < 1e-12);
        assert!(measure(&plan, &query, &schema, &data).all_correct);
    }
}
