//! The basestation: off-line plan construction and dissemination
//! costing (§2.4, §2.5).

use acqp_core::prelude::*;

use crate::energy::EnergyModel;

/// Which planning algorithm the basestation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerChoice {
    /// §4.1.1's traditional ordering.
    Naive,
    /// Correlation-aware sequential plan (`OptSeq`/`GreedySeq` via
    /// [`SeqAlgorithm::Auto`]).
    CorrSeq,
    /// The greedy conditional planner with at most `k` splits.
    Heuristic(usize),
}

/// A plan ready for dissemination.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The plan tree.
    pub plan: Plan,
    /// Its wire encoding (what is actually broadcast).
    pub wire: Vec<u8>,
    /// Expected per-tuple acquisition cost under the training data
    /// (schema cost units).
    pub expected_cost: f64,
    /// The §2.4 objective `C(P) + α·ζ(P)` used to select it.
    pub objective: f64,
}

impl PlannedQuery {
    /// Checks that the plan tree encodes to exactly the disseminated
    /// wire. The certificate covers the wire but motes run the tree's
    /// prepared form, so a tree that differs is rejected with the
    /// offset of the first differing byte.
    pub(crate) fn check_tree_matches_wire(&self) -> Result<()> {
        let encoded = self.plan.encode();
        if encoded == self.wire {
            return Ok(());
        }
        let offset = encoded.iter().zip(&self.wire).take_while(|(a, b)| a == b).count();
        Err(Error::BadWireFormat {
            offset,
            what: "the plan tree does not encode to the disseminated wire",
        })
    }
}

/// Search budget for a drift-triggered re-plan. Re-planning happens
/// *during* query execution, so it runs under the PR 1 planning budget
/// (`max_subproblems`) rather than unbounded; a wall-clock budget is
/// deliberately not used here so re-planning stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanBudget {
    /// Subproblem cap handed to [`ExhaustivePlanner::max_subproblems`].
    pub max_subproblems: usize,
    /// Equal-width split points per attribute for the re-plan grid.
    pub grid_splits: usize,
}

impl Default for ReplanBudget {
    fn default() -> Self {
        ReplanBudget { max_subproblems: 50_000, grid_splits: 3 }
    }
}

/// What a drift-triggered re-plan decided.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// The candidate plan (adopted or not).
    pub planned: PlannedQuery,
    /// True when the candidate beat the stale plan under the drifted
    /// estimator and should be re-disseminated.
    pub adopted: bool,
    /// True when the exhaustive search hit its subproblem budget.
    pub truncated: bool,
    /// True when the candidate came from the `GreedySeq` fallback
    /// (budget truncation or too many predicates for the DP).
    pub fell_back: bool,
    /// Expected per-tuple cost of *continuing the stale plan* under the
    /// drifted-window estimator.
    pub stale_cost: f64,
    /// Expected per-tuple cost of the candidate under the same
    /// estimator. When `adopted`, strictly below `stale_cost`.
    pub new_cost: f64,
    /// Per-predicate selectivities of the window estimator — what the
    /// drift monitor should be re-armed with.
    pub est_selectivities: Vec<f64>,
}

/// The well-provisioned node that plans for the network.
pub struct Basestation<'h> {
    schema: Schema,
    history: &'h Dataset,
}

impl<'h> Basestation<'h> {
    /// Creates a basestation over collected historical readings.
    pub fn new(schema: Schema, history: &'h Dataset) -> Self {
        Basestation { schema, history }
    }

    /// The schema being planned over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Statically verifies a freshly built plan before it can be
    /// disseminated: wire bytes pass the structural and semantic
    /// passes, and the planner's claimed expected cost lands inside the
    /// certified per-tuple bound. A planner bug that emits malformed
    /// bytes or an impossible cost claim is caught here, at the
    /// basestation, instead of bricking motes in the field.
    pub(crate) fn certify(&self, query: &Query, p: &PlannedQuery) -> Result<()> {
        let cert = acqp_verify::verify_wire(&p.wire, query, &self.schema)?;
        cert.check_claim(p.expected_cost)?;
        Ok(())
    }

    /// The historical readings the basestation plans from. Crash
    /// recovery rebuilds estimators over exactly this dataset.
    pub fn history(&self) -> &'h Dataset {
        self.history
    }

    /// Builds a plan with the given planner; `alpha` is the §2.4
    /// plan-size penalty (cost units per byte of plan).
    pub fn plan_query(
        &self,
        query: &Query,
        choice: PlannerChoice,
        alpha: f64,
    ) -> Result<PlannedQuery> {
        let est = CountingEstimator::with_ranges(self.history, Ranges::root(&self.schema));
        let (plan, expected_cost) = match choice {
            PlannerChoice::Naive => {
                SeqPlanner::naive().plan_with_cost(&self.schema, query, &est)?
            }
            PlannerChoice::CorrSeq => {
                SeqPlanner::auto().plan_with_cost(&self.schema, query, &est)?
            }
            PlannerChoice::Heuristic(k) => {
                GreedyPlanner::new(k).plan_with_cost(&self.schema, query, &est)?
            }
        };
        let wire = plan.encode();
        let objective = expected_cost + alpha * wire.len() as f64;
        let planned = PlannedQuery { plan, wire, expected_cost, objective };
        self.certify(query, &planned)?;
        Ok(planned)
    }

    /// §2.4's joint optimization, by sweep: builds `Heuristic-k` plans
    /// for each candidate `k` and keeps the one minimizing
    /// `C(P) + α·ζ(P)`. `α = (cost to transmit a byte) / (tuples
    /// processed in the query lifetime)`: long-running queries drive α
    /// toward 0 and larger plans win; short ones keep plans small.
    pub fn plan_query_sized(
        &self,
        query: &Query,
        alpha: f64,
        candidate_splits: &[usize],
    ) -> Result<(usize, PlannedQuery)> {
        let mut best: Option<(usize, PlannedQuery)> = None;
        for &k in candidate_splits {
            let p = self.plan_query(query, PlannerChoice::Heuristic(k), alpha)?;
            if best.as_ref().is_none_or(|(_, b)| p.objective < b.objective) {
                best = Some((k, p));
            }
        }
        best.ok_or(Error::EmptyQuery)
    }

    /// Like [`Basestation::plan_query_sized`] but also reports how many
    /// plan-search subproblems the sweep expanded — the work a plan
    /// cache saves on a hit. Produces identical plans to the unreported
    /// variant (`plan_with_cost` is itself a thin wrapper over
    /// `plan_with_report`).
    pub fn plan_query_sized_reported(
        &self,
        query: &Query,
        alpha: f64,
        candidate_splits: &[usize],
    ) -> Result<(usize, PlannedQuery, u64)> {
        let est = CountingEstimator::with_ranges(self.history, Ranges::root(&self.schema));
        let mut best: Option<(usize, PlannedQuery)> = None;
        let mut subproblems = 0u64;
        for &k in candidate_splits {
            let r = GreedyPlanner::new(k).plan_with_report(&self.schema, query, &est)?;
            subproblems += r.subproblems as u64;
            let wire = r.plan.encode();
            let objective = r.expected_cost + alpha * wire.len() as f64;
            let p = PlannedQuery { plan: r.plan, wire, expected_cost: r.expected_cost, objective };
            if best.as_ref().is_none_or(|(_, b)| p.objective < b.objective) {
                best = Some((k, p));
            }
        }
        let (k, p) = best.ok_or(Error::EmptyQuery)?;
        self.certify(query, &p)?;
        Ok((k, p, subproblems))
    }

    /// The per-predicate selectivities the historical estimator
    /// predicts for `query` — what a freshly planned query's drift
    /// monitor is armed with.
    pub fn estimated_selectivities(&self, query: &Query) -> Vec<f64> {
        let est = CountingEstimator::with_ranges(self.history, Ranges::root(&self.schema));
        estimated_selectivities(query, &est)
    }

    /// Re-plans `query` against a drifted window of live tuples,
    /// deciding whether the stale plan should be replaced.
    ///
    /// The candidate comes from the budgeted [`ExhaustivePlanner`];
    /// when the budget truncates the search (or the query is too large
    /// for the DP at all), the basestation falls back to `GreedySeq` —
    /// a cheaper-but-sound sequential plan beats an arbitrarily
    /// truncated tree. The candidate is **adopted only if it is
    /// strictly cheaper than continuing the stale plan under the same
    /// drifted estimator** (hysteresis: a noisy window never makes the
    /// fleet re-disseminate a worse plan).
    pub fn replan(
        &self,
        query: &Query,
        window: &Dataset,
        budget: &ReplanBudget,
        alpha: f64,
        stale: &PlannedQuery,
    ) -> Result<ReplanOutcome> {
        let est = CountingEstimator::with_ranges(window, Ranges::root(&self.schema));
        let stale_cost = expected_cost(&stale.plan, query, &self.schema, &est);
        let grid = SplitGrid::equal_width(&self.schema, budget.grid_splits);
        let attempt = ExhaustivePlanner::with_grid(grid)
            .max_subproblems(budget.max_subproblems)
            .plan_with_report(&self.schema, query, &est);
        let (plan, new_cost, truncated, fell_back) = match attempt {
            Ok(r) if !r.truncated => (r.plan, r.expected_cost, false, false),
            Ok(_) => {
                let (p, c) = SeqPlanner::greedy().plan_with_cost(&self.schema, query, &est)?;
                (p, c, true, true)
            }
            Err(Error::TooManyPredicates { .. }) => {
                let (p, c) = SeqPlanner::greedy().plan_with_cost(&self.schema, query, &est)?;
                (p, c, false, true)
            }
            Err(e) => return Err(e),
        };
        let wire = plan.encode();
        let objective = new_cost + alpha * wire.len() as f64;
        let adopted = new_cost + 1e-9 < stale_cost;
        let planned = PlannedQuery { plan, wire, expected_cost: new_cost, objective };
        self.certify(query, &planned)?;
        Ok(ReplanOutcome {
            planned,
            adopted,
            truncated,
            fell_back,
            stale_cost,
            new_cost,
            est_selectivities: estimated_selectivities(query, &est),
        })
    }

    /// The §2.4 scaling factor for a deployment: transmit cost per byte
    /// divided by the number of tuples the query will process.
    pub fn alpha_for(model: &EnergyModel, motes: usize, epochs: usize) -> f64 {
        let tuples = (motes * epochs).max(1) as f64;
        // Dissemination reaches every mote: cost per plan byte is
        // tx (basestation) plus rx at each mote.
        let per_byte = model.radio_tx_uj_per_byte + model.radio_rx_uj_per_byte * motes as f64;
        per_byte / tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::Attribute;

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..200u16 {
            let t = i % 2;
            let a = if i % 10 == 0 { 1 - t } else { t };
            let b = if i % 12 == 0 { t } else { 1 - t };
            rows.push(vec![a, b, t]);
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        (schema, data, query)
    }

    #[test]
    fn conditional_beats_naive_in_expectation() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let naive = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        let cond = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
        assert!(cond.expected_cost < naive.expected_cost);
        assert!(cond.plan.split_count() >= 1);
        assert_eq!(cond.wire.len(), cond.plan.wire_size());
    }

    #[test]
    fn alpha_shrinks_chosen_plans_for_short_queries() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let candidates = [0usize, 1, 2, 4, 8];
        // Long-lived query: alpha ~ 0 -> richest beneficial plan.
        let (k_long, _) = bs.plan_query_sized(&query, 0.0, &candidates).unwrap();
        // Absurdly expensive dissemination: alpha huge -> smallest plan.
        let (k_short, p_short) = bs.plan_query_sized(&query, 1e6, &candidates).unwrap();
        assert!(k_short <= k_long);
        assert_eq!(p_short.plan.split_count(), 0, "huge alpha must force a leaf plan");
    }

    #[test]
    fn reported_sweep_matches_plain_sweep() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let candidates = [0usize, 1, 2, 4, 8];
        for alpha in [0.0, 0.05, 1e6] {
            let (k, p) = bs.plan_query_sized(&query, alpha, &candidates).unwrap();
            let (kr, pr, subs) = bs.plan_query_sized_reported(&query, alpha, &candidates).unwrap();
            assert_eq!(k, kr);
            assert_eq!(p.wire, pr.wire);
            assert_eq!(p.expected_cost, pr.expected_cost);
            assert_eq!(p.objective, pr.objective);
            assert!(subs > 0, "a real sweep expands at least one subproblem");
        }
    }

    #[test]
    fn replan_gate_and_budget_fallback() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema, &data);
        let stale = bs.plan_query(&query, PlannerChoice::Naive, 0.0).unwrap();
        // A naive stale plan is strictly beatable on this data.
        let out = bs.replan(&query, &data, &ReplanBudget::default(), 0.0, &stale).unwrap();
        assert!(out.adopted);
        assert!(out.new_cost < out.stale_cost);
        assert_eq!(out.est_selectivities.len(), query.len());
        // Hysteresis: against a plan already optimal for the window,
        // nothing strictly cheaper exists and nothing is adopted.
        let again = bs.replan(&query, &data, &ReplanBudget::default(), 0.0, &out.planned).unwrap();
        assert!(!again.adopted);
        // A starved budget truncates the exhaustive search and falls
        // back to a GreedySeq (leaf) plan.
        let tiny = ReplanBudget { max_subproblems: 1, grid_splits: 3 };
        let fb = bs.replan(&query, &data, &tiny, 0.0, &stale).unwrap();
        assert!(fb.fell_back);
        assert_eq!(fb.planned.plan.split_count(), 0);
    }

    #[test]
    fn alpha_formula_scales_with_lifetime() {
        let model = EnergyModel::mica_like();
        let a_short = Basestation::alpha_for(&model, 10, 10);
        let a_long = Basestation::alpha_for(&model, 10, 10_000);
        assert!(a_long < a_short);
    }
}
