//! The polynomial-time greedy conditional planner — Figs. 6 and 7.
//!
//! The planner maintains a current plan whose leaves each hold (a) the
//! best *sequential* plan for that leaf's subproblem and (b) the locally
//! optimal binary split (`GREEDYSPLIT`): the conditioning predicate
//! `T(X_i ≥ x)` minimizing
//!
//! ```text
//! C'_i + P(X_i < x | R) · Ĵ(lo) + P(X_i ≥ x | R) · Ĵ(hi)
//! ```
//!
//! where `Ĵ` is the expected cost of the (pluggable) sequential planner
//! on the induced subproblem (Eq. 6). Leaves wait in a priority queue
//! keyed by the expected gain of applying their split,
//! `P(R_1, …, R_n) · (C(Ĵ) − C̄)`, and the highest-gain leaf is expanded
//! until `max_splits` conditioning predicates have been inserted (the
//! plan-size bound motivated by mote RAM in §2.4) or no leaf's split
//! improves on its sequential plan.
//!
//! The split search sweeps candidate cuts left to right, deriving each
//! side's conditioned truth distribution by prefix-merging per-value
//! tables ([`Estimator::truth_by_value`]) — one pass over the leaf's
//! support per attribute instead of one per candidate cut.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

use acqp_obs::{Counter, Recorder};

use crate::attr::Schema;
use crate::error::Result;
use crate::plan::{Plan, SeqOrder};
use crate::prob::{Estimator, TruthAccum, TruthTable};
use crate::query::Query;
use crate::range::{Range, Ranges};

use super::budget::{Deadline, DegradationLevel, PlanReport};
use super::seq::{SeqAlgorithm, SeqPlanner};
use super::spsf::SplitGrid;
use super::OrdF64;

/// The greedy conditional planner (`GREEDYPLAN`, Fig. 7).
///
/// ```
/// use acqp_core::prelude::*;
///
/// // A free clock perfectly predicts two expensive sensors.
/// let schema = Schema::new(vec![
///     Attribute::new("a", 2, 100.0),
///     Attribute::new("b", 2, 100.0),
///     Attribute::new("clock", 2, 0.0),
/// ])?;
/// let rows: Vec<Vec<u16>> = (0..40).map(|i| {
///     let t = i % 2;
///     vec![t, 1 - t, t]
/// }).collect();
/// let data = Dataset::from_rows(&schema, rows)?;
/// let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)])?;
///
/// let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
/// let (plan, cost) = GreedyPlanner::new(4).plan_with_cost(&schema, &query, &est)?;
/// // The plan reads the clock and probes the sensor that will fail:
/// // exactly one expensive acquisition per tuple.
/// assert!(plan.split_count() >= 1);
/// assert!((cost - 100.0).abs() < 1e-9);
/// assert!(measure(&plan, &query, &schema, &data).all_correct);
/// # Ok::<(), acqp_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct GreedyPlanner {
    max_splits: usize,
    grid: Option<SplitGrid>,
    base: SeqAlgorithm,
    min_support: usize,
    min_gain: f64,
    time_budget: Option<Duration>,
    cost_model: crate::costmodel::CostModel,
    recorder: Recorder,
}

impl GreedyPlanner {
    /// Planner allowing at most `max_splits` conditioning predicates
    /// (the paper's `Heuristic-k`), choosing base sequential plans
    /// automatically (`OptSeq` for small queries, `GreedySeq` for large
    /// ones) over the unrestricted split grid.
    pub fn new(max_splits: usize) -> Self {
        GreedyPlanner {
            max_splits,
            grid: None,
            base: SeqAlgorithm::Auto,
            min_support: 2,
            min_gain: 1e-9,
            time_budget: None,
            cost_model: crate::costmodel::CostModel::PerAttribute,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: leaf expansions, split-point
    /// evaluations and deadline truncation are counted through it (see
    /// `DESIGN.md` §8). Metrics never influence which leaf expands.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Adds a wall-clock deadline: once elapsed, no further leaves are
    /// expanded and the best-so-far plan is returned (flagged truncated
    /// in [`GreedyPlanner::plan_with_report`] when gainful leaves
    /// remained).
    pub fn time_budget(mut self, d: Duration) -> Self {
        self.time_budget = Some(d);
        self
    }

    /// Uses order-dependent acquisition costs (§7 "Complex acquisition
    /// costs"), e.g. shared-board power-ups.
    pub fn with_cost_model(mut self, model: crate::costmodel::CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Restricts candidate split points (§4.3).
    pub fn with_grid(mut self, grid: SplitGrid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Selects the sequential algorithm used for base plans (the paper
    /// uses `OptSeq` on the Lab dataset, `GreedySeq` on Garden).
    pub fn with_base(mut self, base: SeqAlgorithm) -> Self {
        self.base = base;
        self
    }

    /// Leaves backed by fewer than `n` historical tuples are not split
    /// further (variance guard; §7 discusses how support halves with
    /// every split). Default 2.
    pub fn with_min_support(mut self, n: usize) -> Self {
        self.min_support = n;
        self
    }

    /// A split is only applied when its expected whole-plan gain
    /// exceeds `gain` cost units (a regularizer against fitting
    /// training-set noise: marginal splits rarely survive the
    /// train/test distribution shift §7 warns about). Default ~0.
    pub fn with_min_gain(mut self, gain: f64) -> Self {
        self.min_gain = gain.max(1e-9);
        self
    }

    /// The configured split budget.
    pub fn max_splits(&self) -> usize {
        self.max_splits
    }

    /// Builds the conditional plan.
    pub fn plan<E: Estimator>(&self, schema: &Schema, query: &Query, est: &E) -> Result<Plan> {
        self.plan_with_cost(schema, query, est).map(|(p, _)| p)
    }

    /// Builds the conditional plan, returning its model-expected cost.
    pub fn plan_with_cost<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
    ) -> Result<(Plan, f64)> {
        self.plan_with_report(schema, query, est).map(|r| (r.plan, r.expected_cost))
    }

    /// Full search outcome: plan, expected cost, leaf expansions
    /// applied, and whether the deadline cut the expansion short.
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
        let seq = SeqPlanner::new(self.base).with_cost_model(self.cost_model.clone());
        let root_ctx = est.root();
        let root_ranges = est.ranges(&root_ctx).clone();
        let flight = self.recorder.flight().clone();
        let start_seq = flight.emit(
            0,
            0,
            "plan.search.start",
            &[("planner", "greedy".into()), ("preds", query.len().into())],
        );
        if let Some(b) = query.truth_given(&root_ranges) {
            flight.emit(
                0,
                start_seq,
                "plan.search.end",
                &[
                    ("cost", 0.0.into()),
                    ("subproblems", 0usize.into()),
                    ("truncated", false.into()),
                ],
            );
            return Ok(PlanReport {
                plan: Plan::Decided(b),
                expected_cost: 0.0,
                subproblems: 0,
                truncated: false,
                worker_panics: 0,
                degradation: DegradationLevel::None,
            });
        }
        let deadline = Deadline::after(self.time_budget);
        let _span = self.recorder.span("planner.greedy");
        // Leaf expansions applied; kept equal to the report's
        // `subproblems` field, mirroring the exhaustive planner.
        let opened = self.recorder.counter("planner.subproblems.opened");
        let split_eval = self.recorder.counter("planner.split.evaluated");

        // Arena-based tree under construction. Leaf payloads live in
        // `leaves`; arena nodes reference them by slot.
        enum TNode {
            Leaf(usize),
            Split { attr: usize, cut: u16, lo: usize, hi: usize },
        }
        struct LeafState<C> {
            ctx: C,
            ranges: Ranges,
            decided: Option<bool>,
            order: Vec<usize>,
            seq_cost: f64,
            split: Option<BestSplit>,
            arena_idx: usize,
        }

        let mut arena: Vec<TNode> = Vec::new();
        let mut leaves: Vec<Option<LeafState<E::Ctx>>> = Vec::new();
        let mut heap: BinaryHeap<(OrdF64, Reverse<usize>, usize)> = BinaryHeap::new();
        let mut counter = 0usize;
        // Expected cost of the evolving plan, updated by each expansion.
        let mut plan_cost;

        // Seed with the root leaf.
        {
            let table = est.truth_table(&root_ctx, query);
            let (order, seq_cost) = seq.order_for(schema, query, &root_ranges, &table)?;
            plan_cost = seq_cost;
            let split =
                self.greedy_split(schema, query, est, &seq, &grid, &root_ctx, &table, &split_eval)?;
            let state = LeafState {
                ctx: root_ctx,
                ranges: root_ranges,
                decided: None,
                order,
                seq_cost,
                split,
                arena_idx: 0,
            };
            arena.push(TNode::Leaf(0));
            if let Some(s) = &state.split {
                let gain = est.mass(&state.ctx) * (state.seq_cost - s.total);
                if gain > self.min_gain {
                    heap.push((OrdF64(gain), Reverse(counter), 0));
                    counter += 1;
                }
            }
            leaves.push(Some(state));
        }

        let mut splits_used = 0usize;
        let mut truncated = false;
        while splits_used < self.max_splits {
            if deadline.expired() {
                // Best-so-far degradation: the current tree is already a
                // complete, valid plan; we just stop improving it.
                truncated = !heap.is_empty();
                break;
            }
            let Some((OrdF64(gain), _, slot)) = heap.pop() else { break };
            let Some(leaf) = leaves[slot].take() else { continue };
            let Some(split) = leaf.split else {
                // Only split-bearing leaves are enqueued; if one arrives
                // anyway, restore it so the arena stays realizable.
                debug_assert!(false, "enqueued leaf without a split");
                leaves[slot] = Some(leaf);
                continue;
            };
            plan_cost -= gain;

            let r = leaf.ranges.get(split.attr);
            let lo_r = Range::new(r.lo(), split.cut - 1);
            let hi_r = Range::new(split.cut, r.hi());

            let lo_idx = arena.len();
            let hi_idx = arena.len() + 1;
            arena[leaf.arena_idx] =
                TNode::Split { attr: split.attr, cut: split.cut, lo: lo_idx, hi: hi_idx };

            for (child_r, arena_idx) in [(lo_r, lo_idx), (hi_r, hi_idx)] {
                let ctx = est.refine(&leaf.ctx, split.attr, child_r);
                let ranges = leaf.ranges.with(split.attr, child_r);
                let decided = query.truth_given(&ranges);
                let (order, seq_cost) = if decided.is_some() {
                    (Vec::new(), 0.0)
                } else {
                    let table = est.truth_table(&ctx, query);
                    seq.order_for(schema, query, &ranges, &table)?
                };
                let split = if decided.is_some() || est.support(&ctx) < self.min_support {
                    None
                } else {
                    let table = est.truth_table(&ctx, query);
                    self.greedy_split(schema, query, est, &seq, &grid, &ctx, &table, &split_eval)?
                };
                let state = LeafState { ctx, ranges, decided, order, seq_cost, split, arena_idx };
                let leaf_slot = leaves.len();
                arena.push(TNode::Leaf(leaf_slot));
                if let Some(s) = &state.split {
                    let child_gain = est.mass(&state.ctx) * (state.seq_cost - s.total);
                    if child_gain > self.min_gain {
                        heap.push((OrdF64(child_gain), Reverse(counter), leaf_slot));
                        counter += 1;
                    }
                }
                leaves.push(Some(state));
            }
            splits_used += 1;
            opened.incr(1);
        }
        if truncated {
            self.recorder.counter("planner.budget.truncated").incr(1);
            flight.emit(
                0,
                start_seq,
                "plan.search.truncated",
                &[("subproblems", splits_used.into())],
            );
        }

        // Realize the arena into a Plan.
        fn realize<C>(arena: &[TNode], leaves: &[Option<LeafState<C>>], idx: usize) -> Plan {
            match &arena[idx] {
                TNode::Leaf(slot) => {
                    // acqp-lint: allow(panic-in-lib): arena leaves are populated before any node references their slot, and expansion restores the slot on every path
                    let leaf = leaves[*slot].as_ref().expect("live leaf");
                    match leaf.decided {
                        Some(b) => Plan::Decided(b),
                        None => Plan::Seq(SeqOrder::new(leaf.order.clone())),
                    }
                }
                TNode::Split { attr, cut, lo, hi } => Plan::split(
                    *attr,
                    *cut,
                    realize(arena, leaves, *lo),
                    realize(arena, leaves, *hi),
                ),
            }
        }
        flight.emit(
            0,
            start_seq,
            "plan.search.end",
            &[
                ("cost", plan_cost.into()),
                ("subproblems", splits_used.into()),
                ("truncated", truncated.into()),
                ("split_evaluated", split_eval.value().into()),
            ],
        );
        Ok(PlanReport {
            plan: realize(&arena, &leaves, 0),
            expected_cost: plan_cost,
            subproblems: splits_used,
            truncated,
            worker_panics: 0,
            degradation: DegradationLevel::None,
        })
    }

    /// `GREEDYSPLIT` (Fig. 6): the locally optimal conditioning
    /// predicate for one subproblem, or `None` when no valid split
    /// exists.
    ///
    /// Each attribute's cut sweep is scored independently and the
    /// winner is reduced in attribute-index order with a strict `<`, so
    /// ties keep the lower attribute id.
    #[allow(clippy::too_many_arguments)] // mirrors Fig. 6's parameter list
    fn greedy_split<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
        seq: &SeqPlanner,
        grid: &SplitGrid,
        ctx: &E::Ctx,
        table: &TruthTable,
        split_eval: &Counter,
    ) -> Result<Option<BestSplit>> {
        let ranges = est.ranges(ctx).clone();
        let total_w = table.total();
        if total_w <= 0.0 {
            return Ok(None);
        }
        let cand: Vec<usize> = (0..schema.len()).filter(|&a| !ranges.get(a).is_point()).collect();

        let scored: Vec<Result<Option<BestSplit>>> = cand
            .iter()
            .map(|&a| {
                self.score_attr(
                    schema, query, est, seq, grid, ctx, table, &ranges, total_w, a, split_eval,
                )
            })
            .collect();

        // Deterministic reduce: first strictly-better wins, scanning
        // attributes in index order — ties keep the lower attribute id.
        let mut best: Option<BestSplit> = None;
        for r in scored {
            if let Some(s) = r? {
                if best.as_ref().is_none_or(|b| s.total < b.total) {
                    best = Some(s);
                }
            }
        }
        Ok(best)
    }

    /// Scores every candidate cut of one attribute, returning the
    /// attribute's best split. Self-contained per attribute — no state
    /// from other attributes' sweeps.
    #[allow(clippy::too_many_arguments)]
    fn score_attr<E: Estimator>(
        &self,
        schema: &Schema,
        query: &Query,
        est: &E,
        seq: &SeqPlanner,
        grid: &SplitGrid,
        ctx: &E::Ctx,
        table: &TruthTable,
        ranges: &Ranges,
        total_w: f64,
        attr: usize,
        split_eval: &Counter,
    ) -> Result<Option<BestSplit>> {
        let r = ranges.get(attr);
        let c0 =
            self.cost_model.cost(schema, attr, crate::costmodel::acquired_mask(schema, ranges));
        let cuts: Vec<u16> = grid.cuts_in(attr, r).collect();
        if cuts.is_empty() {
            return Ok(None);
        }
        let by_value = est.truth_by_value(ctx, attr, query);
        debug_assert_eq!(by_value.len(), r.width() as usize);

        split_eval.incr(cuts.len() as u64);
        let mut best: Option<BestSplit> = None;
        let mut acc = TruthAccum::new();
        let mut merged_upto = r.lo(); // values < merged_upto are in `acc`
        for cut in cuts {
            while merged_upto < cut {
                acc.add_table(&by_value[usize::from(merged_upto - r.lo())]);
                merged_upto += 1;
            }
            let lo_table = acc.snapshot(query.len());
            let p_lo = (lo_table.total() / total_w).clamp(0.0, 1.0);
            let mut c = c0;

            let lo_ranges = ranges.with(attr, Range::new(r.lo(), cut - 1));
            if p_lo > 0.0 {
                let (_, lo_cost) = seq.order_for(schema, query, &lo_ranges, &lo_table)?;
                c += p_lo * lo_cost;
            }
            if let Some(b) = &best {
                if c >= b.total {
                    continue;
                }
            }
            let p_hi = 1.0 - p_lo;
            if p_hi > 0.0 {
                let hi_table = table.subtract(&lo_table);
                let hi_ranges = ranges.with(attr, Range::new(cut, r.hi()));
                let (_, hi_cost) = seq.order_for(schema, query, &hi_ranges, &hi_table)?;
                c += p_hi * hi_cost;
            }
            if best.as_ref().is_none_or(|b| c < b.total) {
                best = Some(BestSplit { attr, cut, total: c });
            }
        }
        Ok(best)
    }
}

/// The outcome of `GREEDYSPLIT`: which conditioning predicate to apply
/// and the expected cost of the split-plus-sequential-children plan.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BestSplit {
    attr: usize,
    cut: u16,
    total: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::cost::measure;
    use crate::dataset::Dataset;
    use crate::planner::ExhaustivePlanner;
    use crate::prob::CountingEstimator;
    use crate::query::Pred;

    fn day_night_setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("temp", 2, 1.0),
            Attribute::new("light", 2, 1.0),
            Attribute::new("time", 2, 0.0),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..10u16 {
            rows.push(vec![u16::from(i < 1), u16::from(i < 9), 0]);
            rows.push(vec![u16::from(i < 9), u16::from(i < 1), 1]);
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        (schema, data, query)
    }

    #[test]
    fn finds_the_fig2_conditional_plan() {
        let (schema, data, query) = day_night_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) = GreedyPlanner::new(4).plan_with_cost(&schema, &query, &est).unwrap();
        assert!((cost - 1.1).abs() < 1e-9, "cost {cost}");
        assert!(plan.split_count() >= 1);
        // Root split must condition on the free time attribute.
        match &plan {
            Plan::Split { attr, .. } => assert_eq!(*attr, 2),
            other => panic!("expected split at root, got {other:?}"),
        }
        let rep = measure(&plan, &query, &schema, &data);
        assert!(rep.all_correct);
        assert!((rep.mean_cost - 1.1).abs() < 1e-9);
    }

    #[test]
    fn zero_splits_equals_base_sequential() {
        let (schema, data, query) = day_night_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) = GreedyPlanner::new(0).plan_with_cost(&schema, &query, &est).unwrap();
        assert_eq!(plan.split_count(), 0);
        let (_, seq_cost) = SeqPlanner::auto().plan_with_cost(&schema, &query, &est).unwrap();
        assert!((cost - seq_cost).abs() < 1e-12);
    }

    #[test]
    fn respects_split_budget() {
        let (schema, data, query) = day_night_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        for k in 0..4 {
            let plan = GreedyPlanner::new(k).plan(&schema, &query, &est).unwrap();
            assert!(plan.split_count() <= k, "k={k} got {}", plan.split_count());
        }
    }

    #[test]
    fn cost_reported_matches_measured_on_training_data() {
        let schema = Schema::new(vec![
            Attribute::new("a", 6, 9.0),
            Attribute::new("b", 6, 4.0),
            Attribute::new("t", 6, 0.25),
        ])
        .unwrap();
        let mut x = 7u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % 6) as u16
        };
        let rows: Vec<Vec<u16>> = (0..300)
            .map(|_| {
                let t = rng();
                vec![(t + rng() % 2) % 6, (5 - t + rng() % 2) % 6, t]
            })
            .collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 0, 2), Pred::in_range(1, 3, 5)]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (plan, cost) = GreedyPlanner::new(6).plan_with_cost(&schema, &query, &est).unwrap();
        let rep = measure(&plan, &query, &schema, &data);
        assert!(rep.all_correct);
        assert!(
            (cost - rep.mean_cost).abs() < 1e-9,
            "planner-claimed {cost} vs measured {}",
            rep.mean_cost
        );
    }

    #[test]
    fn sandwiched_between_exhaustive_and_sequential() {
        let (schema, data, query) = day_night_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let (_, ex) = ExhaustivePlanner::new().plan_with_cost(&schema, &query, &est).unwrap();
        let (_, gr) = GreedyPlanner::new(10).plan_with_cost(&schema, &query, &est).unwrap();
        let (_, sq) = SeqPlanner::optimal().plan_with_cost(&schema, &query, &est).unwrap();
        assert!(ex <= gr + 1e-9);
        assert!(gr <= sq + 1e-9);
    }

    #[test]
    fn decided_root_query() {
        let schema = Schema::new(vec![Attribute::new("a", 4, 1.0)]).unwrap();
        let data = Dataset::from_rows(&schema, vec![vec![0], vec![3]]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let q = Query::new(vec![Pred::in_range(0, 0, 3)]).unwrap();
        let (plan, cost) = GreedyPlanner::new(5).plan_with_cost(&schema, &q, &est).unwrap();
        assert_eq!(plan, Plan::Decided(true));
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn min_support_blocks_tiny_leaves() {
        let (schema, data, query) = day_night_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        // Impossibly high support requirement: after the root only leaves
        // with >= 1000 tuples could split; none exist, so exactly the
        // root split (made before any support check) plus children that
        // never split.
        let plan =
            GreedyPlanner::new(10).with_min_support(1000).plan(&schema, &query, &est).unwrap();
        assert!(plan.split_count() <= 1);
    }

    /// Dense instance where many attributes compete per split.
    fn dense_setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 5, 7.0),
            Attribute::new("b", 5, 5.0),
            Attribute::new("c", 5, 3.0),
            Attribute::new("d", 5, 1.0),
        ])
        .unwrap();
        let mut x = 99u64;
        let mut rng = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((x >> 33) % 5) as u16
        };
        let rows: Vec<Vec<u16>> = (0..400)
            .map(|_| {
                let d = rng();
                vec![(d + rng() % 2) % 5, (4 - d + rng() % 3) % 5, rng(), d]
            })
            .collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![
            Pred::in_range(0, 0, 2),
            Pred::in_range(1, 2, 4),
            Pred::in_range(2, 0, 3),
        ])
        .unwrap();
        (schema, data, query)
    }

    #[test]
    fn zero_time_budget_truncates_to_valid_plan() {
        let (schema, data, query) = dense_setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let report = GreedyPlanner::new(8)
            .time_budget(Duration::ZERO)
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        assert!(report.truncated);
        assert_eq!(report.plan.split_count(), 0);
        let rep = measure(&report.plan, &query, &schema, &data);
        assert!(rep.all_correct);
    }
}
