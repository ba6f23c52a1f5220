//! A deliberately correlation-blind estimator.
//!
//! [`IndependenceEstimator`] answers every probability as if the
//! attributes were mutually independent: each attribute keeps only its
//! marginal histogram, and joint truth distributions are products of
//! per-predicate marginals. It exists as an *ablation baseline*: running
//! the conditional planner on top of it shows how much of the paper's
//! gain comes from modelling correlations rather than from the plan
//! machinery itself — under independence, conditioning on one attribute
//! never changes another's distribution, so `GREEDYSPLIT` finds no
//! beneficial split and the planner collapses to the `Naive`-style
//! marginal ordering.

use std::rc::Rc;

use crate::attr::AttrId;
use crate::dataset::Dataset;
use crate::prob::{Estimator, TruthTable};
use crate::query::Query;
use crate::range::{Range, Ranges};

/// Context: range constraints over independent marginals.
#[derive(Debug, Clone)]
pub struct IndepCtx {
    ranges: Ranges,
    /// Probability mass of each attribute's current range under its
    /// marginal (cached so `mass` is O(1) after refinement).
    range_mass: Rc<Vec<f64>>,
}

/// Estimates probabilities from per-attribute marginal histograms,
/// assuming full independence.
pub struct IndependenceEstimator {
    root_ranges: Ranges,
    /// Marginal histogram of every attribute over its full domain.
    marginals: Vec<Vec<f64>>,
    /// Effective sample size (for `support`).
    rows: usize,
}

impl IndependenceEstimator {
    /// Fits marginals from `data` with root ranges `ranges`.
    pub fn new(data: &Dataset, ranges: Ranges) -> Self {
        debug_assert_eq!(data.width(), ranges.len());
        let marginals = (0..data.width())
            .map(|a| {
                let k = usize::from(ranges.get(a).hi()) + 1;
                let mut h = vec![0.0f64; k];
                for &v in data.column(a) {
                    h[usize::from(v)] += 1.0;
                }
                let z: f64 = h.iter().sum();
                if z > 0.0 {
                    h.iter_mut().for_each(|p| *p /= z);
                } else {
                    h.iter_mut().for_each(|p| *p = 1.0 / k as f64);
                }
                h
            })
            .collect();
        IndependenceEstimator { root_ranges: ranges, marginals, rows: data.len() }
    }

    fn range_mass(&self, a: AttrId, r: Range) -> f64 {
        self.marginals[a][usize::from(r.lo())..=usize::from(r.hi())].iter().sum()
    }
}

impl Estimator for IndependenceEstimator {
    type Ctx = IndepCtx;

    fn root(&self) -> IndepCtx {
        let mass = (0..self.root_ranges.len())
            .map(|a| self.range_mass(a, self.root_ranges.get(a)))
            .collect();
        IndepCtx { ranges: self.root_ranges.clone(), range_mass: Rc::new(mass) }
    }

    fn refine(&self, ctx: &IndepCtx, attr: AttrId, r: Range) -> IndepCtx {
        debug_assert!(ctx.ranges.get(attr).contains_range(r));
        let mut mass = ctx.range_mass.as_ref().clone();
        mass[attr] = self.range_mass(attr, r);
        IndepCtx { ranges: ctx.ranges.with(attr, r), range_mass: Rc::new(mass) }
    }

    fn ranges<'c>(&self, ctx: &'c IndepCtx) -> &'c Ranges {
        &ctx.ranges
    }

    fn mass(&self, ctx: &IndepCtx) -> f64 {
        ctx.range_mass.iter().product()
    }

    fn support(&self, ctx: &IndepCtx) -> usize {
        // Effective support scales with the region's probability.
        (self.rows as f64 * self.mass(ctx)).round() as usize
    }

    fn hist(&self, ctx: &IndepCtx, attr: AttrId) -> Vec<f64> {
        let r = ctx.ranges.get(attr);
        let mut h = vec![0.0f64; usize::from(r.hi()) + 1];
        let z = ctx.range_mass[attr];
        if z > 0.0 {
            for v in r.lo()..=r.hi() {
                h[usize::from(v)] = self.marginals[attr][usize::from(v)] / z;
            }
        } else {
            let w = 1.0 / f64::from(r.width() as u16);
            for v in r.lo()..=r.hi() {
                h[usize::from(v)] = w;
            }
        }
        h
    }

    fn truth_table(&self, ctx: &IndepCtx, query: &Query) -> TruthTable {
        // Product distribution over independent predicate bits,
        // conditioned on each attribute's current range.
        let probs: Vec<f64> = query
            .preds()
            .iter()
            .map(|p| {
                let a = p.attr();
                let r = ctx.ranges.get(a);
                let z = ctx.range_mass[a];
                if z <= 0.0 {
                    return 0.5;
                }
                let mut t = 0.0;
                for v in r.lo()..=r.hi() {
                    if p.eval(v) {
                        t += self.marginals[a][usize::from(v)];
                    }
                }
                (t / z).clamp(0.0, 1.0)
            })
            .collect();
        let m = query.len();
        // Enumerate the 2^m product outcomes (queries are small enough
        // for the planners that call this; guarded).
        assert!(m <= 24, "independence truth table is dense in 2^m");
        let entries = (0..(1u64 << m)).map(|mask| {
            let mut w = self.rows.max(1) as f64;
            for (j, &p) in probs.iter().enumerate() {
                w *= if mask & (1 << j) != 0 { p } else { 1.0 - p };
            }
            (mask, w)
        });
        TruthTable::from_weighted(m, entries.filter(|(_, w)| *w > 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attribute, Schema};
    use crate::planner::{GreedyPlanner, SeqPlanner};
    use crate::prob::CountingEstimator;
    use crate::query::Pred;

    /// Perfectly anti-correlated data: a == 1-b always; t predicts both.
    fn setup() -> (Schema, Dataset) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 10.0),
            Attribute::new("b", 2, 10.0),
            Attribute::new("t", 2, 0.5),
        ])
        .unwrap();
        let rows: Vec<Vec<u16>> = (0..100).map(|i| vec![i % 2, 1 - i % 2, i % 2]).collect();
        (schema.clone(), Dataset::from_rows(&schema, rows).unwrap())
    }

    #[test]
    fn marginals_match_but_joint_factorizes() {
        let (schema, data) = setup();
        let est = IndependenceEstimator::new(&data, Ranges::root(&schema));
        let root = est.root();
        assert!((est.mass(&root) - 1.0).abs() < 1e-9);
        let h = est.hist(&root, 0);
        assert!((h[0] - 0.5).abs() < 1e-9);

        let q = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let t = est.truth_table(&root, &q);
        // Truth: P(a=1 AND b=1) = 0 in the data, but independence says 1/4.
        assert!((t.prob_all(0b11) - 0.25).abs() < 1e-9);
        let counting = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let ct = counting.truth_table(&counting.root(), &q);
        assert_eq!(ct.prob_all(0b11), 0.0);
    }

    #[test]
    fn refinement_never_changes_other_attributes() {
        let (schema, data) = setup();
        let est = IndependenceEstimator::new(&data, Ranges::root(&schema));
        let root = est.root();
        let h_before = est.hist(&root, 0);
        let t1 = est.refine(&root, 2, Range::new(1, 1));
        let h_after = est.hist(&t1, 0);
        assert_eq!(h_before, h_after, "independence: conditioning is a no-op elsewhere");
        assert!((est.mass(&t1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn greedy_planner_finds_no_splits_under_independence() {
        let (schema, data) = setup();
        let q = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let indep = IndependenceEstimator::new(&data, Ranges::root(&schema));
        let plan = GreedyPlanner::new(10).plan(&schema, &q, &indep).unwrap();
        assert_eq!(
            plan.split_count(),
            0,
            "no conditioning can help when nothing is correlated: {plan:?}"
        );
        // And the sequential order equals the Naive ranking.
        let naive = SeqPlanner::naive().plan(&schema, &q, &indep).unwrap();
        assert_eq!(plan, naive);
    }

    #[test]
    fn support_scales_with_mass() {
        let (schema, data) = setup();
        let est = IndependenceEstimator::new(&data, Ranges::root(&schema));
        let root = est.root();
        assert_eq!(est.support(&root), 100);
        let half = est.refine(&root, 0, Range::new(0, 0));
        assert_eq!(est.support(&half), 50);
    }
}
