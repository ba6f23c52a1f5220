//! [`GmEstimator`] — the [`Estimator`] implementation backed by a
//! Chow–Liu tree.
//!
//! Histograms and split probabilities are *exact* under the model (one
//! message pass); joint truth-distributions over query predicates are
//! estimated from a fresh conditional sample of fixed size, so — unlike
//! the counting estimator — the effective support does **not** halve
//! with every conditioning split (§7's motivation).

use std::hash::{Hash, Hasher};
use std::rc::Rc;

use acqp_core::{AttrId, Estimator, Query, Range, Ranges, TruthTable};
use acqp_obs::{Counter, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree::ChowLiuTree;

/// Context: range evidence plus a conditional sample drawn under it.
#[derive(Debug, Clone)]
pub struct GmCtx {
    ranges: Ranges,
    mass: f64,
    /// Exact conditioned marginals per attribute.
    marginals: Rc<Vec<Vec<f64>>>,
    /// Column-major conditional sample (`samples[attr][i]`).
    samples: Rc<Vec<Vec<u16>>>,
}

impl GmCtx {
    /// The conditional sample backing truth-table estimates.
    pub fn sample_len(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }
}

/// Model-based probability estimator over a fitted [`ChowLiuTree`].
pub struct GmEstimator<'t> {
    tree: &'t ChowLiuTree,
    root_ranges: Ranges,
    sample_size: usize,
    seed: u64,
    /// `estimator.gm.ctx_built` — conditioned contexts materialized
    /// (each costs one message pass plus `sample_size` draws).
    ctx_built: Counter,
}

impl<'t> GmEstimator<'t> {
    /// Creates an estimator drawing `sample_size` tuples per subproblem.
    pub fn new(tree: &'t ChowLiuTree, root_ranges: Ranges, sample_size: usize, seed: u64) -> Self {
        assert_eq!(tree.len(), root_ranges.len());
        GmEstimator { tree, root_ranges, sample_size, seed, ctx_built: Counter::new() }
    }

    /// Registers the context-build counter (`estimator.gm.ctx_built`) on
    /// `rec`, replacing the detached default.
    pub fn with_recorder(mut self, rec: &Recorder) -> Self {
        self.ctx_built = rec.counter("estimator.gm.ctx_built");
        self
    }

    fn build_ctx(&self, ranges: Ranges) -> GmCtx {
        self.ctx_built.incr(1);
        let cond = self.tree.condition(&ranges);
        let mass = cond.mass();
        let n = self.tree.len();
        let mut cols: Vec<Vec<u16>> = vec![Vec::with_capacity(self.sample_size); n];
        if mass > 0.0 {
            // Deterministic per-subproblem stream: the same ranges always
            // yield the same sample, so planning is reproducible.
            let mut h = std::collections::hash_map::DefaultHasher::new();
            ranges.hash(&mut h);
            let mut rng = StdRng::seed_from_u64(self.seed ^ h.finish());
            let mut buf = vec![0u16; n];
            for _ in 0..self.sample_size {
                cond.sample_into(&mut rng, &mut buf);
                for (col, &v) in cols.iter_mut().zip(&buf) {
                    col.push(v);
                }
            }
        }
        let marginals = (0..n).map(|i| cond.marginal(i).to_vec()).collect();
        GmCtx { ranges, mass, marginals: Rc::new(marginals), samples: Rc::new(cols) }
    }
}

impl Estimator for GmEstimator<'_> {
    type Ctx = GmCtx;

    fn root(&self) -> GmCtx {
        self.build_ctx(self.root_ranges.clone())
    }

    fn refine(&self, ctx: &GmCtx, attr: AttrId, r: Range) -> GmCtx {
        debug_assert!(ctx.ranges.get(attr).contains_range(r));
        self.build_ctx(ctx.ranges.with(attr, r))
    }

    fn ranges<'c>(&self, ctx: &'c GmCtx) -> &'c Ranges {
        &ctx.ranges
    }

    fn mass(&self, ctx: &GmCtx) -> f64 {
        ctx.mass
    }

    fn support(&self, ctx: &GmCtx) -> usize {
        if ctx.mass > 0.0 {
            ctx.sample_len()
        } else {
            0
        }
    }

    fn hist(&self, ctx: &GmCtx, attr: AttrId) -> Vec<f64> {
        // Exact under the model; truncated to the context's range.
        let r = ctx.ranges.get(attr);
        let mut h = ctx.marginals[attr].clone();
        h.truncate(usize::from(r.hi()) + 1);
        h[..usize::from(r.lo())].fill(0.0);
        let z: f64 = h.iter().sum();
        if z > 0.0 {
            h.iter_mut().for_each(|p| *p /= z);
        } else {
            let w = 1.0 / f64::from(r.width() as u16);
            for v in r.lo()..=r.hi() {
                h[usize::from(v)] = w;
            }
        }
        h
    }

    fn truth_table(&self, ctx: &GmCtx, query: &Query) -> TruthTable {
        let s = ctx.sample_len();
        TruthTable::from_masks(query.len(), (0..s).map(|i| query.truth_mask(|a| ctx.samples[a][i])))
    }

    fn truth_by_value(&self, ctx: &GmCtx, attr: AttrId, query: &Query) -> Vec<TruthTable> {
        // Bucket the existing conditional sample by the split attribute,
        // exactly like the counting estimator buckets rows — one pass
        // instead of one fresh conditioning per candidate value.
        use acqp_core::TruthAccum;
        let r = ctx.ranges.get(attr);
        let col = &ctx.samples[attr];
        let mut accs: Vec<TruthAccum> = (0..r.width()).map(|_| TruthAccum::new()).collect();
        for (i, &v) in col.iter().enumerate() {
            debug_assert!(r.contains(v));
            let mask = query.truth_mask(|a| ctx.samples[a][i]);
            accs[usize::from(v - r.lo())].add(mask, 1.0);
        }
        accs.into_iter().map(|a| a.into_table(query.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_core::prelude::*;
    use acqp_core::{Attribute, Schema};

    /// Day/night data: t predicts a and b strongly.
    fn setup() -> (Schema, Dataset) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 10.0),
            Attribute::new("b", 2, 10.0),
            Attribute::new("t", 2, 0.5),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..200u16 {
            let t = i % 2;
            let a = if i % 10 == 0 { 1 - t } else { t };
            let b = if i % 14 == 0 { t } else { 1 - t };
            rows.push(vec![a, b, t]);
        }
        (schema.clone(), Dataset::from_rows(&schema, rows).unwrap())
    }

    #[test]
    fn estimator_contract_basics() {
        let (schema, data) = setup();
        let tree = ChowLiuTree::fit(&schema, &data, 0.5);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 1000, 7);
        let root = est.root();
        assert!((est.mass(&root) - 1.0).abs() < 1e-9);
        assert_eq!(est.support(&root), 1000);
        let h = est.hist(&root, 0);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        let night = est.refine(&root, 2, Range::new(0, 0));
        assert!((est.mass(&night) - 0.5).abs() < 0.05);
        // Support does NOT halve — the §7 point of using a model.
        assert_eq!(est.support(&night), 1000);
        // Given t=0, a is mostly 0. (The tree may route the a–t
        // dependence through b, so the model slightly underestimates the
        // empirical 0.9.)
        let h = est.hist(&night, 0);
        assert!(h[0] > 0.7, "P(a=0|t=0) = {}", h[0]);
    }

    #[test]
    fn contexts_are_deterministic() {
        let (schema, data) = setup();
        let tree = ChowLiuTree::fit(&schema, &data, 0.5);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 500, 7);
        let a = est.root();
        let b = est.root();
        assert_eq!(a.samples, b.samples);
        let ra = est.refine(&a, 2, Range::new(1, 1));
        let rb = est.refine(&b, 2, Range::new(1, 1));
        assert_eq!(ra.samples, rb.samples);
    }

    #[test]
    fn truth_table_tracks_model_probabilities() {
        let (schema, data) = setup();
        let tree = ChowLiuTree::fit(&schema, &data, 0.5);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 4000, 7);
        let q = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let root = est.root();
        let tt = est.truth_table(&root, &q);
        // a=1 and b=1 are strongly anti-correlated (a tracks t, b tracks
        // 1-t): P(both) is small.
        assert!(tt.prob_all(0b11) < 0.15, "P(both) = {}", tt.prob_all(0b11));
        // a = t except for the 20 flipped even rows, so P(a=1) is
        // (100 + 20)/200 = 0.6 exactly; allow ~5σ of sampling noise on
        // the 4000-tuple estimate.
        assert!((tt.marginal(0) - 0.6).abs() < 0.04, "marginal {}", tt.marginal(0));
    }

    #[test]
    fn truth_by_value_is_consistent_with_truth_table() {
        let (schema, data) = setup();
        let tree = ChowLiuTree::fit(&schema, &data, 0.5);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 2000, 7);
        let q = Query::new(vec![Pred::in_range(0, 1, 1)]).unwrap();
        let root = est.root();
        let by_v = est.truth_by_value(&root, 2, &q);
        assert_eq!(by_v.len(), 2);
        let total: f64 = by_v.iter().map(|t| t.total()).sum();
        assert_eq!(total, 2000.0);
        let whole = est.truth_table(&root, &q);
        // Recombining buckets reproduces the whole-table marginal.
        let p_recombined = (by_v[0].weight_superset(1) + by_v[1].weight_superset(1)) / total;
        assert!((p_recombined - whole.marginal(0)).abs() < 1e-12);
    }

    #[test]
    fn planner_runs_end_to_end_with_gm_estimator() {
        let (schema, data) = setup();
        let tree = ChowLiuTree::fit(&schema, &data, 0.5);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 2000, 7);
        let q = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        let plan = GreedyPlanner::new(4).plan(&schema, &q, &est).unwrap();
        let rep = measure(&plan, &q, &schema, &data);
        assert!(rep.all_correct);
        // The model should discover the conditioning attribute t, making
        // the plan cheaper than the naive order's empirical cost.
        let naive = NaivePlanner::plan(
            &schema,
            &q,
            &CountingEstimator::with_ranges(&data, Ranges::root(&schema)),
        )
        .unwrap();
        let naive_rep = measure(&naive, &q, &schema, &data);
        assert!(
            rep.mean_cost <= naive_rep.mean_cost + 1e-9,
            "gm-planned {} vs naive {}",
            rep.mean_cost,
            naive_rep.mean_cost
        );
    }

    #[test]
    fn zero_mass_context_support_is_zero() {
        let (schema, data) = setup();
        // alpha = 0 and t never takes value... both values occur; force a
        // zero-mass region by conditioning a to 1 and b to 1 and t to 0
        // with alpha=0 data that lacks such rows? Row (a=1,b=1,t=0)
        // occurs when i%10==0 fails... build directly instead:
        let rows: Vec<Vec<u16>> = (0..100).map(|i| vec![i % 2, i % 2, i % 2]).collect();
        let data2 = Dataset::from_rows(&schema, rows).unwrap();
        let tree = ChowLiuTree::fit(&schema, &data2, 0.0);
        let est = GmEstimator::new(&tree, Ranges::root(&schema), 100, 3);
        let root = est.root();
        let c = est.refine(&root, 0, Range::new(1, 1));
        let c = est.refine(&c, 1, Range::new(0, 0));
        assert_eq!(est.mass(&c), 0.0);
        assert_eq!(est.support(&c), 0);
        let _ = data;
    }
}
