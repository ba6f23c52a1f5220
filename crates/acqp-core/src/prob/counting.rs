//! Dataset-backed probability estimation by counting (§2.3, §5).
//!
//! A context holds the sorted row ids of the historical tuples that
//! satisfy the context's range constraints — the set
//! `D(R_1, …, R_n)` of §5. Refining a context by one more range filters
//! the parent's rows with a single column scan, mirroring the paper's
//! incremental per-attribute index construction. Truth bitmasks over the
//! query's predicates are computed once per (dataset, query) pair and
//! cached, so building a conditioned joint truth distribution is a gather
//! plus an aggregation.

use std::cell::RefCell;
use std::rc::Rc;

use acqp_obs::{Counter, Recorder};

use crate::attr::AttrId;
use crate::dataset::Dataset;
use crate::prob::{Estimator, TruthTable};
use crate::query::Query;
use crate::range::{Range, Ranges};

/// A conditioned view of the dataset: range constraints plus the rows
/// that satisfy them.
#[derive(Debug, Clone)]
pub struct CountingCtx {
    ranges: Ranges,
    rows: Rc<Vec<u32>>,
}

impl CountingCtx {
    /// Row ids backing this context.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }
}

/// Estimates every probability by counting a historical [`Dataset`].
pub struct CountingEstimator<'d> {
    data: &'d Dataset,
    root_ranges: Ranges,
    /// Memoized per-row truth bitmasks for the most recent query. A
    /// `RefCell` has no poisoning, so the cache stays usable after a
    /// panic that the fallback ladder catches mid-search.
    mask_cache: RefCell<Option<(Query, Rc<Vec<u64>>)>>,
    /// `estimator.mask_cache.hit` — lookups served from the cache.
    cache_hit: Counter,
    /// `estimator.mask_cache.miss` — lookups that rebuilt the masks.
    cache_miss: Counter,
}

impl<'d> CountingEstimator<'d> {
    /// Builds an estimator over `data`. The schema is implied by the
    /// dataset's width and per-column maxima; use
    /// [`CountingEstimator::with_ranges`] to pass explicit domains.
    pub fn new(data: &'d Dataset) -> Self {
        // Domain sizes are recovered from the dataset's columns; planners
        // always pass schema-derived root ranges through `refine`, so the
        // root here only needs to admit every row.
        let ranges = Ranges::from_vec(
            (0..data.width())
                .map(|a| {
                    let hi = data.column(a).iter().copied().max().unwrap_or(0);
                    Range::new(0, hi)
                })
                .collect(),
        );
        Self::with_ranges(data, ranges)
    }

    /// Builds an estimator whose root context carries the given (full)
    /// ranges — normally `Ranges::root(schema)`.
    pub fn with_ranges(data: &'d Dataset, ranges: Ranges) -> Self {
        debug_assert_eq!(ranges.len(), data.width());
        CountingEstimator {
            data,
            root_ranges: ranges,
            mask_cache: RefCell::new(None),
            cache_hit: Counter::new(),
            cache_miss: Counter::new(),
        }
    }

    /// Registers the mask-cache hit/miss counters
    /// (`estimator.mask_cache.hit` / `.miss`) on `rec`, replacing the
    /// detached defaults.
    pub fn with_recorder(mut self, rec: &Recorder) -> Self {
        self.cache_hit = rec.counter("estimator.mask_cache.hit");
        self.cache_miss = rec.counter("estimator.mask_cache.miss");
        self
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'d Dataset {
        self.data
    }

    /// The cached per-row truth masks, if a query has been estimated:
    /// the pair `(query, masks)` where `masks[row]` is
    /// [`Query::truth_mask`] of that historical row. This is the
    /// estimator's learned statistic worth checkpointing — recomputing
    /// it is one full pass over the dataset per query.
    pub fn cached_masks(&self) -> Option<(Query, Vec<u64>)> {
        let cache = self.mask_cache.borrow();
        cache.as_ref().map(|(q, m)| (q.clone(), m.as_ref().clone()))
    }

    /// Seeds the mask cache from a recovered checkpoint. The masks must
    /// have been produced by [`CountingEstimator::cached_masks`] over a
    /// bit-identical dataset; a length mismatch means the checkpoint does
    /// not describe this dataset and is ignored (the cache will simply
    /// rebuild on first use).
    pub fn seed_masks(&self, query: Query, masks: Vec<u64>) -> bool {
        if masks.len() != self.data.len() {
            return false;
        }
        *self.mask_cache.borrow_mut() = Some((query, Rc::new(masks)));
        true
    }

    fn masks_for(&self, query: &Query) -> Rc<Vec<u64>> {
        let mut cache = self.mask_cache.borrow_mut();
        if let Some((q, masks)) = cache.as_ref() {
            if q == query {
                self.cache_hit.incr(1);
                return Rc::clone(masks);
            }
        }
        self.cache_miss.incr(1);
        let masks: Vec<u64> =
            (0..self.data.len()).map(|row| query.truth_mask(|a| self.data.value(row, a))).collect();
        let masks = Rc::new(masks);
        *cache = Some((query.clone(), Rc::clone(&masks)));
        masks
    }
}

impl Estimator for CountingEstimator<'_> {
    type Ctx = CountingCtx;

    fn root(&self) -> CountingCtx {
        CountingCtx {
            ranges: self.root_ranges.clone(),
            rows: Rc::new((0..self.data.len() as u32).collect()),
        }
    }

    fn refine(&self, ctx: &CountingCtx, attr: AttrId, r: Range) -> CountingCtx {
        debug_assert!(ctx.ranges.get(attr).contains_range(r), "refine must narrow the range");
        let col = self.data.column(attr);
        let rows: Vec<u32> =
            ctx.rows.iter().copied().filter(|&i| r.contains(col[i as usize])).collect();
        CountingCtx { ranges: ctx.ranges.with(attr, r), rows: Rc::new(rows) }
    }

    fn ranges<'c>(&self, ctx: &'c CountingCtx) -> &'c Ranges {
        &ctx.ranges
    }

    fn mass(&self, ctx: &CountingCtx) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            ctx.rows.len() as f64 / self.data.len() as f64
        }
    }

    fn support(&self, ctx: &CountingCtx) -> usize {
        ctx.rows.len()
    }

    fn hist(&self, ctx: &CountingCtx, attr: AttrId) -> Vec<f64> {
        let r = ctx.ranges.get(attr);
        let k = usize::from(r.hi()) + 1;
        let mut h = vec![0.0f64; k];
        if ctx.rows.is_empty() {
            // Uniform fallback over the context's range (§5's estimates
            // are undefined with no support; planners treat such branches
            // as zero-mass anyway).
            let w = 1.0 / f64::from(r.width() as u16);
            for v in r.lo()..=r.hi() {
                h[usize::from(v)] = w;
            }
            return h;
        }
        let col = self.data.column(attr);
        let inc = 1.0 / ctx.rows.len() as f64;
        for &row in ctx.rows.iter() {
            let v = col[row as usize];
            debug_assert!(r.contains(v));
            h[usize::from(v)] += inc;
        }
        h
    }

    fn truth_table(&self, ctx: &CountingCtx, query: &Query) -> TruthTable {
        let masks = self.masks_for(query);
        TruthTable::from_masks(query.len(), ctx.rows.iter().map(|&row| masks[row as usize]))
    }

    fn truth_by_value(&self, ctx: &CountingCtx, attr: AttrId, query: &Query) -> Vec<TruthTable> {
        use crate::prob::TruthAccum;
        let r = ctx.ranges.get(attr);
        let masks = self.masks_for(query);
        let col = self.data.column(attr);
        let mut accs: Vec<TruthAccum> = (0..r.width()).map(|_| TruthAccum::new()).collect();
        for &row in ctx.rows.iter() {
            let v = col[row as usize];
            debug_assert!(r.contains(v));
            accs[usize::from(v - r.lo())].add(masks[row as usize], 1.0);
        }
        accs.into_iter().map(|a| a.into_table(query.len())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{Attribute, Schema};
    use crate::query::Pred;

    fn setup() -> (Schema, Dataset) {
        let schema = Schema::new(vec![
            Attribute::new("a", 4, 100.0),
            Attribute::new("b", 4, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        // t=0 rows: a small, b large. t=1 rows: a large, b small.
        let mut rows = Vec::new();
        for i in 0..4u16 {
            rows.push(vec![i % 2, 2 + i % 2, 0]);
            rows.push(vec![2 + i % 2, i % 2, 1]);
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        (schema, data)
    }

    #[test]
    fn root_spans_everything() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        assert_eq!(est.support(&root), 8);
        assert_eq!(est.mass(&root), 1.0);
        assert_eq!(est.ranges(&root).get(0), Range::full(4));
    }

    #[test]
    fn refine_filters_rows() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        let t0 = est.refine(&root, 2, Range::new(0, 0));
        assert_eq!(est.support(&t0), 4);
        assert_eq!(est.mass(&t0), 0.5);
        // All t=0 rows have small a.
        let small_a = est.refine(&t0, 0, Range::new(0, 1));
        assert_eq!(est.support(&small_a), 4);
        let large_a = est.refine(&t0, 0, Range::new(2, 3));
        assert_eq!(est.support(&large_a), 0);
    }

    #[test]
    fn hist_is_normalized_and_conditional() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        let h = est.hist(&root, 0);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((h[0] - 0.25).abs() < 1e-12);

        let t1 = est.refine(&root, 2, Range::new(1, 1));
        let h = est.hist(&t1, 0);
        assert_eq!(h[0], 0.0);
        assert!((h[2] - 0.5).abs() < 1e-12);
        assert!((h[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hist_uniform_fallback_on_empty() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        let t0 = est.refine(&root, 2, Range::new(0, 0));
        let empty = est.refine(&t0, 0, Range::new(2, 3));
        assert_eq!(est.support(&empty), 0);
        let h = est.hist(&empty, 0);
        assert!((h[2] - 0.5).abs() < 1e-12);
        assert!((h[3] - 0.5).abs() < 1e-12);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn prob_below_matches_counts() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        // P(a < 2) = 1/2 overall.
        assert!((est.prob_below(&root, 0, 2) - 0.5).abs() < 1e-12);
        let t1 = est.refine(&root, 2, Range::new(1, 1));
        // Given t=1, a is always >= 2.
        assert_eq!(est.prob_below(&t1, 0, 2), 0.0);
    }

    #[test]
    fn truth_table_counts_patterns() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let q = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 0, 1)]).unwrap();
        let root = est.root();
        let t = est.truth_table(&root, &q);
        assert_eq!(t.total(), 8.0);
        // t=0 rows satisfy pred0 only (mask 01); t=1 rows satisfy pred1
        // only (mask 10): perfectly anti-correlated.
        assert!((t.prob_all(0b01) - 0.5).abs() < 1e-12);
        assert!((t.prob_all(0b10) - 0.5).abs() < 1e-12);
        assert_eq!(t.prob_all(0b11), 0.0);

        // Conditioned on t=1, pred1 always true.
        let t1 = est.refine(&root, 2, Range::new(1, 1));
        let tt = est.truth_table(&t1, &q);
        assert!((tt.prob_all(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mask_cache_reused_and_invalidated() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let q1 = Query::new(vec![Pred::in_range(0, 0, 1)]).unwrap();
        let q2 = Query::new(vec![Pred::in_range(1, 0, 1)]).unwrap();
        let root = est.root();
        let a = est.truth_table(&root, &q1);
        let b = est.truth_table(&root, &q2);
        let a2 = est.truth_table(&root, &q1);
        assert_eq!(a, a2);
        assert!((a.prob_all(0b1) - 0.5).abs() < 1e-12);
        assert!((b.prob_all(0b1) - 0.5).abs() < 1e-12);
    }

    /// Satellite check for PR 2: planning the same query repeatedly must
    /// serve truth masks from the cache, and the recorder must see it.
    #[test]
    fn mask_cache_hit_rate_reported_through_recorder() {
        use acqp_obs::{NoopSink, Recorder};

        let (schema, data) = setup();
        let rec = Recorder::new(std::sync::Arc::new(NoopSink));
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema)).with_recorder(&rec);
        let q = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 0, 1)]).unwrap();
        let root = est.root();
        for _ in 0..3 {
            est.truth_table(&root, &q);
            est.truth_by_value(&root, 0, &q);
        }
        let snap = rec.drain();
        assert_eq!(snap.counter("estimator.mask_cache.miss"), 1);
        assert_eq!(snap.counter("estimator.mask_cache.hit"), 5);
    }

    /// Checkpoint support: exported masks re-seeded into a fresh
    /// estimator must reproduce the same truth tables without a rebuild.
    #[test]
    fn cached_masks_round_trip_bitwise() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let q = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 0, 1)]).unwrap();
        assert!(est.cached_masks().is_none());
        let root = est.root();
        let before = est.truth_table(&root, &q);
        let (cq, masks) = est.cached_masks().unwrap();
        assert_eq!(cq, q);

        use acqp_obs::{NoopSink, Recorder};
        let rec = Recorder::new(std::sync::Arc::new(NoopSink));
        let fresh =
            CountingEstimator::with_ranges(&data, Ranges::root(&schema)).with_recorder(&rec);
        assert!(fresh.seed_masks(cq, masks));
        let after = fresh.truth_table(&fresh.root(), &q);
        assert_eq!(before, after);
        // The seeded cache serves the query without a single miss.
        let snap = rec.drain();
        assert_eq!(snap.counter("estimator.mask_cache.miss"), 0);
        assert_eq!(snap.counter("estimator.mask_cache.hit"), 1);

        // Masks for a different dataset shape are rejected, not trusted.
        let thin = Dataset::from_rows(&schema, vec![vec![0, 0, 0]]).unwrap();
        let other = CountingEstimator::with_ranges(&thin, Ranges::root(&schema));
        assert!(!other.seed_masks(q, vec![0; 99]));
    }

    /// The fallback ladder catches a panicking rung and plans on with
    /// the same estimator, so a panic while the mask cache is borrowed
    /// must leave the cache usable and its masks intact.
    #[test]
    fn mask_cache_survives_a_panicking_borrower() {
        let (schema, data) = setup();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let q = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 0, 1)]).unwrap();
        let masks_of = |q: &Query| -> Vec<u64> {
            (0..data.len()).map(|row| q.truth_mask(|a| data.value(row, a))).collect()
        };
        let root = est.root();
        let before = est.truth_table(&root, &q);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _cache = est.mask_cache.borrow_mut();
            panic!("a planner rung died holding the mask cache");
        }));
        assert!(result.is_err());
        assert_eq!(est.cached_masks(), Some((q.clone(), masks_of(&q))));
        assert_eq!(*est.masks_for(&q), masks_of(&q));
        assert_eq!(est.truth_table(&root, &q), before);
        // A different query still rebuilds the cache.
        let q2 = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
        assert_eq!(*est.masks_for(&q2), masks_of(&q2));
        assert_eq!(est.cached_masks(), Some((q2.clone(), masks_of(&q2))));
    }

    #[test]
    fn empty_dataset() {
        let schema = Schema::new(vec![Attribute::new("a", 4, 1.0)]).unwrap();
        let data = Dataset::from_rows(&schema, vec![]).unwrap();
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        assert_eq!(est.mass(&root), 0.0);
        assert_eq!(est.support(&root), 0);
        let h = est.hist(&root, 0);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
