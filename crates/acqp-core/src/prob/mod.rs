//! Probability estimation from historical data (§2.3, §5).
//!
//! The planners need two families of quantities at every subproblem
//! `Subproblem(φ, R_1, …, R_n)`:
//!
//! 1. *Range probabilities* `P(X_i ∈ [a, x−1] | R_1, …, R_n)` — obtained
//!    from a per-attribute normalized histogram of the conditioned
//!    distribution, accumulated incrementally (Eq. 7).
//! 2. *Joint truth distributions* over the rediscretized query
//!    predicates `X'_1, …, X'_m` (§4.1.2, §5.2) — represented here as a
//!    weighted [`TruthTable`] of predicate truth bitmasks.
//!
//! The [`Estimator`] trait abstracts over where those quantities come
//! from: [`CountingEstimator`] answers them by counting a historical
//! dataset exactly as §5 describes; the `acqp-gm` crate answers them
//! from a Chow–Liu tree model (§7, "Graphical Models").

mod counting;
mod independence;
mod truth;

pub use counting::{CountingCtx, CountingEstimator};
pub use independence::{IndepCtx, IndependenceEstimator};
pub use truth::{TruthAccum, TruthTable};

use crate::attr::AttrId;
use crate::query::Query;
use crate::range::{Range, Ranges};

/// Legacy alias retained for handle-style call sites; contexts are owned
/// values (`Estimator::Ctx`), not ids.
pub type CtxId = usize;

/// A conditioned probability model over the schema's attributes.
///
/// A `Ctx` value represents the model conditioned on a conjunction of
/// range constraints — one subproblem of the planners' recursion.
/// Contexts are refined functionally: [`Estimator::refine`] returns a new
/// context conditioned on one additional range.
///
/// Plan search runs on one thread, so an estimator is single-owner: it
/// may keep interior-mutable caches (`RefCell`) and single-owner
/// instruments, and its contexts may share data through `Rc`.
pub trait Estimator {
    /// Conditioning context; cheap to clone.
    type Ctx: Clone;

    /// The unconditioned model (every attribute spans its full domain).
    fn root(&self) -> Self::Ctx;

    /// Conditions `ctx` on `X_attr ∈ r`. `r` must be a subset of the
    /// context's current range for `attr`.
    fn refine(&self, ctx: &Self::Ctx, attr: AttrId, r: Range) -> Self::Ctx;

    /// The range constraints defining `ctx`.
    fn ranges<'c>(&self, ctx: &'c Self::Ctx) -> &'c Ranges;

    /// `P(R_1, …, R_n)` — probability mass of this context relative to
    /// the root; the leaf-priority weight of Fig. 7.
    fn mass(&self, ctx: &Self::Ctx) -> f64;

    /// Number of samples (or effective samples) backing the context.
    /// Zero means the conditioned distribution has no support and
    /// histograms fall back to uniform.
    fn support(&self, ctx: &Self::Ctx) -> usize;

    /// Normalized histogram `P(X_attr = v | ctx)` over the full domain
    /// `0..K_attr` (zero outside the context's range). When the context
    /// has no support the histogram is uniform over the range.
    fn hist(&self, ctx: &Self::Ctx, attr: AttrId) -> Vec<f64>;

    /// Weighted joint truth distribution of the query's predicates
    /// conditioned on `ctx` (§5.2's rediscretized joint histogram).
    fn truth_table(&self, ctx: &Self::Ctx, query: &Query) -> TruthTable;

    /// For every value `v` in the context's range of `attr`, the joint
    /// truth distribution of the query's predicates conditioned on
    /// `ctx ∧ (X_attr = v)`, indexed by `v − range.lo`.
    ///
    /// The greedy split search (Fig. 6) sweeps candidate cuts left to
    /// right and derives each side's truth table by prefix-merging these
    /// per-value tables, avoiding a context refinement per candidate.
    /// The default implementation refines once per value; counting
    /// estimators override it with a single pass.
    fn truth_by_value(&self, ctx: &Self::Ctx, attr: AttrId, query: &Query) -> Vec<TruthTable> {
        let r = self.ranges(ctx).get(attr);
        (r.lo()..=r.hi())
            .map(|v| {
                let child = self.refine(ctx, attr, Range::new(v, v));
                self.truth_table(&child, query)
            })
            .collect()
    }

    /// `P(X_attr ∈ [range.lo, cut−1] | ctx)` — the split probability
    /// `P_{<x}` of Figs. 5–6, derived from [`Estimator::hist`] by the
    /// incremental rule of Eq. (7).
    fn prob_below(&self, ctx: &Self::Ctx, attr: AttrId, cut: u16) -> f64 {
        let h = self.hist(ctx, attr);
        let r = self.ranges(ctx).get(attr);
        h[usize::from(r.lo())..usize::from(cut)].iter().sum()
    }
}
